(* whatif-mix: single structural edits re-solved incrementally from a
   solved base, the way `powerlim what-if` runs them: each edit goes
   through Core.Event_lp.edit_prepared from the base handle with the
   base's optimal basis (the Lp.Edit bordered-update and dual-repair
   path).  Bases: CoMD 16x10 and BT 8x10 at 40 W/socket, prepared with
   ~presolve:false so the basis maps across edits.

   A pass holds 20 edits in fixed proportions — 70% Perturb_task, 15%
   Fail_socket, 15% Drop_rank — drawn from --seed and run in seeded
   order; the run repeats passes.  The fast kind sets the median and the
   slow one the 90th percentile, so fixing one cannot hide a regression
   in the other.  The bases are prepared without starting the domain
   pool, as `powerlim what-if` does: idle pool domains slowed every edit
   about 2.4x on two cores (stop-the-world minor collections). *)

type kind = Perturb | Fail | Drop

let kind_name = function Perturb -> "perturb" | Fail -> "fail" | Drop -> "drop"

type base = {
  sc : Core.Scenario.t;
  pz : Core.Event_lp.prepared;
  basis : Lp.Revised.basis option;
  job_cap : float;
}

type edit = { base : int; kind : kind; edit : Core.Event_lp.domain_edit }

(* What an op answered, without the schedule: holding every op's
   schedule would grow the live heap over the run, and with it the work
   of every major collection inside the timed edits. *)
type answer = Objective of float | Infeasible | Failed

type st = {
  bases : base array;
  rng : Random.State.t;  (** draws each pass's order *)
  perturbs : edit array;  (** the run's perturbations, taken 14 a pass in turn *)
  mutable next : int;  (** index in [perturbs] of the next pass's first *)
  fixed : edit list;  (** the failures and drops of every pass *)
  firsts : (edit, Core.Event_lp.outcome) Hashtbl.t;
      (** each distinct edit's first outcome, replayed by the check *)
  mutable answers : (edit * answer) list;  (** every op *)
}

let cap = 40.0

(* (app, ranks, iters) of the two bases. *)
let bases ~tiny =
  let r16, r8, it = if tiny then (4, 4, 3) else (16, 8, 10) in
  [ (Workloads.Apps.CoMD, r16, it); (Workloads.Apps.BT, r8, it) ]

let prepare_base (app, ranks, iters) =
  let params = { Workloads.Apps.nranks = ranks; iterations = iters; seed = 42; scale = 1.0 } in
  let job_cap = cap *. Float.of_int ranks in
  let sc = Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params)) in
  let pz = Core.Event_lp.prepare ~presolve:false sc ~power_cap:job_cap in
  match Core.Event_lp.solve_prepared pz ~power_cap:job_cap with
  | Core.Event_lp.Schedule _, basis -> { sc; pz; basis; job_cap }
  | (Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _), _ ->
      failwith "whatif-mix: base scenario has no schedule"

let draw_fail rng (sc : Core.Scenario.t) =
  Core.Event_lp.Fail_socket (Random.State.int rng sc.Core.Scenario.graph.Dag.Graph.nranks)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Perturbations touch only tasks with a non-empty frontier (zero-work
   MPI transitions have no configuration to perturb). *)
let live_tasks (sc : Core.Scenario.t) =
  let fr = sc.Core.Scenario.frontiers in
  List.filter (fun t -> Array.length fr.(t) > 0) (List.init (Array.length fr) Fun.id)

(* A perturbation of one point of [tid]'s frontier: duration and power
   each scaled by 0.8-1.2. *)
let perturb_task rng (sc : Core.Scenario.t) tid =
  let fr = sc.Core.Scenario.frontiers in
  let point = Random.State.int rng (Array.length fr.(tid)) in
  let p = fr.(tid).(point) in
  let factor () = 0.8 +. Random.State.float rng 0.4 in
  let duration = p.Pareto.Point.duration *. factor () in
  let power = p.Pareto.Point.power *. factor () in
  Core.Event_lp.Perturb_task { tid; point; duration; power }

let draw_perturb rng sc =
  let live = live_tasks sc in
  perturb_task rng sc (List.nth live (Random.State.int rng (List.length live)))

(* A pass: 14 perturbations of CoMD tasks and a fixed set — 2 CoMD and
   1 BT socket failures drawn once from the seed, and drops of fixed
   ranks.  Proportions and placement keep both percentiles inside one
   kind whatever the seed: CoMD perturbations (5-10 ms) hold the median,
   and the 90th percentile falls between the two CoMD drops.
   Perturbations are 70% of the pass, not 60%, because the overall
   median sits at the 83rd percentile of perturbation times with 12 of
   20 and moved 28% between runs; with 14 it sits at the 71st.  Drop
   targets are fixed because a drop's cost depends on the rank (430 or
   580 ms on CoMD 16x10, 1.8 or 2.5 s on BT 8x10), which moved the 90th
   percentile by 20% between seeds; the first and last CoMD rank cost
   about the same.

   The run's perturbations are 56 distinct tasks drawn without
   replacement (fewer when the scenario has fewer live tasks), so the
   median spreads over many tasks — with 14 per run it moved 25% between
   seeds — while the check solves each cold only once. *)
let perturb_set = 56

let perturbs rng (bases : base array) =
  let sc = bases.(0).sc in
  let live = shuffle rng (Array.of_list (live_tasks sc)) in
  Array.map
    (fun tid -> { base = 0; kind = Perturb; edit = perturb_task rng sc tid })
    (Array.sub live 0 (min perturb_set (Array.length live)))

let pass_perturbs st =
  let n = Array.length st.perturbs in
  let pass = List.init 14 (fun i -> st.perturbs.((st.next + i) mod n)) in
  st.next <- (st.next + 14) mod n;
  pass

let fixed rng (bases : base array) =
  let fail b = { base = b; kind = Fail; edit = draw_fail rng bases.(b).sc } in
  let drop b r = { base = b; kind = Drop; edit = Core.Event_lp.Drop_rank r } in
  let last b = bases.(b).sc.Core.Scenario.graph.Dag.Graph.nranks - 1 in
  [ fail 0; fail 0; fail 1; drop 0 0; drop 0 (last 0); drop 1 (last 1) ]

(* The heap is compacted after set-up so that every run starts
   measuring from the same heap, whatever set-up left behind. *)
let setup (ctx : Harness.ctx) =
  let bases, samples =
    Harness.repeat_setup (fun () ->
        Putil.Cache.clear_all ();
        Array.of_list (List.map prepare_base (bases ~tiny:ctx.Harness.tiny)))
  in
  let rng = Random.State.make [| ctx.Harness.seed; 0x3d1 |] in
  let perturbs = perturbs rng bases in
  let st =
    {
      bases;
      rng;
      perturbs;
      next = 0;
      fixed = fixed rng bases;
      firsts = Hashtbl.create 64;
      answers = [];
    }
  in
  Gc.compact ();
  (st, samples)

let record st e (o : Core.Event_lp.outcome) =
  if not (Hashtbl.mem st.firsts e) then Hashtbl.replace st.firsts e o;
  let a =
    match o with
    | Core.Event_lp.Schedule s -> Objective s.Core.Event_lp.objective
    | Core.Event_lp.Infeasible -> Infeasible
    | Core.Event_lp.Solver_failure _ -> Failed
  in
  st.answers <- (e, a) :: st.answers

let measure _ctx st ~seconds =
  let lat = ref [] and failed = ref 0 in
  let _, wall =
    Harness.loop ~seconds (fun _ ->
        Array.iter
          (fun e ->
            let b = st.bases.(e.base) in
            let t0 = Harness.now () in
            match
              Harness.span "core.edit" (fun () ->
                  Core.Event_lp.edit_prepared ?warm:b.basis b.pz [ e.edit ])
            with
            | o, _, _ ->
                lat := (e.kind, 1000.0 *. (Harness.now () -. t0)) :: !lat;
                record st e o
            | exception ex ->
                incr failed;
                Fmt.epr "whatif-mix: %a: %s@." Core.Event_lp.pp_domain_edit e.edit
                  (Printexc.to_string ex))
          (shuffle st.rng (Array.of_list (pass_perturbs st @ st.fixed))))
  in
  let p50 kind =
    Stat.median (List.filter_map (fun (k, ms) -> if k = kind then Some ms else None) !lat)
  in
  let layer =
    List.map
      (fun k -> (Printf.sprintf "core.edit_%s_p50_ms" (kind_name k), p50 k))
      [ Perturb; Fail; Drop ]
  in
  Harness.phase ~failed:!failed ~layer ~units:(List.length !lat + !failed) ~wall_s:wall
    (List.map snd !lat)

(* Every answer must match a fresh cold solve of the edited scenario to
   1e-9 relative, and each distinct edit's schedule must replay within
   the cap.  The cold solve keeps the base's event order: re-deriving it
   from the edited frontiers builds a different LP (at 4 ranks x 3
   iterations a failed socket then bounds 16.13885 s, the edit 16.13895
   s).  Drops are not replayed: the simulator still bills the dropped
   rank's socket, which the LP no longer counts (BT 8x10 without rank 4
   replays at 356.7 W under a 320 W cap). *)
let check _ctx st =
  (* per distinct edit (every edit repeats): the cold outcome, and
     whether the first answer's schedule replays within the cap *)
  let references = Hashtbl.create 64 in
  let reference e =
    match Hashtbl.find_opt references e with
    | Some r -> r
    | None ->
        let b = st.bases.(e.base) in
        let sc' = Core.Event_lp.edit_scenario b.sc [ e.edit ] in
        let init = Core.Event_lp.initial_times b.sc in
        let within =
          match Hashtbl.find st.firsts e with
          | Core.Event_lp.Schedule s when e.kind <> Drop ->
              (Core.Replay.validate sc' s ~power_cap:b.job_cap).Core.Replay.within_cap
          | _ -> true
        in
        let r = (Core.Event_lp.solve ~init sc' ~power_cap:b.job_cap, within) in
        Hashtbl.replace references e r;
        r
  in
  List.length
    (List.filter
       (fun (e, a) ->
         let cold, within = reference e in
         let ok =
           match (a, cold) with
           | Objective x, Core.Event_lp.Schedule s' ->
               within && Golden.rel_close x s'.Core.Event_lp.objective
           | Infeasible, Core.Event_lp.Infeasible -> true
           | _ -> false
         in
         if not ok then
           Fmt.epr "whatif-mix: %a: differs from the cold solve or replays over the cap@."
             Core.Event_lp.pp_domain_edit e.edit;
         not ok)
       st.answers)

let workload = { Harness.setup; measure; check }
