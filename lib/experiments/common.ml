(** Shared machinery for the paper-reproduction experiments: scenario
    construction, the three-method comparison (Static / Conductor /
    LP-replay), and the power-cap sweep that Figures 9-11 and 13-15 are
    all views of. *)

type config = {
  nranks : int;
  iterations : int;
  seed : int;
  socket_seed : int;
  skip : int;  (** iterations discarded (Conductor's exploration phase) *)
  caps : float list;  (** average watts per processor socket *)
}

let default_config =
  {
    nranks = 16;
    iterations = 10;
    seed = 42;
    socket_seed = 7;
    skip = 3;
    caps = [ 30.0; 35.0; 40.0; 50.0; 60.0; 70.0; 80.0 ];
  }

type setup = {
  app : Workloads.Apps.app;
  graph : Dag.Graph.t;
  sc : Core.Scenario.t;
  config : config;
}

let make_setup config app =
  let params =
    {
      Workloads.Apps.nranks = config.nranks;
      iterations = config.iterations;
      seed = config.seed;
      scale = 1.0;
    }
  in
  let sc =
    Pipeline.Stages.scenario ~socket_seed:config.socket_seed
      (Pipeline.Stages.Synthetic (app, params))
  in
  { app; graph = sc.Core.Scenario.graph; sc; config }

(** Wall time of iterations [>= skip] (the paper discards the first three
    iterations as Conductor's configuration-exploration phase). *)
let span_after_skip (s : setup) (r : Simulate.Engine.result) =
  let skip = s.config.skip in
  let t0 = ref Float.infinity in
  Array.iter
    (fun (rc : Simulate.Engine.task_record) ->
      if
        s.graph.Dag.Graph.tasks.(rc.tid).Dag.Graph.iteration >= skip
        && rc.start < !t0
      then t0 := rc.start)
    r.Simulate.Engine.records;
  if !t0 = Float.infinity then r.Simulate.Engine.makespan
  else r.Simulate.Engine.makespan -. !t0

type point = {
  cap : float;  (** watts per socket *)
  schedulable : bool;
  static_span : float;
  conductor_span : float;
  lp_span : float;  (** validated LP-replay span *)
  lp_objective : float;
  lp_vs_static : float;  (** percent improvement, equations of Sec. 6 *)
  lp_vs_conductor : float;
  conductor_vs_static : float;
  lp_max_power : float;
  job_cap : float;
}

type sweep = { setup : setup; points : point list }

(* Map a solver outcome at one cap to a sweep point. *)
let point_of_outcome (s : setup) ~cap ~job_cap (o : Core.Event_lp.outcome) :
    point =
  match o with
  | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ ->
      {
        cap;
        schedulable = false;
        static_span = Float.nan;
        conductor_span = Float.nan;
        lp_span = Float.nan;
        lp_objective = Float.nan;
        lp_vs_static = Float.nan;
        lp_vs_conductor = Float.nan;
        conductor_vs_static = Float.nan;
        lp_max_power = Float.nan;
        job_cap;
      }
  | Core.Event_lp.Schedule sched ->
      let v = Core.Replay.validate s.sc sched ~power_cap:job_cap in
      let st = Runtime.Static.run s.sc ~job_cap in
      let co = Runtime.Conductor.run s.sc ~job_cap in
      let lp_span = span_after_skip s v.Core.Replay.result in
      let static_span = span_after_skip s st in
      let conductor_span = span_after_skip s co in
      {
        cap;
        schedulable = true;
        static_span;
        conductor_span;
        lp_span;
        lp_objective = sched.Core.Event_lp.objective;
        lp_vs_static =
          Simulate.Stats.improvement_pct ~base:static_span ~t:lp_span;
        lp_vs_conductor =
          Simulate.Stats.improvement_pct ~base:conductor_span ~t:lp_span;
        conductor_vs_static =
          Simulate.Stats.improvement_pct ~base:static_span ~t:conductor_span;
        lp_max_power = v.Core.Replay.max_power;
        job_cap;
      }

(* One span per cap point: the unit of work the paper's figures sum up,
   and the natural bar of the sweep flame chart. *)
let cap_span (s : setup) ~cap f =
  Putil.Obs.span ~cat:"sweep"
    ~args:
      [
        ("app", Workloads.Apps.app_name s.app);
        ("cap", Printf.sprintf "%g" cap);
      ]
    "cap" f

(* Warm starts across the sweep are on by default; POWERLIM_WARM=0 turns
   them off (cold re-solves through the same prepared pipeline). *)
let warm_default () = Putil.Env.flag "POWERLIM_WARM" ~default:true

(* All power duals zero: the cap does not constrain the schedule.  Duals
   are ~2e-4 s/W or larger wherever power actually binds, and exactly
   zero (up to roundoff) when it does not, so the threshold is
   uncritical. *)
let unconstraining = function
  | Core.Event_lp.Schedule sch ->
      Array.for_all
        (fun (_, d) -> Float.abs d <= 1e-9)
        sch.Core.Event_lp.power_duals
  | _ -> false

(* One ascending (tightest-first) chain over the app's caps.  The event
   LP is built once ({!Core.Event_lp.prepare} at the loosest cap, where
   presolve is least likely to drop a power row) and re-solved up the
   chain, threading the previous cap's optimal basis as a warm start: a
   cap change only moves the power-row RHS, so the previous basis stays
   dual feasible and the dual simplex reoptimizes in a few pivots.
   Tightest first matters: the loosest-cap optimum leaves the power rows
   slack and is massively dual degenerate, so chaining {e from} it makes
   the dual crawl, while every hop between power-anchored optima is
   cheap.

   A warm solve whose power duals are all zero has landed on the
   cap-independent unconstrained optimum, which is degenerate: a warm
   start may reach any of its alternate optima.  That cap is re-solved
   cold, so the reported schedule is canonical (byte-identical to the
   cold path), and warming stops.  Once a reported optimum's own power
   duals are all zero it is reported at every looser cap without another
   solve.  Zero power duals are a certificate: the dual solution stays
   feasible for any power-row RHS, and the schedule stays primal
   feasible as the cap loosens, so LP duality proves it optimal there
   with the same objective (and its replay stays under the looser cap).

   Each point only reads the shared immutable [setup], and the chain's
   solves and simulations allocate their own state, so apps run on
   separate domains safely; the chain itself is sequential, so output
   does not depend on POWERLIM_JOBS. *)
let run_sweep ?warm (s : setup) : sweep =
  let warming = ref (match warm with Some w -> w | None -> warm_default ()) in
  let watts cap = cap *. Float.of_int s.config.nranks in
  let caps = Array.of_list s.config.caps in
  let order = Array.init (Array.length caps) Fun.id in
  Array.stable_sort (fun i j -> Float.compare caps.(i) caps.(j)) order;
  (* lazy: a sweep without caps prepares nothing *)
  let pz =
    lazy
      (Pipeline.Stages.prepare s.sc
         ~power_cap:(watts (Array.fold_left Float.max neg_infinity caps)))
  in
  let prev = ref None and certified = ref None in
  let outcome ~job_cap =
    match !certified with
    | Some o -> o
    | None ->
        let solve basis =
          Core.Event_lp.solve_prepared ?warm:basis (Lazy.force pz)
            ~power_cap:job_cap
        in
        let wb = if !warming then !prev else None in
        let o, b = solve wb in
        let o, b =
          if Option.is_some wb && unconstraining o then (
            warming := false;
            solve None)
          else (o, b)
        in
        if Option.is_some b then prev := b;
        if unconstraining o then certified := Some o;
        o
  in
  let out = Array.make (Array.length caps) None in
  Array.iter
    (fun i ->
      let cap = caps.(i) in
      out.(i) <-
        Some
          ( cap_span s ~cap @@ fun () ->
            let job_cap = watts cap in
            point_of_outcome s ~cap ~job_cap (outcome ~job_cap) ))
    order;
  { setup = s; points = Array.to_list (Array.map Option.get out) }

(* ------------------------------------------------------------------ *)
(* Energy-under-deadline sweeps                                        *)
(* ------------------------------------------------------------------ *)

let default_multipliers = [ 1.0; 1.02; 1.05; 1.1; 1.2; 1.35; 1.5; 1.75; 2.0 ]

type energy_point = {
  deadline : float;  (** seconds *)
  multiplier : float;  (** deadline / makespan bound at the cap *)
  feasible : bool;
  lp_energy_j : float;  (** LP-optimal energy under the deadline *)
  lp_makespan : float;  (** makespan of the energy-optimal schedule *)
  replay_energy_j : float;  (** replayed energy before reclamation *)
  reclaimed_energy_j : float;  (** replayed energy after reclamation *)
  reclaimed_j : float;  (** joules the reclamation pass shaved (LP side) *)
  reclaimed_pct : float;
  tasks_stretched : int;
  max_power : float;  (** worst sustained power of either replay *)
  within_cap : bool;
}

type energy_sweep = {
  esetup : setup;
  cap : float;  (** watts per socket, fixed across the sweep *)
  job_cap : float;
  makespan_bound : float;  (** T*: the LP makespan optimum at the cap *)
  bound_energy_j : float;  (** energy of that makespan-optimal schedule *)
  epoints : energy_point list;
}

let energy_point_of_outcome (s : setup) ~deadline ~multiplier ~job_cap
    (o : Core.Event_lp.outcome) : energy_point =
  match o with
  | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ ->
      {
        deadline;
        multiplier;
        feasible = false;
        lp_energy_j = Float.nan;
        lp_makespan = Float.nan;
        replay_energy_j = Float.nan;
        reclaimed_energy_j = Float.nan;
        reclaimed_j = Float.nan;
        reclaimed_pct = Float.nan;
        tasks_stretched = 0;
        max_power = Float.nan;
        within_cap = false;
      }
  | Core.Event_lp.Schedule sched ->
      let v = Core.Replay.validate s.sc sched ~power_cap:job_cap in
      let rr = Core.Replay.reclaim s.sc sched in
      let vr =
        Core.Replay.validate s.sc rr.Core.Replay.reclaimed ~power_cap:job_cap
      in
      {
        deadline;
        multiplier;
        feasible = true;
        lp_energy_j = sched.Core.Event_lp.lp_energy;
        lp_makespan = sched.Core.Event_lp.makespan;
        replay_energy_j = v.Core.Replay.replay_energy;
        reclaimed_energy_j = vr.Core.Replay.replay_energy;
        reclaimed_j = rr.Core.Replay.reclaimed_j;
        reclaimed_pct = rr.Core.Replay.reclaimed_pct;
        tasks_stretched = rr.Core.Replay.tasks_stretched;
        max_power = Float.max v.Core.Replay.max_power vr.Core.Replay.max_power;
        within_cap = v.Core.Replay.within_cap && vr.Core.Replay.within_cap;
      }

(* The deadline sweep deliberately re-solves every point {e cold} on the
   shared prepared handle: the energy objective puts zero cost on every
   vertex-time column, so {e each} deadline point is as degenerate as an
   unconstraining cap in [run_sweep] — a warm start may land on any
   alternate optimal vertex, and the replayed schedule would depend on
   the warm history.  A cold energy solve starts from the LP's
   dual-feasible slack basis with no phase 1 ({!Lp.Revised}), a start
   fixed by the LP alone, so cold points are canonical and sweep output
   is byte-identical under any POWERLIM_WARM / POWERLIM_JOBS setting.
   The warm deadline-threading fast path
   ({!Core.Event_lp.solve_prepared_deadline} with a basis) is exercised
   — and its objectives gated against the cold ones at 1e-9 — by the
   [energybench] harness instead. *)
let run_deadline_sweep ?(multipliers = default_multipliers) (s : setup) ~cap :
    energy_sweep =
  let job_cap = cap *. Float.of_int s.config.nranks in
  match Core.Event_lp.solve s.sc ~power_cap:job_cap with
  | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ ->
      {
        esetup = s;
        cap;
        job_cap;
        makespan_bound = Float.nan;
        bound_energy_j = Float.nan;
        epoints = [];
      }
  | Core.Event_lp.Schedule ms ->
      let t_star = ms.Core.Event_lp.makespan in
      let mults = List.sort_uniq Float.compare multipliers in
      let d0 =
        match mults with
        | m :: _ -> t_star *. m
        | [] -> t_star
      in
      let pz =
        Pipeline.Stages.prepare
          ~objective:(Core.Objective.Energy_under_deadline { deadline = d0 })
          s.sc ~power_cap:job_cap
      in
      let epoints =
        List.map
          (fun mult ->
            let deadline = t_star *. mult in
            cap_span s ~cap:deadline @@ fun () ->
            let o, _ = Core.Event_lp.solve_prepared_deadline pz ~deadline in
            energy_point_of_outcome s ~deadline ~multiplier:mult ~job_cap o)
          mults
      in
      {
        esetup = s;
        cap;
        job_cap;
        makespan_bound = t_star;
        bound_energy_j = ms.Core.Event_lp.lp_energy;
        epoints;
      }

(** The power range each per-benchmark figure shows (x-axes of the
    paper's Figures 11 and 13-15). *)
let figure_caps = function
  | Workloads.Apps.CoMD -> (30.0, 80.0)
  | Workloads.Apps.BT -> (30.0, 70.0)
  | Workloads.Apps.SP -> (40.0, 80.0)
  | Workloads.Apps.LULESH -> (40.0, 80.0)

let in_figure_range app (p : point) =
  let lo, hi = figure_caps app in
  p.cap >= lo -. 1e-9 && p.cap <= hi +. 1e-9

(* ------------------------------------------------------------------ *)
(* printing helpers                                                    *)
(* ------------------------------------------------------------------ *)

let header ppf title =
  Fmt.pf ppf "@.=== %s ===@." title

let pp_pct ppf v =
  if Float.is_nan v then Fmt.string ppf "     -" else Fmt.pf ppf "%+6.1f" v
