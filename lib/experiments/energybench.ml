(** Energy-mode benchmark: the deadline sweep solved two ways —

    - {b cold}: a full build + presolve + a cold solve per deadline,
      which starts at the energy LP's dual-feasible slack basis;
    - {b switch}: the makespan handle re-targeted at the energy
      objective ({!Core.Event_lp.switch_objective}), then each
      deadline's basis threaded into the next.  The switch offers the
      makespan optimum's basis, but on the instances probed it does not
      survive and the switch solves cold; that solve is in [setup_s],
      and the per-deadline speedup comes from the threading.

    Asserts every switch objective agrees with the cold one to
    1e-9 (alternate degenerate vertices share the optimal objective even
    when they disagree on vertex times), and at 32 ranks or more gates
    the per-deadline median speedup of the switch path at 2x over cold.
    Writes [BENCH_energy.json] (schema in EXPERIMENTS.md).  Not a paper
    artifact — engineering data for the objective-mode substrate. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rel_diff a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs a)

let objective = function
  | Core.Event_lp.Schedule sched -> sched.Core.Event_lp.objective
  | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ -> Float.nan

let median a =
  match Array.length a with
  | 0 -> Float.nan
  | n ->
      let s = Array.copy a in
      Array.sort Float.compare s;
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let max_rel_diff cold other =
  List.fold_left2
    (fun acc a b ->
      if Float.is_nan a && Float.is_nan b then acc
      else Float.max acc (rel_diff a b))
    0.0 cold other

(* One (objective, wall) pair per deadline, plus the one-off setup cost
   the per-deadline solves amortize. *)
type side = {
  objs : float list;
  walls : float array;  (** per-deadline wall seconds *)
  setup_s : float;
  stats : Lp.Stats.snapshot;
}

let cold_side (s : Common.setup) ~job_cap deadlines : side =
  Lp.Stats.reset ();
  let pairs =
    List.map
      (fun deadline ->
        time (fun () ->
            objective
              (Core.Event_lp.solve
                 ~objective:
                   (Core.Objective.Energy_under_deadline { deadline })
                 s.Common.sc ~power_cap:job_cap)))
      deadlines
  in
  {
    objs = List.map fst pairs;
    walls = Array.of_list (List.map snd pairs);
    setup_s = 0.0;
    stats = Lp.Stats.snapshot ();
  }

(* The cross-mode path: solve the makespan LP (full space, so the basis
   is mappable), switch the handle to the energy objective offering that
   basis across the edit (it has so far always fallen back to a cold
   energy solve, which starts at the slack basis), then thread
   deadlines. *)
let switch_side (s : Common.setup) ~job_cap deadlines : side =
  Lp.Stats.reset ();
  let d0 = List.hd deadlines in
  let (pz', basis0), setup_s =
    time (fun () ->
        let pz =
          Core.Event_lp.prepare ~presolve:false s.Common.sc ~power_cap:job_cap
        in
        let _, b = Core.Event_lp.solve_prepared pz ~power_cap:job_cap in
        let _, pz', b' =
          Core.Event_lp.switch_objective ?warm:b pz
            (Core.Objective.Energy_under_deadline { deadline = d0 })
        in
        (pz', b'))
  in
  let prev = ref basis0 in
  let pairs =
    List.map
      (fun deadline ->
        time (fun () ->
            let o, b =
              Core.Event_lp.solve_prepared_deadline ?warm:!prev pz' ~deadline
            in
            (match b with Some _ -> prev := b | None -> ());
            objective o))
      deadlines
  in
  {
    objs = List.map fst pairs;
    walls = Array.of_list (List.map snd pairs);
    setup_s;
    stats = Lp.Stats.snapshot ();
  }

let sum = Array.fold_left ( +. ) 0.0

let speedups cold other =
  Array.init (Array.length cold.walls) (fun i ->
      cold.walls.(i) /. Float.max 1e-9 other.walls.(i))

let write_json ~path ~(config : Common.config) ~cap ~t_star ~deadlines ~cold
    ~switch ~reclaimed_pct =
  Putil.Fileio.with_out path @@ fun oc ->
  let pf fmt = Printf.fprintf oc fmt in
  let side_json name (sd : side) =
    pf "  \"%s\": {\n" name;
    pf "    \"wall_s\": %.6f,\n" (sum sd.walls);
    pf "    \"setup_s\": %.6f,\n" sd.setup_s;
    pf "    \"pivots\": %d,\n" sd.stats.Lp.Stats.pivots;
    pf "    \"warm_solves\": %d,\n" sd.stats.Lp.Stats.warm_solves;
    pf "    \"warm_fallbacks\": %d,\n" sd.stats.Lp.Stats.warm_fallbacks;
    pf "    \"obj_mode_switches\": %d,\n" sd.stats.Lp.Stats.obj_mode_switches;
    pf "    \"objectives_j\": [%s]\n"
      (String.concat ", "
         (List.map (Printf.sprintf "%.9g") sd.objs));
    pf "  }"
  in
  pf "{\n";
  pf "  \"schema\": \"powerlim-energybench-v2\",\n";
  pf "  \"ranks\": %d,\n" config.Common.nranks;
  pf "  \"iterations\": %d,\n" config.Common.iterations;
  pf "  \"cap_w_per_socket\": %g,\n" cap;
  pf "  \"makespan_bound_s\": %.6f,\n" t_star;
  pf "  \"deadlines_s\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%.6f") deadlines));
  side_json "cold" cold;
  pf ",\n";
  side_json "switch" switch;
  pf ",\n";
  pf "  \"median_speedup_switch\": %.3f,\n" (median (speedups cold switch));
  pf "  \"max_rel_objective_diff_switch\": %.3e,\n"
    (max_rel_diff cold.objs switch.objs);
  pf "  \"reclaimed_joules_pct\": %.3f\n" reclaimed_pct;
  pf "}\n"

let run ?(config = Common.default_config) ppf =
  Common.header ppf "Energy-mode benchmark (deadline sweep, cold/switch)";
  let s = Common.make_setup config Workloads.Apps.CoMD in
  let cap = Energy.reference_cap Workloads.Apps.CoMD in
  let job_cap = cap *. Float.of_int config.Common.nranks in
  let t_star, reclaimed_pct =
    match Core.Event_lp.solve s.Common.sc ~power_cap:job_cap with
    | Core.Event_lp.Schedule sched ->
        (* reclamation yield on the makespan optimum, for the JSON
           record — the energy-mode optima below have no slack left to
           reclaim by construction *)
        ( sched.Core.Event_lp.makespan,
          (Core.Replay.reclaim s.Common.sc sched).Core.Replay.reclaimed_pct )
    | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ ->
        failwith "energybench: reference cap infeasible"
  in
  (* tightest deadline first, mirroring the cap sweep's tightest-first
     chains: the loose-deadline optimum leaves the deadline row slack *)
  let deadlines =
    List.map (fun m -> t_star *. m) (List.sort Float.compare Common.default_multipliers)
  in
  let cold = cold_side s ~job_cap deadlines in
  let switch = switch_side s ~job_cap deadlines in
  let pp_side name (sd : side) =
    Fmt.pf ppf "  %-6s: %8.3f s (+%.3f s setup)  (%a)@." name (sum sd.walls)
      sd.setup_s Lp.Stats.pp sd.stats
  in
  Fmt.pf ppf "sweep (CoMD, %d ranks, %d deadlines at %.0f W/socket, T* %.4f s):@."
    config.Common.nranks (List.length deadlines) cap t_star;
  pp_side "cold" cold;
  pp_side "switch" switch;
  let med_switch = median (speedups cold switch) in
  Fmt.pf ppf
    "  median per-deadline speedup: switch %.2fx; max objective diff %.1e@."
    med_switch
    (max_rel_diff cold.objs switch.objs);
  let path = "BENCH_energy.json" in
  write_json ~path ~config ~cap ~t_star ~deadlines ~cold ~switch ~reclaimed_pct;
  Fmt.pf ppf "wrote %s@." path;
  (* hard gates: the warm switch must not change any objective, and
     it must actually pay off at cluster scale *)
  let ds = max_rel_diff cold.objs switch.objs in
  if ds > 1e-9 then
    failwith
      (Printf.sprintf "energybench: cold vs switch objectives differ (%g)" ds);
  if config.Common.nranks >= 32 && med_switch < 2.0 then
    failwith
      (Printf.sprintf
         "energybench: cross-mode warm sweep only %.2fx over cold (gate: 2x \
          at >= 32 ranks)"
         med_switch)
