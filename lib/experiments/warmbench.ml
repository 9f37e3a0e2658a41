(** Warm-start benchmark: the power-cap sweep re-solve path and the
    flow-ILP branch and bound, each timed cold (every LP solved from
    scratch) and warm (basis reuse via {!Core.Event_lp.prepare} /
    {!Lp.Milp}).  Asserts cold and warm objectives agree to 1e-9 — the
    CI smoke step relies on the non-zero exit — and writes the measured
    trajectory to [BENCH_warmstart.json] (schema in EXPERIMENTS.md) so
    future changes can be checked against it.  Not a paper artifact —
    engineering data for the solver substrate. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rel_diff a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs a)

(* The sweep side: one objective per cap, cold = full build + presolve +
   phase-1/2 per cap, warm = build once, thread the previous cap's basis
   down the sorted cap list. *)
let sweep_side (s : Common.setup) (caps : float list) =
  let nranks = Float.of_int s.Common.config.Common.nranks in
  let objective = function
    | Core.Event_lp.Schedule sched -> sched.Core.Event_lp.objective
    | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ -> Float.nan
  in
  Lp.Stats.reset ();
  let cold, cold_s =
    time (fun () ->
        List.map
          (fun cap ->
            objective
              (Core.Event_lp.solve s.Common.sc ~power_cap:(cap *. nranks)))
          caps)
  in
  let st_cold = Lp.Stats.snapshot () in
  Lp.Stats.reset ();
  let warm, warm_s =
    time (fun () ->
        match caps with
        | [] -> []
        | _ ->
            let loosest = List.fold_left Float.max Float.neg_infinity caps in
            let pz =
              Core.Event_lp.prepare s.Common.sc
                ~power_cap:(loosest *. nranks)
            in
            let prev = ref None in
            List.map
              (fun cap ->
                let o, b =
                  Core.Event_lp.solve_prepared ?warm:!prev pz
                    ~power_cap:(cap *. nranks)
                in
                (match b with Some _ -> prev := b | None -> ());
                objective o)
              caps)
  in
  let st_warm = Lp.Stats.snapshot () in
  let max_diff =
    List.fold_left2
      (fun acc a b ->
        if Float.is_nan a && Float.is_nan b then acc
        else Float.max acc (rel_diff a b))
      0.0 cold warm
  in
  (cold_s, st_cold, warm_s, st_warm, max_diff)

(* The MILP side: the figure-8 two-rank exchange ILP, branch and bound
   with and without parent-basis warm starts. *)
let milp_side () =
  let g = Workloads.Apps.exchange ~rounds:2 () in
  let sc = Pipeline.Stages.scenario (Pipeline.Stages.Graph g) in
  let cap = Float.max 60.0 (1.1 *. Core.Scenario.min_job_power sc) in
  let run warm =
    Lp.Stats.reset ();
    let r, wall =
      time (fun () -> Core.Flow_ilp.solve ~warm sc ~power_cap:cap)
    in
    let st = Lp.Stats.snapshot () in
    match r with
    | Core.Flow_ilp.Schedule f ->
        (f.Core.Flow_ilp.objective, f.Core.Flow_ilp.stats.Core.Flow_ilp.nodes,
         wall, st)
    | _ -> failwith "warmbench: flow ILP did not return a schedule"
  in
  let obj_c, nodes_c, wall_c, st_c = run false in
  let obj_w, nodes_w, wall_w, st_w = run true in
  (cap, obj_c, nodes_c, wall_c, st_c, obj_w, nodes_w, wall_w, st_w)

let write_json ~path ~config ~caps ~sweep ~milp =
  let cold_s, (st_cold : Lp.Stats.snapshot), warm_s, st_warm, max_diff =
    sweep
  in
  let cap, obj_c, nodes_c, wall_c, (st_c : Lp.Stats.snapshot), obj_w, nodes_w,
      wall_w, st_w =
    milp
  in
  Putil.Fileio.with_out path @@ fun oc ->
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"powerlim-warmbench-v1\",\n";
  pf "  \"ranks\": %d,\n" config.Common.nranks;
  pf "  \"iterations\": %d,\n" config.Common.iterations;
  pf "  \"sweep\": {\n";
  pf "    \"caps_w\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%g") caps));
  pf "    \"cold_wall_s\": %.6f,\n" cold_s;
  pf "    \"warm_wall_s\": %.6f,\n" warm_s;
  pf "    \"speedup\": %.3f,\n" (cold_s /. warm_s);
  pf "    \"cold_pivots\": %d,\n" st_cold.Lp.Stats.pivots;
  pf "    \"warm_pivots\": %d,\n" st_warm.Lp.Stats.pivots;
  pf "    \"pivot_ratio\": %.3f,\n"
    (Float.of_int st_cold.Lp.Stats.pivots
    /. Float.max 1.0 (Float.of_int st_warm.Lp.Stats.pivots));
  pf "    \"warm_dual_pivots\": %d,\n" st_warm.Lp.Stats.dual_pivots;
  pf "    \"warm_bound_flips\": %d,\n" st_warm.Lp.Stats.bound_flips;
  pf "    \"warm_fallbacks\": %d,\n" st_warm.Lp.Stats.warm_fallbacks;
  pf "    \"max_rel_objective_diff\": %.3e\n" max_diff;
  pf "  },\n";
  pf "  \"milp\": {\n";
  pf "    \"power_cap_w\": %.1f,\n" cap;
  pf "    \"cold_wall_s\": %.6f,\n" wall_c;
  pf "    \"warm_wall_s\": %.6f,\n" wall_w;
  pf "    \"speedup\": %.3f,\n" (wall_c /. wall_w);
  pf "    \"cold_nodes\": %d,\n" nodes_c;
  pf "    \"warm_nodes\": %d,\n" nodes_w;
  pf "    \"cold_pivots_per_node\": %.2f,\n"
    (Float.of_int st_c.Lp.Stats.pivots /. Float.max 1.0 (Float.of_int nodes_c));
  pf "    \"warm_pivots_per_node\": %.2f,\n"
    (Float.of_int st_w.Lp.Stats.pivots /. Float.max 1.0 (Float.of_int nodes_w));
  pf "    \"pivot_ratio\": %.3f,\n"
    (Float.of_int st_c.Lp.Stats.pivots
    /. Float.max 1.0 (Float.of_int st_w.Lp.Stats.pivots));
  pf "    \"rel_objective_diff\": %.3e\n" (rel_diff obj_c obj_w);
  pf "  }\n";
  pf "}\n"

let run ?(config = Common.default_config) ppf =
  Common.header ppf "Warm-start benchmark (sweep re-solves + MILP nodes)";
  let s = Common.make_setup config Workloads.Apps.CoMD in
  (* tightest cap first: the loosest-cap optimum leaves the power rows
     slack and is massively dual degenerate, so the chain starts from a
     power-anchored vertex and loosens, as each app's chain does in
     Common.run_sweep (which also stops solving at its first zero-dual
     cap; this harness solves every cap) *)
  let caps = List.sort Float.compare config.Common.caps in
  let sweep = sweep_side s caps in
  let cold_s, st_cold, warm_s, st_warm, max_diff = sweep in
  Fmt.pf ppf "sweep (CoMD, %d ranks, %d caps):@." config.Common.nranks
    (List.length caps);
  Fmt.pf ppf "  cold : %8.3f s  (%a)@." cold_s Lp.Stats.pp st_cold;
  Fmt.pf ppf "  warm : %8.3f s  (%a)@." warm_s Lp.Stats.pp st_warm;
  Fmt.pf ppf "  speedup %.2fx wall, %.2fx pivots; max objective diff %.1e@."
    (cold_s /. warm_s)
    (Float.of_int st_cold.Lp.Stats.pivots
    /. Float.max 1.0 (Float.of_int st_warm.Lp.Stats.pivots))
    max_diff;
  let milp = milp_side () in
  let cap, obj_c, nodes_c, wall_c, st_c, obj_w, nodes_w, wall_w, st_w = milp in
  Fmt.pf ppf "flow ILP (2-rank exchange, %.0f W):@." cap;
  Fmt.pf ppf "  cold : %8.3f s, %d nodes, %.1f pivots/node@." wall_c nodes_c
    (Float.of_int st_c.Lp.Stats.pivots /. Float.max 1.0 (Float.of_int nodes_c));
  Fmt.pf ppf "  warm : %8.3f s, %d nodes, %.1f pivots/node (%d fallbacks)@."
    wall_w nodes_w
    (Float.of_int st_w.Lp.Stats.pivots /. Float.max 1.0 (Float.of_int nodes_w))
    st_w.Lp.Stats.warm_fallbacks;
  Fmt.pf ppf "  objective diff %.1e@." (rel_diff obj_c obj_w);
  let path = "BENCH_warmstart.json" in
  write_json ~path ~config ~caps ~sweep ~milp;
  Fmt.pf ppf "wrote %s@." path;
  (* hard gate: warm starts must not change any objective *)
  if max_diff > 1e-9 then
    failwith
      (Printf.sprintf "warmbench: cold vs warm sweep objectives differ (%g)"
         max_diff);
  if rel_diff obj_c obj_w > 1e-9 then
    failwith
      (Printf.sprintf "warmbench: cold vs warm MILP objectives differ (%g)"
         (rel_diff obj_c obj_w))
