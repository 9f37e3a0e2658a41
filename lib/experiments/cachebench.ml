let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rel_diff a b =
  if Float.is_nan a && Float.is_nan b then 0.0
  else Float.abs (a -. b) /. Float.max 1.0 (Float.abs a)

(* How many times the full per-cap request sequence is replayed.  The
   real harness replays it too: fig9/fig10/fig11/summary all consume the
   same scenario, and each app's sweep prepares over it. *)
let rounds = 3

(* One round of per-cap requests through the pipeline stages the sweep
   uses: assemble the scenario from its source, prepare the LP, re-solve
   at the cap.  Common.run_sweep prepares once per app, at its loosest
   cap; preparing at every cap here gives the prepare cache one request
   per cap. *)
let one_round src (config : Common.config) =
  let nranks = Float.of_int config.Common.nranks in
  List.map
    (fun cap ->
      let sc = Pipeline.Stages.scenario ~socket_seed:config.Common.socket_seed src in
      let job_cap = cap *. nranks in
      let pz = Pipeline.Stages.prepare sc ~power_cap:job_cap in
      match fst (Core.Event_lp.solve_prepared pz ~power_cap:job_cap) with
      | Core.Event_lp.Schedule s -> s.Core.Event_lp.objective
      | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ -> Float.nan)
    config.Common.caps

let arm ~enabled src config =
  Putil.Cache.set_enabled enabled;
  Putil.Cache.clear_all ();
  Putil.Cache.reset_all_stats ();
  time (fun () ->
      List.concat_map (fun _round -> one_round src config)
        (List.init rounds Fun.id))

let write_json ~path ~(config : Common.config) ~cold_s ~cached_s
    ~(st : Putil.Cache.stats) ~max_diff =
  Putil.Fileio.with_out path @@ fun oc ->
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"powerlim-cachebench-v1\",\n";
  pf "  \"ranks\": %d,\n" config.Common.nranks;
  pf "  \"iterations\": %d,\n" config.Common.iterations;
  pf "  \"rounds\": %d,\n" rounds;
  pf "  \"caps_w\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%g") config.Common.caps));
  pf "  \"cold_wall_s\": %.6f,\n" cold_s;
  pf "  \"cached_wall_s\": %.6f,\n" cached_s;
  pf "  \"speedup\": %.3f,\n" (cold_s /. cached_s);
  pf "  \"hits\": %d,\n" st.Putil.Cache.hits;
  pf "  \"misses\": %d,\n" st.Putil.Cache.misses;
  pf "  \"evictions\": %d,\n" st.Putil.Cache.evictions;
  pf "  \"max_rel_objective_diff\": %.3e\n" max_diff;
  pf "}\n"

let run ?(config = Common.default_config) ppf =
  Common.header ppf "Pipeline cache benchmark (scenario -> prepare -> solve)";
  let params =
    {
      Workloads.Apps.nranks = config.Common.nranks;
      iterations = config.Common.iterations;
      seed = config.Common.seed;
      scale = 1.0;
    }
  in
  let src = Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params) in
  let was_enabled = Putil.Cache.enabled () in
  let cold, cold_s = arm ~enabled:false src config in
  let cached, cached_s = arm ~enabled:true src config in
  let st = Putil.Cache.totals () in
  Putil.Cache.set_enabled was_enabled;
  Putil.Cache.clear_all ();
  Putil.Cache.reset_all_stats ();
  let max_diff =
    List.fold_left2
      (fun acc a b -> Float.max acc (rel_diff a b))
      0.0 cold cached
  in
  Fmt.pf ppf "%d rounds x %d caps (CoMD, %d ranks):@." rounds
    (List.length config.Common.caps) config.Common.nranks;
  Fmt.pf ppf "  cold   : %8.3f s  (cache disabled, every round rebuilds)@."
    cold_s;
  Fmt.pf ppf "  cached : %8.3f s  (%a)@." cached_s Putil.Cache.pp_stats st;
  Fmt.pf ppf "  speedup %.2fx wall; max objective diff %.1e@."
    (cold_s /. cached_s) max_diff;
  let path = "BENCH_pipeline.json" in
  write_json ~path ~config ~cold_s ~cached_s ~st ~max_diff;
  Fmt.pf ppf "wrote %s@." path;
  (* hard gate: the cache must never change a result *)
  if max_diff > 0.0 then begin
    Fmt.epr "cachebench: cached objectives diverged (max %.3e)@." max_diff;
    exit 1
  end
