(* Tests for the content-hash-keyed artifact cache (Putil.Cache), the
   pipeline stage keys, and the invariants the rest of the repo leans
   on: keys are deterministic and input-sensitive, the cache stays
   bounded under churn, concurrent same-key builds run once
   (single-flight), disabling the cache changes nothing but wall time,
   and scenario assembly physically shares equal frontiers. *)

let with_enabled b f =
  let was = Putil.Cache.enabled () in
  Putil.Cache.set_enabled b;
  Fun.protect
    ~finally:(fun () ->
      Putil.Cache.set_enabled was;
      Putil.Cache.clear_all ();
      Putil.Cache.reset_all_stats ())
    f

let params ?(nranks = 4) ?(iterations = 3) ?(seed = 42) () =
  { Workloads.Apps.nranks; iterations; seed; scale = 1.0 }

let key_str src = Pipeline.Key.to_string (Pipeline.Stages.source_key src)

(* ------------------------------------------------------------------ *)
(* key determinism and sensitivity                                     *)
(* ------------------------------------------------------------------ *)

let prop_key_deterministic =
  QCheck.Test.make ~count:50 ~name:"equal inputs derive equal scenario keys"
    QCheck.(triple (int_range 2 6) (int_range 1 4) (int_range 0 999))
    (fun (nranks, iterations, seed) ->
      let src () =
        Pipeline.Stages.Synthetic
          (Workloads.Apps.CoMD, params ~nranks ~iterations ~seed ())
      in
      Pipeline.Key.equal
        (Pipeline.Stages.scenario_key (src ()))
        (Pipeline.Stages.scenario_key (src ())))

let test_key_sensitivity () =
  let base = Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params ()) in
  let k0 = Pipeline.Stages.scenario_key base in
  let differs what src =
    Alcotest.(check bool)
      (what ^ " changes the key") false
      (Pipeline.Key.equal k0 (Pipeline.Stages.scenario_key src))
  in
  differs "workload seed"
    (Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params ~seed:43 ()));
  differs "rank count"
    (Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params ~nranks:5 ()));
  differs "application"
    (Pipeline.Stages.Synthetic (Workloads.Apps.SP, params ()));
  Alcotest.(check bool) "socket seed changes the key" false
    (Pipeline.Key.equal k0 (Pipeline.Stages.scenario_key ~socket_seed:8 base));
  Alcotest.(check bool) "variability changes the key" false
    (Pipeline.Key.equal k0 (Pipeline.Stages.scenario_key ~variability:0.08 base))

let test_scenario_digest_deterministic () =
  with_enabled false (fun () ->
      let build () =
        Pipeline.Stages.scenario
          (Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params ()))
      in
      let a = build () and b = build () in
      Alcotest.(check bool) "distinct builds" false (a == b);
      Alcotest.(check string) "equal digests" (Core.Scenario.digest a)
        (Core.Scenario.digest b);
      Alcotest.(check bool) "structurally equal" true (Core.Scenario.equal a b))

let test_trace_file_content_key () =
  let g =
    Workloads.Apps.comd
      { Workloads.Apps.default_params with nranks = 2; iterations = 2 }
  in
  let path = Filename.temp_file "powerlim" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dag.Trace_io.to_file path g;
      let k1 = key_str (Pipeline.Stages.Trace_file path) in
      let k2 = key_str (Pipeline.Stages.Trace_file path) in
      Alcotest.(check string) "stable across reads" k1 k2;
      (* same path, different bytes: the key must follow the content *)
      Dag.Trace_io.to_file path
        (Workloads.Apps.comd
           { Workloads.Apps.default_params with nranks = 2; iterations = 3 });
      Alcotest.(check bool) "content change changes the key" false
        (String.equal k1 (key_str (Pipeline.Stages.Trace_file path))))

(* ------------------------------------------------------------------ *)
(* cache mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let test_hit_returns_same_value () =
  with_enabled true (fun () ->
      let c = Putil.Cache.create ~capacity:4 ~name:"test-hit" () in
      let v1 = Putil.Cache.find_or_build c "k" (fun () -> ref 1) in
      let v2 = Putil.Cache.find_or_build c "k" (fun () -> ref 2) in
      Alcotest.(check bool) "physically shared" true (v1 == v2);
      let st = Putil.Cache.stats c in
      Alcotest.(check int) "one miss" 1 st.Putil.Cache.misses;
      Alcotest.(check int) "one hit" 1 st.Putil.Cache.hits)

let test_bounded_under_churn () =
  with_enabled true (fun () ->
      let c = Putil.Cache.create ~capacity:8 ~name:"test-churn" () in
      for i = 0 to 199 do
        ignore (Putil.Cache.find_or_build c (string_of_int i) (fun () -> i))
      done;
      Alcotest.(check bool) "bounded" true (Putil.Cache.length c <= 8);
      let st = Putil.Cache.stats c in
      Alcotest.(check int) "all misses" 200 st.Putil.Cache.misses;
      Alcotest.(check int) "evictions = inserts - capacity" 192
        st.Putil.Cache.evictions;
      (* LRU: the freshest keys survive *)
      ignore (Putil.Cache.find_or_build c "199" (fun () -> -1));
      Alcotest.(check int) "fresh key still cached" 200
        (Putil.Cache.stats c).Putil.Cache.misses)

let test_disabled_bypasses () =
  with_enabled false (fun () ->
      let c = Putil.Cache.create ~capacity:4 ~name:"test-off" () in
      let builds = ref 0 in
      let build () = incr builds; !builds in
      let v1 = Putil.Cache.find_or_build c "k" build in
      let v2 = Putil.Cache.find_or_build c "k" build in
      Alcotest.(check int) "every call rebuilds" 2 !builds;
      Alcotest.(check (pair int int)) "fresh values" (1, 2) (v1, v2);
      Alcotest.(check int) "nothing stored" 0 (Putil.Cache.length c);
      let st = Putil.Cache.stats c in
      Alcotest.(check (pair int int)) "no traffic counted" (0, 0)
        (st.Putil.Cache.hits, st.Putil.Cache.misses))

let test_single_flight_under_pool () =
  with_enabled true (fun () ->
      let c = Putil.Cache.create ~capacity:4 ~name:"test-sf" () in
      let builds = Atomic.make 0 in
      let pool = Putil.Pool.create ~size:4 () in
      Fun.protect
        ~finally:(fun () -> Putil.Pool.shutdown pool)
        (fun () ->
          let results =
            Putil.Pool.parallel_map pool
              (fun _ ->
                Putil.Cache.find_or_build c "expensive" (fun () ->
                    Atomic.incr builds;
                    (* long enough that every worker arrives mid-build *)
                    Unix.sleepf 0.05;
                    42))
              (List.init 8 Fun.id)
          in
          Alcotest.(check (list int))
            "every caller gets the artifact"
            (List.init 8 (fun _ -> 42))
            results;
          Alcotest.(check int) "expensive builder ran once" 1
            (Atomic.get builds)))

let test_builder_exception_releases_key () =
  with_enabled true (fun () ->
      let c = Putil.Cache.create ~capacity:4 ~name:"test-exn" () in
      (match Putil.Cache.find_or_build c "k" (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
      (* the key is not wedged: a later build succeeds and is cached *)
      Alcotest.(check int) "rebuild succeeds" 7
        (Putil.Cache.find_or_build c "k" (fun () -> 7));
      Alcotest.(check int) "and is cached" 7
        (Putil.Cache.find_or_build c "k" (fun () -> 8)))

(* ------------------------------------------------------------------ *)
(* frontier sharing and end-to-end identity                            *)
(* ------------------------------------------------------------------ *)

(* Satellite regression: scenario assembly must physically share one
   frontier array across every (socket, profile) pair with equal
   content — with zero variability the fleet is uniform, so equal task
   profiles imply a shared frontier even across ranks.  The synthetic
   apps perturb every task's work, so build the repeated-profile graph
   by hand. *)
let shared_profile_scenario () =
  let p = Machine.Profile.v 1.0 in
  let b = Dag.Graph.Builder.create ~nranks:2 in
  Dag.Graph.Builder.compute b ~rank:0 ~iteration:0 ~label:"a" p;
  Dag.Graph.Builder.compute b ~rank:1 ~iteration:0 ~label:"b" p;
  ignore (Dag.Graph.Builder.collective b ());
  Dag.Graph.Builder.compute b ~rank:0 ~iteration:1 ~label:"c" p;
  Dag.Graph.Builder.compute b ~rank:1 ~iteration:1 ~label:"d" p;
  ignore (Dag.Graph.Builder.finalize b);
  Pipeline.Stages.scenario ~variability:0.0
    (Pipeline.Stages.Graph (Dag.Graph.Builder.build b))

let check_all_shared () =
  let sc = shared_profile_scenario () in
  let tasks = sc.Core.Scenario.graph.Dag.Graph.tasks in
  let compute =
    List.filter
      (fun i -> tasks.(i).Dag.Graph.profile.Machine.Profile.work > 0.0)
      (List.init (Array.length tasks) Fun.id)
  in
  Alcotest.(check int) "four compute tasks" 4 (List.length compute);
  match compute with
  | [] -> assert false
  | i0 :: rest ->
      List.iter
        (fun i ->
          Alcotest.(check bool) "equal profiles share one frontier" true
            (sc.Core.Scenario.frontiers.(i0) == sc.Core.Scenario.frontiers.(i)))
        rest

let test_frontiers_physically_shared () =
  (* Scenario.make's per-build table shares them, whether the scenario
     comes through the scenario cache... *)
  with_enabled true check_all_shared;
  (* ...or is built afresh with caching off *)
  with_enabled false check_all_shared

(* The cache must be invisible in every output byte: a fresh sweep with
   caching on renders identically to one with caching off. *)
let test_sweep_identical_cache_on_off () =
  let config =
    {
      Experiments.Common.default_config with
      Experiments.Common.nranks = 4;
      iterations = 4;
      caps = [ 35.0; 60.0 ];
    }
  in
  let render_arm enabled =
    with_enabled enabled (fun () ->
        let s = Experiments.Sweeps.compute ~config () in
        let buf = Buffer.create 2048 in
        let ppf = Format.formatter_of_buffer buf in
        Experiments.Sweeps.fig9 s ppf;
        Experiments.Sweeps.summary s ppf;
        Format.pp_print_flush ppf ();
        Buffer.contents buf)
  in
  Alcotest.(check string) "byte-identical output" (render_arm false)
    (render_arm true)

(* What-if edits must never be served a stale prepared artifact: the
   scenario digest hashes every task frontier, so an edited scenario
   derives a fresh preparation key, and the exact inverse edit derives
   the original key again. *)
let test_edit_key_rekeys_and_inverts () =
  with_enabled false (fun () ->
      let sc =
        Pipeline.Stages.scenario
          (Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params ()))
      in
      let tid =
        let found = ref (-1) in
        Array.iteri
          (fun i f -> if !found < 0 && Array.length f > 1 then found := i)
          sc.Core.Scenario.frontiers;
        if !found < 0 then Alcotest.fail "no multi-point frontier";
        !found
      in
      let f = sc.Core.Scenario.frontiers.(tid) in
      let k = Array.length f / 2 in
      let pt = f.(k) in
      let perturb =
        Core.Event_lp.Perturb_task
          {
            tid;
            point = k;
            duration = pt.Pareto.Point.duration *. 1.1;
            power = pt.Pareto.Point.power;
          }
      in
      let inverse =
        Core.Event_lp.Perturb_task
          {
            tid;
            point = k;
            duration = pt.Pareto.Point.duration;
            power = pt.Pareto.Point.power;
          }
      in
      let cap = 160.0 in
      let k0 = Pipeline.Stages.prepare_key sc ~power_cap:cap in
      let ke = Pipeline.Stages.edit_key sc [ perturb ] ~power_cap:cap in
      Alcotest.(check bool) "edited scenario derives a fresh key" false
        (Pipeline.Key.equal k0 ke);
      let sc' = Core.Event_lp.edit_scenario sc [ perturb ] in
      Alcotest.(check bool) "edit_key = prepare_key of the edited scenario"
        true
        (Pipeline.Key.equal ke (Pipeline.Stages.prepare_key sc' ~power_cap:cap));
      Alcotest.(check bool) "inverse edit restores the original key" true
        (Pipeline.Key.equal k0
           (Pipeline.Stages.edit_key sc' [ inverse ] ~power_cap:cap));
      Alcotest.(check bool) "build flags still distinguish keys" false
        (Pipeline.Key.equal ke
           (Pipeline.Stages.edit_key ~presolve:false sc [ perturb ]
              ~power_cap:cap));
      Alcotest.(check bool) "fail-socket re-keys" false
        (Pipeline.Key.equal k0
           (Pipeline.Stages.edit_key sc [ Core.Event_lp.Fail_socket 0 ]
              ~power_cap:cap));
      Alcotest.(check bool) "drop-rank re-keys" false
        (Pipeline.Key.equal k0
           (Pipeline.Stages.edit_key sc [ Core.Event_lp.Drop_rank 0 ]
              ~power_cap:cap)))

let suite =
  [
    ( "util.cache",
      [
        QCheck_alcotest.to_alcotest prop_key_deterministic;
        Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
        Alcotest.test_case "scenario digest deterministic" `Quick
          test_scenario_digest_deterministic;
        Alcotest.test_case "trace-file keys follow content" `Quick
          test_trace_file_content_key;
        Alcotest.test_case "hit shares the artifact" `Quick
          test_hit_returns_same_value;
        Alcotest.test_case "bounded under churn" `Quick
          test_bounded_under_churn;
        Alcotest.test_case "disabled bypasses" `Quick test_disabled_bypasses;
        Alcotest.test_case "single-flight under pool" `Quick
          test_single_flight_under_pool;
        Alcotest.test_case "builder exception releases key" `Quick
          test_builder_exception_releases_key;
        Alcotest.test_case "frontiers physically shared" `Quick
          test_frontiers_physically_shared;
        Alcotest.test_case "sweep identical cache on/off" `Slow
          test_sweep_identical_cache_on_off;
        Alcotest.test_case "edit keys re-key and invert" `Quick
          test_edit_key_rekeys_and_inverts;
      ] );
  ]
