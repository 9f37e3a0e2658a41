(* Tests for the objective-mode layer: energy-under-deadline duality
   against the makespan mode, warm starts across the objective switch,
   and the slack-reclamation post-pass invariants. *)

let scenario ?(iterations = 3) app seed nranks =
  let g =
    Workloads.Apps.generate app
      { Workloads.Apps.default_params with nranks; iterations; seed }
  in
  Core.Scenario.make g

let comd_sc () = scenario Workloads.Apps.CoMD 42 4

let solve_makespan sc ~cap =
  match Core.Event_lp.solve sc ~power_cap:cap with
  | Core.Event_lp.Schedule s -> s
  | Core.Event_lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Core.Event_lp.Solver_failure m -> Alcotest.failf "solver failure: %s" m

let solve_energy sc ~cap ~deadline =
  match
    Core.Event_lp.solve
      ~objective:(Core.Objective.Energy_under_deadline { deadline })
      sc ~power_cap:cap
  with
  | Core.Event_lp.Schedule s -> s
  | Core.Event_lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Core.Event_lp.Solver_failure m -> Alcotest.failf "solver failure: %s" m

let rel a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs a)

(* ---- cross-mode duality ------------------------------------------- *)

(* At deadline = T* the energy mode optimizes over exactly the makespan
   optimum's feasible schedules, so its optimum can only be at most the
   makespan schedule's energy; and loosening the deadline can only
   lower it further. *)
let prop_cross_mode_duality =
  QCheck.Test.make ~count:20 ~name:"energy mode dual to makespan mode"
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, nranks) ->
      let sc = scenario Workloads.Apps.CoMD seed nranks in
      let cap = 45.0 *. Float.of_int nranks in
      let ms = solve_makespan sc ~cap in
      let t_star = ms.Core.Event_lp.makespan in
      let e_star = solve_energy sc ~cap ~deadline:t_star in
      if e_star.Core.Event_lp.objective
         > ms.Core.Event_lp.lp_energy +. (1e-9 *. ms.Core.Event_lp.lp_energy)
      then
        QCheck.Test.fail_reportf
          "energy optimum above makespan schedule's energy: %.6f > %.6f"
          e_star.Core.Event_lp.objective ms.Core.Event_lp.lp_energy;
      if e_star.Core.Event_lp.makespan > t_star *. (1.0 +. 1e-6) then
        QCheck.Test.fail_reportf "deadline violated: %.6f > %.6f"
          e_star.Core.Event_lp.makespan t_star;
      (* energy is non-increasing in the deadline *)
      let prev = ref e_star.Core.Event_lp.objective in
      List.for_all
        (fun m ->
          let e = solve_energy sc ~cap ~deadline:(t_star *. m) in
          let ok =
            e.Core.Event_lp.objective <= !prev +. (1e-9 *. Float.abs !prev)
          in
          prev := e.Core.Event_lp.objective;
          ok)
        [ 1.1; 1.3; 1.6; 2.0 ])

(* A cold energy solve starts at the dual-feasible slack basis, with no
   phase 1, and reaches the dense tableau oracle's objective on the same
   (unreduced) LP, at deadlines from T* to 2 T*.  Two iterations per
   rank keep the oracle's dense tableau to about a second at 4 ranks. *)
let prop_slack_start_matches_dense =
  QCheck.Test.make ~count:12 ~name:"energy slack starts match the dense oracle"
    QCheck.(triple (int_bound 1000) (int_range 2 4) (float_range 1.0 2.0))
    (fun (seed, nranks, m) ->
      let app =
        List.nth Workloads.Apps.all_apps
          (seed mod List.length Workloads.Apps.all_apps)
      in
      let sc = scenario ~iterations:2 app seed nranks in
      let cap = 45.0 *. Float.of_int nranks in
      let t_star = (solve_makespan sc ~cap).Core.Event_lp.makespan in
      let objective =
        Core.Objective.Energy_under_deadline { deadline = m *. t_star }
      in
      let pz = Core.Event_lp.prepare ~objective sc ~power_cap:cap in
      let s0 = Lp.Stats.snapshot () in
      let o, _ = Core.Event_lp.solve_prepared pz ~power_cap:cap in
      let s1 = Lp.Stats.snapshot () in
      let d f = f s1 - f s0 in
      if d (fun s -> s.Lp.Stats.slack_starts) <> 1 then
        QCheck.Test.fail_report "no slack start";
      if d (fun s -> s.Lp.Stats.phase1_pivots) <> 0 then
        QCheck.Test.fail_report "phase-1 pivots";
      let rd = Lp.Dense_simplex.solve (Core.Event_lp.prepared_problem pz) in
      match (o, rd.Lp.Dense_simplex.status) with
      | Core.Event_lp.Schedule s, Lp.Dense_simplex.Optimal ->
          let e = s.Core.Event_lp.objective
          and ed = rd.Lp.Dense_simplex.objective in
          if Float.abs (e -. ed) > 1e-9 *. Float.abs ed then
            QCheck.Test.fail_reportf "energy %.17g, dense oracle %.17g" e ed;
          true
      | _ -> QCheck.Test.fail_report "not optimal under both solvers")

(* the two modes report both metrics: the makespan schedule's lp_energy
   must equal the energy objective's value of the same blends *)
let test_schedule_reports_both () =
  let sc = comd_sc () in
  let cap = 180.0 in
  let ms = solve_makespan sc ~cap in
  let by_blends =
    Array.fold_left
      (fun acc b -> acc +. Core.Replay.blend_energy b)
      0.0 ms.Core.Event_lp.blends
  in
  Alcotest.(check bool) "lp_energy consistent with blends" true
    (rel ms.Core.Event_lp.lp_energy by_blends < 1e-6);
  Alcotest.(check bool) "makespan mode tagged" true
    (ms.Core.Event_lp.objective_mode = Core.Objective.Makespan_under_cap);
  let es = solve_energy sc ~cap ~deadline:(2.0 *. ms.Core.Event_lp.makespan) in
  Alcotest.(check bool) "energy objective = lp_energy" true
    (rel es.Core.Event_lp.objective es.Core.Event_lp.lp_energy < 1e-9)

(* ---- warm starts across the objective switch ---------------------- *)

let test_switch_matches_cold () =
  let sc = comd_sc () in
  let cap = 170.0 in
  let ms = solve_makespan sc ~cap in
  let deadline = 1.25 *. ms.Core.Event_lp.makespan in
  let cold = solve_energy sc ~cap ~deadline in
  (* the warm cross-mode path needs the full column space *)
  let pz = Core.Event_lp.prepare ~presolve:false sc ~power_cap:cap in
  let _, basis = Core.Event_lp.solve_prepared pz ~power_cap:cap in
  let o, pz', basis' =
    Core.Event_lp.switch_objective ?warm:basis pz
      (Core.Objective.Energy_under_deadline { deadline })
  in
  (match o with
  | Core.Event_lp.Schedule s ->
      Alcotest.(check bool) "switched objective = cold objective" true
        (rel s.Core.Event_lp.objective cold.Core.Event_lp.objective < 1e-9)
  | _ -> Alcotest.fail "switch infeasible");
  (* the switched handle chains: further deadlines re-solve by RHS *)
  let deadline2 = 1.5 *. ms.Core.Event_lp.makespan in
  let cold2 = solve_energy sc ~cap ~deadline:deadline2 in
  (match
     Core.Event_lp.solve_prepared_deadline ?warm:basis' pz' ~deadline:deadline2
   with
  | Core.Event_lp.Schedule s, _ ->
      Alcotest.(check bool) "threaded deadline = cold objective" true
        (rel s.Core.Event_lp.objective cold2.Core.Event_lp.objective < 1e-9)
  | _ -> Alcotest.fail "threaded deadline infeasible");
  (* and switching back reproduces the makespan optimum *)
  match
    Core.Event_lp.switch_objective ?warm:basis' pz'
      Core.Objective.Makespan_under_cap
  with
  | Core.Event_lp.Schedule s, _, _ ->
      Alcotest.(check bool) "switch back = makespan optimum" true
        (rel s.Core.Event_lp.objective ms.Core.Event_lp.objective < 1e-9)
  | _ -> Alcotest.fail "switch back infeasible"

let test_deadline_on_makespan_handle_rejected () =
  let sc = comd_sc () in
  let pz = Core.Event_lp.prepare sc ~power_cap:180.0 in
  Alcotest.check_raises "deadline patch needs an energy handle"
    (Invalid_argument
       "Event_lp.solve_prepared_deadline: handle was prepared under the \
        makespan objective (no deadline row)")
    (fun () -> ignore (Core.Event_lp.solve_prepared_deadline pz ~deadline:1.0))

(* ---- slack reclamation -------------------------------------------- *)

let check_reclaim_invariants sc cap (s : Core.Event_lp.schedule) =
  let r = Core.Replay.reclaim sc s in
  let s' = r.Core.Replay.reclaimed in
  Alcotest.(check bool) "vertex times untouched" true
    (s'.Core.Event_lp.vertex_time == s.Core.Event_lp.vertex_time);
  Alcotest.(check bool) "makespan unchanged" true
    (s'.Core.Event_lp.makespan = s.Core.Event_lp.makespan);
  Alcotest.(check bool) "energy never increases" true
    (s'.Core.Event_lp.lp_energy <= s.Core.Event_lp.lp_energy +. 1e-9);
  Alcotest.(check bool) "reclaimed_j consistent" true
    (rel
       (s.Core.Event_lp.lp_energy -. s'.Core.Event_lp.lp_energy)
       r.Core.Replay.reclaimed_j
    < 1e-6);
  (* the stretched schedule still replays inside the cap and the
     deadline: stretches only fill precedence windows *)
  let v = Core.Replay.validate sc s' ~power_cap:cap in
  Alcotest.(check bool) "reclaimed replay within cap" true
    v.Core.Replay.within_cap;
  r

let test_reclaim_invariants () =
  let sc = comd_sc () in
  (* loose enough that the makespan optimum races non-critical tasks:
     that is where the blend padding (and hence the yield) lives *)
  let cap = 400.0 in
  let ms = solve_makespan sc ~cap in
  let r = check_reclaim_invariants sc cap ms in
  (* the makespan optimum leaves real slack off the critical path; the
     pass must find some of it *)
  Alcotest.(check bool) "makespan optimum yields reclaimable slack" true
    (r.Core.Replay.tasks_stretched > 0 && r.Core.Replay.reclaimed_j > 0.0);
  (* the energy optimum has none left by construction *)
  let es = solve_energy sc ~cap ~deadline:ms.Core.Event_lp.makespan in
  let r' = check_reclaim_invariants sc cap es in
  Alcotest.(check bool) "energy optimum near reclamation fixpoint" true
    (r'.Core.Replay.reclaimed_j
    <= 0.01 *. Float.max 1.0 es.Core.Event_lp.lp_energy)

let prop_reclaim_safe =
  QCheck.Test.make ~count:20 ~name:"reclamation invariants on random apps"
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, nranks) ->
      let sc = scenario Workloads.Apps.SP seed nranks in
      let cap = 40.0 *. Float.of_int nranks in
      let ms = solve_makespan sc ~cap in
      let r = Core.Replay.reclaim sc ms in
      let s' = r.Core.Replay.reclaimed in
      if s'.Core.Event_lp.makespan <> ms.Core.Event_lp.makespan then
        QCheck.Test.fail_reportf "makespan changed by reclamation";
      if s'.Core.Event_lp.lp_energy > ms.Core.Event_lp.lp_energy +. 1e-9 then
        QCheck.Test.fail_reportf "reclamation raised energy";
      let v = Core.Replay.validate sc s' ~power_cap:cap in
      if not v.Core.Replay.within_cap then
        QCheck.Test.fail_reportf "reclaimed schedule violates the cap";
      true)

let suite =
  [
    ( "objective.duality",
      [
        QCheck_alcotest.to_alcotest prop_cross_mode_duality;
        QCheck_alcotest.to_alcotest prop_slack_start_matches_dense;
        Alcotest.test_case "both metrics reported" `Quick
          test_schedule_reports_both;
      ] );
    ( "objective.switch",
      [
        Alcotest.test_case "warm switch matches cold" `Quick
          test_switch_matches_cold;
        Alcotest.test_case "deadline patch rejected on makespan handle" `Quick
          test_deadline_on_makespan_handle_rejected;
      ] );
    ( "objective.reclaim",
      [
        Alcotest.test_case "invariants and yield" `Quick test_reclaim_invariants;
        QCheck_alcotest.to_alcotest prop_reclaim_safe;
      ] );
  ]
