(* Tests for the paper's formulations: the fixed-vertex-order event LP,
   schedule replay/validation, and the flow ILP.  These encode the
   central soundness properties: the LP is a realizable lower bound on
   time, replay never violates the power cap, and the two formulations
   agree on small instances (paper Figure 8). *)

let comd_sc () =
  let g =
    Workloads.Apps.comd
      { Workloads.Apps.default_params with nranks = 4; iterations = 3 }
  in
  Core.Scenario.make g

let lp_schedule ?mode sc ~cap =
  match Core.Event_lp.solve ?mode sc ~power_cap:cap with
  | Core.Event_lp.Schedule s -> s
  | Core.Event_lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Core.Event_lp.Solver_failure m -> Alcotest.failf "solver failure: %s" m

let test_scenario_frontiers () =
  let sc = comd_sc () in
  Array.iteri
    (fun tid f ->
      let t = sc.Core.Scenario.graph.Dag.Graph.tasks.(tid) in
      if t.profile.Machine.Profile.work > 0.0 then
        Alcotest.(check bool) "nonempty frontier" true (Array.length f >= 2)
      else Alcotest.(check int) "zero task no frontier" 0 (Array.length f))
    sc.Core.Scenario.frontiers;
  let mn = Core.Scenario.min_job_power sc in
  Alcotest.(check bool) "min power sane" true (mn > 50.0 && mn < 150.0)

let test_lp_infeasible_below_min () =
  let sc = comd_sc () in
  let mn = Core.Scenario.min_job_power sc in
  match Core.Event_lp.solve sc ~power_cap:(0.8 *. mn) with
  | Core.Event_lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible below minimum power"

let test_lp_monotone_in_cap () =
  let sc = comd_sc () in
  let o cap = (lp_schedule sc ~cap).Core.Event_lp.objective in
  let t1 = o 110.0 and t2 = o 140.0 and t3 = o 200.0 and t4 = o 400.0 in
  Alcotest.(check bool) "more power never slower" true
    (t1 >= t2 -. 1e-6 && t2 >= t3 -. 1e-6 && t3 >= t4 -. 1e-6);
  (* at a huge cap the LP reaches the unconstrained schedule *)
  let unconstrained = Core.Event_lp.initial_times sc in
  Alcotest.(check bool) "uncapped = unconstrained" true
    (Float.abs (t4 -. unconstrained.Dag.Schedule.makespan) < 1e-4)

let test_lp_bound_ordering () =
  (* LP objective <= continuous replay <= Static makespan: the chain that
     makes the LP an upper bound on achievable performance *)
  List.iter
    (fun app ->
      let g =
        Workloads.Apps.generate app
          { Workloads.Apps.default_params with nranks = 4; iterations = 3 }
      in
      let sc = Core.Scenario.make g in
      let cap = 35.0 *. 4.0 in
      let s = lp_schedule sc ~cap in
      let v = Core.Replay.validate sc s ~power_cap:cap in
      let static = Runtime.Static.run sc ~job_cap:cap in
      Alcotest.(check bool)
        (Workloads.Apps.app_name app ^ ": lp <= replay")
        true
        (s.Core.Event_lp.objective <= v.Core.Replay.replay_makespan +. 1e-6);
      Alcotest.(check bool)
        (Workloads.Apps.app_name app ^ ": replay <= static")
        true
        (v.Core.Replay.replay_makespan
        <= static.Simulate.Engine.makespan +. 1e-6))
    Workloads.Apps.all_apps

let test_replay_respects_cap () =
  List.iter
    (fun app ->
      let g =
        Workloads.Apps.generate app
          { Workloads.Apps.default_params with nranks = 4; iterations = 3 }
      in
      let sc = Core.Scenario.make g in
      List.iter
        (fun cap_per ->
          let cap = cap_per *. 4.0 in
          match Core.Event_lp.solve sc ~power_cap:cap with
          | Core.Event_lp.Schedule s ->
              let v = Core.Replay.validate sc s ~power_cap:cap in
              if not v.Core.Replay.within_cap then
                Alcotest.failf "%s at %gW: replay power %.1f over cap %.1f"
                  (Workloads.Apps.app_name app)
                  cap_per v.Core.Replay.max_power cap
          | Core.Event_lp.Infeasible -> ()
          | Core.Event_lp.Solver_failure m -> Alcotest.failf "failure: %s" m)
        [ 30.0; 45.0; 65.0 ])
    Workloads.Apps.all_apps

let test_replay_gap_small_continuous () =
  let sc = comd_sc () in
  let s = lp_schedule sc ~cap:140.0 in
  let v = Core.Replay.validate sc s ~power_cap:140.0 in
  Alcotest.(check bool) "continuous replay within 1% of LP" true
    (Float.abs v.Core.Replay.gap_pct < 1.0)

let test_discrete_mode () =
  let sc = comd_sc () in
  let s = lp_schedule ~mode:Core.Event_lp.Discrete_rounded sc ~cap:140.0 in
  (* every blend is a single real configuration *)
  Array.iter
    (fun blend ->
      match blend with
      | [] | [ _ ] -> ()
      | _ -> Alcotest.fail "discrete blend has several points")
    s.Core.Event_lp.blends;
  (* discrete can be slightly worse but must stay close to continuous *)
  let cont = lp_schedule sc ~cap:140.0 in
  let vd = Core.Replay.validate sc s ~power_cap:140.0 in
  Alcotest.(check bool) "discrete replay within 10% of continuous LP" true
    (vd.Core.Replay.replay_makespan
    <= cont.Core.Event_lp.objective *. 1.10)

let test_blends_sum_to_one () =
  let sc = comd_sc () in
  let s = lp_schedule sc ~cap:120.0 in
  Array.iteri
    (fun tid blend ->
      if Array.length sc.Core.Scenario.frontiers.(tid) > 0 then begin
        let w = List.fold_left (fun a (_, x) -> a +. x) 0.0 blend in
        Alcotest.(check (float 1e-6)) "weights sum to 1" 1.0 w;
        (* blends lie on adjacent hull points in the typical case *)
        Alcotest.(check bool) "blend support small" true (List.length blend <= 3)
      end)
    s.Core.Event_lp.blends

let test_lp_power_rows_deduped () =
  let sc = comd_sc () in
  let s = lp_schedule sc ~cap:140.0 in
  (* comd: one distinct active set per iteration (plus none at the end) *)
  Alcotest.(check bool) "power rows bounded" true
    (s.Core.Event_lp.stats.Core.Event_lp.power_rows <= 6)



let test_to_mps_roundtrip () =
  (* the exported LP parses back and has the same optimum the internal
     solve reports *)
  let sc = comd_sc () in
  let cap = 130.0 in
  let mps = Core.Event_lp.to_mps sc ~power_cap:cap in
  let p = Lp.Mps.of_string mps in
  let r = Lp.Revised.solve p in
  let s = lp_schedule sc ~cap in
  Alcotest.(check bool) "optimal" true (r.Lp.Revised.status = Lp.Revised.Optimal);
  Alcotest.(check (float 1e-5)) "same optimum" s.Core.Event_lp.objective
    r.Lp.Revised.objective

let test_power_duals_sensitivity () =
  (* shadow prices: d(makespan)/d(cap) = -sum of power duals, checked by
     finite difference at a binding cap *)
  let sc = comd_sc () in
  let cap = 120.0 in
  let s0 = lp_schedule sc ~cap in
  let total_dual =
    Array.fold_left (fun acc (_, d) -> acc +. d) 0.0 s0.Core.Event_lp.power_duals
  in
  Alcotest.(check bool) "binding at 30W/socket" true (total_dual > 1e-6);
  let dw = 0.05 in
  let s1 = lp_schedule sc ~cap:(cap +. dw) in
  let predicted = s0.Core.Event_lp.objective -. (dw *. total_dual) in
  let actual = s1.Core.Event_lp.objective in
  if Float.abs (predicted -. actual) > 1e-3 *. s0.Core.Event_lp.objective then
    Alcotest.failf "dual prediction %.6f vs actual %.6f (base %.6f)" predicted
      actual s0.Core.Event_lp.objective

let test_power_duals_vanish_uncapped () =
  let sc = comd_sc () in
  let s = lp_schedule sc ~cap:2000.0 in
  Array.iter
    (fun (_, d) ->
      Alcotest.(check bool) "no binding power events" true (Float.abs d < 1e-9))
    s.Core.Event_lp.power_duals


let test_solve_refined_sound () =
  (* refinement never worsens the bound and stays realizable *)
  let g =
    Workloads.Apps.lulesh
      { Workloads.Apps.default_params with nranks = 4; iterations = 3 }
  in
  let sc = Core.Scenario.make g in
  let cap = 35.0 *. 4.0 in
  match
    (Core.Event_lp.solve sc ~power_cap:cap,
     Core.Event_lp.solve_refined ~rounds:3 sc ~power_cap:cap)
  with
  | Core.Event_lp.Schedule base, Core.Event_lp.Schedule refined ->
      Alcotest.(check bool) "refined <= base" true
        (refined.Core.Event_lp.objective
        <= base.Core.Event_lp.objective +. 1e-9);
      let v = Core.Replay.validate sc refined ~power_cap:cap in
      Alcotest.(check bool) "refined replay within cap" true
        v.Core.Replay.within_cap;
      Alcotest.(check bool) "refined replay near bound" true
        (Float.abs v.Core.Replay.gap_pct < 1.0)
  | _ -> Alcotest.fail "both solves should succeed"

let test_solve_refined_flag_plumbing () =
  (* reduce_slack/presolve must reach the inner rounds, not just round 0:
     with both off, refinement still never worsens the equally-configured
     direct solve and stays realizable *)
  let sc = comd_sc () in
  let cap = 140.0 in
  match
    ( Core.Event_lp.solve ~reduce_slack:false ~presolve:false sc
        ~power_cap:cap,
      Core.Event_lp.solve_refined ~rounds:3 ~reduce_slack:false
        ~presolve:false sc ~power_cap:cap )
  with
  | Core.Event_lp.Schedule base, Core.Event_lp.Schedule refined ->
      Alcotest.(check bool) "refined <= base" true
        (refined.Core.Event_lp.objective
        <= base.Core.Event_lp.objective +. 1e-9);
      let v = Core.Replay.validate sc refined ~power_cap:cap in
      Alcotest.(check bool) "refined replay within cap" true
        v.Core.Replay.within_cap
  | _ -> Alcotest.fail "both solves should succeed"

(* A what-if edit keeps the LP's shape (every domain edit compiles to
   bound, RHS and coefficient edits), reaches the cold optimum of the
   edited scenario from the base basis without any fallback, and its
   schedule replays within the cap in the edited world.  The chain
   applies a perturbation to the handle and basis a failure returned. *)
let test_edit_prepared () =
  List.iter
    (fun app ->
      let name = Workloads.Apps.app_name app in
      let sc =
        Core.Scenario.make
          (Workloads.Apps.generate app
             { Workloads.Apps.default_params with nranks = 4; iterations = 3 })
      in
      let cap = 40.0 *. 4.0 in
      let pz = Core.Event_lp.prepare ~presolve:false sc ~power_cap:cap in
      let base, basis = Core.Event_lp.solve_prepared pz ~power_cap:cap in
      let shape (s : Core.Event_lp.schedule) =
        (s.Core.Event_lp.stats.Core.Event_lp.rows,
         s.Core.Event_lp.stats.Core.Event_lp.cols)
      in
      let base_shape =
        match base with
        | Core.Event_lp.Schedule s -> shape s
        | _ -> Alcotest.failf "%s: base solve failed" name
      in
      let fr = sc.Core.Scenario.frontiers in
      let live r =
        let tasks = sc.Core.Scenario.graph.Dag.Graph.tasks in
        let rec go tid =
          if Array.length fr.(tid) > 1 && tasks.(tid).Dag.Graph.rank = r then tid
          else go (tid + 1)
        in
        go 0
      in
      let perturb tid point =
        let pt = fr.(tid).(point) in
        Core.Event_lp.Perturb_task
          {
            tid;
            point;
            duration = pt.Pareto.Point.duration *. 1.07;
            power = pt.Pareto.Point.power *. 0.96;
          }
      in
      let t0 = live 0 in
      let run what ?(drop = false) pz warm des ~total =
        let what = Printf.sprintf "%s %s" name what in
        List.iter
          (fun e ->
            match e with
            | Lp.Edit.Set_bounds _ | Lp.Edit.Set_rhs _ | Lp.Edit.Set_entry _ -> ()
            | e -> Alcotest.failf "%s: compiles to %a" what Lp.Edit.pp e)
          (Core.Event_lp.compile_edits pz des);
        let st0 = Lp.Stats.snapshot () in
        let o, pz', basis' = Core.Event_lp.edit_prepared ?warm pz des in
        let st1 = Lp.Stats.snapshot () in
        let sc' = Core.Event_lp.edit_scenario sc total in
        let cold =
          Core.Event_lp.solve ~init:(Core.Event_lp.initial_times sc) sc'
            ~power_cap:cap
        in
        (match (o, cold) with
        | Core.Event_lp.Schedule s, Core.Event_lp.Schedule c ->
            Alcotest.(check (pair int int)) (what ^ ": base shape") base_shape
              (shape s);
            let x = s.Core.Event_lp.objective and y = c.Core.Event_lp.objective in
            if Float.abs (x -. y) > 1e-9 *. Float.abs y then
              Alcotest.failf "%s: objective %.12g, cold %.12g" what x y;
            let v = Core.Replay.validate sc' s ~power_cap:cap in
            if not v.Core.Replay.within_cap then
              Alcotest.failf "%s: replays at %.1f W over %.0f W" what
                v.Core.Replay.max_power cap
        | _ -> Alcotest.failf "%s: edited or cold solve failed" what);
        if drop then begin
          Alcotest.(check int) (what ^ ": edit fallbacks") 0
            (st1.Lp.Stats.edit_fallbacks - st0.Lp.Stats.edit_fallbacks);
          Alcotest.(check int) (what ^ ": warm fallbacks") 0
            (st1.Lp.Stats.warm_fallbacks - st0.Lp.Stats.warm_fallbacks)
        end;
        (pz', basis')
      in
      let des = [ Core.Event_lp.Drop_rank 1 ] in
      ignore (run "drop" ~drop:true pz basis des ~total:des);
      let des = [ perturb t0 (Array.length fr.(t0) / 2) ] in
      ignore (run "perturb" pz basis des ~total:des);
      let fail = [ Core.Event_lp.Fail_socket 2 ] in
      let pz', basis' = run "fail" pz basis fail ~total:fail in
      let des = [ perturb (live 2) 0 ] in
      ignore (run "fail then perturb" pz' basis' des ~total:(fail @ des)))
    Workloads.Apps.all_apps

(* MD5 of a reduction's arrays rendered with %h, so any changed bit of
   the reduced matrix, bounds, objective, RHS, index maps, variable
   dispositions or scale factors changes it. *)
let reduction_md5 (r : Lp.Presolve.reduction) =
  let b = Buffer.create 4096 in
  let p = r.Lp.Presolve.problem in
  let ints xs = Array.iter (Printf.bprintf b "%d,") xs; Buffer.add_char b ';' in
  let floats xs = Array.iter (Printf.bprintf b "%h,") xs; Buffer.add_char b ';' in
  ints p.Lp.Model.a.Lp.Sparse.Csc.colptr;
  ints p.Lp.Model.a.Lp.Sparse.Csc.rowind;
  floats p.Lp.Model.a.Lp.Sparse.Csc.values;
  List.iter floats [ p.Lp.Model.lb; p.Lp.Model.ub; p.Lp.Model.obj; p.Lp.Model.row_rhs ];
  ints r.Lp.Presolve.keep_vars;
  ints r.Lp.Presolve.kept_rows;
  Array.iter
    (function
      | Lp.Presolve.Kept -> Buffer.add_string b "K,"
      | Lp.Presolve.Fixed v -> Printf.bprintf b "F%h," v
      | Lp.Presolve.Subst { of_var; scale; offset } ->
          Printf.bprintf b "S%d:%h:%h," of_var scale offset)
    r.Lp.Presolve.state;
  floats r.Lp.Presolve.row_scale;
  floats r.Lp.Presolve.col_scale;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every event-LP reduction at 4x3 and 40 W/socket, in makespan mode and
   in energy mode at a fixed deadline (about 1.5x the makespan bound),
   pinned bit for bit: a change to the build or to presolve that moves
   any reduced byte fails here, not only in the sweep's stdout. *)
let test_presolve_reductions_pinned () =
  let pinned =
    [
      (Workloads.Apps.CoMD, None,
       (29, 267, 816, 6, 2, "b6c0aad63595a880216c3898ba59312b"));
      (Workloads.Apps.CoMD, Some 4.0,
       (29, 267, 816, 7, 2, "4d000a063b70a5139bfc15d49310d17a"));
      (Workloads.Apps.LULESH, None,
       (113, 503, 2468, 14, 6, "8ffe9c193f8d1121b243ab3e30552d2c"));
      (Workloads.Apps.LULESH, Some 18.5,
       (113, 503, 2468, 15, 6, "6ec0fa1e77a1e6fb19b47b04976df985"));
      (Workloads.Apps.SP, None,
       (110, 550, 2654, 16, 7, "fa13cf1fa7cc50ca1d0ce90c9dfe57be"));
      (Workloads.Apps.SP, Some 3.7,
       (110, 550, 2654, 17, 7, "8499f8cc82a676f0ab04a94822da1ad8"));
      (Workloads.Apps.BT, None,
       (110, 574, 2746, 16, 7, "bc1ec472cf223cbd9b2425679745190c"));
      (Workloads.Apps.BT, Some 5.0,
       (110, 574, 2746, 17, 7, "296485b33ce703b4f9db854f281a9016"));
    ]
  in
  List.iter
    (fun (app, deadline, (nr, nv, nnz, drows, dcols, md5)) ->
      let g =
        Workloads.Apps.generate app
          { Workloads.Apps.default_params with nranks = 4; iterations = 3 }
      in
      let objective =
        Option.map
          (fun deadline -> Core.Objective.Energy_under_deadline { deadline })
          deadline
      in
      let p =
        Core.Event_lp.prepared_problem
          (Core.Event_lp.prepare ~presolve:false ?objective (Core.Scenario.make g)
             ~power_cap:160.0)
      in
      match Lp.Presolve.reduce p with
      | Lp.Presolve.Proven_infeasible -> Alcotest.fail "not infeasible"
      | Lp.Presolve.Reduced r ->
          let q = r.Lp.Presolve.problem in
          let what =
            Printf.sprintf "%s %s" (Workloads.Apps.app_name app)
              (match deadline with None -> "makespan" | Some d -> Printf.sprintf "energy %g s" d)
          in
          Alcotest.(check (list int))
            (what ^ ": nr, nv, nnz, dropped rows, dropped cols")
            [ nr; nv; nnz; drows; dcols ]
            [
              q.Lp.Model.nr;
              q.Lp.Model.nv;
              Lp.Sparse.Csc.nnz q.Lp.Model.a;
              r.Lp.Presolve.dropped_rows;
              r.Lp.Presolve.dropped_cols;
            ];
          Alcotest.(check string) (what ^ ": reduction MD5") md5 (reduction_md5 r))
    pinned

(* ------------------------------------------------------------------ *)
(* Flow ILP                                                            *)
(* ------------------------------------------------------------------ *)

let test_flow_too_large () =
  let sc = comd_sc () in
  match Core.Flow_ilp.solve ~max_tasks:5 sc ~power_cap:140.0 with
  | Core.Flow_ilp.Too_large n -> Alcotest.(check bool) "size reported" true (n > 5)
  | _ -> Alcotest.fail "expected Too_large"

let exchange_sc () = Core.Scenario.make (Workloads.Apps.exchange ())

let test_flow_close_to_fixed_order () =
  (* paper Figure 8: the two formulations agree within ~2% *)
  let sc = exchange_sc () in
  List.iter
    (fun cap ->
      let fixed = lp_schedule sc ~cap in
      match Core.Flow_ilp.solve sc ~power_cap:cap with
      | Core.Flow_ilp.Schedule flow ->
          let rel =
            Float.abs
              (flow.Core.Flow_ilp.objective -. fixed.Core.Event_lp.objective)
            /. fixed.Core.Event_lp.objective
          in
          if rel > 0.05 then
            Alcotest.failf "cap %g: flow %.4f vs fixed %.4f (%.1f%%)" cap
              flow.Core.Flow_ilp.objective fixed.Core.Event_lp.objective
              (100.0 *. rel);
          (* the solver-chosen order can only help *)
          Alcotest.(check bool) "flow <= fixed + tol" true
            (flow.Core.Flow_ilp.objective
            <= fixed.Core.Event_lp.objective +. 0.02 *. fixed.Core.Event_lp.objective)
      | Core.Flow_ilp.Infeasible -> Alcotest.failf "flow infeasible at %g" cap
      | Core.Flow_ilp.Too_large n -> Alcotest.failf "too large: %d" n
      | Core.Flow_ilp.Solver_failure m -> Alcotest.failf "flow failure: %s" m)
    [ 45.0; 60.0; 90.0 ]


let test_flow_integer_configs () =
  (* discrete configurations can only be worse than continuous blends *)
  let sc = exchange_sc () in
  let cap = 55.0 in
  match
    ( Core.Flow_ilp.solve sc ~power_cap:cap,
      Core.Flow_ilp.solve ~integer_configs:true sc ~power_cap:cap )
  with
  | Core.Flow_ilp.Schedule cont, Core.Flow_ilp.Schedule disc ->
      Alcotest.(check bool) "discrete >= continuous" true
        (disc.Core.Flow_ilp.objective >= cont.Core.Flow_ilp.objective -. 1e-6);
      (* every blend is one configuration *)
      Array.iter
        (fun blend ->
          match blend with
          | [] | [ _ ] -> ()
          | _ -> Alcotest.fail "integer configs produced a blend")
        disc.Core.Flow_ilp.blends;
      (* but not catastrophically worse on this dense frontier *)
      Alcotest.(check bool) "discrete within 15%" true
        (disc.Core.Flow_ilp.objective
        <= cont.Core.Flow_ilp.objective *. 1.15)
  | _ -> Alcotest.fail "both solves should succeed"

let test_flow_monotone () =
  let sc = exchange_sc () in
  let o cap =
    match Core.Flow_ilp.solve sc ~power_cap:cap with
    | Core.Flow_ilp.Schedule s -> s.Core.Flow_ilp.objective
    | _ -> Alcotest.failf "no flow schedule at %g" cap
  in
  let t1 = o 50.0 and t2 = o 70.0 and t3 = o 120.0 in
  Alcotest.(check bool) "monotone in cap" true
    (t1 >= t2 -. 1e-6 && t2 >= t3 -. 1e-6)


(* ------------------------------------------------------------------ *)
(* Properties on random synthetic applications                         *)
(* ------------------------------------------------------------------ *)

let prop_lp_bound_on_synthetic =
  QCheck.Test.make ~count:25 ~name:"lp bound and cap hold on synthetic apps"
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, nranks) ->
      let g = Workloads.Apps.synthetic ~seed ~nranks ~steps:4 in
      let sc = Core.Scenario.make g in
      let cap = 40.0 *. Float.of_int nranks in
      match Core.Event_lp.solve sc ~power_cap:cap with
      | Core.Event_lp.Infeasible -> true
      | Core.Event_lp.Solver_failure m ->
          QCheck.Test.fail_reportf "solver failure: %s" m
      | Core.Event_lp.Schedule s ->
          let v = Core.Replay.validate sc s ~power_cap:cap in
          let static = Runtime.Static.run sc ~job_cap:cap in
          if not v.Core.Replay.within_cap then
            QCheck.Test.fail_reportf "cap violated: %.1f > %.1f"
              v.Core.Replay.max_power cap
          else if
            s.Core.Event_lp.objective
            > static.Simulate.Engine.makespan +. 1e-6
          then
            QCheck.Test.fail_reportf "bound above static: %.4f > %.4f"
              s.Core.Event_lp.objective static.Simulate.Engine.makespan
          else if
            Float.abs v.Core.Replay.gap_pct > 2.0
          then QCheck.Test.fail_reportf "replay gap %.2f%%" v.Core.Replay.gap_pct
          else true)

let suite =
  [
    ( "core.scenario",
      [ Alcotest.test_case "frontiers" `Quick test_scenario_frontiers ] );
    ( "core.event_lp",
      [
        Alcotest.test_case "infeasible below min" `Quick test_lp_infeasible_below_min;
        Alcotest.test_case "monotone in cap" `Quick test_lp_monotone_in_cap;
        Alcotest.test_case "bound ordering" `Quick test_lp_bound_ordering;
        Alcotest.test_case "replay respects cap" `Quick test_replay_respects_cap;
        Alcotest.test_case "continuous replay gap" `Quick test_replay_gap_small_continuous;
        Alcotest.test_case "discrete mode" `Quick test_discrete_mode;
        Alcotest.test_case "blends sum to one" `Quick test_blends_sum_to_one;
        Alcotest.test_case "power rows deduped" `Quick test_lp_power_rows_deduped;
        Alcotest.test_case "dual sensitivity" `Quick test_power_duals_sensitivity;
        Alcotest.test_case "duals vanish uncapped" `Quick test_power_duals_vanish_uncapped;
        Alcotest.test_case "mps export" `Quick test_to_mps_roundtrip;
        Alcotest.test_case "refined sound" `Quick test_solve_refined_sound;
        Alcotest.test_case "refined flag plumbing" `Quick
          test_solve_refined_flag_plumbing;
        Alcotest.test_case "edit_prepared keeps shape, matches cold" `Quick
          test_edit_prepared;
        Alcotest.test_case "presolve reductions pinned" `Quick
          test_presolve_reductions_pinned;
      ] );
    ( "core.flow_ilp",
      [
        Alcotest.test_case "too large" `Quick test_flow_too_large;
        Alcotest.test_case "close to fixed order" `Quick test_flow_close_to_fixed_order;
        Alcotest.test_case "monotone" `Quick test_flow_monotone;
        Alcotest.test_case "integer configs" `Quick test_flow_integer_configs;
      ] );
    ( "core.properties",
      [ QCheck_alcotest.to_alcotest prop_lp_bound_on_synthetic ] );
  ]
