(* Pins on the simplex's work.  A change that claims to touch only the
   solver's kernels (how a scan allocates, how candidates are ordered)
   must keep every pivot: these tests fail on any moved pivot count or
   objective bit, and on an allocation regression in the per-pivot
   scans.  Every pinned value was measured before the pricing loop and
   the dual ratio test were made allocation-free. *)

let scenario ~ranks ~iters =
  Pipeline.Stages.scenario
    (Pipeline.Stages.Synthetic
       ( Workloads.Apps.CoMD,
         { Workloads.Apps.nranks = ranks; iterations = iters; seed = 42; scale = 1.0 }
       ))

let schedule = function
  | Core.Event_lp.Schedule s -> s
  | Core.Event_lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Core.Event_lp.Solver_failure m -> Alcotest.failf "solver failure: %s" m

let iterations (s : Core.Event_lp.schedule) =
  s.Core.Event_lp.stats.Core.Event_lp.iterations

(* The LP of [powerlim bound --app comd --ranks 128 --iters 1 --cap 40]. *)
let bound128 () =
  let sc = scenario ~ranks:128 ~iters:1 in
  let cap = 40.0 *. 128.0 in
  (Core.Event_lp.prepare sc ~power_cap:cap, cap)

let test_bound_pin () =
  let sc = scenario ~ranks:128 ~iters:1 in
  let s = schedule (Core.Event_lp.solve sc ~power_cap:(40.0 *. 128.0)) in
  Alcotest.(check int) "simplex iterations" 1564 (iterations s);
  Alcotest.(check string) "objective bits" "0x1.c0f13a9564d58p-1"
    (Printf.sprintf "%h" s.Core.Event_lp.objective)

let test_sweep_pin () =
  Putil.Cache.clear_all ();
  let s0 = Lp.Stats.snapshot () in
  ignore (Serve.Handlers.sweep ~ranks:4 ~iters:3 ~seed:42 ());
  let s1 = Lp.Stats.snapshot () in
  let d f = f s1 - f s0 in
  Alcotest.(check (list int))
    "solves, pivots, dual pivots, bound flips" [ 26; 2171; 738; 546 ]
    [
      d (fun s -> s.Lp.Stats.solves);
      d (fun s -> s.Lp.Stats.pivots);
      d (fun s -> s.Lp.Stats.dual_pivots);
      d (fun s -> s.Lp.Stats.bound_flips);
    ]

let test_what_if_pin () =
  let o =
    Serve.Handlers.what_if ~app:Workloads.Apps.CoMD ~ranks:16 ~iters:10
      ~seed:42 ~cap:40.0
      ~edits:[ Core.Event_lp.Fail_socket 8 ]
      ()
  in
  Alcotest.(check int) "status" 0 o.Serve.Handlers.status;
  let want = "what-if: 498 simplex iterations;" in
  Alcotest.(check string) "warm edit pivots" want
    (String.sub o.Serve.Handlers.err 0
       (min (String.length want) (String.length o.Serve.Handlers.err)))

(* [powerlim energy --app comd --ranks 16 --iters 10 --cap 40] at 1.2 T*:
   the energy objective prices nearly every column of the reduced LP, so
   the solve starts at the dual-feasible slack basis and runs no phase 1.
   From phase 1/2 the same LP took 2,052 pivots (926 in phase 1) to an
   objective 4 ulps away, at 0x1.4e3af4b4d8499p+12. *)
let test_energy_slack_start_pin () =
  let sc = scenario ~ranks:16 ~iters:10 in
  let cap = 40.0 *. 16.0 in
  let t_star = (schedule (Core.Event_lp.solve sc ~power_cap:cap)).Core.Event_lp.makespan in
  let s0 = Lp.Stats.snapshot () in
  let s =
    schedule
      (Core.Event_lp.solve
         ~objective:(Core.Objective.Energy_under_deadline { deadline = 1.2 *. t_star })
         sc ~power_cap:cap)
  in
  let s1 = Lp.Stats.snapshot () in
  let d f = f s1 - f s0 in
  Alcotest.(check (list int))
    "slack starts, slack fallbacks, phase-1 pivots, pivots" [ 1; 0; 0; 424 ]
    [
      d (fun s -> s.Lp.Stats.slack_starts);
      d (fun s -> s.Lp.Stats.slack_fallbacks);
      d (fun s -> s.Lp.Stats.phase1_pivots);
      d (fun s -> s.Lp.Stats.pivots);
    ];
  Alcotest.(check string) "objective bits" "0x1.4e3af4b4d8495p+12"
    (Printf.sprintf "%h" s.Core.Event_lp.objective);
  let phase12 = float_of_string "0x1.4e3af4b4d8499p+12" in
  Alcotest.(check bool) "phase-1/2 objective to 1e-9" true
    (Float.abs (s.Core.Event_lp.objective -. phase12) <= 1e-9 *. phase12)

(* [powerlim what-if --app bt --ranks 16 --iters 10 --cap 40
   --drop-rank 3]: the warm dual loop stops at its m + 2000 cap (m =
   1,556) and the solve restarts cold.  The abandoned attempt's 3,557
   dual pivots count with the base's 2,898 and the cold restart's
   2,716. *)
let test_abandoned_attempt_counted () =
  Putil.Cache.clear_all ();
  let s0 = Lp.Stats.snapshot () in
  let o =
    Serve.Handlers.what_if ~app:Workloads.Apps.BT ~ranks:16 ~iters:10
      ~seed:42 ~cap:40.0
      ~edits:[ Core.Event_lp.Drop_rank 3 ]
      ()
  in
  let s1 = Lp.Stats.snapshot () in
  let d f = f s1 - f s0 in
  Alcotest.(check int) "status" 0 o.Serve.Handlers.status;
  Alcotest.(check (list int))
    "warm fallbacks, dual cap hits, dual pivots, pivots" [ 1; 1; 3557; 9171 ]
    [
      d (fun s -> s.Lp.Stats.warm_fallbacks);
      d (fun s -> s.Lp.Stats.dual_cap_hits);
      d (fun s -> s.Lp.Stats.dual_pivots);
      d (fun s -> s.Lp.Stats.pivots);
    ]

(* Minor words per pivot over the bound's solve (presolve restore and
   schedule extraction included).  The per-pivot scans allocated about
   2,800 words per pivot when they boxed a float per priced column, and
   about 700 since. *)
let test_allocation_budget () =
  let pz, cap = bound128 () in
  let w0 = Gc.minor_words () in
  let s = schedule (fst (Core.Event_lp.solve_prepared pz ~power_cap:cap)) in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "simplex iterations" 1564 (iterations s);
  let per_pivot = words /. Float.of_int (iterations s) in
  if per_pivot > 1000.0 then
    Alcotest.failf "%.0f minor words per pivot, budget 1000" per_pivot

(* The six exclusive layer timers cover the solve: only set-up,
   extraction and loop control run outside them.  The times are wall
   clock, so a solve that shares its cores with other work (another test
   binary, a benchmark smoke run) can lose a slice outside every layer:
   one such run read 79%.  Up to three solves are measured, and the pin
   fails only when every one of them misses the 90% bound. *)
let test_layer_timers_cover_the_solve () =
  let pz, cap = bound128 () in
  let measure () =
    let s0 = Lp.Stats.snapshot () in
    ignore (schedule (fst (Core.Event_lp.solve_prepared pz ~power_cap:cap)));
    let s1 = Lp.Stats.snapshot () in
    let d f = f s1 -. f s0 in
    let layers =
      List.map d
        Lp.Stats.
          [
            (fun s -> s.factor_s);
            (fun s -> s.ftran_s);
            (fun s -> s.btran_s);
            (fun s -> s.price_s);
            (fun s -> s.ratio_s);
            (fun s -> s.update_s);
          ]
    in
    List.iter
      (fun t -> Alcotest.(check bool) "layer time positive" true (t > 0.0))
      layers;
    Alcotest.(check int) "phase-1 pivots counted" 297
      (s1.Lp.Stats.phase1_pivots - s0.Lp.Stats.phase1_pivots);
    (List.fold_left ( +. ) 0.0 layers, d (fun s -> s.Lp.Stats.wall_s))
  in
  let rec attempt n misses =
    let sum, wall = measure () in
    if Float.abs (sum -. wall) <= 0.1 *. wall then ()
    else
      let misses = Printf.sprintf "%.4f s of %.4f s" sum wall :: misses in
      if n < 3 then attempt (n + 1) misses
      else
        Alcotest.failf "layers sum short of the solve in all three: %s"
          (String.concat ", " (List.rev misses))
  in
  attempt 1 []

let test_stats_export_layers () =
  let keys =
    [
      "phase1_pivots";
      "factor_s";
      "ftran_s";
      "btran_s";
      "price_s";
      "ratio_s";
      "update_s";
      "dual_cap_hits";
      "dual_numerical";
      "repair_fallbacks";
      "failure_fallbacks";
      "slack_starts";
      "slack_fallbacks";
    ]
  in
  match Putil.Obs.stats_json () with
  | Putil.Obs.Assoc kvs -> (
      match List.assoc_opt "lp" kvs with
      | Some (Putil.Obs.Assoc lp) ->
          List.iter
            (fun k ->
              Alcotest.(check bool) ("lp stats carry " ^ k) true
                (List.mem_assoc k lp))
            keys
      | _ -> Alcotest.fail "no lp stats provider")
  | _ -> Alcotest.fail "stats_json is not an object"

(* --- the invariant check ------------------------------------------------
   A [~check:true] solve verifies every pivot against a fresh
   factorization, and must leave the pivots and the answer alone. *)

let same_result what (a : Lp.Revised.result) (b : Lp.Revised.result) =
  Alcotest.(check int) (what ^ ": iterations") a.Lp.Revised.iterations
    b.Lp.Revised.iterations;
  Alcotest.(check string)
    (what ^ ": objective bits")
    (Printf.sprintf "%h" a.Lp.Revised.objective)
    (Printf.sprintf "%h" b.Lp.Revised.objective)

let basis_of what (r : Lp.Revised.result) =
  match r.Lp.Revised.basis with
  | Some b -> b
  | None -> Alcotest.failf "%s: no basis" what

(* A CoMD 4x3 event LP in its full column space, prepared at a cap no
   other row's RHS equals, so that its power rows are the rows whose RHS
   is that cap. *)
let chain_lp () =
  let sc = scenario ~ranks:4 ~iters:3 in
  let cap0 = 4.0 *. 33.3 in
  let pz = Core.Event_lp.prepare ~presolve:false sc ~power_cap:cap0 in
  let p = Core.Event_lp.prepared_problem pz in
  let at cap =
    Array.map (fun v -> if v = cap0 then cap else v) p.Lp.Model.row_rhs
  in
  Alcotest.(check bool) "power rows found" true
    (Array.exists (fun v -> v = cap0) p.Lp.Model.row_rhs);
  (pz, p, at)

let test_check_warm_chain () =
  let _, p, at = chain_lp () in
  let s0 = Lp.Stats.snapshot () in
  let step warm cap =
    let rhs = at (4.0 *. cap) in
    let plain = Lp.Revised.solve ?warm ~rhs p in
    let checked = Lp.Revised.solve ?warm ~rhs ~check:true p in
    same_result (Printf.sprintf "%.0f W" cap) plain checked;
    Some (basis_of "chain" checked)
  in
  ignore (List.fold_left step None [ 30.0; 35.0; 40.0; 50.0; 70.0 ]);
  let s1 = Lp.Stats.snapshot () in
  Alcotest.(check int) "warm solves" 8
    (s1.Lp.Stats.warm_solves - s0.Lp.Stats.warm_solves);
  Alcotest.(check int) "no fallback" 0
    (s1.Lp.Stats.warm_fallbacks - s0.Lp.Stats.warm_fallbacks);
  Alcotest.(check bool) "the chain ran dual pivots" true
    (s1.Lp.Stats.dual_pivots > s0.Lp.Stats.dual_pivots)

let bits_equal what (a : float array) (b : float array) =
  Alcotest.(check (array string))
    what
    (Array.map (Printf.sprintf "%h") a)
    (Array.map (Printf.sprintf "%h") b)

let same_answer what (a : Lp.Revised.result) (b : Lp.Revised.result) =
  Alcotest.(check string)
    (what ^ ": objective bits")
    (Printf.sprintf "%h" a.Lp.Revised.objective)
    (Printf.sprintf "%h" b.Lp.Revised.objective);
  bits_equal (what ^ ": x") a.Lp.Revised.x b.Lp.Revised.x;
  bits_equal (what ^ ": y") a.Lp.Revised.y b.Lp.Revised.y;
  bits_equal (what ^ ": dj") a.Lp.Revised.dj b.Lp.Revised.dj;
  let ba = basis_of what a and bb = basis_of what b in
  Alcotest.(check (array int)) (what ^ ": basic") ba.Lp.Revised.basic
    bb.Lp.Revised.basic;
  Alcotest.(check string) (what ^ ": statuses")
    (String.init (Array.length ba.Lp.Revised.vstat) (Array.get ba.Lp.Revised.vstat))
    (String.init (Array.length bb.Lp.Revised.vstat) (Array.get bb.Lp.Revised.vstat))

(* A warm start from an optimal basis at the same RHS changes nothing:
   the basis it installs is the canonical one, so the solve factors it
   once, makes no update, and reports the cold answer bit for bit. *)
let test_warm_unchanged_basis_factors_once () =
  let _, p, at = chain_lp () in
  let rhs = at (4.0 *. 40.0) in
  let cold = Lp.Revised.solve ~rhs p in
  let warm = basis_of "cold" cold in
  let s0 = Lp.Stats.snapshot () in
  let r = Lp.Revised.solve ~warm ~rhs p in
  let s1 = Lp.Stats.snapshot () in
  Alcotest.(check (pair int int))
    "factorizations, updates" (1, 0)
    ( s1.Lp.Stats.factorizations - s0.Lp.Stats.factorizations,
      s1.Lp.Stats.ft_updates - s0.Lp.Stats.ft_updates );
  same_answer "warm" cold r;
  same_answer "warm, checked" cold (Lp.Revised.solve ~warm ~rhs ~check:true p)

(* [powerlim what-if --app comd --ranks 16 --iters 10 --cap 40
   --perturb-task 13:2:0.05:80]: the edit leaves the base's optimal
   basis optimal.  Its iteration count and objective are those measured
   before the canonical refactorization learnt to skip an unchanged
   basis; the edit's solve then factored that basis twice. *)
let test_zero_change_what_if () =
  let params =
    { Workloads.Apps.nranks = 16; iterations = 10; seed = 42; scale = 1.0 }
  in
  let b =
    Pipeline.Stages.base
      (Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params))
      ~power_cap:(40.0 *. 16.0)
  in
  let edit =
    Core.Event_lp.Perturb_task
      { tid = 13; point = 2; duration = 0.05; power = 80.0 }
  in
  let s0 = Lp.Stats.snapshot () in
  let o, _, _ =
    Core.Event_lp.edit_prepared ?warm:b.Pipeline.Stages.basis
      b.Pipeline.Stages.prepared [ edit ]
  in
  let s1 = Lp.Stats.snapshot () in
  let s = schedule o in
  Alcotest.(check int) "simplex iterations" 1 (iterations s);
  Alcotest.(check string) "objective bits" "0x1.19bdf64c3ac51p+3"
    (Printf.sprintf "%h" s.Core.Event_lp.objective);
  Alcotest.(check (pair int int))
    "warm edit solves, factorizations" (1, 1)
    ( s1.Lp.Stats.edit_warm - s0.Lp.Stats.edit_warm,
      s1.Lp.Stats.factorizations - s0.Lp.Stats.factorizations )

let test_check_what_if_edit () =
  let pz, p, at = chain_lp () in
  let rhs = at (4.0 *. 40.0) in
  let base = Lp.Revised.solve ~rhs p in
  let edited =
    Lp.Edit.apply { p with Lp.Model.row_rhs = rhs }
      (Core.Event_lp.compile_edits pz [ Core.Event_lp.Fail_socket 2 ])
  in
  let warm = basis_of "base" base in
  let s0 = Lp.Stats.snapshot () in
  let plain = Lp.Revised.solve ~warm edited in
  let checked = Lp.Revised.solve ~warm ~check:true edited in
  let s1 = Lp.Stats.snapshot () in
  same_result "fail-socket 2" plain checked;
  Alcotest.(check int) "no fallback" 0
    (s1.Lp.Stats.warm_fallbacks - s0.Lp.Stats.warm_fallbacks)

let suite =
  [
    ( "lp.pins",
      [
        Alcotest.test_case "bound comd 128x1 at 40 W" `Quick test_bound_pin;
        Alcotest.test_case "sweep 4x3 solver work" `Quick test_sweep_pin;
        Alcotest.test_case "what-if comd 16x10 fail-socket 8" `Quick
          test_what_if_pin;
        Alcotest.test_case "energy comd 16x10 at 1.2 T* starts at the slack basis"
          `Quick test_energy_slack_start_pin;
        Alcotest.test_case "an abandoned warm attempt's pivots count" `Quick
          test_abandoned_attempt_counted;
        Alcotest.test_case "allocation per pivot" `Quick test_allocation_budget;
        Alcotest.test_case "layer timers cover the solve" `Quick
          test_layer_timers_cover_the_solve;
        Alcotest.test_case "stats export the layers" `Quick
          test_stats_export_layers;
        Alcotest.test_case "invariant check on a warm cap chain" `Quick
          test_check_warm_chain;
        Alcotest.test_case "invariant check on a what-if edit" `Quick
          test_check_what_if_edit;
        Alcotest.test_case "a warm re-solve that changes no basis factors once"
          `Quick test_warm_unchanged_basis_factors_once;
        Alcotest.test_case "what-if comd 16x10 zero-change perturb-task" `Quick
          test_zero_change_what_if;
      ] );
  ]
