(* Integration tests of the experiment harness: each paper artifact's
   printer runs end-to-end on a tiny configuration and emits its
   expected sections and data rows. *)

let tiny =
  {
    Experiments.Common.default_config with
    Experiments.Common.nranks = 4;
    iterations = 5;
    caps = [ 35.0; 60.0 ];
  }

let render f =
  let buf = Buffer.create 2048 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let check_contains out what =
  if not (contains out what) then
    Alcotest.failf "output missing %S in:\n%s" what out

let test_fig1 () =
  let out = render (Experiments.Fig1_table1.run ~config:tiny) in
  check_contains out "Figure 1";
  check_contains out "Table 1";
  check_contains out "reduced threads only at 1.2 GHz: true";
  (* 120 configurations, one line each *)
  let data_lines =
    String.split_on_char '\n' out
    |> List.filter (fun l ->
           String.length l > 0 && l.[0] >= '1' && l.[0] <= '2')
  in
  Alcotest.(check bool) "~120 config rows" true (List.length data_lines >= 120)

let test_fig8 () =
  let out = render (Experiments.Fig8.run ~config:tiny) in
  check_contains out "Figure 8";
  check_contains out "power limits agree within 1.9%"

let sweep = lazy (Experiments.Sweeps.compute ~config:tiny ())

let test_sweep_figures () =
  let s = Lazy.force sweep in
  let out9 = render (Experiments.Sweeps.fig9 s) in
  check_contains out9 "Figure 9";
  check_contains out9 "CoMD LULESH SP BT";
  let out10 = render (Experiments.Sweeps.fig10 s) in
  check_contains out10 "Figure 10";
  List.iter
    (fun (app, fig) ->
      let out = render (Experiments.Sweeps.per_benchmark s app) in
      check_contains out (Printf.sprintf "Figure %d" fig))
    [
      (Workloads.Apps.CoMD, 11);
      (Workloads.Apps.BT, 13);
      (Workloads.Apps.SP, 14);
      (Workloads.Apps.LULESH, 15);
    ];
  let summary = render (Experiments.Sweeps.summary s) in
  check_contains summary "max LP vs Static";
  check_contains summary "worst Conductor vs Static"

let test_sweep_points_sound () =
  (* every schedulable sweep point satisfies the bound ordering *)
  let s = Lazy.force sweep in
  List.iter
    (fun (_, sw) ->
      List.iter
        (fun (p : Experiments.Common.point) ->
          if p.Experiments.Common.schedulable then begin
            Alcotest.(check bool) "lp <= conductor span ordering" true
              (p.Experiments.Common.lp_span
              <= p.Experiments.Common.conductor_span +. 1e-6
              || p.Experiments.Common.lp_vs_conductor >= -0.01);
            Alcotest.(check bool) "power within job cap" true
              (p.Experiments.Common.lp_max_power
              <= p.Experiments.Common.job_cap *. 1.02 +. 1e-6)
          end)
        sw.Experiments.Common.points)
    s

let test_table3 () =
  let out = render (Experiments.Table3.run ~config:tiny) in
  check_contains out "Table 3";
  check_contains out "Static";
  check_contains out "Conductor";
  check_contains out "LP"

let test_fig12 () =
  let out = render (Experiments.Fig12.run ~config:tiny) in
  check_contains out "Figure 12";
  check_contains out "LP";
  check_contains out "Static"

let test_overheads () =
  let out = render (Experiments.Overheads.run ~config:tiny) in
  check_contains out "34 us/MPI call";
  check_contains out "reallocation"

let test_extensions () =
  let out = render (Experiments.Extensions.run ~config:tiny) in
  check_contains out "balancer";
  check_contains out "lp_refined_s"

(* Pinned fixture for the degenerate-warm-start rule and the zero-dual
   certificate.  400 W/socket is far above any CoMD task's draw, so it
   and every looser cap are guaranteed unconstraining.  A cap whose power
   duals are all zero is re-solved cold by the sweep chain, so warm and
   cold sweeps publish bit-identical points; that reported optimum is
   then reused at 450 and 500 W without another solve.  Both rules are
   observable in the counters: the cold arm solves 35 and 400 W, the
   warm arm adds one cold re-solve at 400 W. *)
let test_degenerate_duals_cold_fallback () =
  let config =
    { tiny with Experiments.Common.caps = [ 35.0; 400.0; 450.0; 500.0 ] }
  in
  let s = Experiments.Common.make_setup config Workloads.Apps.CoMD in
  let arm warm =
    Lp.Stats.reset ();
    let sw = Experiments.Common.run_sweep ~warm s in
    (sw, Lp.Stats.snapshot ())
  in
  let sw_cold, st_cold = arm false in
  let sw_warm, st_warm = arm true in
  Alcotest.(check int) "cold arm never warm-starts" 0
    st_cold.Lp.Stats.warm_solves;
  Alcotest.(check bool) "warm arm attempted a warm start" true
    (st_warm.Lp.Stats.warm_solves >= 1);
  Alcotest.(check int) "cold arm solves 35 and 400 W only" 2
    st_cold.Lp.Stats.solves;
  Alcotest.(check int) "zero-dual fallback re-solves exactly once"
    (st_cold.Lp.Stats.solves + 1)
    st_warm.Lp.Stats.solves;
  let bits x = Int64.bits_of_float x in
  List.iter2
    (fun (a : Experiments.Common.point) (b : Experiments.Common.point) ->
      Alcotest.(check bool) "schedulable flags agree"
        a.Experiments.Common.schedulable b.Experiments.Common.schedulable;
      Alcotest.(check bool) "lp span bit-identical warm vs cold" true
        (Int64.equal (bits a.Experiments.Common.lp_span)
           (bits b.Experiments.Common.lp_span)))
    sw_cold.Experiments.Common.points sw_warm.Experiments.Common.points;
  (* the reused optimum is optimal at its own cap and replays under it *)
  List.iter
    (fun (sw : Experiments.Common.sweep) ->
      let at cap =
        List.find
          (fun (p : Experiments.Common.point) -> p.Experiments.Common.cap = cap)
          sw.Experiments.Common.points
      in
      let p400 = at 400.0 in
      List.iter
        (fun cap ->
          let p = at cap in
          Alcotest.(check bool)
            (Printf.sprintf "%g W carries the 400 W lp span" cap)
            true
            (Int64.equal (bits p.Experiments.Common.lp_span)
               (bits p400.Experiments.Common.lp_span));
          (match
             Core.Event_lp.solve s.Experiments.Common.sc
               ~power_cap:p.Experiments.Common.job_cap
           with
          | Core.Event_lp.Schedule sch ->
              let ref_obj = sch.Core.Event_lp.objective in
              Alcotest.(check bool)
                (Printf.sprintf "%g W objective = independent solve" cap)
                true
                (Float.abs (p.Experiments.Common.lp_objective -. ref_obj)
                <= 1e-9 *. Float.abs ref_obj)
          | _ -> Alcotest.failf "independent solve at %g W failed" cap);
          Alcotest.(check bool)
            (Printf.sprintf "%g W replay within its cap" cap)
            true
            (p.Experiments.Common.lp_max_power
            <= 1.02 *. p.Experiments.Common.job_cap))
        [ 450.0; 500.0 ])
    [ sw_cold; sw_warm ]

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "fig1 + table1" `Quick test_fig1;
        Alcotest.test_case "fig8" `Quick test_fig8;
        Alcotest.test_case "sweep figures" `Slow test_sweep_figures;
        Alcotest.test_case "sweep soundness" `Slow test_sweep_points_sound;
        Alcotest.test_case "table3" `Quick test_table3;
        Alcotest.test_case "fig12" `Quick test_fig12;
        Alcotest.test_case "overheads" `Quick test_overheads;
        Alcotest.test_case "extensions" `Quick test_extensions;
        Alcotest.test_case "degenerate duals re-solve cold" `Slow
          test_degenerate_duals_cold_fallback;
      ] );
  ]
