(** The all-benchmark power sweep behind Figures 9-11 and 13-15, plus
    the Section 6 summary numbers.  The sweep (Static, Conductor and
    LP-replay at every cap for every application) is computed once and
    rendered as the different figures. *)

type t = (Workloads.Apps.app * Common.sweep) list

(* The apps fan out on the pool, one task each; an app's caps run as
   one sequential warm chain inside its task ({!Common.run_sweep}).
   [parallel_map] preserves list order, so the result is independent of
   pool size. *)
let compute ?pool ?(config = Common.default_config) () : t =
  let pool =
    match pool with Some p -> p | None -> Putil.Pool.get_default ()
  in
  Putil.Pool.parallel_map pool
    (fun app ->
      Putil.Obs.span ~cat:"sweep"
        ~args:[ ("app", Workloads.Apps.app_name app) ]
        "app"
        (fun () ->
          let setup = Common.make_setup config app in
          (app, Common.run_sweep setup)))
    Workloads.Apps.all_apps

(* ---- Figure 9: LP vs Static, all benchmarks ---------------------- *)

let fig9 (sweep : t) ppf =
  Common.header ppf "Figure 9: potential speedup of LP schedules vs. Static";
  Fmt.pf ppf "# watts_per_socket %s  (improvement %%)@."
    (String.concat " "
       (List.map (fun (a, _) -> Workloads.Apps.app_name a) sweep));
  let caps =
    match sweep with (_, s) :: _ -> List.map (fun (p : Common.point) -> p.Common.cap) s.Common.points | [] -> []
  in
  List.iter
    (fun cap ->
      Fmt.pf ppf "%5.0f " cap;
      List.iter
        (fun (_, s) ->
          let p = List.find (fun (p : Common.point) -> p.Common.cap = cap) s.Common.points in
          Fmt.pf ppf " %a" Common.pp_pct
            (if p.Common.schedulable then p.Common.lp_vs_static else Float.nan))
        sweep;
      Fmt.pf ppf "@.")
    caps

(* ---- Figure 10: LP vs Conductor, all benchmarks ------------------ *)

let fig10 (sweep : t) ppf =
  Common.header ppf "Figure 10: potential speedup of LP schedules vs. Conductor";
  Fmt.pf ppf "# watts_per_socket %s  (improvement %%)@."
    (String.concat " "
       (List.map (fun (a, _) -> Workloads.Apps.app_name a) sweep));
  let caps =
    match sweep with (_, s) :: _ -> List.map (fun (p : Common.point) -> p.Common.cap) s.Common.points | [] -> []
  in
  List.iter
    (fun cap ->
      Fmt.pf ppf "%5.0f " cap;
      List.iter
        (fun (_, s) ->
          let p = List.find (fun (p : Common.point) -> p.Common.cap = cap) s.Common.points in
          Fmt.pf ppf " %a" Common.pp_pct
            (if p.Common.schedulable then p.Common.lp_vs_conductor else Float.nan))
        sweep;
      Fmt.pf ppf "@.")
    caps

(* ---- Figures 11, 13, 14, 15: per-benchmark LP & Conductor vs Static *)

let figure_number = function
  | Workloads.Apps.CoMD -> 11
  | Workloads.Apps.BT -> 13
  | Workloads.Apps.SP -> 14
  | Workloads.Apps.LULESH -> 15

let per_benchmark (sweep : t) app ppf =
  let _, s = List.find (fun (a, _) -> a = app) sweep in
  Common.header ppf
    (Fmt.str "Figure %d: %s improvement vs. Static" (figure_number app)
       (Workloads.Apps.app_name app));
  Fmt.pf ppf "# watts_per_socket lp_pct conductor_pct@.";
  List.iter
    (fun p ->
      if Common.in_figure_range app p && p.Common.schedulable then
        Fmt.pf ppf "%5.0f  %a %a@." p.Common.cap Common.pp_pct
          p.Common.lp_vs_static Common.pp_pct p.Common.conductor_vs_static)
    s.Common.points

(* ---- Section 6 headline summary ---------------------------------- *)

let summary (sweep : t) ppf =
  Common.header ppf "Section 6 summary (paper headline numbers)";
  let all_points =
    List.concat_map
      (fun (app, s) ->
        List.filter
          (fun p -> p.Common.schedulable && Common.in_figure_range app p)
          s.Common.points)
      sweep
  in
  let max_by f = List.fold_left (fun a p -> max a (f p)) Float.neg_infinity in
  let mean_by f l =
    List.fold_left (fun a p -> a +. f p) 0.0 l /. Float.of_int (List.length l)
  in
  Fmt.pf ppf
    "max LP vs Static     : %6.1f%%  (paper: up to 74.9%%)@.\
     max LP vs Conductor  : %6.1f%%  (paper: up to 41.1%%)@.\
     avg Conductor vs Static : %4.1f%%  (paper: average 6.7%%)@.\
     avg LP vs Static     : %6.1f%%  (paper: average 10.8%%)@.\
     worst Conductor vs Static : %4.1f%%  (paper: -2.6%% on SP)@."
    (max_by (fun p -> p.Common.lp_vs_static) all_points)
    (max_by (fun p -> p.Common.lp_vs_conductor) all_points)
    (mean_by (fun p -> p.Common.conductor_vs_static) all_points)
    (mean_by (fun p -> p.Common.lp_vs_static) all_points)
    (List.fold_left
       (fun a p -> min a p.Common.conductor_vs_static)
       Float.infinity all_points)
