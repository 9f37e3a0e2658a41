(** Figure 1 and Table 1: time vs. power for every configuration of one
    CoMD task, with its convex Pareto frontier, and the sample of
    frontier configurations (8 threads across descending frequencies,
    then reduced thread counts at the minimum frequency). *)

let comd_task_profile () =
  Machine.Profile.v ~serial_frac:0.03 ~contention:0.004 ~mem_bound:0.25 3.6

let run ?(config = Common.default_config) ppf =
  let socket = Machine.Socket.fleet ~seed:config.Common.socket_seed 1 in
  let socket = socket.(0) in
  let profile = comd_task_profile () in
  let all = Pareto.Frontier.enumerate socket profile in
  let hull = Pareto.Frontier.convex socket profile in
  let on_hull (p : Pareto.Point.t) =
    Array.exists
      (fun (h : Pareto.Point.t) -> h.freq = p.freq && h.threads = p.threads)
      hull
  in
  Common.header ppf
    "Figure 1: normalized time vs. power, one CoMD task (all 120 configs)";
  Fmt.pf ppf "# freq_GHz threads power_W norm_time on_convex_frontier@.";
  let tmax =
    Array.fold_left
      (fun a (p : Pareto.Point.t) -> max a p.duration)
      0.0 all
  in
  Array.iter
    (fun (p : Pareto.Point.t) ->
      Fmt.pf ppf "%.1f %d %7.2f %6.4f %b@." p.freq p.threads p.power
        (p.duration /. tmax) (on_hull p))
    all;
  Common.header ppf
    "Table 1: Pareto-efficient (convex-frontier) configurations";
  Fmt.pf ppf "%-14s %-10s %-8s@." "Configuration" "Freq(GHz)" "Threads";
  Array.iteri
    (fun i (p : Pareto.Point.t) ->
      Fmt.pf ppf "C_%-12d %-10.1f %-8d@."
        (Array.length hull - i)
        p.freq p.threads)
    hull;
  (* the Table 1 shape assertions, reported inline *)
  let fastest = Pareto.Frontier.fastest hull in
  let reduced_only_at_fmin =
    Array.for_all
      (fun (p : Pareto.Point.t) ->
        p.threads = 8 || p.freq = Machine.Dvfs.f_min)
      hull
  in
  Fmt.pf ppf
    "# shape: fastest = %.1f GHz x %d threads; reduced threads only at \
     %.1f GHz: %b@."
    fastest.Pareto.Point.freq fastest.Pareto.Point.threads Machine.Dvfs.f_min
    reduced_only_at_fmin
