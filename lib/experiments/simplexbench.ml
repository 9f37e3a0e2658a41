(** Simplex benchmark: wall times, pivot counts and kernel sparse-hit
    rates of the one solver path at three synthetic trace sizes (a cold
    solve, a warm re-solve and a full warm cap sweep each), plus a
    32 → 1296-rank size ladder with a cold-solve growth gate.  Writes
    [BENCH_simplex.json] (schema in EXPERIMENTS.md).  Not a paper
    artifact — engineering data for the solver substrate. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type run = {
  cold_s : float;  (** one cold build + solve at the tightest cap *)
  warm_s : float;  (** one warm bound-change re-solve *)
  sweep_s : float;  (** threaded warm sweep over all caps *)
  st : Lp.Stats.snapshot;  (** counters covering all three timings *)
}

(* A warm cap chain: each solve starts from the last basis reported. *)
let warm_sweep pz ~nranks caps =
  let prev = ref None in
  List.iter
    (fun cap ->
      let _, b =
        Core.Event_lp.solve_prepared ?warm:!prev pz ~power_cap:(cap *. nranks)
      in
      match b with Some _ -> prev := b | None -> ())
    caps

(* One size: cold solve, warm re-solve, warm sweep — the same shapes
   Common.run_sweep and Milp exercise.  The whole sequence runs [reps]
   times and each shape reports its minimum wall time; the solver is
   deterministic, so every repetition performs the same pivots and the
   counters are snapshotted from the last one. *)
let reps = 3

let run_size (s : Common.setup) (caps : float list) : run =
  let nranks = Float.of_int s.Common.config.Common.nranks in
  let tight = List.hd caps in
  let loosest = List.fold_left Float.max Float.neg_infinity caps in
  let best = ref None in
  for _rep = 1 to reps do
    Lp.Stats.reset ();
    let _, cold_s =
      time (fun () ->
          Core.Event_lp.solve s.Common.sc ~power_cap:(tight *. nranks))
    in
    let pz =
      Core.Event_lp.prepare s.Common.sc ~power_cap:(loosest *. nranks)
    in
    let _, b0 = Core.Event_lp.solve_prepared pz ~power_cap:(tight *. nranks) in
    let next = match caps with _ :: c :: _ -> c | _ -> tight in
    let _, warm_s =
      time (fun () ->
          Core.Event_lp.solve_prepared ?warm:b0 pz
            ~power_cap:(next *. nranks))
    in
    let (), sweep_s = time (fun () -> warm_sweep pz ~nranks caps) in
    let r = { cold_s; warm_s; sweep_s; st = Lp.Stats.snapshot () } in
    best :=
      Some
        (match !best with
        | None -> r
        | Some b ->
            {
              r with
              cold_s = Float.min b.cold_s r.cold_s;
              warm_s = Float.min b.warm_s r.warm_s;
              sweep_s = Float.min b.sweep_s r.sweep_s;
            })
  done;
  Option.get !best

type size = { s_name : string; ranks : int; iters : int }

(* Sizes scale off the harness config (RANKS/ITERS env), so the CI
   smoke run stays cheap while a paper-scale run measures real LPs. *)
let sizes (config : Common.config) =
  [
    {
      s_name = "small";
      ranks = max 2 (config.Common.nranks / 4);
      iters = max 2 (config.Common.iterations / 4);
    };
    {
      s_name = "medium";
      ranks = max 4 (config.Common.nranks / 2);
      iters = max 3 (config.Common.iterations / 2);
    };
    {
      s_name = "large";
      ranks = config.Common.nranks;
      iters = config.Common.iterations;
    };
  ]

let rate sp dn =
  let t = sp + dn in
  if t = 0 then 0.0 else Float.of_int sp /. Float.of_int t

(* --- size ladder ---------------------------------------------------
   Cold solve + warm cap sweep at RANKS = 32/128/512/1024/1296, best of
   [reps].  Rungs above [LADDER_RANKS] (default: the harness RANKS) are
   skipped — CI smoke-runs the 32/128 rungs with [LADDER_RANKS=128], a
   cluster-scale run sets 1296.  Rungs
   always use 4 solver iterations: the growth measurement targets rank
   scaling, and the sizes above already cover iteration depth.  Across
   rungs, cold-solve growth from 512 to 1024 ranks must stay below 4.5x
   — subquadratic in the doubling, the wall-time shape the
   cluster-scale event LPs need. *)

type rung = { r_ranks : int; r_iters : int; r_cold_s : float; r_sweep_s : float }

let ladder_rungs = [ 32; 128; 512; 1024; 1296 ]
let ladder_iters = 4
let growth_limit = 4.5

let ladder_max (config : Common.config) =
  match Sys.getenv_opt "LADDER_RANKS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> n
      | _ -> config.Common.nranks)
  | None -> config.Common.nranks

let run_rung (config : Common.config) ranks : rung =
  let cfg =
    { config with Common.nranks = ranks; iterations = ladder_iters }
  in
  let s = Common.make_setup cfg Workloads.Apps.CoMD in
  let caps = List.sort Float.compare cfg.Common.caps in
  let nranks = Float.of_int ranks in
  let tight = List.hd caps in
  let loosest = List.fold_left Float.max Float.neg_infinity caps in
  let best_cold = ref Float.infinity and best_sweep = ref Float.infinity in
  for _rep = 1 to reps do
    let _, cold_s =
      time (fun () -> Core.Event_lp.solve s.Common.sc ~power_cap:(tight *. nranks))
    in
    let pz = Core.Event_lp.prepare s.Common.sc ~power_cap:(loosest *. nranks) in
    let (), sweep_s = time (fun () -> warm_sweep pz ~nranks caps) in
    best_cold := Float.min !best_cold cold_s;
    best_sweep := Float.min !best_sweep sweep_s
  done;
  {
    r_ranks = ranks;
    r_iters = cfg.Common.iterations;
    r_cold_s = !best_cold;
    r_sweep_s = !best_sweep;
  }

(* Growth ratio between the top two rungs, when both ran. *)
let ladder_growth (ladder : rung list) =
  match
    ( List.find_opt (fun r -> r.r_ranks = 512) ladder,
      List.find_opt (fun r -> r.r_ranks = 1024) ladder )
  with
  | Some a, Some b -> Some (b.r_cold_s /. a.r_cold_s)
  | _ -> None

let write_json ~path ~(config : Common.config) ~caps ~ladder results =
  Putil.Fileio.with_out path @@ fun oc ->
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"powerlim-simplexbench-v5\",\n";
  pf "  \"ranks\": %d,\n" config.Common.nranks;
  pf "  \"iterations\": %d,\n" config.Common.iterations;
  pf "  \"caps_w\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%g") caps));
  pf "  \"sizes\": [\n";
  let nsizes = List.length results in
  List.iteri
    (fun i (sz, r) ->
      pf "    {\n";
      pf "      \"name\": \"%s\",\n" sz.s_name;
      pf "      \"ranks\": %d,\n" sz.ranks;
      pf "      \"iterations\": %d,\n" sz.iters;
      pf "      \"cold_solve_s\": %.6f,\n" r.cold_s;
      pf "      \"warm_resolve_s\": %.6f,\n" r.warm_s;
      pf "      \"sweep_s\": %.6f,\n" r.sweep_s;
      pf "      \"pivots\": %d,\n" r.st.Lp.Stats.pivots;
      pf "      \"ftran_sparse_rate\": %.4f,\n"
        (rate r.st.Lp.Stats.ftran_sparse r.st.Lp.Stats.ftran_dense);
      pf "      \"btran_sparse_rate\": %.4f\n"
        (rate r.st.Lp.Stats.btran_sparse r.st.Lp.Stats.btran_dense);
      pf "    }%s\n" (if i = nsizes - 1 then "" else ","))
    results;
  pf "  ],\n";
  pf "  \"ladder\": [\n";
  let nrungs = List.length ladder in
  List.iteri
    (fun i r ->
      pf "    {\n";
      pf "      \"ranks\": %d,\n" r.r_ranks;
      pf "      \"iterations\": %d,\n" r.r_iters;
      pf "      \"cold_solve_s\": %.6f,\n" r.r_cold_s;
      pf "      \"sweep_s\": %.6f\n" r.r_sweep_s;
      pf "    }%s\n" (if i = nrungs - 1 then "" else ","))
    ladder;
  pf "  ]%s\n"
    (match ladder_growth ladder with
    | None -> ""
    | Some g -> Printf.sprintf ",\n  \"ladder_cold_growth_1024_over_512\": %.3f" g);
  pf "}\n"

let run ?(config = Common.default_config) ppf =
  Common.header ppf "Simplex benchmark (sizes and rank ladder)";
  let caps = List.sort Float.compare config.Common.caps in
  let results =
    List.map
      (fun sz ->
        let cfg =
          { config with Common.nranks = sz.ranks; iterations = sz.iters }
        in
        let s = Common.make_setup cfg Workloads.Apps.CoMD in
        let r = run_size s caps in
        Fmt.pf ppf
          "%-6s (CoMD, %d ranks, %d iterations, %d caps): cold %7.3f s  warm \
           %7.3f s  sweep %7.3f s  (lp %6.3f s)  %6d pivots  ftran %4.0f%% \
           sparse  btran %4.0f%% sparse@."
          sz.s_name sz.ranks sz.iters (List.length caps) r.cold_s r.warm_s
          r.sweep_s r.st.Lp.Stats.wall_s r.st.Lp.Stats.pivots
          (100.0 *. rate r.st.Lp.Stats.ftran_sparse r.st.Lp.Stats.ftran_dense)
          (100.0 *. rate r.st.Lp.Stats.btran_sparse r.st.Lp.Stats.btran_dense);
        (sz, r))
      (sizes config)
  in
  let lmax = ladder_max config in
  let ladder =
    List.filter_map
      (fun ranks ->
        if ranks > lmax then None
        else begin
          let r = run_rung config ranks in
          Fmt.pf ppf "ladder %4d ranks: cold %8.3f s  sweep %8.3f s@." r.r_ranks
            r.r_cold_s r.r_sweep_s;
          Some r
        end)
      ladder_rungs
  in
  (match ladder_growth ladder with
  | Some g -> Fmt.pf ppf "ladder cold-solve growth 1024/512: %.2fx@." g
  | None -> ());
  let path = "BENCH_simplex.json" in
  write_json ~path ~config ~caps ~ladder results;
  Fmt.pf ppf "wrote %s@." path;
  (* ladder gate: doubling 512 -> 1024 ranks must stay subquadratic *)
  match ladder_growth ladder with
  | Some g when g >= growth_limit ->
      failwith
        (Printf.sprintf
           "simplexbench: cold-solve growth 1024/512 = %.2fx >= %.1fx \
            (superquadratic)"
           g growth_limit)
  | _ -> ()
