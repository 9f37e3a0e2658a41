(** Simplex-kernel benchmark: the hypersparse FTRAN/BTRAN kernels and
    devex candidate-list pricing against the dense + Dantzig baseline,
    at three synthetic trace sizes.  Each size times a cold solve, a
    warm re-solve and a full threaded cap sweep under three solver
    modes, toggled in-process through the [POWERLIM_HYPERSPARSE] /
    [POWERLIM_DEVEX] environment knobs (read per solve by
    {!Lp.Revised}):

    - [baseline]    dense kernels, scan factorization, Dantzig partial
                    pricing (the pre-hypersparse solver);
    - [hypersparse] sparse kernels + symbolic factorization, Dantzig
                    pricing — must match the baseline bit for bit;
    - [full]        the default auto path: sparse kernels + devex
                    pricing at scale, the dense eta-free path below the
                    [POWERLIM_SMALL_LP] threshold.

    Asserts every mode agrees with the baseline objective to 1e-9 at
    every cap — the CI smoke step relies on the non-zero exit — and
    writes wall times (best of 3 repetitions per shape), pivot counts
    and kernel sparse-hit rates to [BENCH_simplex.json] (schema in
    EXPERIMENTS.md).  Not a paper artifact — engineering data for the
    solver substrate. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rel_diff a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs a)

type mode = { m_name : string; hyper : string; devex : string }

(* Knob values are env strings; "" counts as unset to the solver
   ([Unix.putenv] cannot remove a variable), which hands the choice to
   the small-instance auto mode. *)
let modes =
  [
    { m_name = "baseline"; hyper = "0"; devex = "0" };
    { m_name = "hypersparse"; hyper = "1"; devex = "0" };
    { m_name = "full"; hyper = ""; devex = "" };
  ]

(* The solver reads both knobs per solve, so flipping the process
   environment between phases is enough; restoring an originally unset
   variable to "" keeps it auto, which is behaviour-preserving. *)
let with_mode (m : mode) f =
  let saved =
    List.map
      (fun k -> (k, Sys.getenv_opt k))
      [ "POWERLIM_HYPERSPARSE"; "POWERLIM_DEVEX" ]
  in
  Unix.putenv "POWERLIM_HYPERSPARSE" m.hyper;
  Unix.putenv "POWERLIM_DEVEX" m.devex;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value old ~default:""))
        saved)

type run = {
  cold_s : float;  (** one cold build + solve at the tightest cap *)
  warm_s : float;  (** one warm bound-change re-solve *)
  sweep_s : float;  (** threaded warm sweep over all caps *)
  objs : float list;  (** sweep objective per cap (nan = infeasible) *)
  st : Lp.Stats.snapshot;  (** counters covering all three timings *)
}

let objective = function
  | Core.Event_lp.Schedule sched -> sched.Core.Event_lp.objective
  | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ -> Float.nan

(* One mode at one size: cold solve, warm re-solve, threaded sweep —
   the same shapes Common.run_sweep and Milp exercise.  The whole
   sequence runs [reps] times and each shape reports its minimum wall
   time; the solver is deterministic, so every repetition performs the
   same pivots and the counters are snapshotted from the last one. *)
let reps = 3

let run_mode (s : Common.setup) (caps : float list) (m : mode) : run =
  with_mode m (fun () ->
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
        let objs, sweep_s =
          time (fun () ->
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
        let r = { cold_s; warm_s; sweep_s; objs; st = Lp.Stats.snapshot () } in
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
      Option.get !best)

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

(* Max relative objective difference between two per-cap objective
   lists, nan-aware: both-infeasible caps agree by definition, a
   feasibility flip is an instant gate failure. *)
let max_objs_diff a_objs b_objs =
  List.fold_left2
    (fun acc a b ->
      if Float.is_nan a && Float.is_nan b then acc
      else if Float.is_nan a || Float.is_nan b then Float.infinity
      else Float.max acc (rel_diff a b))
    0.0 a_objs b_objs

let max_obj_diff (base : run) (r : run) = max_objs_diff base.objs r.objs

(* --- size ladder ---------------------------------------------------
   Cold solve + warm cap sweep on the default solver path at RANKS =
   32/128/512/1024, best of [reps].  Rungs above [LADDER_RANKS]
   (default: the harness RANKS) are skipped — CI smoke-runs the 32/128
   rungs with [LADDER_RANKS=128], a paper-scale run sets 1024.  Rungs
   always use 4 solver iterations: the growth measurement targets rank
   scaling, and the mode-comparison sizes above already cover iteration
   depth.  Each rung re-runs its sweep with the Forrest–Tomlin updates
   disabled (POWERLIM_FT=0, the product-form eta path) and gates the
   objectives at 1e-9; across rungs, cold-solve growth from 512 to 1024
   ranks must stay below 4.5x — subquadratic in the doubling, the
   wall-time shape the cluster-scale event LPs need. *)

type rung = {
  r_ranks : int;
  r_iters : int;
  r_cold_s : float;
  r_sweep_s : float;
  r_obj_diff : float;  (* default path vs POWERLIM_FT=0, max relative *)
}

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

let with_env k v f =
  let saved = Sys.getenv_opt k in
  Unix.putenv k v;
  (* "" reads as unset to the solver; [Unix.putenv] cannot remove *)
  Fun.protect f ~finally:(fun () ->
      Unix.putenv k (Option.value saved ~default:""))

let run_rung (config : Common.config) ranks : rung =
  let cfg =
    { config with Common.nranks = ranks; iterations = ladder_iters }
  in
  let s = Common.make_setup cfg Workloads.Apps.CoMD in
  let caps = List.sort Float.compare cfg.Common.caps in
  let nranks = Float.of_int ranks in
  let tight = List.hd caps in
  let loosest = List.fold_left Float.max Float.neg_infinity caps in
  let sweep pz =
    let prev = ref None in
    List.map
      (fun cap ->
        let o, b =
          Core.Event_lp.solve_prepared ?warm:!prev pz
            ~power_cap:(cap *. nranks)
        in
        (match b with Some _ -> prev := b | None -> ());
        objective o)
      caps
  in
  let best_cold = ref Float.infinity
  and best_sweep = ref Float.infinity
  and objs = ref [] in
  for _rep = 1 to reps do
    let _, cold_s =
      time (fun () -> Core.Event_lp.solve s.Common.sc ~power_cap:(tight *. nranks))
    in
    let pz = Core.Event_lp.prepare s.Common.sc ~power_cap:(loosest *. nranks) in
    let o, sweep_s = time (fun () -> sweep pz) in
    objs := o;
    best_cold := Float.min !best_cold cold_s;
    best_sweep := Float.min !best_sweep sweep_s
  done;
  let eta_objs =
    with_env "POWERLIM_FT" "0" (fun () ->
        let pz =
          Core.Event_lp.prepare s.Common.sc ~power_cap:(loosest *. nranks)
        in
        sweep pz)
  in
  {
    r_ranks = ranks;
    r_iters = cfg.Common.iterations;
    r_cold_s = !best_cold;
    r_sweep_s = !best_sweep;
    r_obj_diff = max_objs_diff !objs eta_objs;
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
  pf "  \"schema\": \"powerlim-simplexbench-v4\",\n";
  pf "  \"ranks\": %d,\n" config.Common.nranks;
  pf "  \"iterations\": %d,\n" config.Common.iterations;
  pf "  \"caps_w\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%g") caps));
  pf "  \"sizes\": [\n";
  let nsizes = List.length results in
  List.iteri
    (fun i (sz, runs) ->
      let base = List.assoc "baseline" runs in
      let full = List.assoc "full" runs in
      pf "    {\n";
      pf "      \"name\": \"%s\",\n" sz.s_name;
      pf "      \"ranks\": %d,\n" sz.ranks;
      pf "      \"iterations\": %d,\n" sz.iters;
      pf "      \"sweep_speedup\": %.3f,\n" (base.sweep_s /. full.sweep_s);
      pf "      \"max_rel_objective_diff\": %.3e,\n"
        (List.fold_left
           (fun acc (_, r) -> Float.max acc (max_obj_diff base r))
           0.0 runs);
      pf "      \"modes\": [\n";
      let nmodes = List.length runs in
      List.iteri
        (fun j (name, r) ->
          pf "        {\n";
          pf "          \"name\": \"%s\",\n" name;
          pf "          \"cold_solve_s\": %.6f,\n" r.cold_s;
          pf "          \"warm_resolve_s\": %.6f,\n" r.warm_s;
          pf "          \"sweep_s\": %.6f,\n" r.sweep_s;
          pf "          \"pivots\": %d,\n" r.st.Lp.Stats.pivots;
          pf "          \"ftran_sparse_rate\": %.4f,\n"
            (rate r.st.Lp.Stats.ftran_sparse r.st.Lp.Stats.ftran_dense);
          pf "          \"btran_sparse_rate\": %.4f,\n"
            (rate r.st.Lp.Stats.btran_sparse r.st.Lp.Stats.btran_dense);
          pf "          \"devex_resets\": %d,\n" r.st.Lp.Stats.devex_resets;
          pf "          \"cand_refreshes\": %d\n" r.st.Lp.Stats.cand_refreshes;
          pf "        }%s\n" (if j = nmodes - 1 then "" else ","))
        runs;
      pf "      ]\n";
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
      pf "      \"sweep_s\": %.6f,\n" r.r_sweep_s;
      pf "      \"max_rel_objective_diff\": %.3e\n" r.r_obj_diff;
      pf "    }%s\n" (if i = nrungs - 1 then "" else ","))
    ladder;
  pf "  ]%s\n"
    (match ladder_growth ladder with
    | None -> ""
    | Some g -> Printf.sprintf ",\n  \"ladder_cold_growth_1024_over_512\": %.3f" g);
  pf "}\n"

let run ?(config = Common.default_config) ppf =
  Common.header ppf "Simplex-kernel benchmark (hypersparse FTRAN/BTRAN + devex)";
  let caps = List.sort Float.compare config.Common.caps in
  let results =
    List.map
      (fun sz ->
        let cfg =
          { config with Common.nranks = sz.ranks; iterations = sz.iters }
        in
        let s = Common.make_setup cfg Workloads.Apps.CoMD in
        let runs = List.map (fun m -> (m.m_name, run_mode s caps m)) modes in
        let base = List.assoc "baseline" runs in
        Fmt.pf ppf "%s (CoMD, %d ranks, %d iterations, %d caps):@." sz.s_name
          sz.ranks sz.iters (List.length caps);
        List.iter
          (fun (name, r) ->
            Fmt.pf ppf
              "  %-11s cold %7.3f s  warm %7.3f s  sweep %7.3f s  (lp \
               %6.3f s)  %6d pivots  ftran %4.0f%% sparse  btran %4.0f%% \
               sparse@."
              name r.cold_s r.warm_s r.sweep_s r.st.Lp.Stats.wall_s
              r.st.Lp.Stats.pivots
              (100.0 *. rate r.st.Lp.Stats.ftran_sparse r.st.Lp.Stats.ftran_dense)
              (100.0 *. rate r.st.Lp.Stats.btran_sparse r.st.Lp.Stats.btran_dense))
          runs;
        let full = List.assoc "full" runs in
        Fmt.pf ppf "  sweep speedup %.2fx (baseline vs full), max objective \
                    diff %.1e@."
          (base.sweep_s /. full.sweep_s)
          (List.fold_left
             (fun acc (_, r) -> Float.max acc (max_obj_diff base r))
             0.0 runs);
        (sz, runs))
      (sizes config)
  in
  let lmax = ladder_max config in
  let ladder =
    List.filter_map
      (fun ranks ->
        if ranks > lmax then None
        else begin
          let r = run_rung config ranks in
          Fmt.pf ppf
            "ladder %4d ranks: cold %8.3f s  sweep %8.3f s  obj diff vs \
             eta-file %.1e@."
            r.r_ranks r.r_cold_s r.r_sweep_s r.r_obj_diff;
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
  (* hard gate: neither the sparse kernels nor devex pricing may move
     any optimal objective (alternate vertices are fine, values are not) *)
  List.iter
    (fun (sz, runs) ->
      let base = List.assoc "baseline" runs in
      List.iter
        (fun (name, r) ->
          let d = max_obj_diff base r in
          if d > 1e-9 then
            failwith
              (Printf.sprintf
                 "simplexbench: %s/%s objectives differ from baseline (%g)"
                 sz.s_name name d))
        runs)
    results;
  (* ladder gates: Forrest–Tomlin updates may not move any sweep
     objective, and doubling 512 -> 1024 ranks must stay subquadratic *)
  List.iter
    (fun r ->
      if r.r_obj_diff > 1e-9 then
        failwith
          (Printf.sprintf
             "simplexbench: ladder %d-rank objectives differ between FT and \
              eta-file paths (%g)"
             r.r_ranks r.r_obj_diff))
    ladder;
  match ladder_growth ladder with
  | Some g when g >= growth_limit ->
      failwith
        (Printf.sprintf
           "simplexbench: cold-solve growth 1024/512 = %.2fx >= %.1fx \
            (superquadratic)"
           g growth_limit)
  | _ -> ()
