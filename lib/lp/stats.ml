(** Process-wide solver counters (atomic, shared across pool domains).

    {!Revised.solve} reports every solve here: cold vs warm start, the
    primal/dual pivot split, bound flips, basis factorizations and wall
    time.  The benchmark harness snapshots the counters around each
    experiment, and [warmbench] uses them to quantify what warm starts
    save.  Counters are process-global: reset before the region you want
    to measure. *)

type snapshot = {
  solves : int;
  cold_solves : int;
  warm_solves : int;  (** solves that ran from a caller-supplied basis *)
  slack_starts : int;
      (** cold solves that started from the dual-feasible slack basis *)
  slack_fallbacks : int;  (** ... and fell back to phase 1/2 *)
  warm_fallbacks : int;  (** warm attempts abandoned for a cold restart *)
  repair_fallbacks : int;
      (** ... because a wrong-signed reduced cost could not be repaired *)
  dual_numerical : int;  (** ... because the dual loop gave up *)
  failure_fallbacks : int;  (** ... because the attempt raised [Failure] *)
  dual_cap_hits : int;  (** dual loops stopped at their pivot cap *)
  pivots : int;  (** total simplex iterations, primal + dual *)
  primal_pivots : int;
  phase1_pivots : int;  (** primal pivots of cold solves' phase 1 *)
  dual_pivots : int;
  bound_flips : int;  (** dual-ratio-test flips (no basis change) *)
  factorizations : int;
  ftran_sparse : int;  (** FTRANs served by the hypersparse kernel *)
  ftran_dense : int;  (** FTRANs that fell back to (or forced) dense *)
  btran_sparse : int;
  btran_dense : int;
  edit_solves : int;  (** incremental re-solves through {!Edit.resolve} *)
  edit_warm : int;  (** edit re-solves whose basis mapping succeeded *)
  edit_fallbacks : int;
      (** edit re-solves that abandoned the mapping and went cold *)
  ft_updates : int;  (** Forrest–Tomlin basis updates applied *)
  refactorizations : int;  (** alias of [factorizations] *)
  fill_ratio_max : float;  (** worst Forrest–Tomlin fill ratio (process max) *)
  scale_passes : int;  (** equilibration passes run by {!Presolve} *)
  presolve_calls : int;  (** {!Presolve.reduce} calls *)
  presolve_s : float;  (** summed wall time inside {!Presolve.reduce} *)
  presolve_rows_dropped : int;  (** rows removed, summed over reductions *)
  presolve_cols_dropped : int;  (** columns removed, summed over reductions *)
  obj_mode_switches : int;
      (** prepared handles switched between objective modes
          ({!Core.Event_lp.switch_objective}) *)
  reclaim_passes : int;  (** slack-reclamation post-passes run *)
  reclaimed_joules_pct : float;
      (** energy reclaimed by the slack passes, as a percentage of the
          energy of the schedules they ran on (process aggregate) *)
  wall_s : float;  (** summed wall time inside {!Revised.solve} *)
  factor_s : float;  (** exclusive layer wall times inside [wall_s]: *)
  ftran_s : float;
  btran_s : float;
  price_s : float;
  ratio_s : float;
  update_s : float;
}

let solves = Atomic.make 0
let warm_solves = Atomic.make 0
let slack_starts = Atomic.make 0
let slack_fallbacks = Atomic.make 0
let warm_fallbacks = Atomic.make 0
let repair_fallbacks = Atomic.make 0
let dual_numerical = Atomic.make 0
let failure_fallbacks = Atomic.make 0
let dual_cap_hits = Atomic.make 0
let pivots = Atomic.make 0
let phase1_pivots = Atomic.make 0
let dual_pivots = Atomic.make 0
let bound_flips = Atomic.make 0
let factorizations = Atomic.make 0
let ftran_sparse = Atomic.make 0
let ftran_dense = Atomic.make 0
let btran_sparse = Atomic.make 0
let btran_dense = Atomic.make 0
let edit_solves = Atomic.make 0
let edit_warm = Atomic.make 0
let edit_fallbacks = Atomic.make 0
let ft_updates = Atomic.make 0
let scale_passes = Atomic.make 0
let presolve_calls = Atomic.make 0
let presolve_ns = Atomic.make 0
let presolve_rows_dropped = Atomic.make 0
let presolve_cols_dropped = Atomic.make 0
let obj_mode_switches = Atomic.make 0
let reclaim_passes = Atomic.make 0
let wall_ns = Atomic.make 0

(* Layer wall times, in nanoseconds, in {!Revised}'s layer order. *)
let layer_ns = Array.init 6 (fun _ -> Atomic.make 0)

(* Float max over pool domains: CAS retry loop.  [compare_and_set]
   compares the boxed float physically, and the expected value is the
   very box [get] returned, so the loop is exact. *)
let fill_ratio_max_a = Atomic.make 0.0

let rec note_fill_ratio f =
  let cur = Atomic.get fill_ratio_max_a in
  if f > cur && not (Atomic.compare_and_set fill_ratio_max_a cur f) then
    note_fill_ratio f

(* Float accumulators (joules reclaimed / joules seen by the reclaim
   passes), same CAS-retry discipline as the fill-ratio max. *)
let reclaimed_j_a = Atomic.make 0.0
let reclaim_base_j_a = Atomic.make 0.0

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let reset () =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      solves;
      warm_solves;
      slack_starts;
      slack_fallbacks;
      warm_fallbacks;
      repair_fallbacks;
      dual_numerical;
      failure_fallbacks;
      dual_cap_hits;
      pivots;
      phase1_pivots;
      dual_pivots;
      bound_flips;
      factorizations;
      ftran_sparse;
      ftran_dense;
      btran_sparse;
      btran_dense;
      edit_solves;
      edit_warm;
      edit_fallbacks;
      ft_updates;
      scale_passes;
      presolve_calls;
      presolve_ns;
      presolve_rows_dropped;
      presolve_cols_dropped;
      obj_mode_switches;
      reclaim_passes;
      wall_ns;
    ];
  Array.iter (fun c -> Atomic.set c 0) layer_ns;
  Atomic.set fill_ratio_max_a 0.0;
  Atomic.set reclaimed_j_a 0.0;
  Atomic.set reclaim_base_j_a 0.0

let note_fallback () = ignore (Atomic.fetch_and_add warm_fallbacks 1)
let note_slack_start () = Atomic.incr slack_starts
let note_slack_fallback () = Atomic.incr slack_fallbacks

type diag = Dual_cap_hit | Dual_numerical | Repair_fallback | Failure_fallback

let note_diag d =
  Atomic.incr
    (match d with
    | Dual_cap_hit -> dual_cap_hits
    | Dual_numerical -> dual_numerical
    | Repair_fallback -> repair_fallbacks
    | Failure_fallback -> failure_fallbacks)

let note_edit ~warm ~fallback =
  ignore (Atomic.fetch_and_add edit_solves 1);
  if warm then ignore (Atomic.fetch_and_add edit_warm 1);
  if fallback then ignore (Atomic.fetch_and_add edit_fallbacks 1)

let ns s = int_of_float (s *. 1e9)

let note_solve ~warm ~iterations ~phase1 ~dual ~flips ~factors ~wall =
  ignore (Atomic.fetch_and_add solves 1);
  if warm then ignore (Atomic.fetch_and_add warm_solves 1);
  ignore (Atomic.fetch_and_add pivots iterations);
  ignore (Atomic.fetch_and_add phase1_pivots phase1);
  ignore (Atomic.fetch_and_add dual_pivots dual);
  ignore (Atomic.fetch_and_add bound_flips flips);
  ignore (Atomic.fetch_and_add factorizations factors);
  ignore (Atomic.fetch_and_add wall_ns (ns wall))

let note_layers ~factor ~ftran ~btran ~price ~ratio ~update =
  List.iteri
    (fun i s -> ignore (Atomic.fetch_and_add layer_ns.(i) (ns s)))
    [ factor; ftran; btran; price; ratio; update ]

(* Kernel-level counters are accumulated locally per solve (the hot
   loops must not touch shared cache lines) and flushed here once. *)
let note_kernels ~ftran_sp ~ftran_dn ~btran_sp ~btran_dn =
  ignore (Atomic.fetch_and_add ftran_sparse ftran_sp);
  ignore (Atomic.fetch_and_add ftran_dense ftran_dn);
  ignore (Atomic.fetch_and_add btran_sparse btran_sp);
  ignore (Atomic.fetch_and_add btran_dense btran_dn)

let note_ft ~updates ~fill_max =
  ignore (Atomic.fetch_and_add ft_updates updates);
  note_fill_ratio fill_max

let note_scale_pass () = ignore (Atomic.fetch_and_add scale_passes 1)

let note_presolve ~rows_dropped ~cols_dropped ~wall =
  ignore (Atomic.fetch_and_add presolve_calls 1);
  ignore (Atomic.fetch_and_add presolve_rows_dropped rows_dropped);
  ignore (Atomic.fetch_and_add presolve_cols_dropped cols_dropped);
  ignore (Atomic.fetch_and_add presolve_ns (ns wall))

let note_mode_switch () = ignore (Atomic.fetch_and_add obj_mode_switches 1)

let note_reclaim ~base_j ~reclaimed_j =
  ignore (Atomic.fetch_and_add reclaim_passes 1);
  atomic_add_float reclaim_base_j_a base_j;
  atomic_add_float reclaimed_j_a reclaimed_j

let seconds c = Float.of_int (Atomic.get c) *. 1e-9

let snapshot () =
  let solves = Atomic.get solves
  and warm_solves = Atomic.get warm_solves
  and pivots = Atomic.get pivots
  and dual_pivots = Atomic.get dual_pivots in
  {
    solves;
    cold_solves = solves - warm_solves;
    warm_solves;
    slack_starts = Atomic.get slack_starts;
    slack_fallbacks = Atomic.get slack_fallbacks;
    warm_fallbacks = Atomic.get warm_fallbacks;
    repair_fallbacks = Atomic.get repair_fallbacks;
    dual_numerical = Atomic.get dual_numerical;
    failure_fallbacks = Atomic.get failure_fallbacks;
    dual_cap_hits = Atomic.get dual_cap_hits;
    pivots;
    primal_pivots = pivots - dual_pivots;
    phase1_pivots = Atomic.get phase1_pivots;
    dual_pivots;
    bound_flips = Atomic.get bound_flips;
    factorizations = Atomic.get factorizations;
    ftran_sparse = Atomic.get ftran_sparse;
    ftran_dense = Atomic.get ftran_dense;
    btran_sparse = Atomic.get btran_sparse;
    btran_dense = Atomic.get btran_dense;
    edit_solves = Atomic.get edit_solves;
    edit_warm = Atomic.get edit_warm;
    edit_fallbacks = Atomic.get edit_fallbacks;
    ft_updates = Atomic.get ft_updates;
    refactorizations = Atomic.get factorizations;
    fill_ratio_max = Atomic.get fill_ratio_max_a;
    scale_passes = Atomic.get scale_passes;
    presolve_calls = Atomic.get presolve_calls;
    presolve_s = seconds presolve_ns;
    presolve_rows_dropped = Atomic.get presolve_rows_dropped;
    presolve_cols_dropped = Atomic.get presolve_cols_dropped;
    obj_mode_switches = Atomic.get obj_mode_switches;
    reclaim_passes = Atomic.get reclaim_passes;
    reclaimed_joules_pct =
      (let base = Atomic.get reclaim_base_j_a in
       if base > 0.0 then 100.0 *. Atomic.get reclaimed_j_a /. base else 0.0);
    wall_s = seconds wall_ns;
    factor_s = seconds layer_ns.(0);
    ftran_s = seconds layer_ns.(1);
    btran_s = seconds layer_ns.(2);
    price_s = seconds layer_ns.(3);
    ratio_s = seconds layer_ns.(4);
    update_s = seconds layer_ns.(5);
  }

(* Stats provider: the same counters, machine-readable, for the unified
   [--stats-json] dump. *)
let () =
  Putil.Obs.register_stats ~name:"lp" (fun () ->
      let s = snapshot () in
      Putil.Obs.Assoc
        [
          ("solves", Putil.Obs.Int s.solves);
          ("cold_solves", Putil.Obs.Int s.cold_solves);
          ("warm_solves", Putil.Obs.Int s.warm_solves);
          ("slack_starts", Putil.Obs.Int s.slack_starts);
          ("slack_fallbacks", Putil.Obs.Int s.slack_fallbacks);
          ("warm_fallbacks", Putil.Obs.Int s.warm_fallbacks);
          ("repair_fallbacks", Putil.Obs.Int s.repair_fallbacks);
          ("dual_numerical", Putil.Obs.Int s.dual_numerical);
          ("failure_fallbacks", Putil.Obs.Int s.failure_fallbacks);
          ("dual_cap_hits", Putil.Obs.Int s.dual_cap_hits);
          ("pivots", Putil.Obs.Int s.pivots);
          ("primal_pivots", Putil.Obs.Int s.primal_pivots);
          ("phase1_pivots", Putil.Obs.Int s.phase1_pivots);
          ("dual_pivots", Putil.Obs.Int s.dual_pivots);
          ("bound_flips", Putil.Obs.Int s.bound_flips);
          ("factorizations", Putil.Obs.Int s.factorizations);
          ("ftran_sparse", Putil.Obs.Int s.ftran_sparse);
          ("ftran_dense", Putil.Obs.Int s.ftran_dense);
          ("btran_sparse", Putil.Obs.Int s.btran_sparse);
          ("btran_dense", Putil.Obs.Int s.btran_dense);
          ("edit_solves", Putil.Obs.Int s.edit_solves);
          ("edit_warm", Putil.Obs.Int s.edit_warm);
          ("edit_fallbacks", Putil.Obs.Int s.edit_fallbacks);
          ("ft_updates", Putil.Obs.Int s.ft_updates);
          ("refactorizations", Putil.Obs.Int s.refactorizations);
          ("fill_ratio_max", Putil.Obs.Float s.fill_ratio_max);
          ("scale_passes", Putil.Obs.Int s.scale_passes);
          ("presolve_calls", Putil.Obs.Int s.presolve_calls);
          ("presolve_s", Putil.Obs.Float s.presolve_s);
          ("presolve_rows_dropped", Putil.Obs.Int s.presolve_rows_dropped);
          ("presolve_cols_dropped", Putil.Obs.Int s.presolve_cols_dropped);
          ("obj_mode_switches", Putil.Obs.Int s.obj_mode_switches);
          ("reclaim_passes", Putil.Obs.Int s.reclaim_passes);
          ("reclaimed_joules_pct", Putil.Obs.Float s.reclaimed_joules_pct);
          ("wall_s", Putil.Obs.Float s.wall_s);
          ("factor_s", Putil.Obs.Float s.factor_s);
          ("ftran_s", Putil.Obs.Float s.ftran_s);
          ("btran_s", Putil.Obs.Float s.btran_s);
          ("price_s", Putil.Obs.Float s.price_s);
          ("ratio_s", Putil.Obs.Float s.ratio_s);
          ("update_s", Putil.Obs.Float s.update_s);
        ])

let pp ppf (s : snapshot) =
  Fmt.pf ppf
    "%d solves (%d cold, %d slack starts, %d slack fallbacks, %d warm, %d \
     warm fallbacks), %d pivots (%d primal, %d in phase 1, %d dual, %d \
     flips), %d factorizations, %.3f s (factor %.3f, ftran %.3f, btran \
     %.3f, price %.3f, ratio %.3f, update %.3f); %d presolves (%d rows, %d \
     cols dropped), %.3f s"
    s.solves s.cold_solves s.slack_starts s.slack_fallbacks s.warm_solves
    s.warm_fallbacks s.pivots
    s.primal_pivots s.phase1_pivots s.dual_pivots s.bound_flips
    s.factorizations s.wall_s s.factor_s s.ftran_s s.btran_s s.price_s
    s.ratio_s s.update_s s.presolve_calls s.presolve_rows_dropped
    s.presolve_cols_dropped s.presolve_s
