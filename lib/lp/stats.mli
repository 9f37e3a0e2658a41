(** Process-wide solver counters (atomic, shared across pool domains).

    {!Revised.solve} reports every solve: cold vs warm start, which cold
    solves started from the slack basis, the primal/dual pivot split,
    bound flips, basis factorizations, wall time and its exclusive split
    over the solver layers, and why warm attempts fell back; {!Presolve.reduce} reports every reduction, with
    its own wall time outside the solve's.  Reset before the region you want to
    measure, snapshot after;
    [warmbench] and the benchmark harness are the main consumers. *)

type snapshot = {
  solves : int;
  cold_solves : int;
  warm_solves : int;  (** solves that ran from a caller-supplied basis *)
  slack_starts : int;
      (** cold solves that started from the all-slack basis with the dual
          loop, no artificials and no phase 1, because that basis was
          dual feasible and the objective priced most columns; they count
          in [cold_solves] too *)
  slack_fallbacks : int;
      (** slack starts abandoned for phase 1/2 (the dual loop gave up, or
          a basis went singular beyond repair) *)
  warm_fallbacks : int;
      (** warm attempts abandoned for a cold restart; the next three
          fields count them by cause, and a wrong-shaped basis makes up
          the rest *)
  repair_fallbacks : int;
      (** a nonbasic column's reduced cost had the wrong sign and the
          column had no opposite bound to flip to *)
  dual_numerical : int;
      (** the dual loop gave up: its pivot cap, or four unusable pivots
          in a row *)
  failure_fallbacks : int;
      (** the attempt raised [Failure] (a singular basis beyond repair) *)
  dual_cap_hits : int;
      (** dual loops stopped at their [m + 2000] pivot cap (each also
          counts in [dual_numerical]) *)
  pivots : int;
      (** total simplex iterations, primal + dual, of every attempt: an
          abandoned warm or slack attempt's pivots, flips and
          factorizations count like those of the attempt that finishes *)
  primal_pivots : int;
  phase1_pivots : int;
      (** primal pivots spent in phase 1 (cold solves with artificials) *)
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
  refactorizations : int;
      (** alias of [factorizations] under the Forrest–Tomlin trigger
          vocabulary; every factorization after the first per attempt
          replaces an update file *)
  fill_ratio_max : float;
      (** worst Forrest–Tomlin fill ratio observed (process max) *)
  scale_passes : int;
      (** geometric-mean equilibration passes run by {!Presolve} *)
  presolve_calls : int;  (** {!Presolve.reduce} calls *)
  presolve_s : float;
      (** summed wall time inside {!Presolve.reduce}, equilibration
          included *)
  presolve_rows_dropped : int;
      (** rows the reductions removed, summed over calls *)
  presolve_cols_dropped : int;
      (** columns the reductions fixed or substituted out, summed over
          calls *)
  obj_mode_switches : int;
      (** prepared handles switched between objective modes
          ({!Core.Event_lp.switch_objective}) *)
  reclaim_passes : int;
      (** slack-reclamation post-passes run ({!Core.Replay.reclaim}) *)
  reclaimed_joules_pct : float;
      (** energy the slack passes reclaimed, as a percentage of the
          energy of the schedules they ran on (process aggregate) *)
  wall_s : float;  (** summed wall time inside {!Revised.solve} *)
  factor_s : float;
      (** wall time in LU factorization, singular-basis repair and the
          Forrest–Tomlin rebuild.  This and the next five are exclusive
          slices of [wall_s]; set-up and extraction are the rest *)
  ftran_s : float;
      (** FTRANs: entering columns, bound-flip deltas and the basic
          point's recomputation *)
  btran_s : float;  (** BTRANs: the simplex multipliers and pivot rows *)
  price_s : float;
      (** primal pricing; the dual's leaving-row choice, pivot-row
          gather and reduced-cost rebuilds; the warm repair *)
  ratio_s : float;
      (** ratio tests, bound-flip walks and the primal/dual steps *)
  update_s : float;  (** Forrest–Tomlin updates *)
}

val reset : unit -> unit
val snapshot : unit -> snapshot
val pp : Format.formatter -> snapshot -> unit

(** {2 Internal increment API (used by {!Revised})} *)

val note_fallback : unit -> unit

val note_slack_start : unit -> unit
(** Count one cold solve started from the slack basis. *)

val note_slack_fallback : unit -> unit
(** Count one slack start abandoned for phase 1/2. *)

val note_edit : warm:bool -> fallback:bool -> unit
(** Count one {!Edit.resolve}: [warm] when the basis mapping succeeded
    and seeded the solve, [fallback] when a warm start was requested but
    the mapping was abandoned for a cold solve. *)

type diag = Dual_cap_hit | Dual_numerical | Repair_fallback | Failure_fallback

val note_diag : diag -> unit
(** Count one warm-attempt event (see the snapshot fields). *)

val note_solve :
  warm:bool ->
  iterations:int ->
  phase1:int ->
  dual:int ->
  flips:int ->
  factors:int ->
  wall:float ->
  unit

val note_layers :
  factor:float ->
  ftran:float ->
  btran:float ->
  price:float ->
  ratio:float ->
  update:float ->
  unit
(** Flush one solve's exclusive layer wall times (seconds), summed
    locally over its pivots. *)

val note_kernels :
  ftran_sp:int -> ftran_dn:int -> btran_sp:int -> btran_dn:int -> unit
(** Flush per-solve sparse-vs-dense FTRAN/BTRAN counts into the process
    counters in one shot, keeping atomics off the solver hot loops. *)

val note_ft : updates:int -> fill_max:float -> unit
(** Flush one solve's Forrest–Tomlin tallies: update count and worst
    fill ratio seen (folded into the process max). *)

val note_scale_pass : unit -> unit
(** Count one equilibration pass (called by {!Presolve}). *)

val note_presolve : rows_dropped:int -> cols_dropped:int -> wall:float -> unit
(** Count one {!Presolve.reduce}: the rows and columns it dropped (0
    when it proved the model infeasible) and its wall time. *)

val note_mode_switch : unit -> unit
(** Count one objective-mode switch of a prepared event LP. *)

val note_reclaim : base_j:float -> reclaimed_j:float -> unit
(** Record one slack-reclamation pass: the energy of the schedule it
    ran on and the joules it shaved off.  The snapshot exposes the
    aggregate as [reclaimed_joules_pct]. *)
