(** Shared machinery for the paper-reproduction experiments: scenario
    construction, the three-method comparison (Static / Conductor /
    LP-replay) and the power-cap sweep the per-benchmark figures are
    views of. *)

type config = {
  nranks : int;
  iterations : int;
  seed : int;
  socket_seed : int;
  skip : int;  (** iterations discarded (Conductor's exploration phase) *)
  caps : float list;  (** average watts per processor socket *)
}

val default_config : config

type setup = {
  app : Workloads.Apps.app;
  graph : Dag.Graph.t;
  sc : Core.Scenario.t;
  config : config;
}

val make_setup : config -> Workloads.Apps.app -> setup

val span_after_skip : setup -> Simulate.Engine.result -> float
(** Wall time of iterations [>= skip] (the paper discards the first three
    iterations as Conductor's configuration-exploration phase). *)

type point = {
  cap : float;  (** watts per socket *)
  schedulable : bool;
  static_span : float;
  conductor_span : float;
  lp_span : float;  (** validated LP-replay span *)
  lp_objective : float;
  lp_vs_static : float;  (** percent improvement (Section 6 metric) *)
  lp_vs_conductor : float;
  conductor_vs_static : float;
  lp_max_power : float;
  job_cap : float;
}

type sweep = { setup : setup; points : point list }

val warm_default : unit -> bool
(** The process-wide warm-start switch: [true] unless [POWERLIM_WARM] is
    set to [0]/[false]/[off]/[no].  Consulted by {!run_sweep} and by the
    [powerlim what-if] re-solve path, both of which print byte-identical
    output either way. *)

val run_sweep : ?warm:bool -> setup -> sweep
(** Runs the Static/Conductor/LP-replay triples over [config.caps],
    preserving the cap order in [points].  The caps run as one ascending
    (tightest-first) chain that builds the event LP once
    ({!Core.Event_lp.prepare} at the loosest cap) and threads each cap's
    optimal basis into the next solve as a warm start.  [warm] defaults
    to {!warm_default}; off, every solve is cold on the same prepared
    model.  A warm solve whose power duals are all zero is re-solved
    cold — the unconstrained optimum is degenerate and a warm start may
    land on an alternate vertex — so output is byte-identical with warm
    starts on or off.  The first reported optimum whose power duals are
    all zero (a cold solve) is reported at its cap and at every looser
    cap without another solve: zero duals stay dual feasible for any
    power-row RHS and the schedule stays feasible as the cap loosens,
    so LP duality certifies it optimal there, with the same objective.
    The chain runs in the calling domain, so output does not depend on
    POWERLIM_JOBS. *)

(** {2 Energy-under-deadline sweeps} *)

val default_multipliers : float list
(** The deadline grid, as multiples of the makespan bound at the cap. *)

type energy_point = {
  deadline : float;  (** seconds *)
  multiplier : float;  (** deadline / makespan bound at the cap *)
  feasible : bool;
  lp_energy_j : float;  (** LP-optimal energy under the deadline *)
  lp_makespan : float;  (** makespan of the energy-optimal schedule *)
  replay_energy_j : float;  (** replayed energy before reclamation *)
  reclaimed_energy_j : float;  (** replayed energy after reclamation *)
  reclaimed_j : float;  (** joules the reclamation pass shaved (LP side) *)
  reclaimed_pct : float;
  tasks_stretched : int;
  max_power : float;  (** worst sustained power of either replay *)
  within_cap : bool;
}

type energy_sweep = {
  esetup : setup;
  cap : float;  (** watts per socket, fixed across the sweep *)
  job_cap : float;
  makespan_bound : float;  (** T*: the LP makespan optimum at the cap *)
  bound_energy_j : float;  (** energy of that makespan-optimal schedule *)
  epoints : energy_point list;
}

val run_deadline_sweep :
  ?multipliers:float list -> setup -> cap:float -> energy_sweep
(** Sweep the energy objective over deadlines [multiplier x T*] at a
    fixed cap: one energy-mode {!Pipeline.Stages.prepare} shared by the
    whole sweep, each deadline an RHS re-solve
    ({!Core.Event_lp.solve_prepared_deadline}), each feasible point
    replayed, slack-reclaimed, and replayed again.  Every point is
    solved {e cold} on purpose: the energy objective leaves every
    vertex-time column costless, so warm starts may land on alternate
    optimal vertices and the replay would depend on warm history —
    cold points are canonical and the output byte-identical under any
    POWERLIM_WARM / POWERLIM_JOBS setting.  The warm fast path is
    exercised and gated by the [energybench] harness.  [epoints] is
    empty when the cap itself is infeasible. *)

val figure_caps : Workloads.Apps.app -> float * float
(** The power range each per-benchmark figure shows (the x-axes of the
    paper's Figures 11 and 13-15). *)

val in_figure_range : Workloads.Apps.app -> point -> bool
val header : Format.formatter -> string -> unit
val pp_pct : Format.formatter -> float -> unit
