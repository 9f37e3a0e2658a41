(** The paper's primary contribution: the fixed-vertex-order, event-based
    LP formulation of power-constrained performance optimization
    (Sections 3.1-3.3, equations (1)-(13)).

    Variables: a time per DAG vertex and a convex-combination weight per
    (task, frontier configuration).  Power is constrained at events
    (vertices of an initial power-unconstrained schedule): at each event
    the summed power of active tasks must fit the job cap, and events
    keep their initial time order — which keeps the program purely linear
    and polynomially solvable. *)

type mode =
  | Continuous
      (** blends of adjacent frontier points, realized by mid-task
          switching *)
  | Discrete_rounded
      (** the blend's average power rounded to the nearest single real
          configuration (the paper's discrete rounding) *)

type stats = { rows : int; cols : int; iterations : int; power_rows : int }

type schedule = {
  objective : float;
      (** value of the active objective: the LP makespan (seconds) under
          {!Objective.Makespan_under_cap}, the LP energy (joules) under
          {!Objective.Energy_under_deadline} *)
  makespan : float;
      (** the schedule's makespan in seconds, whatever the objective
          (identical to [objective] in makespan mode) *)
  lp_energy : float;
      (** total task energy of the LP solution, [sum power x duration]
          over the chosen blends, joules (identical to [objective] in
          energy mode) *)
  vertex_time : float array;
  blends : Pareto.Frontier.blend array;  (** per tid; [] for zero tasks *)
  power_duals : (int * float) array;
      (** per power row: (representative vertex, seconds of makespan
          saved per extra watt of budget at that event) — the shadow
          prices of equation (11), nonzero exactly where power binds *)
  mode : mode;
  objective_mode : Objective.mode;  (** the mode this schedule optimizes *)
  stats : stats;
}

type outcome =
  | Schedule of schedule
  | Infeasible  (** the power cap cannot accommodate every task *)
  | Solver_failure of string

val initial_times : ?reduce_slack:bool -> Scenario.t -> Dag.Schedule.times
(** The power-unconstrained schedule whose vertex order defines the
    events.  [reduce_slack] (default true) applies the paper's
    Section 3.3 modification: off-critical tasks are slowed as much as
    possible without extending the makespan. *)

val to_mps :
  ?reduce_slack:bool ->
  ?objective:Objective.mode ->
  Scenario.t ->
  power_cap:float ->
  string
(** The compiled LP in MPS format (see {!Lp.Mps}), for cross-checking
    against external solvers. *)

val solve :
  ?mode:mode ->
  ?max_iter:int ->
  ?reduce_slack:bool ->
  ?presolve:bool ->
  ?init:Dag.Schedule.times ->
  ?objective:Objective.mode ->
  Scenario.t ->
  power_cap:float ->
  outcome
(** [solve sc ~power_cap] builds and solves the LP.  [reduce_slack]
    selects the initial schedule (see {!initial_times}); [init]
    overrides it entirely (the event order is taken from these times);
    [presolve] (default true) runs {!Lp.Presolve} before the simplex.
    [objective] (default {!Objective.Makespan_under_cap}) selects what
    is optimized: the energy mode shares the whole constraint matrix
    with the makespan mode — power rows stay at [power_cap] — plus one
    appended row bounding the Finalize time by the deadline, and its
    objective is the total task energy carried on the weight columns. *)

type prepared
(** A built-once event LP, ready for repeated power-cap re-solves.  The
    model (and, when sound, its presolve reduction) is constructed a
    single time; each {!solve_prepared} call patches only the power-row
    RHS.  The event order is the one derived at {!prepare} time, so all
    re-solves share identical rows — which is what makes the returned
    bases exchangeable between caps. *)

val prepare :
  ?reduce_slack:bool ->
  ?presolve:bool ->
  ?init:Dag.Schedule.times ->
  ?objective:Objective.mode ->
  Scenario.t ->
  power_cap:float ->
  prepared
(** Build the model once at a reference cap.  The presolve reduction is
    cached only when every power row — and, in energy mode, the deadline
    row — survives it (an RHS change must not be able to alter a
    reduction decision); otherwise re-solves fall back to a per-cap
    presolve. *)

val solve_prepared :
  ?mode:mode ->
  ?max_iter:int ->
  ?warm:Lp.Revised.basis ->
  prepared ->
  power_cap:float ->
  outcome * Lp.Revised.basis option
(** Re-solve the prepared model at a new cap.  [warm] supplies the basis
    returned by a previous [solve_prepared] on the {e same} prepared
    handle (the basis lives in the prepared model's — possibly reduced —
    space); the solver then runs the dual simplex from it instead of a
    cold phase-1/2.  Returns the outcome and the final basis to thread
    into the next cap ([None] when no reusable basis exists).  Works in
    either objective mode: on an energy handle this sweeps the cap at a
    fixed deadline. *)

val solve_prepared_deadline :
  ?mode:mode ->
  ?max_iter:int ->
  ?warm:Lp.Revised.basis ->
  prepared ->
  deadline:float ->
  outcome * Lp.Revised.basis option
(** Re-solve an energy-mode prepared model at a new deadline (only the
    deadline row's RHS is patched; the power rows keep their cap).
    Bases thread across deadlines exactly as they do across caps in
    {!solve_prepared}.  Raises [Invalid_argument] on a handle prepared
    under the makespan objective. *)

val switch_objective :
  ?mode:mode ->
  ?max_iter:int ->
  ?warm:Lp.Revised.basis ->
  prepared ->
  Objective.mode ->
  outcome * prepared * Lp.Revised.basis option
(** Re-target a prepared handle at the other objective without
    rebuilding: the objective swap compiles to {!Lp.Edit.Set_obj} edits
    and the deadline row is added/removed structurally, so a basis from
    the previous mode's optimum is offered to the new mode's solve
    through {!Lp.Edit.resolve}'s basis mapping.  Should it not
    dual-repair, the solve falls back to cold; from a makespan optimum
    to the energy objective it has done so on every instance probed.
    Returns the outcome, a new
    prepared handle for the target mode (chainable — further deadlines
    via {!solve_prepared_deadline}, caps via {!solve_prepared}), and the
    final basis.  As with {!edit_prepared}, a warm basis is only usable
    on handles prepared with [~presolve:false].  Counted in
    {!Lp.Stats} as an objective-mode switch. *)

(** {2 What-if edits}

    Domain-level perturbations of a prepared model — the interactive
    "what happens if" layer: each compiles to bound, RHS and coefficient
    edits ({!Lp.Edit.Set_bounds}, {!Lp.Edit.Set_rhs},
    {!Lp.Edit.Set_entry}) of the prepared LP, never to a structural one,
    so the LP keeps its shape, the previous optimal basis stays a basis,
    and the re-solve dual-repairs from it instead of solving from
    scratch. *)

type domain_edit =
  | Fail_socket of int
      (** rank's socket loses its DVFS/thread headroom: every task on
          the rank is pinned to its most frugal frontier point *)
  | Drop_rank of int
      (** remove the rank's tasks from the optimization entirely: their
          weight variables are fixed at zero and their convexity rows
          ask for zero weight, which has the optimum of deleting those
          rows and columns; the precedence arcs remain as pure message
          delays *)
  | Perturb_task of { tid : int; point : int; duration : float; power : float }
      (** overwrite one frontier point's (duration, power) — e.g. a
          measured correction to a task's profile *)

val pp_domain_edit : Format.formatter -> domain_edit -> unit

val check_edits : Scenario.t -> domain_edit list -> (unit, string) result
(** The one validity check behind {!edit_scenario}, {!compile_edits}
    and {!edit_prepared}, for callers that want a clean error before
    any solve.  Edits apply in order, each checked against the world
    the earlier ones leave: [Error] names an out-of-range rank or task,
    a task with no configuration left to perturb (it does no work, or
    its rank was dropped), a point outside the task's frontier, or a
    non-finite or non-positive perturbed duration/power. *)

val edit_scenario : Scenario.t -> domain_edit list -> Scenario.t
(** The edited world as a scenario: frontiers truncated ([Fail_socket]),
    emptied ([Drop_rank]) or point-patched ([Perturb_task]).  Raises
    [Invalid_argument] when {!check_edits} rejects the edits.  Because {!Scenario.digest}
    hashes frontiers, the edited scenario re-keys every cache stage, and
    an exact inverse edit restores the original key. *)

val compile_edits : prepared -> domain_edit list -> Lp.Edit.t list
(** The elementary LP edits a domain-edit list compiles to against this
    prepared model: only [Set_bounds], [Set_rhs] and [Set_entry], at the
    row and column indices the model was built with, so the list applies
    in one pass.  Raises [Invalid_argument] when {!check_edits} rejects
    the edits.  Exposed for tests and benchmarks. *)

val prepared_problem : prepared -> Lp.Model.problem
(** The prepared model's full compiled problem (the space {!compile_edits}
    indices refer to). *)

val edit_prepared :
  ?mode:mode ->
  ?max_iter:int ->
  ?warm:Lp.Revised.basis ->
  prepared ->
  domain_edit list ->
  outcome * prepared * Lp.Revised.basis option
(** [edit_prepared pz edits ~warm] applies the edits and re-solves
    incrementally: the edited LP has the prepared LP's shape, so [warm]
    (a basis from {!solve_prepared} on this same handle) seeds the dual
    simplex as it stands; should the warm start prove irreparable the
    solve falls back to cold, so the result is always exactly the edited
    problem's optimum.  The schedule's [stats] report the prepared LP's
    rows and columns.  Returns the outcome, a new prepared handle for the
    edited world (chainable: further caps via {!solve_prepared}, further
    edits via [edit_prepared]), and the final basis.  A warm basis is
    only usable when the handle was prepared with [~presolve:false] (the
    basis must live in the full space); otherwise it is ignored.
    Raises [Invalid_argument], before solving, when {!check_edits}
    rejects the edits. *)

val solve_refined :
  ?rounds:int ->
  ?mode:mode ->
  ?max_iter:int ->
  ?reduce_slack:bool ->
  ?presolve:bool ->
  Scenario.t ->
  power_cap:float ->
  outcome
(** Extension beyond the paper: fixed-point refinement of the event
    order.  Each round re-derives the events from the previous round's
    solved schedule and re-solves; every round is a sound, realizable
    bound, and the best is returned. *)
