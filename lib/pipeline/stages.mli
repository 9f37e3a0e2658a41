(** The typed construction pipeline behind every experiment driver:

    {v
    trace acquisition -> graph build -> frontier enumeration
                      -> scenario assembly -> LP model preparation
    v}

    Each stage is a named, cached function with a stable structural key
    (see {!Key}): stage outputs are artifacts addressed by the content
    of their inputs, so sweeps that vary only the power cap (or only the
    policy) hit the cache on everything upstream of the LP solve, and
    concurrent pool workers requesting the same artifact build it once
    (single-flight, {!Putil.Cache}).  With caching disabled
    ([POWERLIM_CACHE=0] or [--no-cache]) every stage simply recomputes —
    outputs are byte-identical either way.

    Frontier enumeration runs inside scenario assembly (see
    {!Core.Scenario.make}), which shares equal hulls within a build and
    is cached whole; it has no cache of its own. *)

type source =
  | Synthetic of Workloads.Apps.app * Workloads.Apps.params
      (** a generated benchmark trace; keyed by app and parameters *)
  | Trace_file of string
      (** an on-disk trace; keyed by the file's {e content} digest *)
  | Graph of Dag.Graph.t
      (** an already-built graph; keyed by its structural digest *)

val source_key : source -> Key.t
(** The trace-acquisition stage's key.  [Trace_file] reads the file, so
    this raises [Sys_error] when the path is unreadable. *)

val graph : source -> Dag.Graph.t
(** Graph-build stage: generate / parse / pass through the source's
    graph.  [Synthetic] and [Trace_file] builds are cached. *)

val attach_store : Putil.Disk_store.t -> unit
(** Connect the graph-build cache to a persistent tier: evicted graphs
    spill to [store] (serialized through {!Dag.Trace_io}, an exact
    round-trip) and misses consult it before rebuilding, so a restarted
    process reuses graphs an earlier one computed.  Scenario and
    prepared-LP artifacts hold closures and stay memory-only.  Calling
    again replaces the tier. *)

val scenario_key : ?socket_seed:int -> ?variability:float -> source -> Key.t
(** Key of the scenario-assembly stage: {!source_key} plus the socket
    fleet's seed and variability (defaults as {!Core.Scenario.make}). *)

val scenario : ?socket_seed:int -> ?variability:float -> source -> Core.Scenario.t
(** Scenario-assembly stage: {!graph} plus socket fleet plus per-task
    convex frontiers ({!Core.Scenario.make}), cached under
    {!scenario_key}.  Repeated requests for an equal source and
    parameters return one physically shared scenario. *)

val prepare_key :
  ?reduce_slack:bool ->
  ?presolve:bool ->
  ?objective:Core.Objective.mode ->
  Core.Scenario.t ->
  power_cap:float ->
  Key.t
(** Key of the LP-preparation stage: the scenario's digest plus the
    build flags, the reference cap the model is anchored at and the
    objective mode (default {!Core.Objective.Makespan_under_cap}; an
    energy mode's deadline is part of the digest). *)

val prepare :
  ?reduce_slack:bool ->
  ?presolve:bool ->
  ?objective:Core.Objective.mode ->
  Core.Scenario.t ->
  power_cap:float ->
  Core.Event_lp.prepared
(** LP-model-preparation stage: {!Core.Event_lp.prepare} cached under
    {!prepare_key}.  The reference cap is part of the key, so a cached
    model is reused only by solves that would have prepared at the very
    same cap — re-solves at other caps go through
    {!Core.Event_lp.solve_prepared}'s RHS patching as before (deadlines
    likewise through {!Core.Event_lp.solve_prepared_deadline}).
    Prepared models are read-only during re-solves, so sharing one
    across domains is safe. *)

type base = {
  scenario : Core.Scenario.t;  (** {!scenario} of the source *)
  prepared : Core.Event_lp.prepared;
      (** {!prepare}[ ~presolve:false] at the base cap *)
  outcome : Core.Event_lp.outcome;
      (** the cold {!Core.Event_lp.solve_prepared} at that cap *)
  basis : Lp.Revised.basis option;  (** the basis that solve returned *)
}
(** A solved what-if base: the unedited world at one cap, ready to warm
    {!Core.Event_lp.edit_prepared}.  The handle keeps the full column
    space so the basis lives in the space edits are compiled to.  Shared
    between callers and read-only: the solver only reads a warm basis,
    and {!Lp.Edit} copies any basis array it changes. *)

val base_key : source -> power_cap:float -> Key.t
(** Key of the base-solve stage: {!scenario_key} (default fleet) plus the
    cap.  A hit therefore needs neither a scenario build nor a content
    digest. *)

val base : source -> power_cap:float -> base
(** Base-solve stage: {!scenario}, {!prepare}[ ~presolve:false] and one
    cold {!Core.Event_lp.solve_prepared} at [power_cap], cached under
    {!base_key} in memory only (16 entries, single-flight, counted as
    cache ["base"]).  A process solves each base once, and every later
    what-if on it runs only its warm edit.  The outcome and basis equal
    a fresh solve's, so results are byte-identical with the cache on or
    off. *)

val edit_key :
  ?reduce_slack:bool ->
  ?presolve:bool ->
  ?objective:Core.Objective.mode ->
  Core.Scenario.t ->
  Core.Event_lp.domain_edit list ->
  power_cap:float ->
  Key.t
(** Key of the preparation stage for the {e edited} scenario
    ([prepare_key (Core.Event_lp.edit_scenario sc edits)]).  Since
    {!Core.Scenario.digest} hashes every task frontier, an edited
    scenario always derives a fresh key (no stale prepared artifact can
    be served), and re-applying the exact inverse edit derives the
    original key again. *)

val switch_key :
  ?reduce_slack:bool ->
  ?presolve:bool ->
  Core.Scenario.t ->
  Core.Objective.mode ->
  power_cap:float ->
  Key.t
(** Key of the preparation stage for the same scenario re-targeted at
    another objective mode ([prepare_key ~objective sc]) — where a
    cached handle produced by {!Core.Event_lp.switch_objective} for that
    mode would live.  Switching back derives the original key again. *)
