(** Pareto frontiers of task configurations.

    The LP formulation needs, for every task, a configuration set that is
    Pareto-efficient {e and convex} in the (power, time) plane (paper
    Section 3.2): convexity is what keeps the formulation purely linear.
    [convex] computes the lower convex hull of the non-dominated
    configurations. *)

type t = Point.t array
(** Hull points sorted by power ascending, duration strictly
    descending. *)

val enumerate :
  ?params:Machine.Socket.params ->
  Machine.Socket.t ->
  Machine.Profile.t ->
  Point.t array
(** Every (ladder frequency × thread count) configuration. *)

val pareto : Point.t array -> Point.t array
(** Non-dominated subset, sorted by power (not necessarily convex). *)

val convex_of_points : Point.t array -> t
(** Lower convex hull of the Pareto frontier of arbitrary points. *)

val convex :
  ?params:Machine.Socket.params -> Machine.Socket.t -> Machine.Profile.t -> t
(** [convex socket profile] = hull of [enumerate socket profile]. *)

val equal : t -> t -> bool
(** Structural (bit-level float) equality of the hulls. *)

val digest_fold : Putil.Hashing.t -> t -> unit
(** Feed the hull's canonical encoding to a hasher (cache keys). *)

val memo_key :
  ?params:Machine.Socket.params ->
  Machine.Socket.t ->
  Machine.Profile.t ->
  string
(** The content key of {!convex}'s inputs: machine parameters, socket
    efficiency (not id) and profile.  {!Core.Scenario.make} shares one
    (immutable) hull array among the tasks of a build whose keys are
    equal. *)

val min_power : t -> float
val max_power : t -> float

val fastest : t -> Point.t
(** Highest-power, shortest-duration hull point. *)

val slowest : t -> Point.t
(** Most frugal hull point. *)

val best_under_power : t -> budget:float -> Point.t option
(** Fastest single configuration whose power fits [budget]. *)

type blend = (Point.t * float) list
(** Convex combination of hull configurations (the paper's continuous
    case, realized by switching configuration mid-task).  Weights sum
    to 1. *)

val blend_power : blend -> float
val blend_duration : blend -> float

val interpolate : t -> power:float -> blend
(** Fastest blend with average power exactly [power] (clamped to the
    hull's range): at most two adjacent hull points. *)

val duration_at_power : t -> power:float -> float
(** Duration of [interpolate ~power]. *)

val power_for_duration : t -> duration:float -> float
(** Inverse of {!duration_at_power}: smallest average power achieving
    [duration] (clamped). *)

val round_nearest : t -> power:float -> Point.t
(** Hull configuration with power closest to the target (the paper's
    discrete rounding). *)

val round_down : t -> power:float -> Point.t
(** Hull configuration that never exceeds the target power. *)

val pp : Format.formatter -> t -> unit
