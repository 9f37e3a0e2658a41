(** A scenario bundles everything the formulations and runtimes consume:
    the application DAG, the socket running each rank (one multithreaded
    process per socket, paper Section 2.2), and the convex Pareto
    frontier of every task on its socket. *)

type t = {
  graph : Dag.Graph.t;
  sockets : Machine.Socket.t array;  (** indexed by rank *)
  frontiers : Pareto.Frontier.t array;
      (** indexed by tid; empty for zero-work MPI transitions *)
  socket_seed : int;  (** fleet seed the sockets were drawn with *)
  variability : float;  (** fleet efficiency variability *)
}

val make : ?socket_seed:int -> ?variability:float -> Dag.Graph.t -> t
(** Builds the socket fleet and every task's convex frontier.  Frontier
    construction is deduplicated within a build: tasks whose (socket
    efficiency, profile) inputs are equal ({!Pareto.Frontier.memo_key})
    share one physical hull array. *)

val equal : t -> t -> bool
(** Structural, seed- and parameter-inclusive equality. *)

val digest_fold : Putil.Hashing.t -> t -> unit

val digest : t -> string
(** Hex digest of the scenario's structure — graph, socket fleet, seed,
    variability and every task frontier — the scenario's content-derived
    cache key.  Frontiers are hashed directly (not just their inputs) so
    a what-if edit ({!Event_lp.edit_scenario}) always re-keys, and an
    exact inverse edit restores the original key. *)

val min_job_power : t -> float
(** Smallest job power at which every task can run at all; below it the
    LP is infeasible ("not able to be scheduled" in Figures 9-10). *)

val fastest_duration : t -> int -> float
(** Duration of task [tid] at its fastest configuration. *)
