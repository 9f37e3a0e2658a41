(** A scenario bundles everything the formulations and runtimes consume:
    the application DAG, the socket running each rank (one multithreaded
    process per socket, per the paper's Section 2.2 assumptions), and the
    convex Pareto frontier of every task on its socket. *)

type t = {
  graph : Dag.Graph.t;
  sockets : Machine.Socket.t array;  (** indexed by rank *)
  frontiers : Pareto.Frontier.t array;
      (** indexed by tid; empty array for zero-work MPI transitions *)
  socket_seed : int;  (** fleet seed the sockets were drawn with *)
  variability : float;  (** fleet efficiency variability *)
}

let make ?(socket_seed = 7) ?(variability = 0.04) (graph : Dag.Graph.t) : t =
  let sockets =
    Machine.Socket.fleet ~variability ~seed:socket_seed graph.Dag.Graph.nranks
  in
  (* Frontier enumeration is deduplicated: within one build, every task
     with the same (socket efficiency, profile) content shares one
     physical hull array, so a build costs one hull per distinct pair.
     Across builds nothing is shared: a build runs only on a scenario
     cache miss, and a process-wide frontier cache behind this table
     took no hit on the default sweep or on serve-mix's daemons. *)
  let local : (string, Pareto.Frontier.t) Hashtbl.t = Hashtbl.create 64 in
  let frontiers =
    Array.map
      (fun (t : Dag.Graph.task) ->
        if t.profile.Machine.Profile.work <= 0.0 then [||]
        else begin
          let key = Pareto.Frontier.memo_key sockets.(t.rank) t.profile in
          match Hashtbl.find_opt local key with
          | Some f -> f
          | None ->
              let f = Pareto.Frontier.convex sockets.(t.rank) t.profile in
              Hashtbl.add local key f;
              f
        end)
      graph.Dag.Graph.tasks
  in
  { graph; sockets; frontiers; socket_seed; variability }

(* Structural identity: the graph, every parameter the socket fleet was
   drawn from, and the frontiers themselves.  Freshly-built scenarios
   derive their frontiers purely from (graph, sockets, default machine
   params), but what-if edits ({!Event_lp.edit_scenario}) perturb
   frontiers independently of those inputs — so the hulls carry their
   own weight in the digest, and an edited scenario can never collide
   with its parent in the artifact cache.  Exact inverse edits restore
   the exact hull bytes and therefore the original digest. *)
let digest_fold h t =
  Dag.Graph.digest_fold h t.graph;
  Putil.Hashing.int h t.socket_seed;
  Putil.Hashing.float h t.variability;
  Putil.Hashing.int h (Array.length t.sockets);
  Array.iter (Machine.Socket.digest_fold h) t.sockets;
  Array.iter (Pareto.Frontier.digest_fold h) t.frontiers

let digest t =
  let h = Putil.Hashing.create () in
  digest_fold h t;
  Putil.Hashing.hex h

let equal a b =
  a.socket_seed = b.socket_seed
  && Float.equal a.variability b.variability
  && Array.length a.sockets = Array.length b.sockets
  && Array.for_all2 Machine.Socket.equal a.sockets b.sockets
  && Dag.Graph.equal a.graph b.graph
  (* graphs equal ⇒ task counts equal, so for_all2 cannot raise *)
  && Array.for_all2 Pareto.Frontier.equal a.frontiers b.frontiers

(** Smallest job power at which every task can run at all: the sum over
    ranks of the most frugal frontier point of the rank's hungriest task
    — below this the LP is infeasible ("not able to be scheduled" in
    Figures 9-10). *)
let min_job_power t =
  let per_rank = Array.make t.graph.Dag.Graph.nranks 0.0 in
  Array.iteri
    (fun tid f ->
      if Array.length f > 0 then begin
        let r = t.graph.Dag.Graph.tasks.(tid).Dag.Graph.rank in
        let p = Pareto.Frontier.min_power f in
        if p > per_rank.(r) then per_rank.(r) <- p
      end)
    t.frontiers;
  Array.fold_left ( +. ) 0.0 per_rank

(** Duration of a task at its fastest configuration (used for the
    power-unconstrained initial schedule). *)
let fastest_duration t tid =
  let f = t.frontiers.(tid) in
  if Array.length f = 0 then 0.0
  else (Pareto.Frontier.fastest f).Pareto.Point.duration
