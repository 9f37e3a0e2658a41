type source =
  | Synthetic of Workloads.Apps.app * Workloads.Apps.params
  | Trace_file of string
  | Graph of Dag.Graph.t

let source_key = function
  | Synthetic (app, p) ->
      let h = Putil.Hashing.create () in
      Putil.Hashing.string h (Workloads.Apps.app_name app);
      Putil.Hashing.int h p.Workloads.Apps.nranks;
      Putil.Hashing.int h p.Workloads.Apps.iterations;
      Putil.Hashing.int h p.Workloads.Apps.seed;
      Putil.Hashing.float h p.Workloads.Apps.scale;
      Key.v ~stage:"trace" h
  | Trace_file path ->
      (* Content-addressed: renaming or touching the file changes
         nothing; editing a byte of it changes the key. *)
      Key.of_digest ~stage:"trace-file" (Digest.to_hex (Digest.file path))
  | Graph g -> Key.of_digest ~stage:"graph" (Dag.Graph.digest g)

let graph_cache : Dag.Graph.t Putil.Cache.t =
  Putil.Cache.create ~capacity:32 ~name:"graph" ()

(* Graphs round-trip exactly through the textual trace format (%.17g
   floats), so the disk tier serves byte-equal artifacts.  Scenarios and
   prepared LPs hold closures and solver state and stay memory-only. *)
let attach_store store =
  Putil.Cache.set_tier graph_cache
    ~spill:(fun key g -> Putil.Disk_store.put store key (Dag.Trace_io.to_string g))
    ~revive:(fun key ->
      match Putil.Disk_store.get store key with
      | None -> None
      | Some s -> (
          (* the store already digest-checks payloads; a parse failure
             here means a schema change, which must read as a miss *)
          try Some (Dag.Trace_io.of_string s)
          with Dag.Trace_io.Parse_error _ | Failure _ -> None))
    ()

(* Span around an actual stage build (cache hits record nothing: the
   interesting wall time is the construction, and a hit costs nothing
   worth charting). *)
let build_span ~stage ~key f =
  Putil.Obs.span ~cat:"pipeline" ~args:[ ("key", key) ] stage f

let graph = function
  | Graph g -> g
  | Synthetic (app, p) as src ->
      let key = Key.to_string (source_key src) in
      Putil.Cache.find_or_build graph_cache key (fun () ->
          build_span ~stage:"stage:trace" ~key (fun () ->
              Workloads.Apps.generate app p))
  | Trace_file path as src ->
      (* The key digests the content read at lookup time, so a stale
         cache entry for an overwritten file can never be returned. *)
      let key = Key.to_string (source_key src) in
      Putil.Cache.find_or_build graph_cache key (fun () ->
          build_span ~stage:"stage:trace-file" ~key (fun () ->
              Dag.Trace_io.of_file path))

let scenario_key ?(socket_seed = 7) ?(variability = 0.04) src =
  let h = Putil.Hashing.create () in
  Putil.Hashing.string h (Key.to_string (source_key src));
  Putil.Hashing.int h socket_seed;
  Putil.Hashing.float h variability;
  Key.v ~stage:"scenario" h

let scenario_cache : Core.Scenario.t Putil.Cache.t =
  Putil.Cache.create ~capacity:32 ~name:"scenario" ()

let scenario ?(socket_seed = 7) ?(variability = 0.04) src =
  let key = Key.to_string (scenario_key ~socket_seed ~variability src) in
  Putil.Cache.find_or_build scenario_cache key (fun () ->
      build_span ~stage:"stage:scenario" ~key (fun () ->
          Core.Scenario.make ~socket_seed ~variability (graph src)))

let prepare_key ?(reduce_slack = true) ?(presolve = true)
    ?(objective = Core.Objective.Makespan_under_cap) sc ~power_cap =
  let h = Putil.Hashing.create () in
  Core.Scenario.digest_fold h sc;
  Putil.Hashing.bool h reduce_slack;
  Putil.Hashing.bool h presolve;
  Putil.Hashing.float h power_cap;
  Core.Objective.digest_fold h objective;
  Key.v ~stage:"prepare" h

let prepare_cache : Core.Event_lp.prepared Putil.Cache.t =
  Putil.Cache.create ~capacity:16 ~name:"prepare" ()

let prepare ?(reduce_slack = true) ?(presolve = true) ?objective sc ~power_cap
    =
  let key =
    Key.to_string (prepare_key ~reduce_slack ~presolve ?objective sc ~power_cap)
  in
  Putil.Cache.find_or_build prepare_cache key (fun () ->
      build_span ~stage:"stage:prepare" ~key (fun () ->
          Core.Event_lp.prepare ~reduce_slack ~presolve ?objective sc
            ~power_cap))

type base = {
  scenario : Core.Scenario.t;
  prepared : Core.Event_lp.prepared;
  outcome : Core.Event_lp.outcome;
  basis : Lp.Revised.basis option;
}

(* Keyed from the source, not the scenario's content digest, so a hit
   builds no scenario: the scenario is a function of the source and the
   default fleet parameters, which [scenario_key] already names. *)
let base_key src ~power_cap =
  let h = Putil.Hashing.create () in
  Putil.Hashing.string h (Key.to_string (scenario_key src));
  Putil.Hashing.float h power_cap;
  Key.v ~stage:"base" h

(* Memory-only, like the scenarios and handles it holds. *)
let base_cache : base Putil.Cache.t =
  Putil.Cache.create ~capacity:16 ~name:"base" ()

let base src ~power_cap =
  let key = Key.to_string (base_key src ~power_cap) in
  Putil.Cache.find_or_build base_cache key (fun () ->
      let scenario = scenario src in
      let prepared = prepare ~presolve:false scenario ~power_cap in
      build_span ~stage:"stage:base" ~key (fun () ->
          let outcome, basis =
            Core.Event_lp.solve_prepared prepared ~power_cap
          in
          { scenario; prepared; outcome; basis }))

(* What-if edits re-key through the edited scenario: Scenario.digest
   hashes the frontiers themselves, so any domain edit perturbs the
   digest and a stale prepared model can never be served, while the
   exact inverse edit hashes back to the original key. *)
let edit_key ?(reduce_slack = true) ?(presolve = true) ?objective sc edits
    ~power_cap =
  prepare_key ~reduce_slack ~presolve ?objective
    (Core.Event_lp.edit_scenario sc edits)
    ~power_cap

(* Objective-mode switches re-key the same way: the target mode's key on
   the unchanged scenario — what a cached handle for the switched world
   would live under (the digest carries the deadline, so every deadline
   is its own entry, exactly as every cap is). *)
let switch_key ?(reduce_slack = true) ?(presolve = true) sc objective
    ~power_cap =
  prepare_key ~reduce_slack ~presolve ~objective sc ~power_cap
