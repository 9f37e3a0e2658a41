(* powerlim: command-line driver for the power-constrained performance
   toolkit.

     powerlim bound  --app bt --cap 30            LP upper bound + validation
     powerlim compare --app lulesh --cap 50       Static / Conductor / LP
     powerlim sweep --ranks 32 --iters 20         the full figure sweep
     powerlim frontier --app comd                 task Pareto frontier
     powerlim flow --cap 60                       flow ILP vs fixed-order LP *)

open Cmdliner

(* Scenario parameters are range-checked where they are parsed, so an
   out-of-range value is a usage error (exit 124), like an unparseable
   one, instead of an exception or a nonsense report. *)
let checked base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let count = checked Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)

(* [not (x > 0)] also rejects NaN. *)
let positive = checked Arg.float ~expected:"a number > 0" (fun x -> x > 0.0)

let ranks_t =
  Arg.(value & opt count 16 & info [ "ranks" ] ~docv:"N" ~doc:"Number of MPI ranks (= sockets).")

let iters_t =
  Arg.(value & opt count 10 & info [ "iters" ] ~docv:"N" ~doc:"Application iterations.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload random seed.")

let app_conv =
  Arg.conv
    ( (fun s ->
        try Ok (Workloads.Apps.app_of_name s)
        with Invalid_argument m -> Error (`Msg m)),
      fun ppf a -> Fmt.string ppf (Workloads.Apps.app_name a) )

let app_t =
  Arg.(value & opt app_conv Workloads.Apps.CoMD & info [ "app" ] ~docv:"APP"
         ~doc:"Benchmark: comd, lulesh, sp or bt.")

let cap_t =
  Arg.(value & opt positive 40.0 & info [ "cap" ] ~docv:"W"
         ~doc:"Average power cap per processor socket, watts.")

let discrete_t =
  Arg.(value & flag & info [ "discrete" ]
         ~doc:"Round the LP schedule to single discrete configurations.")

(* ---- observability plumbing --------------------------------------- *)

let trace_out_t =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record spans (implies POWERLIM_TRACE=1) and write a Chrome \
               trace-event JSON file loadable in chrome://tracing or \
               Perfetto.  Never changes stdout: traced and untraced runs \
               print byte-identical results.")

let stats_json_t =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
         ~doc:"Write the unified counter registry (LP solver, artifact \
               caches, domain pool, tracer) as JSON when the command \
               finishes.")

(* The export runs from at_exit, not from a normal-return path, so the
   trace and stats survive diagnostic exits (a failed cap validation is
   exactly when you want them).  Status messages go to stderr: stdout
   stays byte-identical with tracing on or off. *)
let with_obs trace_out stats_json run =
  if trace_out <> None then Putil.Obs.set_enabled true;
  if trace_out <> None || stats_json <> None then
    at_exit (fun () ->
        Option.iter
          (fun path ->
            Putil.Obs.write_chrome_json path;
            Fmt.epr "wrote Chrome trace (%d events) to %s@."
              (Putil.Obs.event_count ()) path)
          trace_out;
        Option.iter
          (fun path ->
            Putil.Obs.write_stats_json path;
            Fmt.epr "wrote stats JSON to %s@." path)
          stats_json);
  run ()

let report_cap_violation v ~job_cap =
  Serve.Handlers.pp_cap_violation Fmt.stderr v ~job_cap

(* Shared renderers (Serve.Handlers) compute into strings so the daemon
   can serve the same bytes; the CLI prints them and exits with the
   handler's status. *)
let emit_outcome (o : Serve.Handlers.outcome) =
  print_string o.Serve.Handlers.out;
  prerr_string o.Serve.Handlers.err;
  flush stdout;
  flush stderr;
  if o.Serve.Handlers.status <> 0 then exit o.Serve.Handlers.status

let setup app ranks iters seed =
  let params =
    { Workloads.Apps.nranks = ranks; iterations = iters; seed; scale = 1.0 }
  in
  let sc = Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params)) in
  (sc.Core.Scenario.graph, sc)

let bound_cmd =
  let run app ranks iters seed cap discrete trace_out stats_json =
    with_obs trace_out stats_json @@ fun () ->
    let g, sc = setup app ranks iters seed in
    let job_cap = cap *. Float.of_int ranks in
    Fmt.pr "%a@." Dag.Graph.pp_stats g;
    Fmt.pr "job power cap: %.0f W (%.0f W x %d sockets); minimum feasible: %.0f W@."
      job_cap cap ranks (Core.Scenario.min_job_power sc);
    let mode =
      if discrete then Core.Event_lp.Discrete_rounded else Core.Event_lp.Continuous
    in
    match Core.Event_lp.solve ~mode sc ~power_cap:job_cap with
    | Core.Event_lp.Schedule s ->
        Fmt.pr "LP bound: %.4f s (LP: %d rows, %d cols, %d simplex iterations)@."
          s.Core.Event_lp.objective s.Core.Event_lp.stats.Core.Event_lp.rows
          s.Core.Event_lp.stats.Core.Event_lp.cols
          s.Core.Event_lp.stats.Core.Event_lp.iterations;
        let v = Core.Replay.validate sc s ~power_cap:job_cap in
        Fmt.pr
          "replay: %.4f s (gap %.2f%%), max sustained power %.1f W, within \
           cap: %b@."
          v.Core.Replay.replay_makespan v.Core.Replay.gap_pct
          v.Core.Replay.max_power v.Core.Replay.within_cap;
        if not v.Core.Replay.within_cap then begin
          report_cap_violation v ~job_cap;
          exit 1
        end
    | Core.Event_lp.Infeasible ->
        Fmt.pr "infeasible: the cap cannot accommodate every task@."
    | Core.Event_lp.Solver_failure m -> Fmt.pr "solver failure: %s@." m
  in
  Cmd.v (Cmd.info "bound" ~doc:"Compute the LP performance bound and validate it by replay.")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ cap_t $ discrete_t
          $ trace_out_t $ stats_json_t)

let compare_cmd =
  let run app ranks iters seed cap =
    let g, sc = setup app ranks iters seed in
    ignore g;
    let job_cap = cap *. Float.of_int ranks in
    let st = Runtime.Static.run sc ~job_cap in
    let co = Runtime.Conductor.run sc ~job_cap in
    Fmt.pr "%-10s %10s %12s@." "method" "time (s)" "max power (W)";
    Fmt.pr "%-10s %10.4f %12.1f@." "static" st.Simulate.Engine.makespan
      st.Simulate.Engine.max_power;
    Fmt.pr "%-10s %10.4f %12.1f@." "conductor" co.Simulate.Engine.makespan
      co.Simulate.Engine.max_power;
    match Core.Event_lp.solve sc ~power_cap:job_cap with
    | Core.Event_lp.Schedule s ->
        let v = Core.Replay.validate sc s ~power_cap:job_cap in
        Fmt.pr "%-10s %10.4f %12.1f@." "lp-replay"
          v.Core.Replay.replay_makespan v.Core.Replay.max_power;
        Fmt.pr "LP improvement vs static: %.1f%%; vs conductor: %.1f%%@."
          (Simulate.Stats.improvement_pct ~base:st.Simulate.Engine.makespan
             ~t:v.Core.Replay.replay_makespan)
          (Simulate.Stats.improvement_pct ~base:co.Simulate.Engine.makespan
             ~t:v.Core.Replay.replay_makespan)
    | Core.Event_lp.Infeasible -> Fmt.pr "lp: infeasible@."
    | Core.Event_lp.Solver_failure m -> Fmt.pr "lp: %s@." m
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare Static, Conductor and the LP bound at one power cap.")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ cap_t)

let no_cache_t =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Disable the pipeline artifact cache (same as POWERLIM_CACHE=0); \
               every stage recomputes.  Output is byte-identical either way.")

let sweep_cmd =
  let run ranks iters seed no_cache trace_out stats_json =
    with_obs trace_out stats_json @@ fun () ->
    if no_cache then Putil.Cache.set_enabled false;
    emit_outcome (Serve.Handlers.sweep ~ranks ~iters ~seed ())
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Run the full Static/Conductor/LP power sweep (figures 9-10).")
    Term.(const run $ ranks_t $ iters_t $ seed_t $ no_cache_t $ trace_out_t
          $ stats_json_t)

let frontier_cmd =
  let run app seed =
    let params = { Workloads.Apps.default_params with Workloads.Apps.seed } in
    let sc =
      Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params))
    in
    let g = sc.Core.Scenario.graph in
    (* largest task of rank 0 *)
    let best = ref None in
    Array.iteri
      (fun tid (t : Dag.Graph.task) ->
        if t.rank = 0 && Array.length sc.Core.Scenario.frontiers.(tid) > 0
        then
          match !best with
          | Some (_, w) when w >= t.profile.Machine.Profile.work -> ()
          | _ -> best := Some (tid, t.profile.Machine.Profile.work))
      g.Dag.Graph.tasks;
    match !best with
    | None -> Fmt.pr "no computation tasks@."
    | Some (tid, _) ->
        Fmt.pr "convex Pareto frontier of %s task %d (rank 0):@.%a@."
          (Workloads.Apps.app_name app) tid Pareto.Frontier.pp
          sc.Core.Scenario.frontiers.(tid)
  in
  Cmd.v (Cmd.info "frontier" ~doc:"Print the convex Pareto frontier of a representative task.")
    Term.(const run $ app_t $ seed_t)

let flow_cmd =
  let run cap =
    let g = Workloads.Apps.exchange ~rounds:2 () in
    let sc = Pipeline.Stages.scenario (Pipeline.Stages.Graph g) in
    (match Core.Event_lp.solve sc ~power_cap:cap with
    | Core.Event_lp.Schedule s ->
        Fmt.pr "fixed-vertex-order LP : %.4f s@." s.Core.Event_lp.objective
    | _ -> Fmt.pr "fixed-vertex-order LP : infeasible@.");
    match Core.Flow_ilp.solve sc ~power_cap:cap with
    | Core.Flow_ilp.Schedule s ->
        Fmt.pr "flow ILP              : %.4f s (%d binaries, %d nodes)@."
          s.Core.Flow_ilp.objective s.Core.Flow_ilp.stats.Core.Flow_ilp.binaries
          s.Core.Flow_ilp.stats.Core.Flow_ilp.nodes
    | Core.Flow_ilp.Infeasible -> Fmt.pr "flow ILP: infeasible@."
    | Core.Flow_ilp.Too_large n -> Fmt.pr "flow ILP: too large (%d tasks)@." n
    | Core.Flow_ilp.Solver_failure m -> Fmt.pr "flow ILP: %s@." m
  in
  let cap_t =
    Arg.(value & opt positive 60.0 & info [ "cap" ] ~docv:"W"
           ~doc:"Total job power cap, watts.")
  in
  Cmd.v (Cmd.info "flow" ~doc:"Compare the flow ILP and the fixed-order LP on the 2-rank exchange.")
    Term.(const run $ cap_t)

let trace_cmd =
  let run app ranks iters seed out dot =
    let params =
      { Workloads.Apps.nranks = ranks; iterations = iters; seed; scale = 1.0 }
    in
    let g = Workloads.Apps.generate app params in
    (match out with
    | Some path ->
        Dag.Trace_io.to_file path g;
        Fmt.pr "wrote %a to %s@." Dag.Graph.pp_stats g path
    | None -> Dag.Trace_io.output stdout g);
    match dot with
    | Some path ->
        let ts = Dag.Schedule.unconstrained g in
        Dag.Dot.to_file ~times:ts path g;
        Fmt.pr "wrote Graphviz rendering to %s@." path
    | None -> ()
  in
  let out_t =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the trace to FILE (default: stdout).")
  in
  let dot_t =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Also write a Graphviz (DOT) rendering to FILE.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Generate a workload trace (and optionally a DOT rendering).")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ out_t $ dot_t)

let solve_trace_cmd =
  let run path cap trace_out stats_json =
    with_obs trace_out stats_json @@ fun () ->
    let sc = Pipeline.Stages.scenario (Pipeline.Stages.Trace_file path) in
    let g = sc.Core.Scenario.graph in
    let job_cap = cap *. Float.of_int g.Dag.Graph.nranks in
    Fmt.pr "%a@." Dag.Graph.pp_stats g;
    match Core.Event_lp.solve sc ~power_cap:job_cap with
    | Core.Event_lp.Schedule s ->
        let v = Core.Replay.validate sc s ~power_cap:job_cap in
        Fmt.pr "LP bound %.4f s; replay %.4f s; max power %.1f / %.0f W; \
                within cap: %b@."
          s.Core.Event_lp.objective v.Core.Replay.replay_makespan
          v.Core.Replay.max_power job_cap v.Core.Replay.within_cap
    | Core.Event_lp.Infeasible -> Fmt.pr "infeasible@."
    | Core.Event_lp.Solver_failure m -> Fmt.pr "solver failure: %s@." m
  in
  let path_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
           ~doc:"Trace file produced by the trace subcommand.")
  in
  Cmd.v
    (Cmd.info "solve-trace"
       ~doc:"Load a saved trace and compute its LP bound under a power cap.")
    Term.(const run $ path_t $ cap_t $ trace_out_t $ stats_json_t)

let export_cmd =
  let run app ranks iters seed cap mps_out trace_csv records_csv =
    let g, sc = setup app ranks iters seed in
    let job_cap = cap *. Float.of_int ranks in
    (match mps_out with
    | Some path ->
        Putil.Fileio.write path (Core.Event_lp.to_mps sc ~power_cap:job_cap);
        Fmt.pr "wrote event LP (MPS) to %s@." path
    | None -> ());
    match (trace_csv, records_csv) with
    | None, None -> ()
    | _ -> (
        match Core.Event_lp.solve sc ~power_cap:job_cap with
        | Core.Event_lp.Schedule s ->
            let v = Core.Replay.validate sc s ~power_cap:job_cap in
            Option.iter
              (fun path ->
                Simulate.Csv.trace_to_file path v.Core.Replay.result;
                Fmt.pr "wrote job-power trace to %s@." path)
              trace_csv;
            Option.iter
              (fun path ->
                Simulate.Csv.records_to_file path g v.Core.Replay.result;
                Fmt.pr "wrote task records to %s@." path)
              records_csv
        | Core.Event_lp.Infeasible -> Fmt.pr "infeasible; no CSVs written@."
        | Core.Event_lp.Solver_failure m -> Fmt.pr "solver failure: %s@." m)
  in
  let mps_t =
    Arg.(value & opt (some string) None & info [ "mps" ] ~docv:"FILE"
           ~doc:"Write the event LP in MPS format to FILE.")
  in
  let trace_t =
    Arg.(value & opt (some string) None & info [ "trace-csv" ] ~docv:"FILE"
           ~doc:"Write the validated schedule's job-power trace as CSV.")
  in
  let records_t =
    Arg.(value & opt (some string) None & info [ "records-csv" ] ~docv:"FILE"
           ~doc:"Write the validated schedule's per-task records as CSV.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export the event LP (MPS) and/or schedule data (CSV) for external tools.")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ cap_t $ mps_t
          $ trace_t $ records_t)

(* ---- what-if: incremental re-solve under domain edits ------------- *)

(* TID:POINT:DUR:POW, e.g. --perturb-task 17:2:0.034:91.5 *)
let perturb_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ tid; point; duration; power ] -> (
        try
          Ok
            (Core.Event_lp.Perturb_task
               {
                 tid = int_of_string (String.trim tid);
                 point = int_of_string (String.trim point);
                 duration = float_of_string (String.trim duration);
                 power = float_of_string (String.trim power);
               })
        with Failure _ -> Error (`Msg (Printf.sprintf "bad perturbation %S" s)))
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "bad perturbation %S (expected TID:POINT:DUR:POW)" s))
  in
  Arg.conv (parse, Core.Event_lp.pp_domain_edit)

let what_if_cmd =
  let run app ranks iters seed cap fail_sockets drop_ranks perturbs trace_out
      stats_json =
    with_obs trace_out stats_json @@ fun () ->
    let edits =
      List.map (fun r -> Core.Event_lp.Fail_socket r) fail_sockets
      @ List.map (fun r -> Core.Event_lp.Drop_rank r) drop_ranks
      @ perturbs
    in
    emit_outcome
      (Serve.Handlers.what_if ~app ~ranks ~iters ~seed ~cap ~edits ())
  in
  let fail_socket_t =
    Arg.(value & opt_all int [] & info [ "fail-socket" ] ~docv:"RANK"
           ~doc:"Pin every task of RANK to its most frugal configuration \
                 (the socket loses its DVFS/thread headroom).  Repeatable.")
  in
  let drop_rank_t =
    Arg.(value & opt_all int [] & info [ "drop-rank" ] ~docv:"RANK"
           ~doc:"Remove RANK's tasks from the optimization entirely.  \
                 Repeatable.")
  in
  let perturb_t =
    Arg.(value & opt_all perturb_conv [] & info [ "perturb-task" ]
           ~docv:"TID:POINT:DUR:POW"
           ~doc:"Overwrite frontier point POINT of task TID with the given \
                 (duration, power) — e.g. a measured profile correction.  \
                 Repeatable.")
  in
  Cmd.v
    (Cmd.info "what-if"
       ~doc:"Re-solve the LP bound incrementally under domain edits \
             (socket failures, dropped ranks, profile perturbations) and \
             validate it by replay in the edited scenario.")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ cap_t
          $ fail_socket_t $ drop_rank_t $ perturb_t $ trace_out_t
          $ stats_json_t)

let energy_cmd =
  let run app ranks iters seed cap deadline trace_out stats_json =
    with_obs trace_out stats_json @@ fun () ->
    emit_outcome
      (Serve.Handlers.energy ~app ~ranks ~iters ~seed ~cap ~deadline ())
  in
  let deadline_t =
    Arg.(value & opt (some positive) None & info [ "deadline" ] ~docv:"S"
           ~doc:"Absolute deadline, seconds.  When omitted, sweep the \
                 energy objective over deadlines at multiples of the \
                 makespan bound T* and report replay plus slack \
                 reclamation for every point.")
  in
  Cmd.v
    (Cmd.info "energy"
       ~doc:"Minimize energy under a deadline (single deadline or a \
             deadline sweep), with replay validation and slack \
             reclamation.")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ cap_t $ deadline_t
          $ trace_out_t $ stats_json_t)

let gantt_cmd =
  let run app ranks iters seed cap method_ width =
    let g, sc = setup app ranks iters seed in
    let job_cap = cap *. Float.of_int ranks in
    let result =
      match method_ with
      | "static" -> Some (Runtime.Static.run sc ~job_cap)
      | "conductor" -> Some (Runtime.Conductor.run sc ~job_cap)
      | "redistrib" -> Some (Runtime.Redistrib.run sc ~job_cap)
      | "balancer" -> Some (Runtime.Balancer.run sc ~job_cap)
      | "adagio" -> Some (Runtime.Adagio.run sc)
      | "lp" -> (
          match Core.Event_lp.solve sc ~power_cap:job_cap with
          | Core.Event_lp.Schedule s ->
              Some (Core.Replay.validate sc s ~power_cap:job_cap).Core.Replay.result
          | _ ->
              Fmt.pr "lp: infeasible at this cap@.";
              None)
      | m ->
          Fmt.epr
            "unknown method %S (static|conductor|redistrib|balancer|adagio|lp)@."
            m;
          exit 2
    in
    match result with
    | Some r ->
        Fmt.pr "%s under %s at %.0f W/socket:@." (Workloads.Apps.app_name app)
          method_ cap;
        Simulate.Gantt.print ~width g r
    | None -> ()
  in
  let method_t =
    Arg.(value & opt string "lp" & info [ "method" ] ~docv:"M"
           ~doc:"Policy to render: static, conductor, redistrib, balancer, \
                 adagio or lp.")
  in
  let width_t =
    Arg.(value & opt int 100 & info [ "width" ] ~docv:"COLS"
           ~doc:"Chart width in characters.")
  in
  Cmd.v (Cmd.info "gantt" ~doc:"Render a policy's schedule as an ASCII Gantt chart.")
    Term.(const run $ app_t $ ranks_t $ iters_t $ seed_t $ cap_t $ method_t $ width_t)

(* ---- serve: the persistent solving daemon -------------------------- *)

let socket_t =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on (or connect to) a Unix domain socket at PATH.")

let port_t =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Listen on (or connect to) TCP PORT instead of a Unix \
               socket.  0 picks a free port (printed on stderr).")

let host_t =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Host to bind or connect to with --port.")

let address_of socket port host =
  match (socket, port) with
  | Some path, None -> Ok (Serve.Daemon.Unix_socket path)
  | None, Some port -> Ok (Serve.Daemon.Tcp (host, port))
  | None, None -> Error "one of --socket or --port is required"
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"

let serve_cmd =
  let run socket port host store store_limit_mb cache_capacity =
    match address_of socket port host with
    | Error m ->
        Fmt.epr "serve: %s@." m;
        exit 2
    | Ok address ->
        let cfg =
          {
            Serve.Daemon.address;
            store_root = store;
            store_limit_bytes = store_limit_mb * 1024 * 1024;
            cache_capacity;
            pool = None;
          }
        in
        let d = Serve.Daemon.start cfg in
        Fmt.epr "powerlim serve: listening on %a (pool %d-way%s)@."
          Serve.Daemon.pp_address (Serve.Daemon.address d)
          (Putil.Pool.parallelism (Putil.Pool.get_default ()))
          (match store with
          | Some root -> Printf.sprintf ", store %s" root
          | None -> ", no store");
        Serve.Daemon.wait d
  in
  let store_t =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Persist responses (and pipeline graphs) in a \
                 content-addressed artifact store under DIR; a restarted \
                 daemon answers repeated requests from it.")
  in
  let store_limit_t =
    Arg.(value & opt int 0 & info [ "store-limit-mb" ] ~docv:"MB"
           ~doc:"Evict least-recently-used artifacts beyond MB megabytes \
                 (0 = unbounded).")
  in
  let cache_capacity_t =
    Arg.(value & opt int 64 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"In-memory response cache entries (evictions spill to the \
                 store).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent solving daemon: newline-delimited JSON \
             requests (sweep, energy, what-if, stats, shutdown) over a \
             Unix or TCP socket, answered from a two-tier response cache \
             backed by a crash-safe on-disk artifact store.")
    Term.(const run $ socket_t $ port_t $ host_t $ store_t $ store_limit_t
          $ cache_capacity_t)

let request_cmd =
  let run socket port host raw reqs =
    match address_of socket port host with
    | Error m ->
        Fmt.epr "request: %s@." m;
        exit 2
    | Ok address ->
        let reqs =
          if reqs <> [] then reqs
          else begin
            (* no positional requests: read one JSON object per stdin line *)
            let lines = ref [] in
            (try
               while true do
                 lines := input_line stdin :: !lines
               done
             with End_of_file -> ());
            List.rev !lines
          end
        in
        let c = Serve.Client.connect_retry address in
        let status = ref 0 in
        List.iter
          (fun line ->
            match Serve.Json.of_string line with
            | exception Serve.Json.Error m ->
                Fmt.epr "request: bad JSON %S: %s@." line m;
                exit 2
            | j -> (
                let resp = Serve.Client.request c j in
                if raw then print_endline (Serve.Json.to_string resp)
                else
                  match Serve.Json.get_string "output" resp with
                  | Some out ->
                      (* transparent proxy of the CLI: same stdout, same
                         stderr, same exit status as the offline command *)
                      print_string out;
                      Option.iter prerr_string
                        (Serve.Json.get_string "err" resp);
                      Option.iter
                        (fun s -> if s <> 0 && !status = 0 then status := s)
                        (Serve.Json.get_int "status" resp)
                  | None -> print_endline (Serve.Json.to_string resp)))
          reqs;
        Serve.Client.close c;
        flush stdout;
        flush stderr;
        if !status <> 0 then exit !status
  in
  let raw_t =
    Arg.(value & flag & info [ "raw" ]
           ~doc:"Print raw JSON response lines instead of unpacking \
                 output/err/status.")
  in
  let reqs_t =
    Arg.(value & pos_all string [] & info [] ~docv:"JSON"
           ~doc:"Request objects, e.g. '{\"op\":\"sweep\",\"ranks\":8}'.  \
                 With none given, requests are read from stdin, one per \
                 line.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send requests to a running powerlim serve daemon and print \
             the responses (by default exactly as the offline CLI would: \
             response output to stdout, err to stderr, exit status \
             propagated).")
    Term.(const run $ socket_t $ port_t $ host_t $ raw_t $ reqs_t)

let () =
  let doc = "Finding the limits of power-constrained application performance" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "powerlim" ~version:"1.0.0" ~doc)
          [
            bound_cmd; compare_cmd; sweep_cmd; energy_cmd; frontier_cmd;
            flow_cmd; trace_cmd; solve_trace_cmd; export_cmd; what_if_cmd;
            gantt_cmd; serve_cmd; request_cmd;
          ]))
