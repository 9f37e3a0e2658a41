(** Shared command bodies: one renderer per served operation, used by
    both the [powerlim] CLI subcommands and the daemon.

    Each handler computes into buffers and returns the exact bytes the
    CLI prints plus the exit status it would return — served responses
    are byte-identical to offline runs {e by construction}, not by
    parallel maintenance of two printers.  Nothing here calls [exit] or
    touches process-global channels; stderr content (pool sizes, wall
    times, pivot counts — everything deliberately kept off stdout so
    knobs never change results) lands in [err]. *)

type outcome = { out : string; err : string; status : int }

let render body =
  let outb = Buffer.create 1024 and errb = Buffer.create 256 in
  let out = Format.formatter_of_buffer outb in
  let err = Format.formatter_of_buffer errb in
  let status = body out err in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  { out = Buffer.contents outb; err = Buffer.contents errb; status }

(* Earliest sustained (>= 1 ms, matching Replay.validate's smoothing)
   interval of the replayed power trace above the validation limit. *)
let first_cap_violation (r : Simulate.Engine.result) ~limit =
  let n = Array.length r.Simulate.Engine.trace in
  let found = ref None in
  Array.iteri
    (fun i (t, p) ->
      let t' =
        if i + 1 < n then fst r.Simulate.Engine.trace.(i + 1)
        else r.Simulate.Engine.makespan
      in
      if !found = None && t' -. t >= 1e-3 && p > limit then
        found := Some (t, p))
    r.Simulate.Engine.trace;
  !found

let pp_cap_violation ppf (v : Core.Replay.validation) ~job_cap =
  (* mirror of Replay.validate's within_cap test (tol = 0.02) *)
  let limit = (job_cap *. 1.02) +. 1e-6 in
  match first_cap_violation v.Core.Replay.result ~limit with
  | Some (t, p) ->
      Fmt.pf ppf
        "error: replay exceeds the power cap: %.1f W at t=%.4f s, cap %.0f W \
         (+2%% tolerance = %.1f W), excess %.1f W@."
        p t job_cap limit (p -. limit)
  | None ->
      Fmt.pf ppf
        "error: replay exceeds the power cap: max sustained power %.1f W > \
         %.0f W (+2%% tolerance)@."
        v.Core.Replay.max_power job_cap

let config ~ranks ~iters ~seed =
  {
    Experiments.Common.default_config with
    Experiments.Common.nranks = ranks;
    iterations = iters;
    seed;
  }

let sweep ~ranks ~iters ~seed () =
  render @@ fun out err ->
  let config = config ~ranks ~iters ~seed in
  (* pool size, wall time and cache traffic on stderr: stdout is
     byte-identical at every POWERLIM_JOBS setting, cache on or off *)
  Fmt.pf err "pool: %d-way parallel (POWERLIM_JOBS=%s)@."
    (Putil.Pool.parallelism (Putil.Pool.get_default ()))
    (match Sys.getenv_opt "POWERLIM_JOBS" with Some s -> s | None -> "unset");
  let t0 = Unix.gettimeofday () in
  let sweep = Experiments.Sweeps.compute ~config () in
  Fmt.pf err "[sweep: %.2f s | cache: %a]@."
    (Unix.gettimeofday () -. t0)
    Putil.Cache.pp_totals ();
  Experiments.Sweeps.fig9 sweep out;
  Experiments.Sweeps.fig10 sweep out;
  Experiments.Sweeps.summary sweep out;
  0

let energy ~app ~ranks ~iters ~seed ~cap ~deadline () =
  render @@ fun out err ->
  let config = config ~ranks ~iters ~seed in
  let s = Experiments.Common.make_setup config app in
  let sc = s.Experiments.Common.sc in
  let job_cap = cap *. Float.of_int ranks in
  match deadline with
  | Some deadline -> (
      match
        Core.Event_lp.solve
          ~objective:(Core.Objective.Energy_under_deadline { deadline })
          sc ~power_cap:job_cap
      with
      | Core.Event_lp.Schedule sched ->
          let v = Core.Replay.validate sc sched ~power_cap:job_cap in
          Fmt.pf out
            "energy bound: %.1f J (makespan %.4f s under deadline %.4f s, \
             %.0f W/socket)@."
            sched.Core.Event_lp.objective sched.Core.Event_lp.makespan
            deadline cap;
          Fmt.pf out
            "replay: %.1f J (gap %.2f%%), %.4f s, max sustained power %.1f \
             W, within cap: %b@."
            v.Core.Replay.replay_energy v.Core.Replay.obj_gap_pct
            v.Core.Replay.replay_makespan v.Core.Replay.max_power
            v.Core.Replay.within_cap;
          let rr = Core.Replay.reclaim sc sched in
          Fmt.pf out
            "reclaim: %d tasks stretched, %.1f J shaved (%.2f%% of %.1f J)@."
            rr.Core.Replay.tasks_stretched rr.Core.Replay.reclaimed_j
            rr.Core.Replay.reclaimed_pct rr.Core.Replay.base_energy_j;
          if not v.Core.Replay.within_cap then begin
            pp_cap_violation err v ~job_cap;
            1
          end
          else 0
      | Core.Event_lp.Infeasible ->
          Fmt.pf out "infeasible: no schedule meets %.4f s at %.0f W/socket@."
            deadline cap;
          0
      | Core.Event_lp.Solver_failure m ->
          Fmt.pf out "solver failure: %s@." m;
          0)
  | None ->
      let es = Experiments.Common.run_deadline_sweep s ~cap in
      if Float.is_nan es.Experiments.Common.makespan_bound then
        Fmt.pf out "cap infeasible: no schedule fits %.0f W/socket@." cap
      else begin
        Fmt.pf out "%s at %.0f W/socket, deadlines as multiples of T*:@."
          (Workloads.Apps.app_name app) cap;
        Experiments.Energy.pp_sweep out es
      end;
      0

let what_if ~app ~ranks ~iters ~seed ~cap ~edits () =
  render @@ fun out err ->
  let params =
    { Workloads.Apps.nranks = ranks; iterations = iters; seed; scale = 1.0 }
  in
  let job_cap = cap *. Float.of_int ranks in
  (* The unedited base depends only on (scenario, cap): the base stage
     solves it once per process, so a later what-if on it pays only for
     its warm edit.  Edits are checked against the base's scenario, so an
     invalid list on an unseen base still pays that base's solve. *)
  let checked =
    match edits with
    | [] ->
        Error
          "no edits given (use --fail-socket, --drop-rank and/or \
           --perturb-task)"
    | _ ->
        let b =
          Pipeline.Stages.base
            (Pipeline.Stages.Synthetic (app, params))
            ~power_cap:job_cap
        in
        Result.map
          (fun () -> b)
          (Core.Event_lp.check_edits b.Pipeline.Stages.scenario edits)
  in
  match checked with
  | Error msg ->
      Fmt.pf err "what-if: %s@." msg;
      2
  | Ok { Pipeline.Stages.scenario = sc; prepared = pz; outcome = base; basis }
    ->
      (match base with
      | Core.Event_lp.Schedule s ->
          Fmt.pf out "baseline : %.4f s at %.0f W (%.0f W x %d sockets)@."
            s.Core.Event_lp.objective job_cap cap ranks
      | Core.Event_lp.Infeasible -> Fmt.pf out "baseline : infeasible@."
      | Core.Event_lp.Solver_failure m ->
          Fmt.pf out "baseline : solver failure: %s@." m);
      List.iter
        (fun e -> Fmt.pf out "edit     : %a@." Core.Event_lp.pp_domain_edit e)
        edits;
      (* POWERLIM_WARM=0 forces the cold path; the incremental re-solve is
         exact, so stdout is byte-identical either way. *)
      let warm = if Experiments.Common.warm_default () then basis else None in
      match Core.Event_lp.edit_prepared ?warm pz edits with
      | Core.Event_lp.Schedule s, _, _ ->
          Fmt.pf out "what-if  : %.4f s (LP: %d rows, %d cols)@."
            s.Core.Event_lp.objective s.Core.Event_lp.stats.Core.Event_lp.rows
            s.Core.Event_lp.stats.Core.Event_lp.cols;
          (match base with
          | Core.Event_lp.Schedule b ->
              let d = s.Core.Event_lp.objective -. b.Core.Event_lp.objective in
              Fmt.pf out "delta    : %+.4f s (%+.2f%%)@." d
                (100.0 *. d /. b.Core.Event_lp.objective)
          | _ -> ());
          (* the schedule is checked in the world it was solved for *)
          let v =
            Core.Replay.validate
              (Core.Event_lp.edit_scenario sc edits)
              s ~power_cap:job_cap
          in
          Fmt.pf out "replay   : within cap: %b@." v.Core.Replay.within_cap;
          (* the warm and cold paths may stop at different optimal
             vertices, with different pivot counts and replays; keep
             those off stdout so POWERLIM_WARM never changes output *)
          Fmt.pf err
            "what-if: %d simplex iterations; replay %.4f s, max sustained \
             power %.1f W@."
            s.Core.Event_lp.stats.Core.Event_lp.iterations
            v.Core.Replay.replay_makespan v.Core.Replay.max_power;
          if v.Core.Replay.within_cap then 0
          else begin
            pp_cap_violation err v ~job_cap;
            1
          end
      | Core.Event_lp.Infeasible, _, _ ->
          Fmt.pf out "what-if  : infeasible under the edited scenario@.";
          0
      | Core.Event_lp.Solver_failure m, _, _ ->
          Fmt.pf out "what-if  : solver failure: %s@." m;
          0
