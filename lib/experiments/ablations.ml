(** Ablation studies of the design choices DESIGN.md calls out.  Not
    paper figures — they quantify how much each modeling/algorithmic
    ingredient matters:

    - {b continuous vs discrete} schedules: the cost of rounding the
      LP's configuration blends to single real configurations
      (Section 3.2's two cases);
    - {b slack reduction}: the Section 3.3 initial-schedule modification
      (as-late-as-possible event times) versus the raw earliest-time
      schedule;
    - {b presolve}: LP size and simplex iterations with and without the
      presolve reductions;
    - {b socket variability}: how much of the LP's advantage comes from
      exploiting per-part power-efficiency differences;
    - {b Conductor gain}: reallocation aggressiveness on a balanced (SP)
      versus an imbalanced (BT) application — the thrash trade-off of
      Section 6.4. *)

let solve_and_replay setup job_cap ~mode ~reduce_slack =
  match
    Core.Event_lp.solve ~mode ~reduce_slack setup.Common.sc ~power_cap:job_cap
  with
  | Core.Event_lp.Schedule s ->
      let v = Core.Replay.validate setup.Common.sc s ~power_cap:job_cap in
      Some (s, v)
  | _ -> None

let continuous_vs_discrete config ppf =
  Common.header ppf "Ablation: continuous blends vs discrete rounding";
  Fmt.pf ppf "# app cap_W lp_continuous_s replay_discrete_s penalty_pct within_cap@.";
  List.iter
    (fun app ->
      let setup = Common.make_setup config app in
      List.iter
        (fun cap ->
          let job_cap = cap *. Float.of_int config.Common.nranks in
          match
            ( solve_and_replay setup job_cap ~mode:Core.Event_lp.Continuous
                ~reduce_slack:true,
              solve_and_replay setup job_cap ~mode:Core.Event_lp.Discrete_rounded
                ~reduce_slack:true )
          with
          | Some (cont, _), Some (_, vd) ->
              Fmt.pf ppf "%-7s %4.0f %9.3f %9.3f %+6.2f %b@."
                (Workloads.Apps.app_name app)
                cap cont.Core.Event_lp.objective
                vd.Core.Replay.replay_makespan
                (100.0
                *. (vd.Core.Replay.replay_makespan
                    /. cont.Core.Event_lp.objective
                   -. 1.0))
                vd.Core.Replay.within_cap
          | _ -> Fmt.pf ppf "%-7s %4.0f (infeasible)@." (Workloads.Apps.app_name app) cap)
        [ 35.0; 50.0; 70.0 ])
    [ Workloads.Apps.CoMD; Workloads.Apps.LULESH ]

let slack_reduction config ppf =
  Common.header ppf
    "Ablation: Section 3.3 slack-reduced initial schedule vs earliest-time";
  Fmt.pf ppf "# app cap_W bound_reduced_s bound_raw_s diff_pct@.";
  List.iter
    (fun app ->
      let setup = Common.make_setup config app in
      List.iter
        (fun cap ->
          let job_cap = cap *. Float.of_int config.Common.nranks in
          match
            ( solve_and_replay setup job_cap ~mode:Core.Event_lp.Continuous
                ~reduce_slack:true,
              solve_and_replay setup job_cap ~mode:Core.Event_lp.Continuous
                ~reduce_slack:false )
          with
          | Some (yes, _), Some (no, _) ->
              Fmt.pf ppf "%-7s %4.0f %9.3f %9.3f %+6.2f@."
                (Workloads.Apps.app_name app)
                cap yes.Core.Event_lp.objective no.Core.Event_lp.objective
                (100.0
                *. (yes.Core.Event_lp.objective /. no.Core.Event_lp.objective
                   -. 1.0))
          | _ -> Fmt.pf ppf "%-7s %4.0f (infeasible)@." (Workloads.Apps.app_name app) cap)
        [ 35.0; 50.0 ])
    [ Workloads.Apps.LULESH; Workloads.Apps.BT ]

let presolve_effect config ppf =
  Common.header ppf "Ablation: presolve reductions on the event LP";
  let setup = Common.make_setup config Workloads.Apps.LULESH in
  let job_cap = 50.0 *. Float.of_int config.Common.nranks in
  let with_stats presolve =
    match
      Core.Event_lp.solve ~presolve setup.Common.sc ~power_cap:job_cap
    with
    | Core.Event_lp.Schedule s -> Some s.Core.Event_lp.stats
    | _ -> None
  in
  match (with_stats true, with_stats false) with
  | Some pre, Some raw ->
      Fmt.pf ppf
        "LULESH at 50 W/socket: %d rows x %d cols; simplex iterations %d \
         (with presolve) vs %d (without)@."
        raw.Core.Event_lp.rows raw.Core.Event_lp.cols
        pre.Core.Event_lp.iterations raw.Core.Event_lp.iterations
  | _ -> Fmt.pf ppf "(infeasible)@."

let socket_variability config ppf =
  Common.header ppf "Ablation: per-socket manufacturing variability";
  Fmt.pf ppf "# variability lp_vs_static_pct (CoMD at 30 W/socket)@.";
  List.iter
    (fun variability ->
      let params =
        {
          Workloads.Apps.nranks = config.Common.nranks;
          iterations = config.Common.iterations;
          seed = config.Common.seed;
          scale = 1.0;
        }
      in
      let sc =
        Pipeline.Stages.scenario ~socket_seed:config.Common.socket_seed
          ~variability
          (Pipeline.Stages.Synthetic (Workloads.Apps.CoMD, params))
      in
      let job_cap = 30.0 *. Float.of_int config.Common.nranks in
      let st = Runtime.Static.run sc ~job_cap in
      match Core.Event_lp.solve sc ~power_cap:job_cap with
      | Core.Event_lp.Schedule s ->
          let v = Core.Replay.validate sc s ~power_cap:job_cap in
          Fmt.pf ppf "%.2f %+6.1f@." variability
            (Simulate.Stats.improvement_pct
               ~base:st.Simulate.Engine.makespan
               ~t:v.Core.Replay.replay_makespan)
      | _ -> Fmt.pf ppf "%.2f (infeasible)@." variability)
    [ 0.0; 0.02; 0.04; 0.08 ]

let conductor_gain config ppf =
  Common.header ppf
    "Ablation: Conductor reallocation gain (balanced SP vs imbalanced BT)";
  Fmt.pf ppf "# gain sp_vs_static_pct bt_vs_static_pct@.";
  let run app gain =
    let setup = Common.make_setup config app in
    let job_cap = 40.0 *. Float.of_int config.Common.nranks in
    let knobs = { Runtime.Conductor.default_knobs with Runtime.Conductor.gain } in
    let st = Runtime.Static.run setup.Common.sc ~job_cap in
    let co = Runtime.Conductor.run ~knobs setup.Common.sc ~job_cap in
    Simulate.Stats.improvement_pct
      ~base:(Common.span_after_skip setup st)
      ~t:(Common.span_after_skip setup co)
  in
  List.iter
    (fun gain ->
      Fmt.pf ppf "%.2f %+6.1f %+6.1f@." gain
        (run Workloads.Apps.SP gain)
        (run Workloads.Apps.BT gain))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let energy_vs_time config ppf =
  Common.header ppf
    "Ablation: power-constrained optimization is not energy minimization";
  Fmt.pf ppf "# method time_s energy_kJ avg_power_W (BT at 40 W/socket)@.";
  let setup = Common.make_setup config Workloads.Apps.BT in
  let job_cap = 40.0 *. Float.of_int config.Common.nranks in
  let report name (r : Simulate.Engine.result) =
    Fmt.pf ppf "%-10s %8.3f %8.2f %8.1f@." name r.Simulate.Engine.makespan
      (r.Simulate.Engine.energy /. 1e3)
      r.Simulate.Engine.avg_power
  in
  report "static" (Runtime.Static.run setup.Common.sc ~job_cap);
  report "conductor" (Runtime.Conductor.run setup.Common.sc ~job_cap);
  (match Core.Event_lp.solve setup.Common.sc ~power_cap:job_cap with
  | Core.Event_lp.Schedule s ->
      let v = Core.Replay.validate setup.Common.sc s ~power_cap:job_cap in
      report "lp-replay" v.Core.Replay.result
  | _ -> Fmt.pf ppf "lp-replay  (infeasible)@.");
  (* Adagio ignores the cap entirely: fastest time, lowest energy, but a
     power profile no power-limited machine could host *)
  report "adagio" (Runtime.Adagio.run setup.Common.sc);
  Fmt.pf ppf
    "# note: adagio's power is unconstrained (%.0f W cap would be violated); \
     the LP uses its full budget to buy time@."
    job_cap

let run ?(config = Common.default_config) ppf =
  continuous_vs_discrete config ppf;
  slack_reduction config ppf;
  presolve_effect config ppf;
  socket_variability config ppf;
  conductor_gain config ppf;
  energy_vs_time config ppf
