(** The paper's primary contribution: the fixed-vertex-order, event-based
    LP formulation of power-constrained performance optimization
    (Sections 3.1-3.3, equations (1)-(13)).

    Variables: a time [v_j] per DAG vertex and a convex-combination
    weight [c_{i,k}] per (task, frontier configuration).  Task start
    times are identified with their source-vertex times (equation (4)),
    and per-task duration/power are the weighted sums over the convex
    Pareto frontier (equations (7)-(8)) — which keeps the whole program
    linear.  Power is constrained at events (vertices of an initial,
    power-unconstrained schedule): at each event, the summed power of
    active tasks must fit the job-level cap (equations (10)-(11)), and
    events keep their initial time order (equations (12)-(13)). *)

type mode = Continuous | Discrete_rounded

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
  objective_mode : Objective.mode;
  stats : stats;
}

type outcome =
  | Schedule of schedule
  | Infeasible  (** the power cap cannot accommodate every task *)
  | Solver_failure of string

(** The initial, power-unconstrained schedule whose vertex order defines
    the events (Section 3.3).  [reduce_slack] applies the paper's
    modification: tasks off the critical path are slowed as much as
    possible (as-late-as-possible vertex times), which shifts their
    activity windows to where a power-constrained schedule will actually
    run them, without changing the makespan. *)
let initial_times ?(reduce_slack = true) (sc : Scenario.t) :
    Dag.Schedule.times =
  let dur t = Scenario.fastest_duration sc t.Dag.Graph.tid in
  let earliest =
    Dag.Schedule.compute sc.Scenario.graph ~dur ~msg:Dag.Schedule.default_msg
  in
  if reduce_slack then
    Dag.Schedule.latest_times sc.Scenario.graph earliest ~dur
      ~msg:Dag.Schedule.default_msg
  else earliest

(* Everything the model build produces that solve and export need.
   [col_bands]/[row_bands] tag every column and row with its temporal
   stage (position in the initial schedule's event order) — the
   staircase metadata {!Lp.Lu.factor} uses to keep factorization fill
   inside the event-chain blocks.  Domain edits never change the shape,
   so every index here stays valid across them. *)
type built = {
  problem : Lp.Model.problem;
  v_vars : Lp.Model.var array;  (* per vertex *)
  c_vars : Lp.Model.var array array;  (* per task, per frontier point *)
  conv_rows : int array;  (* per task; -1 for a task with no weights *)
  prec_rows : int array;  (* per task *)
  meta : (int * int) list;  (* power rows: (row index, vertex) *)
  n_power_rows : int;
  deadline_row : int option;  (* the energy mode's makespan bound row *)
  objective : Objective.mode;
  col_bands : int array;
  row_bands : int array;
}

let build ?(reduce_slack = true) ?init
    ?(objective = Objective.Makespan_under_cap) (sc : Scenario.t) ~power_cap :
    built =
  let g = sc.Scenario.graph in
  let nv = Dag.Graph.n_vertices g in
  let nt = Dag.Graph.n_tasks g in
  let init =
    match init with Some t -> t | None -> initial_times ~reduce_slack sc
  in
  let events = Dag.Schedule.events g init in
  let m = Lp.Model.create () in
  (* Temporal stage of each vertex: its position in the event order.
     Rows and columns are banded by the stage of their earliest vertex;
     row bands are recorded in constraint-addition order. *)
  let vpos = Array.make nv 0 in
  Array.iteri
    (fun k vx -> vpos.(vx) <- k)
    events.Dag.Schedule.order;
  let rbands = ref [] in
  let row_band band = rbands := band :: !rbands in
  (* vertex time variables; Init pinned to 0 (equation (2)) *)
  let v =
    Array.init nv (fun j ->
        if j = g.Dag.Graph.init_v then
          Lp.Model.add_var m ~lb:0.0 ~ub:0.0 (Printf.sprintf "v%d" j)
        else Lp.Model.add_var m (Printf.sprintf "v%d" j))
  in
  (* configuration weights (equations (6), (9)); in energy mode they
     carry the objective — a weight's cost is its configuration's task
     energy, so the blended objective is [sum power x duration] *)
  let energy_mode = Objective.is_energy objective in
  let c =
    Array.init nt (fun tid ->
        let f = sc.Scenario.frontiers.(tid) in
        Array.init (Array.length f) (fun k ->
            let obj =
              if energy_mode then
                Some (f.(k).Pareto.Point.power *. f.(k).Pareto.Point.duration)
              else None
            in
            Lp.Model.add_var m ~lb:0.0 ~ub:1.0 ?obj
              (Printf.sprintf "c%d_%d" tid k)))
  in
  let conv_rows = Array.make nt (-1) and prec_rows = Array.make nt 0 in
  Array.iteri
    (fun tid vars ->
      if Array.length vars > 0 then begin
        row_band vpos.(g.Dag.Graph.tasks.(tid).Dag.Graph.t_src);
        conv_rows.(tid) <- Lp.Model.nconstrs m;
        Lp.Model.add_constr m
          ~name:(Printf.sprintf "conv%d" tid)
          (Array.to_list (Array.map (fun x -> (1.0, x)) vars))
          Lp.Model.Eq 1.0
      end)
    c;
  (* precedence (equation (3)): v_dst - v_src - sum d_k c_k >= delay *)
  Array.iteri
    (fun tid (t : Dag.Graph.task) ->
      let f = sc.Scenario.frontiers.(tid) in
      let dur_terms =
        Array.to_list
          (Array.mapi
             (fun k (p : Pareto.Point.t) -> (-.p.Pareto.Point.duration, c.(tid).(k)))
             f)
      in
      row_band vpos.(t.Dag.Graph.t_src);
      prec_rows.(tid) <- Lp.Model.nconstrs m;
      Lp.Model.add_constr m
        ~name:(Printf.sprintf "prec_t%d" tid)
        ((1.0, v.(t.t_dst)) :: (-1.0, v.(t.t_src)) :: dur_terms)
        Lp.Model.Ge
        g.Dag.Graph.vertices.(t.t_dst).Dag.Graph.delay)
    g.Dag.Graph.tasks;
  Array.iter
    (fun (msg : Dag.Graph.message) ->
      row_band vpos.(msg.Dag.Graph.m_src);
      Lp.Model.add_constr m
        [ (1.0, v.(msg.m_dst)); (-1.0, v.(msg.m_src)) ]
        Lp.Model.Ge
        (Machine.Network.transfer_time msg.bytes
        +. g.Dag.Graph.vertices.(msg.m_dst).Dag.Graph.delay))
    g.Dag.Graph.messages;
  (* event order (equations (12)-(13)) *)
  let ord = events.Dag.Schedule.order in
  for k = 0 to Array.length ord - 2 do
    let a = ord.(k) and b = ord.(k + 1) in
    let ta = init.Dag.Schedule.vertex_time.(a)
    and tb = init.Dag.Schedule.vertex_time.(b) in
    let sense = if Float.abs (ta -. tb) < 1e-12 then Lp.Model.Eq else Lp.Model.Le in
    row_band k;
    Lp.Model.add_constr m
      ~name:(Printf.sprintf "ord%d" k)
      [ (1.0, v.(a)); (-1.0, v.(b)) ]
      sense 0.0
  done;
  (* power at events (equations (10)-(11)), deduplicated by active set *)
  let seen = Hashtbl.create 64 in
  let power_rows = ref 0 in
  let power_row_meta = ref [] in
  Array.iteri
    (fun k active ->
      let nonzero =
        Array.to_list active
        |> List.filter (fun tid -> Array.length sc.Scenario.frontiers.(tid) > 0)
      in
      if nonzero <> [] && not (Hashtbl.mem seen nonzero) then begin
        Hashtbl.add seen nonzero ();
        incr power_rows;
        let terms =
          List.concat_map
            (fun tid ->
              Array.to_list
                (Array.mapi
                   (fun j (p : Pareto.Point.t) ->
                     (p.Pareto.Point.power, c.(tid).(j)))
                   sc.Scenario.frontiers.(tid)))
            nonzero
        in
        power_row_meta := (Lp.Model.nconstrs m, ord.(k)) :: !power_row_meta;
        row_band k;
        Lp.Model.add_constr m
          ~name:(Printf.sprintf "pow%d" k)
          terms Lp.Model.Le power_cap
      end)
    events.Dag.Schedule.active;
  (* objective: equation (1) minimizes the Finalize vertex time; the
     energy variant instead bounds it by the deadline (one extra row,
     appended after the power rows so every shared row index coincides
     across modes) and minimizes the energy carried on the weights *)
  let deadline_row =
    match objective with
    | Objective.Makespan_under_cap ->
        Lp.Model.set_obj m v.(g.Dag.Graph.finalize_v) 1.0;
        None
    | Objective.Energy_under_deadline { deadline } ->
        let row = Lp.Model.nconstrs m in
        row_band vpos.(g.Dag.Graph.finalize_v);
        Lp.Model.add_constr m ~name:"deadline"
          [ (1.0, v.(g.Dag.Graph.finalize_v)) ]
          Lp.Model.Le deadline;
        Some row
  in
  let problem = Lp.Model.compile m in
  (* Column stages: a vertex time lives at its event position, a
     configuration weight at its task's start event. *)
  let col_bands = Array.make problem.Lp.Model.nv 0 in
  Array.iteri (fun j var -> col_bands.(var) <- vpos.(j)) v;
  Array.iteri
    (fun tid vars ->
      let band = vpos.(g.Dag.Graph.tasks.(tid).Dag.Graph.t_src) in
      Array.iter (fun var -> col_bands.(var) <- band) vars)
    c;
  {
    problem;
    v_vars = v;
    c_vars = c;
    conv_rows;
    prec_rows;
    meta = List.rev !power_row_meta;
    n_power_rows = !power_rows;
    deadline_row;
    objective;
    col_bands;
    row_bands = Array.of_list (List.rev !rbands);
  }

(** The compiled LP in MPS format, for cross-checking against external
    solvers. *)
let to_mps ?reduce_slack ?objective (sc : Scenario.t) ~power_cap =
  let b = build ?reduce_slack ?objective sc ~power_cap in
  Lp.Mps.to_string ~name:"powerlim-event-lp" b.problem

(* Map a solver result back to the schedule domain.  [objective] is the
   mode of the solve being reported — usually the build-time mode, but
   per-deadline re-solves of an energy handle pass the patched one. *)
let outcome_of ~mode ~objective (sc : Scenario.t)
    ({ problem = p; v_vars = v; c_vars = c; meta; n_power_rows; _ } : built)
    (r : Lp.Revised.result) : outcome =
  let nt = Dag.Graph.n_tasks sc.Scenario.graph in
  match r.Lp.Revised.status with
  | Lp.Revised.Infeasible -> Infeasible
  | Lp.Revised.Unbounded -> Solver_failure "unbounded (formulation bug)"
  | Lp.Revised.Iter_limit -> Solver_failure "iteration limit"
  | Lp.Revised.Optimal ->
      let x = r.Lp.Revised.x in
      let blend_of tid : Pareto.Frontier.blend =
        let f = sc.Scenario.frontiers.(tid) in
        if Array.length f = 0 then []
        else begin
          let raw =
            Array.to_list
              (Array.mapi (fun k point -> (point, x.(c.(tid).(k)))) f)
            |> List.filter (fun (_, w) -> w > 1e-9)
          in
          let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 raw in
          let raw =
            if total <= 0.0 then [ (Pareto.Frontier.slowest f, 1.0) ]
            else List.map (fun (pt, w) -> (pt, w /. total)) raw
          in
          match mode with
          | Continuous -> raw
          | Discrete_rounded ->
              let target = Pareto.Frontier.blend_power raw in
              [ (Pareto.Frontier.round_nearest f ~power:target, 1.0) ]
        end
      in
      let power_duals =
        List.map (fun (row, vertex) -> (vertex, -.r.Lp.Revised.y.(row))) meta
        |> Array.of_list
      in
      (* In makespan mode the objective IS the makespan (bit-for-bit);
         energy mode reads the makespan off the Finalize column and its
         objective already is the blended energy.  The cross-mode energy
         is summed from the raw weights, canonically from the solver's
         own objective when it is the energy. *)
      let makespan =
        match objective with
        | Objective.Makespan_under_cap -> r.Lp.Revised.objective
        | Objective.Energy_under_deadline _ ->
            x.(v.(sc.Scenario.graph.Dag.Graph.finalize_v))
      in
      let lp_energy =
        match objective with
        | Objective.Energy_under_deadline _ -> r.Lp.Revised.objective
        | Objective.Makespan_under_cap ->
            let e = ref 0.0 in
            Array.iteri
              (fun tid vars ->
                let f = sc.Scenario.frontiers.(tid) in
                let n = min (Array.length f) (Array.length vars) in
                for k = 0 to n - 1 do
                  let p = f.(k) in
                  e :=
                    !e
                    +. p.Pareto.Point.power *. p.Pareto.Point.duration
                       *. x.(vars.(k))
                done)
              c;
            !e
      in
      Schedule
        {
          objective = r.Lp.Revised.objective;
          makespan;
          lp_energy;
          vertex_time = Array.map (fun var -> x.(var)) v;
          blends = Array.init nt blend_of;
          power_duals;
          mode;
          objective_mode = objective;
          stats =
            {
              rows = p.Lp.Model.nr;
              cols = p.Lp.Model.nv;
              iterations = r.Lp.Revised.iterations;
              power_rows = n_power_rows;
            };
        }

(* How re-solves of a prepared model are executed.  [`Reduced] caches one
   presolve reduction and patches the power-row RHS through it — only
   sound when every power row survived the reduction, so a cap change
   cannot invalidate any reduction decision.  [`Each] falls back to a
   fresh presolve per cap (reduction touched a power row, or the energy
   mode's deadline row); it keeps the prepared RHS's own reduction
   ([None] when presolve proved that RHS infeasible), which a solve at
   that RHS reuses.  [`Full] skips presolve entirely. *)
type resolution =
  [ `Reduced of Lp.Presolve.reduction
  | `Each of Lp.Presolve.reduction option
  | `Full ]

type prepared = {
  psc : Scenario.t;
  pbuilt : built;
  resolution : resolution;
  mutable panalysis : Lp.Revised.analysis option;
      (* symbolic analysis of the matrix the per-cap re-solves actually
         hand to the simplex (the reduction's problem under [`Reduced],
         the full problem under [`Full]); cap changes touch only the RHS,
         so it is computed once and reused for every cap.  [`Each]
         re-presolves per cap, so there is nothing stable to analyze.
         Filled on first read ({!analysis}): [prepare] reads it at once,
         an edited handle only if it is solved again.  Domains racing to
         fill it compute equal values, and either may be kept. *)
}

let analysis (pz : prepared) =
  match pz.resolution with
  | `Each _ -> None
  | (`Reduced _ | `Full) as r -> (
      match pz.panalysis with
      | Some _ as a -> a
      | None ->
          let p =
            match r with
            | `Reduced red -> red.Lp.Presolve.problem
            | `Full -> pz.pbuilt.problem
          in
          let a = Some (Lp.Revised.make_analysis p) in
          pz.panalysis <- a;
          a)

let prepare ?(reduce_slack = true) ?(presolve = true) ?init ?objective
    (sc : Scenario.t) ~power_cap : prepared =
  let b = build ~reduce_slack ?init ?objective sc ~power_cap in
  let resolution =
    if not presolve then `Full
    else
      match Lp.Presolve.reduce b.problem with
      | Lp.Presolve.Proven_infeasible -> `Each None
      | Lp.Presolve.Reduced red ->
          let kept = Array.make b.problem.Lp.Model.nr false in
          Array.iter
            (fun i -> kept.(i) <- true)
            red.Lp.Presolve.kept_rows;
          (* RHS patching through a cached reduction is only sound when
             every row we patch survived it — the power rows, and in
             energy mode the deadline row too *)
          if
            List.for_all (fun (row, _) -> kept.(row)) b.meta
            && (match b.deadline_row with
               | None -> true
               | Some row -> kept.(row))
          then `Reduced red
          else `Each (Some red)
  in
  let pz = { psc = sc; pbuilt = b; resolution; panalysis = None } in
  ignore (analysis pz);
  pz

(* The shared re-solve engine: run the prepared model under an optional
   original-space RHS override, reporting the outcome under [objective]. *)
let run_prepared ~mode ~max_iter ~objective ?warm (pz : prepared) rhs :
    outcome * Lp.Revised.basis option =
  let b = pz.pbuilt in
  let p = b.problem in
  let bands = (b.col_bands, b.row_bands) in
  let r =
    match pz.resolution with
    | `Reduced red ->
        Lp.Presolve.solve_reduction ~max_iter ?rhs ?warm
          ?analysis:(analysis pz) ~bands p red
    | `Each (Some red) when Option.is_none rhs ->
        (* the prepared RHS: [Presolve.solve] would reduce [p] to [red]
           again, and solve it just so *)
        {
          (Lp.Presolve.solve_reduction ~max_iter p red) with
          Lp.Revised.basis = None;
        }
    | `Each _ ->
        let pp =
          match rhs with
          | None -> p
          | Some row_rhs -> { p with Lp.Model.row_rhs }
        in
        { (Lp.Presolve.solve ~max_iter pp) with Lp.Revised.basis = None }
    | `Full ->
        Lp.Revised.solve ~max_iter ?rhs ?warm ?analysis:(analysis pz) ~bands p
  in
  (outcome_of ~mode ~objective pz.psc b r, r.Lp.Revised.basis)

let solve_prepared ?(mode = Continuous) ?(max_iter = 0) ?warm (pz : prepared)
    ~power_cap : outcome * Lp.Revised.basis option =
  let b = pz.pbuilt in
  let p = b.problem in
  (* Fresh RHS override with the power rows re-capped; [None] when the
     prepared model was built at this very cap (keeps the one-shot
     [solve] path bit-identical to a direct solve). *)
  let rhs =
    if
      List.for_all
        (fun (row, _) -> p.Lp.Model.row_rhs.(row) = power_cap)
        b.meta
    then None
    else begin
      let r = Array.copy p.Lp.Model.row_rhs in
      List.iter (fun (row, _) -> r.(row) <- power_cap) b.meta;
      Some r
    end
  in
  run_prepared ~mode ~max_iter ~objective:b.objective ?warm pz rhs

let solve_prepared_deadline ?(mode = Continuous) ?(max_iter = 0) ?warm
    (pz : prepared) ~deadline : outcome * Lp.Revised.basis option =
  let b = pz.pbuilt in
  let p = b.problem in
  let row =
    match b.deadline_row with
    | Some row -> row
    | None ->
        invalid_arg
          "Event_lp.solve_prepared_deadline: handle was prepared under the \
           makespan objective (no deadline row)"
  in
  if not (Float.is_finite deadline) then
    invalid_arg "Event_lp.solve_prepared_deadline: deadline must be finite";
  let rhs =
    if p.Lp.Model.row_rhs.(row) = deadline then None
    else begin
      let r = Array.copy p.Lp.Model.row_rhs in
      r.(row) <- deadline;
      Some r
    end
  in
  run_prepared ~mode ~max_iter
    ~objective:(Objective.Energy_under_deadline { deadline })
    ?warm pz rhs

(* ------------------------------------------------------------------ *)
(* What-if edits                                                       *)
(* ------------------------------------------------------------------ *)

type domain_edit =
  | Fail_socket of int
  | Drop_rank of int
  | Perturb_task of { tid : int; point : int; duration : float; power : float }

let pp_domain_edit ppf = function
  | Fail_socket r -> Fmt.pf ppf "fail-socket %d" r
  | Drop_rank r -> Fmt.pf ppf "drop-rank %d" r
  | Perturb_task { tid; point; duration; power } ->
      Fmt.pf ppf "perturb-task %d:%d to (%g s, %g W)" tid point duration power

let each_rank_task (sc : Scenario.t) r f =
  Array.iteri
    (fun tid (t : Dag.Graph.task) -> if t.Dag.Graph.rank = r then f tid)
    sc.Scenario.graph.Dag.Graph.tasks

(* The one validity check for a domain-edit list, shared by
   [edit_scenario] and [compile_edits]: apply the edits in order to a
   copy of the frontiers, so each edit is checked against the world the
   earlier ones leave (a task of a dropped rank has no configuration
   left to perturb).  Frontier arrays are copied, never mutated —
   scenarios share hull arrays across tasks and builds. *)
let edit_frontiers (sc : Scenario.t) (des : domain_edit list) =
  let frontiers = Array.copy sc.Scenario.frontiers in
  let nt = Array.length frontiers in
  let nr = sc.Scenario.graph.Dag.Graph.nranks in
  let apply = function
    | (Fail_socket r | Drop_rank r) when r < 0 || r >= nr ->
        Error (Printf.sprintf "rank %d outside 0..%d" r (nr - 1))
    | Fail_socket r ->
        (* socket stuck in its most frugal state: hull collapses to the
           slowest point *)
        each_rank_task sc r (fun tid ->
            if Array.length frontiers.(tid) > 1 then
              frontiers.(tid) <- [| frontiers.(tid).(0) |]);
        Ok ()
    | Drop_rank r ->
        each_rank_task sc r (fun tid -> frontiers.(tid) <- [||]);
        Ok ()
    | Perturb_task { tid; _ } when tid < 0 || tid >= nt ->
        Error (Printf.sprintf "task %d outside 0..%d" tid (nt - 1))
    | Perturb_task { tid; _ } when Array.length frontiers.(tid) = 0 ->
        Error (Printf.sprintf "task %d has no configuration to perturb" tid)
    | Perturb_task { tid; point; _ }
      when point < 0 || point >= Array.length frontiers.(tid) ->
        Error
          (Printf.sprintf "point %d outside task %d's frontier 0..%d" point
             tid
             (Array.length frontiers.(tid) - 1))
    | Perturb_task { duration; power; _ }
      when (not (Float.is_finite duration && Float.is_finite power))
           || duration <= 0.0 || power <= 0.0 ->
        Error "perturbed (duration, power) must be finite and positive"
    | Perturb_task { tid; point; duration; power } ->
        let f' = Array.copy frontiers.(tid) in
        f'.(point) <- { f'.(point) with Pareto.Point.duration; power };
        frontiers.(tid) <- f';
        Ok ()
  in
  let rec go = function
    | [] -> Ok frontiers
    | de :: rest -> Result.bind (apply de) (fun () -> go rest)
  in
  go des

let check_edits sc des = Result.map ignore (edit_frontiers sc des)

let valid_frontiers what sc des =
  match edit_frontiers sc des with
  | Ok frontiers -> frontiers
  | Error msg -> invalid_arg (Printf.sprintf "Event_lp.%s: %s" what msg)

(* Mirror the edits on the scenario itself, so blends, duals, digests and
   cache keys all see the edited world. *)
let edit_scenario (sc : Scenario.t) (des : domain_edit list) : Scenario.t =
  { sc with Scenario.frontiers = valid_frontiers "edit_scenario" sc des }

(* Compile already-checked domain edits to value edits against [b]: no
   domain edit changes the LP's shape, so every row and column sits at
   the index [build] gave it, and the edits land in one pass.  A dropped
   rank's weights are fixed at zero and its tasks' convexity rows need
   zero weight: the same optimum as deleting them, with the base basis
   still square. *)
let compile_checked (sc : Scenario.t) (b : built) (des : domain_edit list) :
    Lp.Edit.t list =
  let p = b.problem in
  let power = Array.make p.Lp.Model.nr false in
  List.iter (fun (row, _) -> power.(row) <- true) b.meta;
  let acc = ref [] in
  let emit e = acc := e :: !acc in
  let pin col = emit (Lp.Edit.Set_bounds { col; lb = 0.0; ub = 0.0 }) in
  List.iter
    (function
      | Fail_socket r ->
          (* pin every weight but the most frugal one to zero *)
          each_rank_task sc r (fun tid ->
              Array.iteri (fun k col -> if k > 0 then pin col) b.c_vars.(tid))
      | Drop_rank r ->
          each_rank_task sc r (fun tid ->
              if b.conv_rows.(tid) >= 0 then begin
                Array.iter pin b.c_vars.(tid);
                emit (Lp.Edit.Set_rhs { row = b.conv_rows.(tid); rhs = 0.0 })
              end)
      | Perturb_task { tid; point; duration; power = watts } ->
          (* the precedence row takes the new duration, every power row
             carrying this configuration its new wattage *)
          let col = b.c_vars.(tid).(point) in
          emit
            (Lp.Edit.Set_entry
               { row = b.prec_rows.(tid); col; coef = -.duration });
          Lp.Sparse.Csc.iter_col p.Lp.Model.a col (fun row _ ->
              if power.(row) then
                emit (Lp.Edit.Set_entry { row; col; coef = watts })))
    des;
  List.rev !acc

let compile_edits (pz : prepared) (des : domain_edit list) : Lp.Edit.t list =
  ignore (valid_frontiers "compile_edits" pz.psc des);
  compile_checked pz.psc pz.pbuilt des

let prepared_problem (pz : prepared) = pz.pbuilt.problem

(* Incremental what-if re-solve: compile the edits to value edits, warm
   the solve from the supplied basis (the shape is unchanged, so it
   needs no mapping), and keep the base build for the edited world so
   further caps — or further edits — can be chained. *)
let edit_prepared ?(mode = Continuous) ?(max_iter = 0) ?warm (pz : prepared)
    (des : domain_edit list) :
    outcome * prepared * Lp.Revised.basis option =
  let b = pz.pbuilt in
  let sc' = edit_scenario pz.psc des in
  let edits = compile_checked pz.psc b des in
  (* a reduced-space basis does not live in the full problem's space *)
  let warm =
    match pz.resolution with `Full -> warm | `Reduced _ | `Each _ -> None
  in
  let p', r = Lp.Edit.resolve ~max_iter ?warm b.problem edits in
  let built' = { b with problem = p' } in
  let pz' =
    { psc = sc'; pbuilt = built'; resolution = `Full; panalysis = None }
  in
  (outcome_of ~mode ~objective:b.objective sc' built' r, pz', r.Lp.Revised.basis)

(* Objective-mode switch on a prepared handle, expressed in the edit
   language so the previous mode's optimal basis warm-starts the new
   mode's solve: the objective swap is a [Set_obj] list and the deadline
   row is added/removed as a structural edit, whose basis mapping
   {!Lp.Edit.resolve} already knows how to carry.  The makespan optimum
   is primal feasible for the energy LP whenever its own makespan meets
   the deadline, but on every instance probed the warm attempt's dual
   repair meets a wrong-signed reduced cost on a column with no opposite
   bound, and the solve falls back cold: to the energy LP's dual-feasible
   slack basis, where it runs the dual simplex with no phase 1. *)
let switch_objective ?(mode = Continuous) ?(max_iter = 0) ?warm (pz : prepared)
    (objective : Objective.mode) :
    outcome * prepared * Lp.Revised.basis option =
  let b = pz.pbuilt in
  let p = b.problem in
  let g = pz.psc.Scenario.graph in
  let fin_col = b.v_vars.(g.Dag.Graph.finalize_v) in
  match (b.objective, objective) with
  | Objective.Makespan_under_cap, Objective.Makespan_under_cap ->
      let o, basis = run_prepared ~mode ~max_iter ~objective ?warm pz None in
      (o, pz, basis)
  | ( Objective.Energy_under_deadline _,
      Objective.Energy_under_deadline { deadline } ) ->
      (* same mode: a deadline change is only an RHS patch *)
      let o, basis = solve_prepared_deadline ~mode ~max_iter ?warm pz ~deadline in
      (o, pz, basis)
  | Objective.Makespan_under_cap, Objective.Energy_under_deadline _
  | Objective.Energy_under_deadline _, Objective.Makespan_under_cap ->
      let target_obj =
        let obj = Array.make p.Lp.Model.nv 0.0 in
        (match objective with
        | Objective.Makespan_under_cap -> obj.(fin_col) <- 1.0
        | Objective.Energy_under_deadline _ ->
            Array.iteri
              (fun tid vars ->
                let f = pz.psc.Scenario.frontiers.(tid) in
                let n = min (Array.length f) (Array.length vars) in
                for k = 0 to n - 1 do
                  obj.(vars.(k)) <-
                    f.(k).Pareto.Point.power *. f.(k).Pareto.Point.duration
                done)
              b.c_vars);
        obj
      in
      let row_edits =
        match (b.deadline_row, objective) with
        | None, Objective.Energy_under_deadline { deadline } ->
            [
              Lp.Edit.Add_row
                {
                  name = "deadline";
                  terms = [ (1.0, fin_col) ];
                  sense = Lp.Model.Le;
                  rhs = deadline;
                };
            ]
        | Some row, Objective.Makespan_under_cap -> [ Lp.Edit.Remove_row row ]
        | (None, Objective.Makespan_under_cap
          | Some _, Objective.Energy_under_deadline _) ->
            (* unreachable under the outer match *)
            []
      in
      let edits = Lp.Edit.set_objective p target_obj @ row_edits in
      (* a reduced-space basis cannot be mapped across full-space edits *)
      let warm =
        match pz.resolution with `Full -> warm | `Reduced _ | `Each _ -> None
      in
      let p', r = Lp.Edit.resolve ~max_iter ?warm p edits in
      Lp.Stats.note_mode_switch ();
      let deadline_row' =
        match objective with
        | Objective.Makespan_under_cap -> None
        | Objective.Energy_under_deadline _ -> Some (p'.Lp.Model.nr - 1)
      in
      (* columns are untouched and the deadline row is always the last
         row, so every other row keeps its index and its stage *)
      let row_bands' =
        match deadline_row' with
        | Some _ -> Array.append b.row_bands [| b.col_bands.(fin_col) |]
        | None -> Array.sub b.row_bands 0 p'.Lp.Model.nr
      in
      let built' =
        {
          b with
          problem = p';
          deadline_row = deadline_row';
          objective;
          row_bands = row_bands';
        }
      in
      let pz' =
        { pz with pbuilt = built'; resolution = `Full; panalysis = None }
      in
      (outcome_of ~mode ~objective pz.psc built' r, pz', r.Lp.Revised.basis)

let solve ?(mode = Continuous) ?(max_iter = 0) ?(reduce_slack = true)
    ?(presolve = true) ?init ?objective (sc : Scenario.t) ~power_cap : outcome
    =
  let pz = prepare ~reduce_slack ~presolve ?init ?objective sc ~power_cap in
  fst (solve_prepared ~mode ~max_iter pz ~power_cap)

(** Event-order refinement (an extension beyond the paper): the fixed
    event order comes from a power-{e unconstrained} schedule, but the
    solved schedule's own vertex times define a (possibly different)
    event order that reflects where tasks actually land under the cap.
    Re-deriving the events from the solution and re-solving is a valid
    fixed-point iteration — every round's schedule is realizable and its
    bound sound — and occasionally tightens the bound on communication-
    heavy traces.  Returns the best schedule seen. *)
let solve_refined ?(rounds = 2) ?(mode = Continuous) ?max_iter ?reduce_slack
    ?presolve (sc : Scenario.t) ~power_cap : outcome =
  let rec go n best_outcome best_obj init =
    if n >= rounds then best_outcome
    else begin
      match
        solve ~mode ?max_iter ?reduce_slack ?presolve ?init sc ~power_cap
      with
      | Schedule s ->
          let best_outcome, best_obj =
            if s.objective < best_obj then (Schedule s, s.objective)
            else (best_outcome, best_obj)
          in
          let times =
            {
              Dag.Schedule.vertex_time = s.vertex_time;
              makespan = s.makespan;
            }
          in
          go (n + 1) best_outcome best_obj (Some times)
      | (Infeasible | Solver_failure _) as o ->
          if n = 0 then o else best_outcome
    end
  in
  go 0 Infeasible Float.infinity None
