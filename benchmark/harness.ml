(* Shared machinery of the workloads: the run context, the timed loop,
   counter deltas, the traced-phase layer rollup and the result record.

   A run sets up its workload (timed, several times, median reported as
   [setup_s]), measures it untraced, and — with [--trace 1] — splits the
   measuring time in two: the first half untraced (end-to-end metrics and
   counters), the second half with spans on (per-layer self time and the
   tracing overhead).  Correctness checks run last, untimed. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke-test scale *)
  root : string;  (** checkout root: holds BENCHMARK.json and benchmark/ *)
  powerlim : string;  (** the daemon executable serve-mix spawns *)
}

let now = Unix.gettimeofday
let out_dir ctx = Filename.concat ctx.root "benchmark/out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* ---- one measured phase ---------------------------------------------- *)

type phase = {
  units : int;  (** ops completed: the base of every per-op value *)
  wall_s : float;  (** time spent in ops (daemon restarts excluded) *)
  lat_ms : float list;  (** one latency per op *)
  attempted : int;
  failed : int;  (** ops that raised, were refused or were dropped *)
  layer : (string * float) list;  (** per-layer values the workload measures *)
  counters : (string * float) list;  (** counter deltas of child processes *)
  setup_samples : float list;  (** set-ups done inside the phase (daemon spawns) *)
  peak_rss_mb : float;  (** of child processes; 0 when none *)
}

let phase ?(layer = []) ?(counters = []) ?(setup_samples = [])
    ?(peak_rss_mb = 0.0) ?(failed = 0) ~units ~wall_s lat_ms =
  {
    units;
    wall_s;
    lat_ms;
    attempted = List.length lat_ms + failed;
    failed;
    layer;
    counters;
    setup_samples;
    peak_rss_mb;
  }

(* Run [op i] for about [seconds]: at least once, then again while the
   next run is expected to end nearer the deadline than now is.  The
   loop stops at the op boundary closest to [seconds], so an op that
   takes half the budget neither doubles the run nor halves it.  Returns
   the op count and the wall time. *)
let loop ~seconds op =
  let t0 = now () in
  let rec go i =
    op i;
    let el = now () -. t0 in
    if el +. (el /. Float.of_int (2 * (i + 1))) < seconds then go (i + 1)
    else (i + 1, el)
  in
  go 0

(* Set up [reps] times (each from scratch), returning the last state and
   every set-up time. *)
let repeat_setup ?(reps = 5) f =
  let rec go i acc last =
    if i = reps then (Option.get last, List.rev acc)
    else begin
      let t0 = now () in
      let s = f () in
      go (i + 1) ((now () -. t0) :: acc) (Some s)
    end
  in
  go 0 [] None

let span name f = Putil.Obs.span ~cat:"bench" name f

(* ---- counters -------------------------------------------------------- *)

(* Numeric leaves of a stats document ([Putil.Obs.stats_json], or the
   [providers] of a daemon's stats reply) as dotted names; named cache
   entries become [cache.caches.<name>.<field>]. *)
let flatten_stats (j : Putil.Obs.json) =
  let rec go prefix acc = function
    | Putil.Obs.Int i -> (prefix, Float.of_int i) :: acc
    | Putil.Obs.Float f -> (prefix, f) :: acc
    | Putil.Obs.Assoc kvs ->
        List.fold_left (fun acc (k, v) -> go (prefix ^ "." ^ k) acc v) acc kvs
    | Putil.Obs.List js ->
        List.fold_left
          (fun acc v ->
            match Serve.Json.get_string "name" v with
            | Some n -> go (prefix ^ "." ^ n) acc v
            | None -> acc)
          acc js
    | _ -> acc
  in
  match j with
  | Putil.Obs.Assoc kvs ->
      List.fold_left (fun acc (k, v) -> go k acc v) [] kvs
  | _ -> []

(* Process maxima and sizes are levels, not totals: they are not
   differenced. *)
let is_level name = name = "lp.fill_ratio_max" || name = "pool.workers"

let delta before after =
  List.map
    (fun (k, v) ->
      if is_level k then (k, v)
      else (k, v -. Option.value ~default:0.0 (List.assoc_opt k before)))
    after

let sum_counters a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      let get l = Option.value ~default:0.0 (List.assoc_opt k l) in
      (k, if is_level k then Float.max (get a) (get b) else get a +. get b))
    keys

(* Peak resident set of a process ("self" or a pid), MB. *)
let vmhwm_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0 (String.split_on_char '\n' s)

(* ---- traced-phase rollup --------------------------------------------- *)

(* The layer a span belongs to and the bucket its self time lands in.
   The benchmark's own spans are named "<layer>.<call>"; the program's
   spans are mapped by category.  [None] marks the enclosing workload
   span, which belongs to no layer. *)
let classify (e : Putil.Obs.event) =
  let arg k = List.assoc_opt k e.Putil.Obs.args in
  match (e.Putil.Obs.cat, e.Putil.Obs.name) with
  | "bench", "workload" -> None
  | "bench", name -> Some (List.hd (String.split_on_char '.' name), name ^ "_s")
  | "pipeline", "stage:prepare" -> Some ("core", "core.prepare_s")
  | "pipeline", _ -> Some ("pipeline", "pipeline.scenario_s")
  | "lp", "revised.solve" ->
      Some
        ( "lp",
          if arg "warm" = Some "true" then "lp.revised_warm_s"
          else "lp.revised_cold_s" )
  | ("lp" | "milp"), _ -> Some ("lp", "lp.other_s")
  | "simulate", _ ->
      Some
        ( "simulate",
          match arg "policy" with
          | Some "static" -> "runtime.static_s"
          | Some "conductor" -> "runtime.conductor_s"
          | Some "lp-replay" -> "simulate.replay_s"
          | _ -> "simulate.other_s" )
  | "sweep", _ -> Some ("core", "core.sweep_s")
  | "pool", _ -> Some ("util", "util.pool_s")
  | cat, name -> Some (cat, cat ^ "." ^ name)

type rollup = {
  self_s : (string * float) list;
      (** per bucket and per "<layer>.self_s", summed over domains *)
  unattributed_frac : float;
      (** share of the workload span's wall time during which no layer
          span was open on any domain *)
}

let rollup (events : Putil.Obs.event list) =
  let self = Hashtbl.create 32 in
  let add k dt =
    Hashtbl.replace self k (dt +. Option.value ~default:0.0 (Hashtbl.find_opt self k))
  in
  (* per domain: open spans (classification, start) and the time of the
     domain's previous event *)
  let stacks = Hashtbl.create 8 in
  let covered = ref [] and workload = ref None in
  List.iter
    (fun (e : Putil.Obs.event) ->
      let stack, last =
        match Hashtbl.find_opt stacks e.Putil.Obs.tid with
        | Some s -> s
        | None ->
            let s = (ref [], ref e.Putil.Obs.ts) in
            Hashtbl.replace stacks e.Putil.Obs.tid s;
            s
      in
      (match !stack with
      | (Some (layer, bucket), _) :: _ ->
          let dt = e.Putil.Obs.ts -. !last in
          add bucket dt;
          add (layer ^ ".self_s") dt
      | _ -> ());
      last := e.Putil.Obs.ts;
      match e.Putil.Obs.ph with
      | 'B' -> stack := (classify e, e.Putil.Obs.ts) :: !stack
      | 'E' -> (
          match !stack with
          | (cls, t0) :: rest ->
              stack := rest;
              if cls = None then workload := Some (t0, e.Putil.Obs.ts)
              else covered := (t0, e.Putil.Obs.ts) :: !covered
          | [] -> ())
      | _ -> ())
    events;
  let unattributed_frac =
    match !workload with
    | None -> 1.0
    | Some (w0, w1) ->
        let ivs =
          List.sort compare
            (List.filter_map
               (fun (a, b) ->
                 let a = Float.max a w0 and b = Float.min b w1 in
                 if b > a then Some (a, b) else None)
               !covered)
        in
        let cov, _ =
          List.fold_left
            (fun (cov, reach) (a, b) ->
              let a = Float.max a reach in
              if b > a then (cov +. (b -. a), b) else (cov, reach))
            (0.0, w0) ivs
        in
        if w1 > w0 then 1.0 -. (cov /. (w1 -. w0)) else 0.0
  in
  {
    self_s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [];
    unattributed_frac;
  }

(* ---- the result ------------------------------------------------------ *)

(* Every metric the benchmark can report, with its unit.  BENCHMARK.json
   selects which are printed; the ledger keeps them all. *)
type metric = { name : string; unit_ : string; value : float }

let counter_metrics ~units (c : (string * float) list) =
  let get k = Option.value ~default:0.0 (List.assoc_opt k c) in
  let per k = get k /. Float.of_int (max 1 units) in
  let frac num den = if den > 0.0 then num /. den else 0.0 in
  let count name k = { name; unit_ = "count/op"; value = per k } in
  [
    (* the daemon's response cache is a serve tier, not a pipeline stage *)
    {
      name = "pipeline.cache_hits";
      unit_ = "count/op";
      value = per "cache.hits" -. per "cache.caches.serve.hits";
    };
    {
      name = "pipeline.cache_misses";
      unit_ = "count/op";
      value = per "cache.misses" -. per "cache.caches.serve.misses";
    };
    count "lp.pivots" "lp.pivots";
    count "lp.dual_pivots" "lp.dual_pivots";
    count "lp.bound_flips" "lp.bound_flips";
    count "lp.factorizations" "lp.factorizations";
    count "lp.ft_updates" "lp.ft_updates";
    count "lp.small_dense_solves" "lp.small_dense_solves";
    count "lp.warm_solves" "lp.warm_solves";
    count "lp.edit_solves" "lp.edit_solves";
    count "lp.dw_iterations" "lp.dw_iterations";
    count "lp.dw_subproblem_solves" "lp.dw_subproblem_solves";
    count "lp.dw_master_resolves" "lp.dw_master_resolves";
    count "lp.dw_crossover_fallbacks" "lp.dw_crossover_fallbacks";
    count "simulate.runs" "simulate.runs";
    count "util.pool_tasks" "pool.run";
    count "util.pool_stolen" "pool.stolen";
    { name = "lp.revised_s"; unit_ = "s/op"; value = per "lp.wall_s" };
    { name = "lp.fill_ratio_max"; unit_ = "ratio"; value = get "lp.fill_ratio_max" };
    {
      name = "lp.ftran_sparse_frac";
      unit_ = "fraction";
      value =
        frac (get "lp.ftran_sparse") (get "lp.ftran_sparse" +. get "lp.ftran_dense");
    };
    {
      name = "lp.btran_sparse_frac";
      unit_ = "fraction";
      value =
        frac (get "lp.btran_sparse") (get "lp.btran_sparse" +. get "lp.btran_dense");
    };
    {
      name = "lp.warm_useful_frac";
      unit_ = "fraction";
      value =
        (if get "lp.warm_solves" > 0.0 then
           1.0 -. (get "lp.warm_fallbacks" /. get "lp.warm_solves")
         else 0.0);
    };
    {
      name = "lp.edit_warm_frac";
      unit_ = "fraction";
      value = frac (get "lp.edit_warm") (get "lp.edit_solves");
    };
    {
      name = "serve.mem_hit_frac";
      unit_ = "fraction";
      value = per "serve.mem_hits";
    };
    {
      name = "serve.disk_hit_frac";
      unit_ = "fraction";
      value = per "serve.disk_hits";
    };
    {
      name = "serve.computed_frac";
      unit_ = "fraction";
      value = per "serve.computed";
    };
  ]

(* Workload-measured per-layer values; a workload that has no such value
   reports 0 (no edits of that kind, no served requests). *)
let layer_names =
  [
    ("core.edit_perturb_p50_ms", "ms");
    ("core.edit_fail_p50_ms", "ms");
    ("core.edit_drop_p50_ms", "ms");
    ("serve.mem_p50_ms", "ms");
    ("serve.disk_p50_ms", "ms");
    ("serve.compute_p50_ms", "ms");
    ("serve.compute_p90_ms", "ms");
    ("serve.server_p50_ms", "ms");
    ("serve.overhead_p50_ms", "ms");
    ("serve.repeat_frac", "fraction");
  ]

let trace_buckets =
  [
    "pipeline.self_s";
    "core.self_s";
    "lp.self_s";
    "simulate.self_s";
    "serve.self_s";
    "util.self_s";
    "pipeline.scenario_s";
    "core.prepare_s";
    "core.solve_s";
    "core.edit_s";
    "core.replay_s";
    "core.sweep_s";
    "lp.revised_cold_s";
    "lp.revised_warm_s";
    "runtime.static_s";
    "runtime.conductor_s";
    "simulate.replay_s";
    "serve.handler_s";
    "serve.request_s";
  ]

let end_to_end ~setup_samples ~peak_rss_mb (u : phase) =
  [
    { name = "setup_s"; unit_ = "s"; value = Stat.median setup_samples };
    { name = "op_p50_ms"; unit_ = "ms"; value = Stat.median u.lat_ms };
    { name = "op_p90_ms"; unit_ = "ms"; value = Stat.percentile 90.0 u.lat_ms };
    {
      name = "ops_per_s";
      unit_ = "1/s";
      value = Float.of_int u.units /. u.wall_s;
    };
    { name = "peak_rss_mb"; unit_ = "MB"; value = peak_rss_mb };
  ]

let per_layer ~ucounters (u : phase) traced =
  let layer =
    List.map
      (fun (name, unit_) ->
        {
          name;
          unit_;
          value = Option.value ~default:0.0 (List.assoc_opt name u.layer);
        })
      layer_names
  in
  let traced =
    match traced with
    | None -> []
    | Some ((t : phase), (r : rollup)) ->
        let per v = v /. Float.of_int (max 1 t.units) in
        List.map
          (fun name ->
            {
              name;
              unit_ = "s/op";
              value =
                per (Option.value ~default:0.0 (List.assoc_opt name r.self_s));
            })
          trace_buckets
        @ [
            {
              name = "trace.unattributed_frac";
              unit_ = "fraction";
              value = r.unattributed_frac;
            };
            {
              name = "trace.overhead_frac";
              unit_ = "fraction";
              value =
                (t.wall_s /. Float.of_int t.units)
                /. (u.wall_s /. Float.of_int u.units)
                -. 1.0;
            };
          ]
  in
  counter_metrics ~units:u.units ucounters @ layer @ traced

(* ---- one run ----------------------------------------------------------- *)

type 'st workload = {
  setup : ctx -> 'st * float list;
      (** build the inputs and set up; returns the state and set-up times *)
  measure : ctx -> 'st -> seconds:float -> phase;
  check : ctx -> 'st -> int;
      (** failed ops found by comparing every recorded answer with its
          reference, after measuring *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let in_process_counters () = flatten_stats (Putil.Obs.stats_json ())

let measure_phase ctx w st ~seconds ~traced =
  let before = in_process_counters () in
  if traced then begin
    Putil.Obs.clear ();
    Putil.Obs.set_enabled true
  end;
  let p =
    if traced then span "workload" (fun () -> w.measure ctx st ~seconds)
    else w.measure ctx st ~seconds
  in
  Putil.Obs.set_enabled false;
  let own = delta before (in_process_counters ()) in
  (p, sum_counters own p.counters)

let run ctx (w : 'st workload) =
  let t0 = now () in
  let st, setup_samples = w.setup ctx in
  let t1 = now () in
  let useconds = if ctx.trace then ctx.seconds /. 2.0 else ctx.seconds in
  let u, ucounters = measure_phase ctx w st ~seconds:useconds ~traced:false in
  let peak_rss_mb = Float.max (vmhwm_mb "self") u.peak_rss_mb in
  let traced =
    if not ctx.trace then None
    else begin
      let t, _ = measure_phase ctx w st ~seconds:(ctx.seconds /. 2.0) ~traced:true in
      let events = Putil.Obs.events () in
      mkdir_p (out_dir ctx);
      Putil.Obs.write_chrome_json
        (Filename.concat (out_dir ctx) (Printf.sprintf "trace-%s.json" ctx.workload));
      Putil.Obs.clear ();
      Some (t, rollup events)
    end
  in
  let t2 = now () in
  let check_failed = w.check ctx st in
  Printf.eprintf "%s: set-up %.1f s, measured %.1f s, checked %.1f s\n%!" ctx.workload
    (t1 -. t0) (t2 -. t1) (now () -. t2);
  let phases = u :: (match traced with Some (t, _) -> [ t ] | None -> []) in
  let attempted = List.fold_left (fun a (p : phase) -> a + p.attempted) 0 phases in
  let failed =
    check_failed + List.fold_left (fun a (p : phase) -> a + p.failed) 0 phases
  in
  let setup_samples =
    setup_samples @ List.concat_map (fun (p : phase) -> p.setup_samples) phases
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      end_to_end ~setup_samples ~peak_rss_mb u
      @ per_layer ~ucounters u traced;
  }
