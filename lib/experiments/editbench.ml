(** Structural-edit benchmark (see editbench.mli).

    Protocol, per single domain edit: the edit is compiled to elementary
    {!Lp.Edit} value edits against a [~presolve:false] prepared model (the
    full column space, so the optimal basis is a basis of the edited LP),
    then

    - {b cold}: apply the edits and solve the edited LP from scratch;
    - {b incremental}: {!Lp.Edit.resolve} — warm-start from the base
      optimum's basis and dual-repair.

    Both sides include the edit application itself, so the comparison is
    end-to-end what-if latency.  Walls are the minimum of [reps] runs;
    the headline number is the {e median} speedup across the suite, which
    is what an interactive caller experiences on a typical edit. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rel_diff a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs a)

let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type case = {
  name : string;
  cold_s : float;
  warm_s : float;
  cold_obj : float;
  warm_obj : float;
  cold_status : Lp.Revised.status;
  warm_status : Lp.Revised.status;
  warm_mapped : bool;  (** basis mapping survived (no cold fallback) *)
}

let median xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* The single-edit suite: one frontier perturbation per sampled task
   (spread across the graph), one socket failure, one dropped rank. *)
let edit_suite (sc : Core.Scenario.t) : (string * Core.Event_lp.domain_edit list) list =
  let tids =
    Array.to_list
      (Array.mapi
         (fun tid f -> if Array.length f > 1 then Some tid else None)
         sc.Core.Scenario.frontiers)
    |> List.filter_map Fun.id
  in
  let nt = List.length tids in
  if nt = 0 then failwith "editbench: scenario has no multi-point frontiers";
  let sample = List.filteri (fun i _ -> i mod Int.max 1 (nt / 6) = 0) tids in
  let perturbs =
    List.map
      (fun tid ->
        let f = sc.Core.Scenario.frontiers.(tid) in
        let k = Array.length f / 2 in
        let pt = f.(k) in
        ( Printf.sprintf "perturb_t%d" tid,
          [
            Core.Event_lp.Perturb_task
              {
                tid;
                point = k;
                duration = pt.Pareto.Point.duration *. 1.07;
                power = pt.Pareto.Point.power *. 0.96;
              };
          ] ))
      sample
  in
  let last_rank = sc.Core.Scenario.graph.Dag.Graph.nranks - 1 in
  perturbs
  @ [
      ("fail_socket", [ Core.Event_lp.Fail_socket last_rank ]);
      ("drop_rank", [ Core.Event_lp.Drop_rank last_rank ]);
    ]

let run_case ~reps (p : Lp.Model.problem) (base : Lp.Revised.basis)
    (pz : Core.Event_lp.prepared) (name, des) : case =
  let edits = Core.Event_lp.compile_edits pz des in
  let best side =
    let rec go k acc =
      if k = 0 then acc
      else begin
        let r, w = time side in
        go (k - 1) (match acc with None -> Some (r, w)
                                 | Some (_, w0) when w < w0 -> Some (r, w)
                                 | Some _ as a -> a)
      end
    in
    match go reps None with Some rw -> rw | None -> assert false
  in
  let rc, cold_s = best (fun () -> Lp.Revised.solve (Lp.Edit.apply p edits)) in
  Lp.Stats.reset ();
  let (_, rw), warm_s = best (fun () -> Lp.Edit.resolve ~warm:base p edits) in
  let st = Lp.Stats.snapshot () in
  {
    name;
    cold_s;
    warm_s;
    cold_obj = rc.Lp.Revised.objective;
    warm_obj = rw.Lp.Revised.objective;
    cold_status = rc.Lp.Revised.status;
    warm_status = rw.Lp.Revised.status;
    warm_mapped = st.Lp.Stats.edit_fallbacks = 0;
  }

(* ------------------------------------------------------------------ *)
(* BENCH_warmstart.json merge                                          *)
(* ------------------------------------------------------------------ *)

(* The "edits" section is folded into warmbench's file so the warm-start
   engineering data lives in one artifact, whichever benchmark ran last
   or first.  Purely line-based: strip any previous top-level "edits"
   block, then splice the fresh one in before the closing brace. *)
let merge_section ~path section_lines =
  let read_lines () =
    if not (Sys.file_exists path) then []
    else begin
      let ic = open_in path in
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []
    end
  in
  let strip lines =
    let rec go depth acc = function
      | [] -> List.rev acc
      | l :: tl when depth > 0 ->
          let d =
            String.fold_left
              (fun d c -> if c = '{' then d + 1 else if c = '}' then d - 1 else d)
              depth l
          in
          go d acc tl
      | l :: tl when String.equal (String.trim l) "\"edits\": {" ->
          go 1 acc tl
      | l :: tl -> go 0 (l :: acc) tl
    in
    go 0 [] lines
  in
  let skeleton = [ "{"; "  \"schema\": \"powerlim-warmbench-v1\"" ] in
  let lines =
    match strip (read_lines ()) with
    | [] | [ _ ] -> skeleton
    | ls -> (
        (* drop the closing brace; re-add it after the new section *)
        match List.rev ls with
        | "}" :: body_rev -> List.rev body_rev
        | _ -> skeleton)
  in
  (* the now-last content line needs a separating comma *)
  let lines =
    match List.rev lines with
    | last :: rest when String.length (String.trim last) > 0
                        && last.[String.length last - 1] <> ','
                        && last.[String.length last - 1] <> '{' ->
        List.rev ((last ^ ",") :: rest)
    | _ -> lines
  in
  Putil.Fileio.with_out path (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (lines @ section_lines @ [ "}" ]))

let edits_section ~config ~cap cases =
  let b = Buffer.create 1024 in
  let bf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bf "  \"edits\": {\n";
  bf "    \"ranks\": %d,\n" config.Common.nranks;
  bf "    \"power_cap_w\": %.1f,\n" cap;
  bf "    \"cases\": [\n";
  List.iteri
    (fun i c ->
      bf
        "      { \"name\": %S, \"cold_wall_s\": %.6f, \"warm_wall_s\": %.6f, \
         \"speedup\": %.3f, \"rel_objective_diff\": %.3e, \"bit_identical\": \
         %b, \"warm_mapped\": %b }%s\n"
        c.name c.cold_s c.warm_s
        (c.cold_s /. c.warm_s)
        (rel_diff c.cold_obj c.warm_obj)
        (bit_equal c.cold_obj c.warm_obj)
        c.warm_mapped
        (if i = List.length cases - 1 then "" else ","))
    cases;
  bf "    ],\n";
  bf "    \"median_speedup\": %.3f,\n"
    (median (List.map (fun c -> c.cold_s /. c.warm_s) cases));
  bf "    \"max_rel_objective_diff\": %.3e\n"
    (List.fold_left
       (fun acc c -> Float.max acc (rel_diff c.cold_obj c.warm_obj))
       0.0 cases);
  bf "  }";
  String.split_on_char '\n' (Buffer.contents b)

let run ?(config = Common.default_config) ppf =
  Common.header ppf "Structural-edit benchmark (what-if re-solves)";
  let s = Common.make_setup config Workloads.Apps.CoMD in
  let sc = s.Common.sc in
  (* a mid-range cap: loose enough to be feasible after any edit in the
     suite, tight enough that the power rows bind and edits actually
     move the optimum *)
  let sorted_caps = List.sort Float.compare config.Common.caps in
  let cap_per_socket =
    match sorted_caps with
    | [] -> 40.0
    | caps -> List.nth caps (List.length caps / 2)
  in
  let cap = cap_per_socket *. Float.of_int config.Common.nranks in
  let pz = Core.Event_lp.prepare ~presolve:false sc ~power_cap:cap in
  let p = Core.Event_lp.prepared_problem pz in
  let _, base = Core.Event_lp.solve_prepared pz ~power_cap:cap in
  let base =
    match base with
    | Some b -> b
    | None -> failwith "editbench: base solve returned no basis"
  in
  let cases =
    List.map (run_case ~reps:3 p base pz) (edit_suite sc)
  in
  Fmt.pf ppf "base model: %d rows x %d cols at %.0f W (%d ranks)@."
    p.Lp.Model.nr p.Lp.Model.nv cap config.Common.nranks;
  List.iter
    (fun c ->
      Fmt.pf ppf
        "  %-14s cold %8.2f ms | incremental %8.2f ms | %5.1fx %s%s@."
        c.name (1e3 *. c.cold_s) (1e3 *. c.warm_s)
        (c.cold_s /. c.warm_s)
        (if bit_equal c.cold_obj c.warm_obj then "bit-identical"
         else Printf.sprintf "diff %.1e" (rel_diff c.cold_obj c.warm_obj))
        (if c.warm_mapped then "" else " (cold fallback)"))
    cases;
  let med = median (List.map (fun c -> c.cold_s /. c.warm_s) cases) in
  Fmt.pf ppf "median single-edit speedup: %.1fx@." med;
  let path = "BENCH_warmstart.json" in
  merge_section ~path (edits_section ~config ~cap cases);
  Fmt.pf ppf "merged edits section into %s@." path;
  (* hard gates: statuses must agree, objectives must match to 1e-9 —
     the CI smoke step relies on the non-zero exit *)
  List.iter
    (fun c ->
      if c.cold_status <> c.warm_status then
        failwith
          (Printf.sprintf "editbench: %s status mismatch (cold %s, warm %s)"
             c.name
             (Fmt.str "%a" Lp.Revised.pp_status c.cold_status)
             (Fmt.str "%a" Lp.Revised.pp_status c.warm_status));
      if rel_diff c.cold_obj c.warm_obj > 1e-9 then
        failwith
          (Printf.sprintf
             "editbench: %s cold vs incremental objectives differ (%g)" c.name
             (rel_diff c.cold_obj c.warm_obj)))
    cases
