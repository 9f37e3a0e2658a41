(* The powerlim benchmark: one command for every performance claim.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     main.exe compare [--repeat] A.jsonl B.jsonl
     main.exe --jobs-sweep [--seed N] [--seconds S]
     main.exe smoke

   A run prints a context line (nproc, POWERLIM_JOBS, seed, OCaml
   version, commit) and, last, one JSON object: correctness, ops
   attempted and failed, and the metrics BENCHMARK.json lists — its
   end-to-end metrics with --trace 0, its per-layer metrics with
   --trace 1.  The full record, every metric included, is appended to
   the ledger (benchmark/out/ledger.jsonl unless --ledger says
   otherwise); [compare] reads ledgers.  Run it through
   benchmark/run.sh, which builds from source and clears the
   environment. *)

let workloads =
  [
    ("sweep-16", fun ctx -> Harness.run ctx Sweep16.workload);
    ("bound-512", fun ctx -> Harness.run ctx Bound512.workload);
    ("whatif-mix", fun ctx -> Harness.run ctx Whatif_mix.workload);
    ("serve-mix", fun ctx -> Harness.run ctx Serve_mix.workload);
  ]

let run_workload (ctx : Harness.ctx) = List.assoc ctx.Harness.workload workloads ctx

(* The commit of the checkout, read from .git without running git
   (a checkout without .git reports "unknown"). *)
let commit root =
  let read p =
    try Some (String.trim (In_channel.with_open_text p In_channel.input_all))
    with Sys_error _ -> None
  in
  let git = Filename.concat root ".git" in
  match read (Filename.concat git "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat git ref_) with
      | Some sha -> sha
      | None -> (
          match read (Filename.concat git "packed-refs") with
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ sha; r ] when r = ref_ -> sha
                  | _ -> acc)
                "unknown" (String.split_on_char '\n' packed)
          | None -> "unknown"))
  | Some sha -> sha
  | None -> "unknown"

let context (ctx : Harness.ctx) ~started =
  let open Putil.Obs in
  Assoc
    [
      ("workload", String ctx.Harness.workload);
      ("seed", Int ctx.Harness.seed);
      ("seconds", Float ctx.Harness.seconds);
      ("trace", Bool ctx.Harness.trace);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ( "powerlim_jobs",
        match Sys.getenv_opt "POWERLIM_JOBS" with Some s -> String s | None -> Null );
      ("ocaml", String Sys.ocaml_version);
      ("commit", String (commit ctx.Harness.root));
      ("started", Float started);
    ]

let metrics_json (ms : Harness.metric list) =
  Putil.Obs.Assoc
    (List.map
       (fun (m : Harness.metric) ->
         ( m.Harness.name,
           Putil.Obs.Assoc
             [ ("value", Putil.Obs.Float m.Harness.value); ("unit", Putil.Obs.String m.Harness.unit_) ] ))
       ms)

let result_json (r : Harness.result) ms =
  Putil.Obs.Assoc
    [
      ("correct", Putil.Obs.Bool r.Harness.correct);
      ("attempted", Putil.Obs.Int r.Harness.attempted);
      ("failed", Putil.Obs.Int r.Harness.failed);
      ("metrics", metrics_json ms);
    ]

(* The metrics BENCHMARK.json lists for this mode, in its order; a
   listed metric the run did not produce is an error. *)
let selected (spec : Spec.t) ~trace (r : Harness.result) =
  List.map
    (fun (m : Spec.metric) ->
      match List.find_opt (fun (x : Harness.metric) -> x.Harness.name = m.Spec.name) r.Harness.metrics with
      | Some x when x.Harness.unit_ = m.Spec.unit_ -> x
      | Some x ->
          failwith
            (Printf.sprintf "metric %s: unit %s, BENCHMARK.json says %s" m.Spec.name x.Harness.unit_
               m.Spec.unit_)
      | None -> failwith (Printf.sprintf "metric %s was not produced" m.Spec.name))
    (if trace then spec.Spec.per_layer else spec.Spec.end_to_end)

let run_one ctx ~ledger =
  let spec = Spec.load ctx.Harness.root in
  let started = Unix.gettimeofday () in
  let r = run_workload ctx in
  let shown = selected spec ~trace:ctx.Harness.trace r in
  let ctxj = context ctx ~started in
  Harness.mkdir_p (Filename.dirname ledger);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 ledger (fun oc ->
      let record =
        match result_json r r.Harness.metrics with
        | Putil.Obs.Assoc kvs -> Putil.Obs.Assoc (("context", ctxj) :: kvs)
        | j -> j
      in
      output_string oc (Putil.Obs.json_to_string record ^ "\n"));
  print_endline ("context: " ^ Putil.Obs.json_to_string ctxj);
  print_endline (Putil.Obs.json_to_string (result_json r shown))

(* ---- scaling arm ------------------------------------------------------ *)

(* sweep-16 and bound-512 at POWERLIM_JOBS = 1 .. nproc (at most 4), each
   in a fresh process; prints the median op time, the speedup over one
   job and the pool counters.  Ungated: a record, not a check. *)
let jobs_sweep ~root ~seed ~seconds =
  let ledger = Filename.concat root "benchmark/out/jobs-sweep.jsonl" in
  let maxj = min 4 (Domain.recommended_domain_count ()) in
  let env j =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"POWERLIM_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
      [| Printf.sprintf "POWERLIM_JOBS=%d" j |]
  in
  let last_record () =
    let lines =
      List.filter (fun l -> l <> "")
        (String.split_on_char '\n' (In_channel.with_open_text ledger In_channel.input_all))
    in
    Serve.Json.of_string (List.nth lines (List.length lines - 1))
  in
  let value j name =
    Option.bind (Serve.Json.member "metrics" j) (fun m ->
        Option.bind (Serve.Json.member name m) (Serve.Json.get_float "value"))
    |> Option.value ~default:Float.nan
  in
  Printf.printf "%-10s %4s %12s %8s %14s %14s\n" "workload" "jobs" "op_p50_ms" "speedup"
    "pool_tasks/op" "pool_stolen/op";
  List.iter
    (fun w ->
      let base = ref Float.nan in
      for j = 1 to maxj do
        let args =
          [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
             Printf.sprintf "%g" seconds; "--trace"; "0"; "--ledger"; ledger |]
        in
        let pid =
          Unix.create_process_env Sys.executable_name args (env j) Unix.stdin Unix.stderr
            Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith (Printf.sprintf "jobs-sweep: %s at %d jobs failed" w j));
        let r = last_record () in
        let p50 = value r "op_p50_ms" in
        if j = 1 then base := p50;
        Printf.printf "%-10s %4d %12.1f %7.2fx %14.1f %14.1f\n%!" w j p50 (!base /. p50)
          (value r "util.pool_tasks") (value r "util.pool_stolen")
      done)
    [ "sweep-16"; "bound-512" ]

(* ---- smoke test ------------------------------------------------------- *)

(* Every workload at a tiny scale, traced (so one run yields both metric
   sets): every metric BENCHMARK.json lists must come out finite, and
   every correctness check must pass.  Runs from the build directory of
   benchmark/ under dune. *)
let smoke () =
  let q1, q3 = Stat.quartiles (List.init 10 (fun i -> Float.of_int (i + 1))) in
  if (q1, q3) <> (2.75, 8.25) then failwith "quartiles disagree with statistics.quantiles";
  let root = ".." in
  let spec = Spec.load root in
  List.iter
    (fun workload ->
      let ctx =
        {
          Harness.workload;
          seed = 42;
          seconds = 0.01;
          trace = true;
          tiny = true;
          root;
          powerlim = "../bin/powerlim.exe";
        }
      in
      let r = run_workload ctx in
      let shown = selected spec ~trace:false r @ selected spec ~trace:true r in
      List.iter
        (fun (m : Harness.metric) ->
          if not (Float.is_finite m.Harness.value) then
            failwith (Printf.sprintf "%s: metric %s is not finite" workload m.Harness.name))
        shown;
      if not r.Harness.correct || r.Harness.attempted < 1 then
        failwith
          (Printf.sprintf "%s: %d of %d ops failed" workload r.Harness.failed r.Harness.attempted);
      Printf.printf "smoke %-10s ok: %d ops, %d metrics\n%!" workload r.Harness.attempted
        (List.length shown))
    (List.map fst workloads)

(* ---- command line ----------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--ledger PATH]\n\
    \       main.exe compare [--repeat] A.jsonl B.jsonl\n\
    \       main.exe --jobs-sweep [--seed N] [--seconds S]\n\
    \       main.exe smoke";
  exit 2

let () =
  Putil.Obs.set_enabled false;
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke" ] -> smoke ()
  | [ "compare"; a; b ] -> Compare.run ~root:"." ~repeat:false a b
  | [ "compare"; "--repeat"; a; b ] -> Compare.run ~root:"." ~repeat:true a b
  | args ->
      let workload = ref None and seed = ref 42 in
      let seconds = ref (Spec.load ".").Spec.run_seconds in
      let trace = ref false and jobs = ref false in
      let ledger = ref "benchmark/out/ledger.jsonl" in
      let rec parse = function
        | "--workload" :: w :: rest ->
            workload := Some w;
            parse rest
        | "--seed" :: n :: rest ->
            seed := int_of_string n;
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := float_of_string s;
            parse rest
        | "--trace" :: ("0" | "1" as t) :: rest ->
            trace := t = "1";
            parse rest
        | "--ledger" :: p :: rest ->
            ledger := p;
            parse rest
        | "--jobs-sweep" :: rest ->
            jobs := true;
            parse rest
        | [] -> ()
        | _ -> usage ()
      in
      (try parse args with Failure _ -> usage ());
      if !jobs then jobs_sweep ~root:"." ~seed:!seed ~seconds:!seconds
      else
        match !workload with
        | Some w when List.mem_assoc w workloads ->
            run_one ~ledger:!ledger
              {
                Harness.workload = w;
                seed = !seed;
                seconds = !seconds;
                trace = !trace;
                tiny = false;
                root = ".";
                powerlim = "_build/default/bin/powerlim.exe";
              }
        | _ -> usage ()
