(** Wire protocol of the solving daemon: newline-delimited JSON.

    Requests (one object per line):
    {v
    {"id":1,"op":"sweep","ranks":16,"iters":10,"seed":42}
    {"id":2,"op":"energy","app":"comd","ranks":16,"cap":40,"deadline":1.5}
    {"id":3,"op":"what-if","app":"bt","cap":40,"fail_sockets":[2],
     "drop_ranks":[],"perturb_tasks":[{"tid":17,"point":2,
                                       "duration":0.034,"power":91.5}]}
    {"id":4,"op":"stats"}
    {"id":5,"op":"shutdown"}
    v}

    Omitted parameters take the CLI defaults, so a served request and
    the corresponding [powerlim] invocation describe the same work.

    Responses (one object per line, ids echo the request; order follows
    completion, not submission):
    {v
    {"id":1,"ok":true,"status":0,"cached":"mem","elapsed_ms":0.21,
     "output":"...","err":"..."}
    {"id":9,"ok":false,"error":"unknown op \"swep\""}
    v}

    [status] is the exit code the CLI would have returned; [output] and
    [err] are its stdout/stderr bytes; [cached] is where the result
    came from: ["mem"] (resident), ["disk"] (revived from the artifact
    store) or ["none"] (computed). *)

type op =
  | Sweep of { ranks : int; iters : int; seed : int }
  | Energy of {
      app : Workloads.Apps.app;
      ranks : int;
      iters : int;
      seed : int;
      cap : float;
      deadline : float option;
    }
  | What_if of {
      app : Workloads.Apps.app;
      ranks : int;
      iters : int;
      seed : int;
      cap : float;
      edits : Core.Event_lp.domain_edit list;
    }
  | Stats
  | Shutdown

type request = { id : int; op : op }

let err fmt = Printf.ksprintf (fun s -> raise (Json.Error s)) fmt

let app_of_json j =
  match Json.get_string "app" j with
  | None -> Workloads.Apps.CoMD
  | Some s -> (
      try Workloads.Apps.app_of_name s
      with Invalid_argument m -> err "%s" m)

let perturb_of_json j =
  let req name =
    match Json.get_float name j with
    | Some v -> v
    | None -> err "perturb_tasks entries need field %S" name
  in
  let reqi name =
    match Json.get_int name j with
    | Some v -> v
    | None -> err "perturb_tasks entries need field %S" name
  in
  Core.Event_lp.Perturb_task
    {
      tid = reqi "tid";
      point = reqi "point";
      duration = req "duration";
      power = req "power";
    }

(* The CLI's range checks (bin/powerlim.ml): a count is >= 1, a cap or
   deadline > 0 (which also rejects NaN). *)
let count name ~default j =
  let n = Option.value ~default (Json.get_int name j) in
  if n < 1 then err "field %S must be an integer >= 1 (got %d)" name n;
  n

let positive name j =
  Option.map
    (fun x ->
      if not (x > 0.0) then err "field %S must be a number > 0 (got %g)" name x;
      x)
    (Json.get_float name j)

(* CLI defaults (bin/powerlim.ml): ranks 16, iters 10, seed 42, app
   comd, cap 40 W/socket. *)
let op_of_json j =
  let ranks = count "ranks" ~default:16 j in
  let iters = count "iters" ~default:10 j in
  let seed = Option.value ~default:42 (Json.get_int "seed" j) in
  let cap = Option.value ~default:40.0 (positive "cap" j) in
  let deadline = positive "deadline" j in
  match Json.get_string "op" j with
  | None -> err "request needs field \"op\""
  | Some "sweep" -> Sweep { ranks; iters; seed }
  | Some "energy" ->
      Energy { app = app_of_json j; ranks; iters; seed; cap; deadline }
  | Some "what-if" ->
      let edits =
        List.map (fun r -> Core.Event_lp.Fail_socket r)
          (Json.get_int_list "fail_sockets" j)
        @ List.map (fun r -> Core.Event_lp.Drop_rank r)
            (Json.get_int_list "drop_ranks" j)
        @ List.map perturb_of_json (Json.get_list "perturb_tasks" j)
      in
      What_if { app = app_of_json j; ranks; iters; seed; cap; edits }
  | Some "stats" -> Stats
  | Some "shutdown" -> Shutdown
  | Some other -> err "unknown op %S" other

let request_of_json j =
  match Json.get_int "id" j with
  | None -> err "request needs field \"id\""
  | Some id -> { id; op = op_of_json j }

let request_of_string s = request_of_json (Json.of_string s)

(* ---- content-addressed request keys ------------------------------- *)

(* The version of the bytes a served response carries.  Bump it with
   every change that can move a byte of [output] or [err] for some
   request, so that a daemon restarted on a store written by another
   build computes afresh instead of reviving that build's rendering. *)
let output_version = 4

(* Solving requests are keyed by the output version and the complete
   content of their parameters, in the ["stage:digest"] convention of
   {!Pipeline.Key}: equal requests derive equal keys across
   connections, processes and restarts of one build.
   [Stats]/[Shutdown] are not cacheable. *)
let versioned_key ~version op =
  let h = Putil.Hashing.create () in
  Putil.Hashing.int h version;
  let edit_fold = function
    | Core.Event_lp.Fail_socket r ->
        Putil.Hashing.string h "fail";
        Putil.Hashing.int h r
    | Core.Event_lp.Drop_rank r ->
        Putil.Hashing.string h "drop";
        Putil.Hashing.int h r
    | Core.Event_lp.Perturb_task { tid; point; duration; power } ->
        Putil.Hashing.string h "perturb";
        Putil.Hashing.int h tid;
        Putil.Hashing.int h point;
        Putil.Hashing.float h duration;
        Putil.Hashing.float h power
  in
  match op with
  | Sweep { ranks; iters; seed } ->
      Putil.Hashing.string h "sweep";
      Putil.Hashing.int h ranks;
      Putil.Hashing.int h iters;
      Putil.Hashing.int h seed;
      Some (Pipeline.Key.to_string (Pipeline.Key.v ~stage:"serve" h))
  | Energy { app; ranks; iters; seed; cap; deadline } ->
      Putil.Hashing.string h "energy";
      Putil.Hashing.string h (Workloads.Apps.app_name app);
      Putil.Hashing.int h ranks;
      Putil.Hashing.int h iters;
      Putil.Hashing.int h seed;
      Putil.Hashing.float h cap;
      (match deadline with
      | None -> Putil.Hashing.bool h false
      | Some d ->
          Putil.Hashing.bool h true;
          Putil.Hashing.float h d);
      Some (Pipeline.Key.to_string (Pipeline.Key.v ~stage:"serve" h))
  | What_if { app; ranks; iters; seed; cap; edits } ->
      Putil.Hashing.string h "what-if";
      Putil.Hashing.string h (Workloads.Apps.app_name app);
      Putil.Hashing.int h ranks;
      Putil.Hashing.int h iters;
      Putil.Hashing.int h seed;
      Putil.Hashing.float h cap;
      Putil.Hashing.int h (List.length edits);
      List.iter edit_fold edits;
      Some (Pipeline.Key.to_string (Pipeline.Key.v ~stage:"serve" h))
  | Stats | Shutdown -> None

let request_key op = versioned_key ~version:output_version op

(* ---- responses ----------------------------------------------------- *)

type provenance = Mem | Disk | None_

let provenance_name = function Mem -> "mem" | Disk -> "disk" | None_ -> "none"

let response_line ~id ~cached ~elapsed_ms (o : Handlers.outcome) =
  Json.to_string
    (Putil.Obs.Assoc
       [
         ("id", Putil.Obs.Int id);
         ("ok", Putil.Obs.Bool true);
         ("status", Putil.Obs.Int o.Handlers.status);
         ("cached", Putil.Obs.String (provenance_name cached));
         ("elapsed_ms", Putil.Obs.Float elapsed_ms);
         ("output", Putil.Obs.String o.Handlers.out);
         ("err", Putil.Obs.String o.Handlers.err);
       ])
  ^ "\n"

let error_line ~id msg =
  Json.to_string
    (Putil.Obs.Assoc
       [
         ("id", Putil.Obs.Int id);
         ("ok", Putil.Obs.Bool false);
         ("error", Putil.Obs.String msg);
       ])
  ^ "\n"

let json_line j = Json.to_string j ^ "\n"
