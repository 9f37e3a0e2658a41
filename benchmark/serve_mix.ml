(* serve-mix: a `powerlim serve` daemon spawned as a child process and
   driven closed-loop by one client: each request is sent when the
   previous answer arrives, with no think time.  An episode sends 240
   requests over 48 distinct keys in exact Zipf(s=1) proportions, in
   seeded order, and restarts the daemon on the same store after 120, so
   it crosses the JSON protocol, the memory and disk tiers and
   write-through; the run repeats episodes, each on a fresh store.

   One client, not two: on two cores a second client's cache hits
   contend with the first one's solves and take 1.5-4 ms instead of
   0.1 ms, so the median latency lands on that step and moved from 0.18
   to 0.73 ms between seeds.  Single-flight and queueing are therefore
   not exercised here.

   Keys (--seed picks the edits, the sweep seeds and which key gets which
   popularity): energy at m x T* for m in {1.05, 1.2, 1.5, 2} with T*
   solved in set-up, what-if (two failed sockets and two perturbed tasks)
   for each of the 4 apps at 8 ranks x 10 iterations, and sixteen
   4-rank x 5-iteration sweeps.  Popularity rank r always goes to a key
   of class r mod 3, so every seed serves the same mix of request kinds. *)

type key = {
  request : Putil.Obs.json;  (** without an id: the client adds one *)
  offline : unit -> Serve.Handlers.outcome;
}

type answer = {
  key : int;
  wall_ms : float;
  ok : bool;
  cached : string;
  elapsed_ms : float;
  md5 : string;
  status : int;
}

type st = {
  keys : key array;
  popularity : int array;  (** Zipf rank - 1 -> key *)
  mutable episodes : int;
  mutable answers : answer list;
}

let cap = 40.0

(* Requests per episode; the daemon restarts halfway. *)
let requests = 240

open Putil.Obs

let request op fields = Assoc (("op", String op) :: fields)

let keys ~tiny ~seed =
  let ranks, iters = if tiny then (4, 3) else (8, 10) in
  let sranks, siters = if tiny then (2, 2) else (4, 5) in
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let base app =
    [
      ("app", String (Workloads.Apps.app_name app));
      ("ranks", Int ranks);
      ("iters", Int iters);
      ("seed", Int 42);
      ("cap", Float cap);
    ]
  in
  let per_app app =
    let params = { Workloads.Apps.nranks = ranks; iterations = iters; seed = 42; scale = 1.0 } in
    let sc = Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params)) in
    let t_star =
      match Core.Event_lp.solve sc ~power_cap:(cap *. Float.of_int ranks) with
      | Core.Event_lp.Schedule s -> s.Core.Event_lp.makespan
      | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ ->
          failwith "serve-mix: no makespan bound"
    in
    let energy m =
      let deadline = m *. t_star in
      {
        request = request "energy" (("deadline", Float deadline) :: base app);
        offline =
          (fun () ->
            Serve.Handlers.energy ~app ~ranks ~iters ~seed:42 ~cap
              ~deadline:(Some deadline) ());
      }
    in
    let what_if draw =
      let e = draw rng sc in
      let field =
        match e with
        | Core.Event_lp.Fail_socket r -> ("fail_sockets", List [ Int r ])
        | Core.Event_lp.Drop_rank r -> ("drop_ranks", List [ Int r ])
        | Core.Event_lp.Perturb_task { tid; point; duration; power } ->
            ( "perturb_tasks",
              List
                [
                  Assoc
                    [
                      ("tid", Int tid);
                      ("point", Int point);
                      ("duration", Float duration);
                      ("power", Float power);
                    ];
                ] )
      in
      {
        request = request "what-if" (field :: base app);
        offline =
          (fun () ->
            Serve.Handlers.what_if ~app ~ranks ~iters ~seed:42 ~cap ~edits:[ e ] ());
      }
    in
    ( List.map energy [ 1.05; 1.2; 1.5; 2.0 ],
      List.map what_if Whatif_mix.[ draw_fail; draw_fail; draw_perturb; draw_perturb ] )
  in
  let energy, what_if = List.split (List.map per_app Workloads.Apps.all_apps) in
  let sweep_seeds =
    let rec draw acc =
      if List.length acc = 16 then List.rev acc
      else
        let s = 1 + Random.State.int rng 1_000_000 in
        draw (if List.mem s acc then acc else s :: acc)
    in
    draw []
  in
  let sweep s =
    {
      request =
        request "sweep" [ ("ranks", Int sranks); ("iters", Int siters); ("seed", Int s) ];
      offline = (fun () -> Serve.Handlers.sweep ~ranks:sranks ~iters:siters ~seed:s ());
    }
  in
  (* three classes of 16 keys, each in a seeded order; popularity rank r
     goes to key r / 3 of class r mod 3 *)
  let keys =
    Array.concat
      (List.map
         (fun c -> Whatif_mix.shuffle rng (Array.of_list c))
         [ List.concat energy; List.concat what_if; List.map sweep sweep_seeds ])
  in
  let popularity = Array.init (Array.length keys) (fun r -> (r mod 3 * 16) + (r / 3)) in
  (keys, popularity)

(* Request counts of popularity ranks 0 .. n-1 under Zipf(s=1), exact
   rather than sampled: the expected counts, rounded by largest
   remainder to sum to [total] (which must leave every rank at least
   one).  Every episode then carries the same multiset of requests and
   the seed only orders them, so the work per episode does not depend
   on the luck of the draw. *)
let zipf_counts n total =
  let h = List.fold_left (fun a k -> a +. (1.0 /. Float.of_int k)) 0.0 (List.init n succ) in
  let exact = Array.init n (fun r -> Float.of_int total /. (Float.of_int (r + 1) *. h)) in
  let counts = Array.map truncate exact in
  let by_remainder = List.init n Fun.id in
  let rem r = exact.(r) -. Float.of_int counts.(r) in
  let by_remainder = List.sort (fun a b -> Float.compare (rem b) (rem a)) by_remainder in
  let missing = total - Array.fold_left ( + ) 0 counts in
  List.iteri (fun i r -> if i < missing then counts.(r) <- counts.(r) + 1) by_remainder;
  counts

(* ---- daemon lifecycle ------------------------------------------------ *)

(* Daemons still running when the benchmark exits (an error path) are
   killed and reaped. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reap pid =
  let t0 = Harness.now () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Harness.now () -. t0 < 10.0 ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let connectable sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* Spawn a daemon and wait until it accepts connections; returns its pid
   and the time that took.  The socket is polled every 0.1 ms: a spawn
   takes about 3 ms, and polling every 1 ms rounded it to whole polls
   (set-up time spread 29-36% between runs then, 10-17% with this and
   the five set-up spawns). *)
let spawn (ctx : Harness.ctx) ~dir =
  let t0 = Harness.now () in
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let stdin_r, stdin_w = Unix.pipe () in
  let pid =
    Unix.create_process ctx.Harness.powerlim
      [| ctx.Harness.powerlim; "serve"; "--socket"; sock; "--store"; Filename.concat dir "store" |]
      stdin_r log log
  in
  List.iter Unix.close [ stdin_r; stdin_w; log ];
  live := pid :: !live;
  let rec ready () =
    if not (connectable sock) then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Harness.now () -. t0 < 30.0 ->
          Unix.sleepf 0.0001;
          ready ()
      | 0, _ -> failwith "serve-mix: daemon did not start accepting"
      | _ ->
          live := List.filter (( <> ) pid) !live;
          failwith "serve-mix: daemon exited at start"
  in
  ready ();
  (pid, Harness.now () -. t0)

(* Daemon counters (its stats providers plus its tier counts) and peak
   RSS, then shutdown. *)
let stop ~dir pid =
  let c = Serve.Client.connect (Serve.Daemon.Unix_socket (Filename.concat dir "d.sock")) in
  let stats = Serve.Client.request c (request "stats" []) in
  let rss = Harness.vmhwm_mb (string_of_int pid) in
  ignore (Serve.Client.request c (request "shutdown" []));
  Serve.Client.close c;
  reap pid;
  let counters =
    match Serve.Json.member "stats" stats with
    | Some s ->
        let tier name =
          ("serve." ^ name, Float.of_int (Option.value ~default:0 (Serve.Json.get_int name s)))
        in
        List.map tier [ "mem_hits"; "disk_hits"; "computed" ]
        @ Harness.flatten_stats
            (Option.value ~default:Null (Serve.Json.member "providers" s))
    | None -> []
  in
  (counters, rss)

(* ---- the closed loop ------------------------------------------------- *)

let answer_of key wall_ms resp =
  let out = Option.value ~default:"" (Serve.Json.get_string "output" resp) in
  {
    key;
    wall_ms;
    ok = Serve.Json.member "ok" resp = Some (Bool true);
    cached = Option.value ~default:"?" (Serve.Json.get_string "cached" resp);
    elapsed_ms = Option.value ~default:Float.nan (Serve.Json.get_float "elapsed_ms" resp);
    md5 = Digest.to_hex (Digest.string out);
    status = Option.value ~default:(-1) (Serve.Json.get_int "status" resp);
  }

(* Requests [lo, hi) of [seq], each sent when the previous answer has
   arrived.  After a broken connection the remaining requests stay
   unanswered. *)
let drive ~dir ~keys ~seq ~lo ~hi (answers : answer option array) =
  let c = Serve.Client.connect (Serve.Daemon.Unix_socket (Filename.concat dir "d.sock")) in
  let rec go i =
    if i < hi then begin
      let t0 = Harness.now () in
      match
        Harness.span "serve.request" (fun () -> Serve.Client.request c keys.(seq.(i)).request)
      with
      | resp ->
          answers.(i) <- Some (answer_of seq.(i) (1000.0 *. (Harness.now () -. t0)) resp);
          go (i + 1)
      | exception (Serve.Json.Error _ | Sys_error _ | Unix.Unix_error _) -> ()
    end
  in
  go lo;
  Serve.Client.close c

type episode = {
  replies : answer option array;  (** [None]: never answered *)
  spawns : float list;
  loop_s : float;  (** request time, spawns and shutdowns excluded *)
  counters : (string * float) list;
  rss_mb : float;
  repeats : int;  (** requests whose key came earlier in the episode *)
}

(* One episode: fresh store, first half, restart, second half. *)
let episode ctx st =
  let ep = st.episodes in
  st.episodes <- ep + 1;
  let dir =
    Filename.concat (Harness.out_dir ctx) (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) ep)
  in
  Harness.rm_rf dir;
  Harness.mkdir_p dir;
  let rng = Random.State.make [| ctx.Harness.seed; 0x2f; ep |] in
  let seq =
    Whatif_mix.shuffle rng
      (Array.concat
         (Array.to_list
            (Array.mapi
               (fun r c -> Array.make c st.popularity.(r))
               (zipf_counts (Array.length st.keys) requests))))
  in
  let replies = Array.make requests None in
  let half lo hi =
    let pid, spawn_s = Harness.span "serve.spawn" (fun () -> spawn ctx ~dir) in
    let t0 = Harness.now () in
    drive ~dir ~keys:st.keys ~seq ~lo ~hi replies;
    let loop_s = Harness.now () -. t0 in
    let counters, rss = Harness.span "serve.stop" (fun () -> stop ~dir pid) in
    (spawn_s, loop_s, counters, rss)
  in
  let s1, l1, c1, r1 = half 0 (requests / 2) in
  let s2, l2, c2, r2 = half (requests / 2) requests in
  Harness.rm_rf dir;
  {
    replies;
    spawns = [ s1; s2 ];
    loop_s = l1 +. l2;
    counters = Harness.sum_counters c1 c2;
    rss_mb = Float.max r1 r2;
    repeats = requests - List.length (List.sort_uniq compare (Array.to_list seq));
  }

let setup (ctx : Harness.ctx) =
  let keys, popularity = keys ~tiny:ctx.Harness.tiny ~seed:ctx.Harness.seed in
  (* the daemon's set-up is its spawn until it accepts: five spawns on an
     empty store here, and the two of every episode *)
  let dir =
    Filename.concat (Harness.out_dir ctx) (Printf.sprintf "serve-%d-setup" (Unix.getpid ()))
  in
  let spawns =
    List.init 5 (fun _ ->
        Harness.rm_rf dir;
        Harness.mkdir_p dir;
        let pid, spawn_s = spawn ctx ~dir in
        ignore (stop ~dir pid);
        spawn_s)
  in
  Harness.rm_rf dir;
  ({ keys; popularity; episodes = 0; answers = [] }, spawns)

let measure ctx st ~seconds =
  let eps = ref [] in
  let _ = Harness.loop ~seconds (fun _ -> eps := episode ctx st :: !eps) in
  let eps = !eps in
  let ok =
    List.filter (fun a -> a.ok)
      (List.concat_map (fun e -> List.filter_map Fun.id (Array.to_list e.replies)) eps)
  in
  st.answers <- ok @ st.answers;
  let wall tier = List.filter_map (fun a -> if a.cached = tier then Some a.wall_ms else None) ok in
  let pct p l = if l = [] then 0.0 else Stat.percentile p l in
  let total = List.length eps * requests in
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0.0 eps in
  let layer =
    [
      ("serve.mem_p50_ms", pct 50.0 (wall "mem"));
      ("serve.disk_p50_ms", pct 50.0 (wall "disk"));
      ("serve.compute_p50_ms", pct 50.0 (wall "none"));
      ("serve.compute_p90_ms", pct 90.0 (wall "none"));
      ("serve.server_p50_ms", pct 50.0 (List.map (fun a -> a.elapsed_ms) ok));
      ("serve.overhead_p50_ms", pct 50.0 (List.map (fun a -> a.wall_ms -. a.elapsed_ms) ok));
      ("serve.repeat_frac", sum (fun e -> Float.of_int e.repeats) /. Float.of_int total);
    ]
  in
  Harness.phase ~failed:(total - List.length ok) ~layer
    ~counters:(List.fold_left (fun acc e -> Harness.sum_counters acc e.counters) [] eps)
    ~setup_samples:(List.concat_map (fun e -> e.spawns) eps)
    ~peak_rss_mb:(List.fold_left (fun acc e -> Float.max acc e.rss_mb) 0.0 eps)
    ~units:(List.length ok) ~wall_s:(sum (fun e -> e.loop_s))
    (List.map (fun a -> a.wall_ms) ok)

(* Every answer must carry the exact bytes and status the offline
   renderer produces for its request. *)
let check _ctx st =
  let used = List.sort_uniq compare (List.map (fun a -> a.key) st.answers) in
  let reference =
    Putil.Pool.parallel_map (Putil.Pool.get_default ())
      (fun k ->
        let o = st.keys.(k).offline () in
        (k, (Digest.to_hex (Digest.string o.Serve.Handlers.out), o.Serve.Handlers.status)))
      used
  in
  List.length
    (List.filter (fun a -> List.assoc a.key reference <> (a.md5, a.status)) st.answers)

let workload = { Harness.setup; measure; check }
