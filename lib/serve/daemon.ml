(** The persistent solving daemon: accept connections, parse one JSON
    request per line, batch the solves across the shared domain pool,
    stream responses back as they complete.  See daemon.mli. *)

type address = Unix_socket of string | Tcp of string * int

let pp_address ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

type config = {
  address : address;
  store_root : string option;
  store_limit_bytes : int;
  cache_capacity : int;
  pool : Putil.Pool.t option;
}

let default_config address =
  {
    address;
    store_root = None;
    store_limit_bytes = 0;
    cache_capacity = 64;
    pool = None;
  }

(* ---- response (de)serialization for the disk tier ------------------ *)

(* Responses persist as a version-tagged Marshal of the outcome triple.
   The store already digest-verifies payload integrity; the tag guards
   against schema drift — an old format reads as a clean miss, never a
   wrong answer. *)
let artifact_magic = "powerlim-serve-response 1\n"

let outcome_to_bytes (o : Handlers.outcome) =
  artifact_magic ^ Marshal.to_string (o.Handlers.status, o.Handlers.out, o.Handlers.err) []

let outcome_of_bytes s =
  let n = String.length artifact_magic in
  if String.length s <= n || String.sub s 0 n <> artifact_magic then None
  else
    match (Marshal.from_string s n : int * string * string) with
    | status, out, err -> Some { Handlers.status; out; err }
    | exception _ -> None

(* ---- server state -------------------------------------------------- *)

type counters = {
  requests : int Atomic.t;
  errors : int Atomic.t;
  mem_hits : int Atomic.t;
  disk_hits : int Atomic.t;
  computed : int Atomic.t;
}

type t = {
  listen_fd : Unix.file_descr;
  resolved : address;  (** with the actual port for [Tcp (_, 0)] *)
  pool : Putil.Pool.t;
  cache : Handlers.outcome Putil.Cache.t;
  store : Putil.Disk_store.t option;
  stopping : bool Atomic.t;
  counters : counters;
  mutable accept_thread : Thread.t option;
  conn_threads : Thread.t list ref;
  conn_mutex : Mutex.t;
}

let stats_payload t =
  let open Putil.Obs in
  Assoc
    [
      ("requests", Int (Atomic.get t.counters.requests));
      ("errors", Int (Atomic.get t.counters.errors));
      ("mem_hits", Int (Atomic.get t.counters.mem_hits));
      ("disk_hits", Int (Atomic.get t.counters.disk_hits));
      ("computed", Int (Atomic.get t.counters.computed));
      ( "store",
        match t.store with
        | None -> Null
        | Some s ->
            let st = Putil.Disk_store.stats s in
            Assoc
              [
                ("root", String (Putil.Disk_store.root s));
                ("hits", Int st.Putil.Disk_store.hits);
                ("misses", Int st.Putil.Disk_store.misses);
                ("puts", Int st.Putil.Disk_store.puts);
                ("evictions", Int st.Putil.Disk_store.evictions);
                ("entries", Int st.Putil.Disk_store.entries);
                ("bytes", Int st.Putil.Disk_store.bytes);
              ] );
      ( "rejected_env",
        List
          (List.map
             (fun (name, value) ->
               Assoc [ ("name", String name); ("value", String value) ])
             (Putil.Env.rejected ())) );
      (* the unified provider registry (lp / cache / pool / ...), so a
         live daemon exposes the same counters as [--stats-json] *)
      ("providers", Putil.Obs.stats_json ());
    ]

(* ---- request execution --------------------------------------------- *)

let compute op =
  match op with
  | Protocol.Sweep { ranks; iters; seed } -> Handlers.sweep ~ranks ~iters ~seed ()
  | Protocol.Energy { app; ranks; iters; seed; cap; deadline } ->
      Handlers.energy ~app ~ranks ~iters ~seed ~cap ~deadline ()
  | Protocol.What_if { app; ranks; iters; seed; cap; edits } ->
      Handlers.what_if ~app ~ranks ~iters ~seed ~cap ~edits ()
  | Protocol.Stats | Protocol.Shutdown -> assert false

(* Run one solving op through cache + store + pool, reporting where the
   bytes came from.  The pool does the actual solve: concurrent requests
   from any number of connections batch across the worker domains, and
   equal in-flight requests collapse to one solve (single-flight). *)
let solve t op =
  match Protocol.request_key op with
  | None -> (compute op, Protocol.None_)
  | Some key ->
      let v, where =
        Putil.Cache.find_or_build_where t.cache key (fun () ->
            Putil.Pool.await (Putil.Pool.submit t.pool (fun () -> compute op)))
      in
      (* write-through: a computed response lands on disk immediately,
         so a restarted daemon is warm even if this one is killed
         without ever evicting *)
      (match (where, t.store) with
      | `Built, Some store -> Putil.Disk_store.put store key (outcome_to_bytes v)
      | _ -> ());
      let prov =
        match where with
        | `Hit ->
            Atomic.incr t.counters.mem_hits;
            Protocol.Mem
        | `Revived ->
            Atomic.incr t.counters.disk_hits;
            Protocol.Disk
        | `Built ->
            Atomic.incr t.counters.computed;
            Protocol.None_
      in
      (v, prov)

(* ---- connection handling ------------------------------------------- *)

let send mutex oc line =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      output_string oc line;
      flush oc)

let handle_request t ~wmutex oc (req : Protocol.request) =
  Atomic.incr t.counters.requests;
  match req.Protocol.op with
  | Protocol.Stats ->
      send wmutex oc
        (Protocol.json_line
           (Putil.Obs.Assoc
              [
                ("id", Putil.Obs.Int req.Protocol.id);
                ("ok", Putil.Obs.Bool true);
                ("stats", stats_payload t);
              ]))
  | Protocol.Shutdown ->
      send wmutex oc
        (Protocol.json_line
           (Putil.Obs.Assoc
              [
                ("id", Putil.Obs.Int req.Protocol.id);
                ("ok", Putil.Obs.Bool true);
              ]));
      Atomic.set t.stopping true;
      (* closing the listen socket pops the accept loop out of [accept] *)
      (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  | op ->
      let t0 = Unix.gettimeofday () in
      let outcome, cached = solve t op in
      let elapsed_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      send wmutex oc
        (Protocol.response_line ~id:req.Protocol.id ~cached ~elapsed_ms outcome)

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wmutex = Mutex.create () in
  let request_threads = ref [] in
  (try
     let rec loop () =
       match input_line ic with
       | exception End_of_file -> ()
       | line when String.trim line = "" -> loop ()
       | line ->
           (* the id is extracted before the op parse so an invalid
              request is still refused under the id the client sent *)
           let id =
             match Json.of_string line with
             | j -> Option.value ~default:(-1) (Json.get_int "id" j)
             | exception Json.Error _ -> -1
           in
           (match Protocol.request_of_string line with
           | req ->
               (* each request gets its own thread so responses stream
                  back in completion order while the reader keeps
                  accepting further requests on this connection *)
               let th =
                 Thread.create
                   (fun () ->
                     try handle_request t ~wmutex oc req
                     with e ->
                       Atomic.incr t.counters.errors;
                       (try
                          send wmutex oc
                            (Protocol.error_line ~id:req.Protocol.id
                               (Printexc.to_string e))
                        with _ -> ()))
                   ()
               in
               request_threads := th :: !request_threads
           | exception Json.Error msg ->
               Atomic.incr t.counters.errors;
               send wmutex oc
                 (Protocol.error_line ~id ("bad request: " ^ msg)));
           if Atomic.get t.stopping then () else loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  List.iter Thread.join !request_threads;
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- lifecycle ----------------------------------------------------- *)

let bind_address = function
  | Unix_socket path ->
      (* a previous daemon's socket file would make bind fail; removing
         a stale path is safe — connect()-ers see the new socket *)
      (try if Sys.file_exists path then Sys.remove path
       with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      (fd, Unix_socket path)
  | Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      let resolved_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, resolved_port))

let start (cfg : config) =
  let listen_fd, resolved = bind_address cfg.address in
  Unix.listen listen_fd 64;
  let store =
    Option.map
      (fun root ->
        Putil.Disk_store.open_ ~limit_bytes:cfg.store_limit_bytes ~root ())
      cfg.store_root
  in
  let cache =
    Putil.Cache.create ~capacity:cfg.cache_capacity ~name:"serve" ()
  in
  (* two-tier wiring: evictions spill to disk, misses probe it before
     solving — restart-warm by construction *)
  Option.iter
    (fun s ->
      Putil.Cache.set_tier cache
        ~spill:(fun key v -> Putil.Disk_store.put s key (outcome_to_bytes v))
        ~revive:(fun key ->
          Option.bind (Putil.Disk_store.get s key) outcome_of_bytes)
        ();
      Pipeline.Stages.attach_store s)
    store;
  let t =
    {
      listen_fd;
      resolved;
      pool = (match cfg.pool with Some p -> p | None -> Putil.Pool.get_default ());
      cache;
      store;
      stopping = Atomic.make false;
      counters =
        {
          requests = Atomic.make 0;
          errors = Atomic.make 0;
          mem_hits = Atomic.make 0;
          disk_hits = Atomic.make 0;
          computed = Atomic.make 0;
        };
      accept_thread = None;
      conn_threads = ref [];
      conn_mutex = Mutex.create ();
    }
  in
  let accept_loop () =
    let rec loop () =
      match Unix.accept t.listen_fd with
      | fd, _ ->
          let th = Thread.create (fun () -> handle_connection t fd) () in
          Mutex.lock t.conn_mutex;
          t.conn_threads := th :: !(t.conn_threads);
          Mutex.unlock t.conn_mutex;
          loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
        ->
          if Atomic.get t.stopping then () else loop ()
      | exception Unix.Unix_error _ -> if Atomic.get t.stopping then () else loop ()
    in
    loop ()
  in
  t.accept_thread <- Some (Thread.create accept_loop ());
  t

let address t = t.resolved

let wait t =
  Option.iter Thread.join t.accept_thread;
  let conns =
    Mutex.lock t.conn_mutex;
    let l = !(t.conn_threads) in
    Mutex.unlock t.conn_mutex;
    l
  in
  List.iter Thread.join conns;
  match t.resolved with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()

let stop t =
  Atomic.set t.stopping true;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  wait t

let run cfg = wait (start cfg)
