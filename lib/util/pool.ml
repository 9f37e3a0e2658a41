(** Bounded domain pool with per-worker work-stealing deques.  See
    pool.mli for the design contract.  Synchronization is deliberately
    coarse (a mutex per deque, a mutex+condition for the idle set): the
    tasks this pool runs are whole LP solves and simulations, so queue
    operations are nowhere near the critical path. *)

type task = unit -> unit

module Deque = struct
  (* Ring-buffer deque.  The owner pushes and pops at the bottom (LIFO,
     keeps nested jobs cache-local); thieves take from the top (FIFO,
     steals the oldest -- typically largest -- task). *)
  type t = {
    lock : Mutex.t;
    mutable buf : task option array;
    mutable head : int;  (* index of the oldest element (steal end) *)
    mutable len : int;
  }

  let create () =
    { lock = Mutex.create (); buf = Array.make 16 None; head = 0; len = 0 }

  let grow d =
    let n = Array.length d.buf in
    let nb = Array.make (2 * n) None in
    for i = 0 to d.len - 1 do
      nb.(i) <- d.buf.((d.head + i) mod n)
    done;
    d.buf <- nb;
    d.head <- 0

  let push_bottom d t =
    Mutex.lock d.lock;
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- Some t;
    d.len <- d.len + 1;
    Mutex.unlock d.lock

  let pop_bottom d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        let i = (d.head + d.len - 1) mod Array.length d.buf in
        let t = d.buf.(i) in
        d.buf.(i) <- None;
        d.len <- d.len - 1;
        t
      end
    in
    Mutex.unlock d.lock;
    r

  let steal d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        let t = d.buf.(d.head) in
        d.buf.(d.head) <- None;
        d.head <- (d.head + 1) mod Array.length d.buf;
        d.len <- d.len - 1;
        t
      end
    in
    Mutex.unlock d.lock;
    r
end

(* Process-wide counters across every pool, feeding the Obs stats
   registry (and the [--stats-json] dump). *)
type totals = { submitted : int; run : int; stolen : int; spawned : int }

let n_submitted = Atomic.make 0
let n_run = Atomic.make 0
let n_stolen = Atomic.make 0
let n_spawned = Atomic.make 0
let max_workers = Atomic.make 0

let totals () =
  {
    submitted = Atomic.get n_submitted;
    run = Atomic.get n_run;
    stolen = Atomic.get n_stolen;
    spawned = Atomic.get n_spawned;
  }

let reset_totals () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ n_submitted; n_run; n_stolen; n_spawned ]

let () =
  Obs.register_stats ~name:"pool" (fun () ->
      Obs.Assoc
        [
          ("workers", Obs.Int (Atomic.get max_workers));
          ("spawned", Obs.Int (Atomic.get n_spawned));
          ("submitted", Obs.Int (Atomic.get n_submitted));
          ("run", Obs.Int (Atomic.get n_run));
          ("stolen", Obs.Int (Atomic.get n_stolen));
        ])

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fstate : 'a state Atomic.t;
  flock : Mutex.t;
  fcond : Condition.t;  (* signalled on completion, for foreign waiters *)
}

type t = {
  workers : int;  (* most worker domains it runs; 0 = sequential *)
  deques : Deque.t array;  (* one per worker *)
  injector : Deque.t;  (* submissions from outside the pool *)
  plock : Mutex.t;
  work_available : Condition.t;
  mutable pending : int;  (* tasks enqueued and not yet picked up *)
  mutable idle : int;  (* workers blocked on [work_available] *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;  (* spawned so far, newest first *)
}

(* Identifies the pool and worker index of the current domain, so that
   [submit] can target the worker's own deque and [await] can help. *)
let ctx_key : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Any integer is a valid request: negative sizes clamp to sequential,
   like [create ~size]; only unparseable values warn and fall back. *)
let default_size () =
  max 0 (Env.int "POWERLIM_JOBS" ~default:(Domain.recommended_domain_count ()))

let size pool = pool.workers
let parallelism pool = max 1 pool.workers

(* ---- queue plumbing ---------------------------------------------- *)

let took pool =
  Mutex.lock pool.plock;
  pool.pending <- pool.pending - 1;
  Mutex.unlock pool.plock

(* Own deque bottom first, then the injector, then steal round-robin
   from the other workers. *)
let find_task pool wid =
  let own =
    if wid >= 0 then Deque.pop_bottom pool.deques.(wid) else None
  in
  match own with
  | Some _ as t -> t
  | None -> (
      match Deque.steal pool.injector with
      | Some _ as t -> t
      | None ->
          let n = pool.workers in
          let rec scan k =
            if k >= n then None
            else
              let v = (wid + 1 + k) mod n in
              if v = wid then scan (k + 1)
              else
                match Deque.steal pool.deques.(v) with
                | Some _ as t ->
                    Atomic.incr n_stolen;
                    t
                | None -> scan (k + 1)
          in
          scan 0)

(* Run one queued task if any is available.  Returns false when every
   queue came up empty. *)
let try_run_one pool wid =
  match find_task pool wid with
  | Some task ->
      took pool;
      Atomic.incr n_run;
      task ();
      true
  | None -> false

let rec worker_loop pool wid =
  if try_run_one pool wid then worker_loop pool wid
  else begin
    Mutex.lock pool.plock;
    if pool.stop && pool.pending = 0 then Mutex.unlock pool.plock
    else if pool.pending > 0 then begin
      (* a task exists but another worker may be racing us to it *)
      Mutex.unlock pool.plock;
      Domain.cpu_relax ();
      worker_loop pool wid
    end
    else begin
      pool.idle <- pool.idle + 1;
      Condition.wait pool.work_available pool.plock;
      pool.idle <- pool.idle - 1;
      Mutex.unlock pool.plock;
      worker_loop pool wid
    end
  end

(* Under [plock].  Workers are spawned on demand and kept: a pool that is
   never handed a task costs no domain, and so takes no part in the
   stop-the-world minor collections every live domain joins. *)
let spawn_locked pool =
  let wid = List.length pool.domains in
  let d =
    Domain.spawn (fun () ->
        Domain.DLS.set ctx_key (Some (pool, wid));
        worker_loop pool wid)
  in
  pool.domains <- d :: pool.domains;
  Atomic.incr n_spawned

(* A task that finds no idle worker to take it gets a new one, up to the
   pool size.  [Mutex.protect]: a failed spawn must not leave [plock]
   held. *)
let enqueue pool dq task =
  Mutex.protect pool.plock (fun () ->
      pool.pending <- pool.pending + 1;
      Deque.push_bottom dq task;
      if
        pool.pending > pool.idle
        && List.length pool.domains < pool.workers
        && not pool.stop
      then spawn_locked pool;
      Condition.broadcast pool.work_available)

(* ---- futures ------------------------------------------------------ *)

let fulfill fut st =
  Atomic.set fut.fstate st;
  Mutex.lock fut.flock;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.flock

(* The span must close before [fulfill] publishes the result: a waiter
   that observes the future done may export the trace immediately, and
   the atomic state write orders the 'E' append before that read, so an
   observable-complete task always has a balanced span. *)
let run_into fut f =
  match Obs.span ~cat:"pool" "task" f with
  | v -> fulfill fut (Done v)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      fulfill fut (Failed (e, bt))

let make_future () =
  {
    fstate = Atomic.make Pending;
    flock = Mutex.create ();
    fcond = Condition.create ();
  }

let submit pool f =
  let fut = make_future () in
  Atomic.incr n_submitted;
  if pool.workers = 0 then begin
    Atomic.incr n_run;
    run_into fut f
  end
  else begin
    let task () = run_into fut f in
    let dq =
      match Domain.DLS.get ctx_key with
      | Some (p, wid) when p == pool -> pool.deques.(wid)
      | _ -> pool.injector
    in
    enqueue pool dq task
  end;
  fut

let unwrap = function
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let await fut =
  match Atomic.get fut.fstate with
  | (Done _ | Failed _) as s -> unwrap s
  | Pending -> (
      match Domain.DLS.get ctx_key with
      | Some (pool, wid) ->
          (* worker: keep the pool busy while we wait, so nested
             submit/await cannot starve a fixed-size pool.  Only block
             once no task is queued anywhere -- every pending task is
             then running on some domain and progress is guaranteed. *)
          let rec help () =
            match Atomic.get fut.fstate with
            | (Done _ | Failed _) as s -> unwrap s
            | Pending ->
                if try_run_one pool wid then help ()
                else begin
                  Mutex.lock pool.plock;
                  let queued = pool.pending > 0 in
                  Mutex.unlock pool.plock;
                  if queued then Domain.cpu_relax ()
                  else begin
                    Mutex.lock fut.flock;
                    (match Atomic.get fut.fstate with
                    | Pending -> Condition.wait fut.fcond fut.flock
                    | Done _ | Failed _ -> ());
                    Mutex.unlock fut.flock
                  end;
                  help ()
                end
          in
          help ()
      | None ->
          Mutex.lock fut.flock;
          let rec wait () =
            match Atomic.get fut.fstate with
            | Pending ->
                Condition.wait fut.fcond fut.flock;
                wait ()
            | s -> s
          in
          let s = wait () in
          Mutex.unlock fut.flock;
          unwrap s)

let parallel_map pool f xs =
  let futs = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await futs

(* ---- lifecycle ---------------------------------------------------- *)

let create ?size () =
  let requested = match size with Some s -> max 0 s | None -> default_size () in
  let workers = if requested <= 1 then 0 else requested in
  let pool =
    {
      workers;
      deques = Array.init workers (fun _ -> Deque.create ());
      injector = Deque.create ();
      plock = Mutex.create ();
      work_available = Condition.create ();
      pending = 0;
      idle = 0;
      stop = false;
      domains = [];
    }
  in
  if workers > Atomic.get max_workers then Atomic.set max_workers workers;
  pool

let shutdown pool =
  if pool.workers > 0 then begin
    Mutex.lock pool.plock;
    let already = pool.stop in
    pool.stop <- true;
    Condition.broadcast pool.work_available;
    let domains = pool.domains in
    Mutex.unlock pool.plock;
    if not already then List.iter Domain.join domains
  end

let default_pool = ref None
let default_lock = Mutex.create ()

let get_default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        at_exit (fun () -> shutdown p);
        p
  in
  Mutex.unlock default_lock;
  p
