(** A bounded pool of worker domains with per-worker work-stealing
    deques, shared by every parallel stage of the system (the experiment
    sweeps, the MILP branch-and-bound, the benchmark harness).

    Design notes:

    - The pool runs at most [size] worker domains, spawned on demand:
      [create] starts none, and a queued task that finds no idle worker
      to take it spawns one more, up to [size].  An unused pool costs
      nothing, which matters because every live domain takes part in
      each stop-the-world minor collection: idle workers slow down a
      process that never hands them a task (EXPERIMENTS.md, bound-512).
    - Spawned workers stay until {!shutdown}.  A variant that retired
      idle workers once the queues drained, and spawned them again on
      the next burst, raised the serving daemon's peak RSS from 85–88
      MB to 117–136 MB on a two-core host.
    - Tasks submitted from outside the pool land in a shared injector
      queue; tasks submitted from a worker (nested submission) are
      pushed onto that worker's own deque and are executed LIFO by the
      owner, while idle workers steal FIFO from the other end — the
      classic work-stealing discipline that keeps nested fork/join jobs
      cache-local.
    - [await] called from a worker {e helps}: while its future is
      pending it keeps executing other queued tasks, so nested
      submit/await never deadlocks a bounded pool.
    - A pool of size [<= 1] degrades to sequential execution in the
      calling domain: [submit] runs the closure immediately.  All public
      entry points therefore behave identically (including exception
      behaviour and result ordering) at any pool size, which is what
      makes the POWERLIM_JOBS=1 vs =N determinism guarantee testable.
    - Exceptions raised by a task are captured with their backtrace and
      re-raised at [await]. *)

type t
(** A pool of worker domains (possibly zero of them: sequential). *)

type 'a future
(** The eventual result of a submitted task. *)

val default_size : unit -> int
(** Pool size chosen by the environment: [POWERLIM_JOBS] if set and
    parseable (clamped to [>= 0]), otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] makes a pool of up to [size] worker domains
    ([default_size ()] if omitted) and spawns none of them yet: they
    start as tasks are queued.  [size <= 1] creates a sequential pool
    that never spawns a domain. *)

val size : t -> int
(** Most worker domains the pool runs (0 for a sequential pool). *)

val parallelism : t -> int
(** Degree of parallelism for reporting: [max 1 (size t)]. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task.  On a sequential pool the task runs immediately in the
    calling domain. *)

val await : 'a future -> 'a
(** Wait for a task's result.  Re-raises (with the original backtrace)
    any exception the task raised.  Called from a pool worker it executes
    other queued tasks while waiting. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map pool f xs] maps [f] over [xs] with one task per
    element.  Results are returned in the order of [xs] regardless of
    completion order.  If several tasks raise, the exception of the
    earliest element is re-raised. *)

val shutdown : t -> unit
(** Stop and join the workers after the queues drain of running tasks.
    Idempotent.  Futures still pending from another domain's viewpoint
    must not be awaited after shutdown. *)

type totals = { submitted : int; run : int; stolen : int; spawned : int }
(** Process-wide counters across every pool: tasks submitted, tasks
    executed (sequential pools included), tasks obtained by stealing
    from another worker's deque, and worker domains spawned. *)

val totals : unit -> totals

val reset_totals : unit -> unit
(** Zero the process-wide counters (benchmarks and tests). *)

val get_default : unit -> t
(** The process-wide shared pool, created on first use with
    [default_size ()] and shut down automatically at exit.  All library
    hot paths (sweeps, MILP) draw from this pool unless handed an
    explicit one, so the whole process respects a single
    [POWERLIM_JOBS] setting. *)
