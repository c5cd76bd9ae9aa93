(** Fixed-size worker pool on OCaml 5 domains, with crash isolation.

    A FIFO task queue guarded by a mutex/condition pair feeds [jobs]
    worker domains. Submitting returns a future; awaiting re-raises the
    task's exception (with its backtrace) at the join point, so parallel
    failures surface exactly where sequential ones would. Shutdown is
    graceful: queued tasks drain before the domains are joined.

    A poisoned task — an exception escaping the task wrapper itself, as
    injected by {!Fault.Inject} worker-crash decisions — fails alone: its
    future is failed (joiners never hang), the crash is counted, and the
    pool spawns a replacement domain and keeps draining. With [metrics],
    crashes and respawns appear as [pool.worker_crashes] /
    [pool.respawns]. *)

type t

type 'a future

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)] — leave one core to
    the submitting domain. *)

val create : ?metrics:Metrics.t -> ?jobs:int -> unit -> t
(** Spawn the worker domains. [jobs] defaults to {!default_jobs}; it is
    clamped to at least 1. With [metrics], the pool maintains the
    [pool.tasks] counter, the [pool.queue_depth] gauge, per-domain
    [pool.domain<i>.busy_s] gauges and the [pool.task_latency_s]
    histogram. *)

val jobs : t -> int

val crashes : t -> int
(** Worker domains poisoned (and replaced) so far. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task completed; re-raise its exception if it failed. *)

val await_result : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Blocking fan-in that never raises: the task's failure is a value, so
    a caller draining many futures can collect every outcome before
    deciding what to re-raise. *)

val run_all : t -> (unit -> 'a) array -> 'a array
(** Submit every thunk, then await them in submission order. Every
    future is drained — a failing task never abandons its queued
    siblings — and only then is the failure with the smallest submission
    index re-raised (what a sequential run would have hit first, not the
    first to fail in wall time). *)

exception Shutdown
(** Failure recorded on a queued-but-unstarted task's future when
    {!shutdown} discards it: joiners unblock with this instead of waiting
    on work that will never start. *)

val drain : t -> unit
(** Graceful stop: reject new submissions ({!submit} raises from here
    on), finish every queued and inflight task, then join every worker
    domain ever spawned — including replacements for crashed workers and
    the corpses they replaced. Idempotent and safe under concurrent
    callers: every caller blocks until the pool is fully stopped, no
    matter who got there first or how many workers died mid-task. *)

val shutdown : t -> unit
(** Fast stop: like {!drain}, but queued tasks that no worker has started
    yet are discarded — their futures fail with {!Shutdown} — so only
    tasks already inflight run to completion before the domains are
    joined. Same idempotence and concurrent-caller guarantees as
    {!drain}. The entry point for signal handlers. *)

val with_pool : ?metrics:Metrics.t -> ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!drain} even on exceptions. *)
