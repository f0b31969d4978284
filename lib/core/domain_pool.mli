(** A fixed pool of {!Domain.t} workers with future-returning submission.

    The pool backs every parallel stage of the pipeline: the executor fans
    the two secret-runs of a testcase pair across it, the fuzzer executes a
    whole generation of candidates on it, and the bench harness runs
    independent per-DUT computations on it concurrently.

    Scheduling is work-stealing-lite: tasks go through one shared queue, and
    {!await} {e helps} — while the awaited future is pending it pops and
    runs queued tasks itself instead of blocking. This keeps nested
    submission (a pooled task that itself submits and awaits subtasks)
    deadlock-free and lets the submitting domain contribute a full worker's
    throughput during fork-join phases.

    Determinism: the pool only affects {e when} a task runs, never its
    inputs; all Sonar tasks are pure functions of their arguments (the
    machine model allocates all mutable state per run), so results are
    independent of worker count and scheduling order. *)

type t

val default_jobs : unit -> int
(** Pool size used when none is given: [SONAR_JOBS] if set to a positive
    integer, else {!Domain.recommended_domain_count}. Always at least 1. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] worker domains (default {!default_jobs},
    clamped to at least 1). *)

val jobs : t -> int

val shutdown : t -> unit
(** Finish queued tasks, join all workers. Idempotent. Submitting to a
    shut-down pool raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, [shutdown] (also on exception). *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task; it runs on some worker (or inside an {!await}). *)

val await : 'a future -> 'a
(** Block until the future completes, helping to run queued tasks in the
    meantime. Re-raises the task's exception (with its backtrace) if it
    failed. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]: submit one task per element, await in order. *)

(** {2 Worker-local storage}

    Scratch state a task can reuse across the tasks that happen to run on
    the same domain — e.g. the executor's per-worker {!Sonar_uarch.Machine.Ctx}
    run contexts, which keep the simulation hot loop from re-allocating
    cache and contention-point tables on every testcase. Values are
    per-domain (the helping {!await} means the submitting domain can also
    run tasks, and gets its own value), initialised lazily on first {!get}.

    Determinism caveat: worker-local values persist across tasks, so a task
    must never let them influence its {e result} — only its speed. Reused
    contexts are restored to cold start at acquisition and tested to be
    bit-identical to fresh ones. *)

type 'a key

val create_key : (unit -> 'a) -> 'a key
(** [create_key init] declares a worker-local slot; each domain that calls
    {!get} materialises its own value with [init] on first access. *)

val get : 'a key -> 'a
(** This domain's value for [key], created with the key's initialiser on
    first access. Usable from pool workers and ordinary domains alike. *)

val run_on_each : t -> (unit -> unit) -> unit
(** Run [f] exactly once on every worker domain of the pool and wait for
    all of them — e.g. to eagerly initialise worker-local state before a
    timed section. Blocks until every worker has run [f]; do not call it
    while long-running tasks are still queued (the barrier waits for every
    worker to become available). *)
