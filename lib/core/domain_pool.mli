(** A fixed pool of {!Domain.t} workers with future-returning submission.

    The pool backs every parallel stage of the pipeline: the executor fans
    a generation's candidates across it in slices, and the bench harness
    runs independent per-DUT computations on it concurrently.

    Scheduling is work-stealing-lite: tasks go through one shared queue, and
    {!await} {e helps} — while the awaited future is pending it pops and
    runs queued tasks itself instead of blocking. This keeps nested
    submission (a pooled task that itself submits and awaits subtasks)
    deadlock-free and lets the submitting domain contribute a full worker's
    throughput during fork-join phases.

    Determinism: the pool only affects {e when} a task runs, never its
    inputs; all Sonar tasks are pure functions of their arguments (state a
    task keeps per domain, such as the executor's run contexts, changes its
    speed only), so results are independent of worker count and
    scheduling order. *)

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
