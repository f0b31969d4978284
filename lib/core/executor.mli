(** Testcase execution: one run per secret value.

    Runs start from cold machine state and are deterministic, so every
    timing difference between the two runs is caused by the secret — the
    differential setting the detector (§7) assumes. By default the two
    runs execute as a prefix-checkpointed dual run
    ({!Sonar_uarch.Machine.run_dual}): the shared prefix before the first
    secret-dependent instruction is simulated once, which is bit-identical
    to two full runs but skips [cp.cycles_saved] simulated cycles. *)

type pair = {
  run0 : Sonar_uarch.Machine.result;  (** secret = 0 *)
  run1 : Sonar_uarch.Machine.result;  (** secret = 1 *)
  cp : Sonar_uarch.Machine.dual_stats;
      (** checkpoint outcome for this dual run (fork cycle, cycles saved);
          deterministic per testcase, independent of jobs *)
}

val run_pair :
  ?ctx:Sonar_uarch.Machine.Ctx.t ->
  ?checkpoint:bool ->
  Sonar_uarch.Config.t ->
  (secret:int -> Sonar_uarch.Machine.core_input array) ->
  pair
(** Both secret-runs of the inputs [build ~secret] yields: the one run
    path, under {!execute_batch} and the hand-built channel scenarios.
    Without [ctx], runs on the calling domain's reusable scratch context —
    sequential callers get the same allocation reuse as pool workers.
    [checkpoint] (default [true]) toggles the prefix-checkpointed dual
    run. *)

val auto_chunk : jobs:int -> int -> int
(** [auto_chunk ~jobs n] is the slice size {!execute_batch} uses for a
    batch of [n] testcases on a [jobs]-worker pool: [n] split into
    roughly two slices per worker ([ceil (n / (2*jobs))], at least 1) —
    coarse enough to amortise per-task dispatch over many simulated runs,
    fine enough that a straggler slice does not idle the pool at the
    generation barrier. *)

val execute_batch :
  ?pool:Domain_pool.t ->
  ?checkpoint:bool ->
  Sonar_uarch.Config.t ->
  Testcase.t list ->
  (int -> pair -> unit) ->
  unit
(** [execute_batch cfg tcs f] executes every testcase and calls [f i pair]
    with each testcase's index in [tcs] and its pair, in input order, as
    soon as the pair exists. With [pool], the batch fans across it in
    {e slices} of {!auto_chunk} testcases — one pool task runs both
    secret-runs of a slice on its worker's reusable
    {!Sonar_uarch.Machine.Ctx} scratch context, kept in
    domain-local storage ([Domain.DLS]) so the hot loop allocates no
    cache or contention-point tables per testcase — and [f] sees a slice
    once it is awaited, while later slices still run. Sequential when no
    pool is given (the calling domain reuses its own scratch context), and
    [f] sees each pair right after it runs. Either way [f] runs only on
    the calling domain, in input order, so a caller's fold — and any
    telemetry it emits — is independent of the pool size, and a caller
    that keeps no pair past [f] keeps them out of the major heap.

    Pairs are element-wise identical to {!run_pair} per testcase for
    {e every} pool size: a reused context is restored to cold start per
    run and behaves bit-identically to a fresh machine (tested). *)

val min_intervals : pair -> ((string * int) * int) list
(** Per (contention point, source pair), the smaller of the two runs'
    minimum pairwise [reqsIntvl] (points that never saw two sources are
    absent). *)

val triggered : pair -> ((string * Sonar_uarch.Cpoint.kind * int) * float) list
(** Union over both runs of triggered sub-points, with the netlist weight
    ([fanout / max_subs]) each contributes to contention coverage. *)
