(** A whole machine: one or two cores over a shared L2 / interconnect.

    [run] executes a program per core to completion (or the cycle budget)
    and returns, per core, the commit trace plus the contention-state
    snapshots the fuzzer consumes. In the dual-core scenario of the paper's
    testcase template (Figure 4b), core 0 is the victim (it drives the
    monitoring window) and core 1 the attacker. *)

type core_input = {
  program : Sonar_isa.Program.t;
  secret_range : (int * int) option;
      (** static instruction-index range of the secret-dependent region *)
}

type core_result = {
  commits : Core_model.commit_record list;
  transient_executed : int;
}

type result = {
  cores : core_result array;
  cycles : int;  (** total cycles simulated *)
  snapshots : Cpoint.snapshot list;
      (** one per contention point, in registration order: what the
          detector compares, and what coverage and feedback read *)
  window : (int * int) option;  (** monitoring-window bounds, cycles *)
  hit_cycle_limit : bool;
}

type dual_stats = {
  fork_cycle : int option;
      (** cycle at which the checkpoint was captured, when one was *)
  cycles_saved : int;
      (** simulated cycles run 1 skipped by resuming from the checkpoint
          (0 when checkpointing was off, not viable, or never captured) *)
}

(** Reusable run context: keeps one machine per core count — the
    contention-point registry, the memory hierarchy and the cores, the
    dominant per-run heap allocations (cache line arrays, point tables,
    pipeline structures) — across {!run} calls. The first run at a core
    count builds the machine and clones its cold state; every later run
    copies that clone back, so a reused machine is a fresh one. A run
    without a context runs on a fresh one. A context is {e not}
    thread-safe: keep one per domain (the executor keeps one per worker
    in a [Domain.DLS] key). Results are
    bit-identical with and without a context — asserted by the tests — so
    reuse is purely a throughput optimisation: it is what keeps the
    parallel execute phase from serialising on stop-the-world minor
    collections. *)
module Ctx : sig
  type t

  val create : Config.t -> t
  (** Cheap; the machine for a core count is built on the first {!run}
      at that count. *)

  val config : t -> Config.t

  val fingerprint : t -> int
  (** {!Config.fingerprint} of the context's configuration, precomputed at
      {!create} — the cheap cache-lookup key the executor's scratch-context
      table compares instead of structural config equality. *)

  val cycles_stepped : t -> int
  (** Machine cycles actually stepped by the runs under this context so
      far. A run jumps over the cycles in which no stage can act, so this
      is at most the model cycles those runs simulated. It lives here,
      not in any result, so that results stay the same whether or not
      cycles are skipped. *)

  val core_steps : t -> int
  (** Core steps taken by the runs under this context so far: a stepped
      machine cycle steps only the cores whose wake bound has come, so
      this is at most the core count times {!cycles_stepped}, and is
      exactly that under {!Stepped}. Like {!cycles_stepped}, it lives
      here so that results do not depend on it. *)
end

val run :
  ?max_cycles:int -> ?ctx:Ctx.t -> Config.t -> core_input array -> result
(** @raise Invalid_argument on 0 or more than 2 cores, or when [ctx] was
    created for a different configuration. *)

val run_dual :
  ?max_cycles:int ->
  ?ctx:Ctx.t ->
  ?checkpoint:bool ->
  Config.t ->
  core_input array ->
  core_input array ->
  result * result * dual_stats
(** Run the same machine under two secrets. With [checkpoint] (default
    [true]), run 0 executes in full while the machine state is snapshotted
    at the top of the first cycle in which a secret-divergent instruction
    could reach a pipeline stage that reads the divergence: fetch, for
    instructions whose {e fetch-visible} effects (pc, opcode, branch
    direction, fault) differ; issue, for instructions differing only in
    {e backend-read} fields (memory addresses, mul/div latency operands),
    which may be fetched and dispatched freely — no stage before issue
    reads them — and are snapshotted only once their source operands could
    be ready, riding out the dependency chains in front of them.
    Divergence confined to fields the timing model never reads (loaded or
    stored data, ALU results) forces no snapshot at all: such runs
    capture at the final cycle and run 1 is skipped entirely. Run 1
    otherwise restores the snapshot, re-points divergent fetch-buffer,
    ROB, store-buffer and commit-log entries at its own golden trace, and
    resumes from the capture cycle, skipping the shared prefix. Golden
    simulation of a core whose program is identical across secrets (the
    attacker core) runs once and is shared, and such a core has no fork,
    so the capture test never looks at it. Where each core's traces fork
    and when a fork is due for capture are {!Core_model.forks} and
    {!Core_model.capture_due}. Both results are bit-identical
    to two independent {!run} calls — the determinism invariant the
    equivalence tests assert — so checkpointing is purely a
    simulated-cycle optimisation.
    @raise Invalid_argument on 0 or more than 2 cores, mismatched core
    counts, or a [ctx] for a different configuration. *)

(** The same runs with the quiet-cycle jump and per-core sleeping
    disabled: every model cycle steps every core. Results equal {!run}'s
    and {!run_dual}'s exactly; the differential tests hold the jump and
    the sleeping to that. *)
module Stepped : sig
  val run :
    ?max_cycles:int -> ?ctx:Ctx.t -> Config.t -> core_input array -> result

  val run_dual :
    ?max_cycles:int ->
    ?ctx:Ctx.t ->
    ?checkpoint:bool ->
    Config.t ->
    core_input array ->
    core_input array ->
    result * result * dual_stats
end

val run_single :
  ?max_cycles:int ->
  ?ctx:Ctx.t ->
  ?secret_range:(int * int) option ->
  Config.t ->
  Sonar_isa.Program.t ->
  result
