(** Cycle-accurate out-of-order core timing model.

    Trace-driven: the golden model supplies the dynamic instruction stream
    (architectural trace plus, for every faulting instruction, the
    transient sequential continuation with forwarded data). The pipeline
    model fetches through the ICache, dispatches into a ROB, issues
    out-of-order under resource constraints (ALUs, multiplier, divider,
    memory unit, writeback ports), accesses the shared memory system, and
    commits in order, recording each architectural instruction's commit
    cycle — the raw signal behind the CCD metric (§7.1).

    Exception policy follows the configuration: with {!Config.Lazy_at_commit}
    a faulting instruction squashes younger (transient) work only when it
    reaches the commit head; with {!Config.Early_at_execute} the squash
    happens as soon as it issues, keeping the transient window shut. *)

type commit_record = {
  c_eff : Sonar_isa.Golden.effect;
  c_cycle : int;  (** commit cycle *)
  c_dispatch : int;  (** cycle the instruction entered the ROB *)
}

type t

val create :
  Config.t -> Cpoint.registry -> Memsys.t -> core_id:int -> drives_window:bool -> t
(** A cold core: its contention points registered, its pipeline empty and
    no program armed. A core that [drives_window] opens and closes the
    registry's monitoring window (core 0 of a machine). *)

val prepare :
  t ->
  outcome:Sonar_isa.Golden.outcome ->
  secret_range:(int * int) option ->
  unit
(** Arm the core for a run: the golden trace and transient continuations
    it replays, and [secret_range], the static instruction-index range of
    the secret-dependent region. A window-driving core opens the window
    when the first such instruction dispatches and closes it when the
    last commits; with no range, [prepare] opens it at once. Only this
    arming changes: the pipeline, predictor and execution units keep
    their dynamic state, which {!restore} rewinds — to cold start, from a
    {!capture} of a fresh core (see {!Machine.Ctx}). *)

val step : t -> cycle:int -> unit
(** Advance all pipeline stages by one cycle. Issue and completion visit
    the ROB oldest first and stop once they have seen every [Dispatched]
    uop, or every uop in flight, that the ROB held when they began. *)

val next_wake : t -> cycle:int -> int
(** A lower bound, greater than [cycle], on the next cycle in which any
    stage of the core could act — change state or call the registry —
    given the state after [cycle]; [max_int] when the core waits only on
    {!Memsys} or on nothing. [cycle + 1] whenever something retries every
    cycle: a queued writeback, a [Drain_new] store, an issuable uop, a
    dispatchable fetch-buffer head or a fetchable line. It reads only the
    core's own state and its {!Memsys} ready tables, and is sound for any
    state. So the machine lets the core sleep until the bound while
    another core or {!Memsys} runs, and wakes it early only when a
    refill writes its ready tables ({!Memsys.take_woken}); and when
    nothing else acts, it skips every cycle below the bound. *)

(** {2 Dual-run fork rule}

    A dual run replays one testcase under two secrets; run 1 resumes from
    a checkpoint of run 0 taken before any stage reads a field on which
    the two golden traces disagree. This module decides which effect
    fields each stage reads, and so where each core's traces fork. *)

type fork = {
  value : int;
      (** The first trace position whose golden effects differ at all.
          A uop at or past it must not reach issue before the capture
          (issue reads values); it may be fetched and dispatched, and
          {!restore} re-points it at the other run's trace. *)
  fetch : int;
      (** Exclusive bound on what fetch may consume before the capture:
          the first position whose pc, instruction, branch direction or
          fault differs (or where one trace ends), pulled back onto an
          indirect jump just below it, whose prediction reads the next
          pc. *)
  exec : int;
      (** The first position whose backend-read fields differ: the
          memory address, the divide operand magnitude, and — only under
          a unified MDU, whose issue path records it as contention-point
          data — the multiply operand magnitude. Uops below it diverge
          only in loaded / stored data or ALU results, which the timing
          model never reads, so they may issue, complete and commit
          before the capture. *)
}
(** One core's fork positions, each capped at the first position whose
    transient continuation differs between the runs or exists in only
    one: fetch switches to a continuation in the cycle it consumes the
    faulting position, and transient uops cannot be re-pointed. *)

val no_fork : fork
(** All positions [max_int]: nothing constrains the capture. *)

val forks :
  Config.t -> Sonar_isa.Golden.outcome -> Sonar_isa.Golden.outcome -> fork
(** [forks cfg o0 o1] finds all three positions in one scan of the two
    golden traces, comparing each pair of transient continuations at most
    once. Physically shared outcomes (a core whose program does not
    depend on the secret) give {!no_fork}. *)

val capture_due : t -> fork -> cycle:int -> bool
(** The capture test at the top of [cycle], before any stage steps:
    fetch could consume a position at or past [fork.fetch], or a ROB uop
    at or past [fork.exec] could have a divergent field read — a store as
    soon as it is in the ROB (younger loads search store addresses), a
    load or mul/div once its operands could be ready for its own issue,
    which rides out the dependency chain delaying it. On a state that no
    stage changes, it only turns true as [cycle] grows. Always false for
    {!no_fork}. *)

type save
(** Preallocated checkpoint buffer for one core's dynamic pipeline state
    (fetch state, fetch buffer, ROB, store buffer, taint, predictor,
    execution units, commit log). The golden trace itself is not saved —
    {!prepare} supplies it. *)

val make_save : unit -> save
val capture : t -> save -> unit

val restore : ?fork:int -> t -> save -> unit
(** Overwrite the dynamic state with a captured checkpoint. When [fork]
    is given, fetch-buffer and ROB uops at trace positions ≥ [fork] are
    re-pointed at the {e current} golden trace (call {!prepare} with the
    new outcome first): such uops may carry the captured run's divergent
    values, which are unread until the uop's first post-dispatch issue
    opportunity — after the capture, by {!capture_due}; pass the
    core's [fork.value]. Default
    [max_int]: no re-pointing. Operand producer links are rebuilt from
    the restored ROB either way. *)

val finished : t -> bool
(** Trace fully committed and all buffers drained. *)

val commits : t -> commit_record list
(** Committed architectural instructions in commit order. *)

val transient_executed : t -> int
(** Transient micro-ops that issued before being squashed (the size of the
    Meltdown window actually exploited). *)
