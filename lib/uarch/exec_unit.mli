(** Execution-unit pool: ALUs, a pipelined integer multiplier, an
    unpipelined divider (BOOM) or a unified non-pipelined multiply-divide
    unit (NutShell), plus the shared writeback-port arbiter.

    Contention channels hosted here:
    - S8: completed ALU, IMUL and DIV operations contend for the shared
      response (writeback) ports; ALU responses win, others slip cycles.
    - S9: the divider is unpipelined — a younger division that enters first
      blocks an older one for the full operand-dependent latency.
    - S13: NutShell's MDU serves both multiplications and divisions and is
      non-pipelined, so any younger MUL/DIV occupying it stalls an older
      one. *)

type wb_class = Wb_alu | Wb_mul | Wb_div | Wb_mem

type t

val create : Config.t -> Cpoint.registry -> core:int -> t

val new_cycle : t -> unit
(** Reset per-cycle issue-slot accounting. Call at the top of each cycle. *)

val try_issue_alu : t -> cycle:int -> tainted:bool -> int
(** Completion cycle if an ALU slot is free this cycle, else -1. *)

val try_issue_mul : t -> cycle:int -> operand:int64 -> tainted:bool -> int
val try_issue_div : t -> cycle:int -> operand:int64 -> tainted:bool -> int
(** Completion cycle, or -1 when the unit is busy; the refused request is
    recorded at the unit's contention point. Divide latency is
    operand-dependent (quotient width). *)

val try_issue_mem : t -> cycle:int -> tainted:bool -> bool
(** A memory-unit (address-generation) slot this cycle. *)

val request_writeback : t -> wb_class -> id:int -> tainted:bool -> unit
(** Register a completed operation wanting a response port. *)

val writeback_pending : t -> bool
(** Some request is queued: {!arbitrate_writeback} will ask for a port
    next cycle, whatever else happens. *)

val arbitrate_writeback : t -> int
(** Grant this cycle's response ports; returns how many ids won, readable
    with {!granted}. Allocates nothing. The order contract, which the
    contention point's digest and intervals observe:
    - every queued request asks for a port, newest first;
    - the [wb_ports] smallest by (class, id) win — ALU > MUL > DIV > MEM
      priority, then oldest id — and are granted in that order;
    - losers stay queued in that order, with later requests ahead of
      them. *)

val granted : t -> int -> int
(** [granted t k]: the [k]-th id the last {!arbitrate_writeback} granted,
    for [k] below its result. *)

val purge_writeback : t -> keep:(int -> bool) -> unit
(** Drop queued writeback requests whose id fails [keep] (pipeline squash),
    keeping the others in order. *)

val div_latency : Config.t -> int64 -> int
val mul_latency : Config.t -> int

val clone : t -> t
(** A checkpoint of the pool: issue-slot and busy state and the queued
    writeback requests, in a queue of its own; it shares the
    configuration and contention points. *)

val copy : src:t -> dst:t -> unit
(** Make [dst] behave as [src]: capture is [copy ~src:live ~dst:ckpt],
    restore [copy ~src:ckpt ~dst:live]. *)
