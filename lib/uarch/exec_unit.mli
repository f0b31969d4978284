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

val try_issue_alu : t -> cycle:int -> tainted:bool -> int option
(** Completion cycle if an ALU slot is free this cycle. *)

val try_issue_mul : t -> cycle:int -> operand:int64 -> tainted:bool -> int option
val try_issue_div : t -> cycle:int -> operand:int64 -> tainted:bool -> int option
(** Divide latency is operand-dependent (quotient width). [None] = unit
    busy; the refused request is recorded at the unit's contention point. *)

val try_issue_mem : t -> cycle:int -> tainted:bool -> bool
(** A memory-unit (address-generation) slot this cycle. *)

val request_writeback : t -> wb_class -> id:int -> cycle:int -> tainted:bool -> unit
(** Register a completed operation wanting a response port. *)

val arbitrate_writeback : t -> cycle:int -> int list
(** Ids granted a response port this cycle (ALU > MUL > DIV > MEM priority,
    then oldest id first); losers stay queued. *)

val purge_writeback : t -> keep:(int -> bool) -> unit
(** Drop queued writeback requests whose id fails [keep] (pipeline squash). *)

val div_latency : Config.t -> int64 -> int
val mul_latency : Config.t -> int

val reset : t -> unit
(** Return the pool to its just-created dynamic state (issue accounting
    zeroed, units idle, writeback queue empty). Contention points stay
    registered. *)

type save

val make_save : unit -> save
val capture : t -> save -> unit
val restore : t -> save -> unit
