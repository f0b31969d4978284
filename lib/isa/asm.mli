(** Assembler conveniences: pseudo-instructions and program building.

    Generated testcases compose instruction lists; these helpers cover the
    common pseudo-instructions (nop, li) including full 64-bit constant
    materialisation, which needs an instruction sequence. *)

val nop : Instr.t

val li : Reg.t -> int64 -> Instr.t list
(** Materialise an arbitrary 64-bit constant (1-8 instructions; the
    recursive lui/addiw/slli strategy real assemblers use). *)

val halt : Instr.t
(** [ebreak] — terminates golden-model and timing-model execution. *)
