(** RV64 instruction abstract syntax.

    Covers the subset exercised by Sonar's testcases on both DUTs: RV64I
    integer ops, the M extension (multiply/divide), loads/stores, branches
    and jumps, LR/SC (for the store-conditional channel S10), CSR reads (for
    cycle-counter timing measurements), and ECALL/MRET for privilege
    transitions in the Meltdown template. *)

type rop =
  | ADD | SUB | SLL | SRL | SRA | SLT | SLTU | AND | OR | XOR
  | ADDW | SUBW | SLLW | SRLW | SRAW
  | MUL | MULH | MULHSU | MULHU | DIV | DIVU | REM | REMU
  | MULW | DIVW | DIVUW | REMW | REMUW

type iop =
  | ADDI | SLTI | SLTIU | ANDI | ORI | XORI | SLLI | SRLI | SRAI
  | ADDIW | SLLIW | SRLIW | SRAIW

type load_op = LB | LH | LW | LD | LBU | LHU | LWU
type store_op = SB | SH | SW | SD
type branch_op = BEQ | BNE | BLT | BGE | BLTU | BGEU

type csr_op = CSRRW | CSRRS | CSRRC

type t =
  | Rtype of rop * Reg.t * Reg.t * Reg.t  (** op rd rs1 rs2 *)
  | Itype of iop * Reg.t * Reg.t * int  (** op rd rs1 imm *)
  | Load of load_op * Reg.t * Reg.t * int  (** rd, base, offset *)
  | Store of store_op * Reg.t * Reg.t * int  (** rs2 (data), base, offset *)
  | Branch of branch_op * Reg.t * Reg.t * int  (** rs1 rs2 byte-offset *)
  | Jal of Reg.t * int  (** rd, byte-offset *)
  | Jalr of Reg.t * Reg.t * int  (** rd, base, offset *)
  | Lui of Reg.t * int  (** rd, 20-bit immediate *)
  | Auipc of Reg.t * int
  | Csr of csr_op * Reg.t * Reg.t * int  (** op rd rs1 csr-address *)
  | Lr_d of Reg.t * Reg.t  (** rd, address base *)
  | Sc_d of Reg.t * Reg.t * Reg.t  (** rd, data, address base *)
  | Fence
  | Ecall
  | Ebreak
  | Mret

val uses_mul_div : t -> bool
(** Executes on a multiply/divide unit. *)

val is_load : t -> bool
val is_store : t -> bool
val is_branch : t -> bool
(** Conditional branches and jumps. *)

val dest : t -> Reg.t option
(** Destination register, if it writes one (x0 destinations return [None]). *)

val source : t -> int -> int
(** [source i k]: the number of the [k]-th source register [i] reads
    ([k] 0 or 1; x0 included), or -1 when it reads fewer than [k + 1].
    Allocates nothing. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
