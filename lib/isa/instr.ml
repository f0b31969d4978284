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
  | Rtype of rop * Reg.t * Reg.t * Reg.t
  | Itype of iop * Reg.t * Reg.t * int
  | Load of load_op * Reg.t * Reg.t * int
  | Store of store_op * Reg.t * Reg.t * int
  | Branch of branch_op * Reg.t * Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Auipc of Reg.t * int
  | Csr of csr_op * Reg.t * Reg.t * int
  | Lr_d of Reg.t * Reg.t
  | Sc_d of Reg.t * Reg.t * Reg.t
  | Fence
  | Ecall
  | Ebreak
  | Mret

let uses_mul_div = function
  | Rtype
      ( (MUL | MULH | MULHSU | MULHU | DIV | DIVU | REM | REMU | MULW | DIVW
        | DIVUW | REMW | REMUW),
        _,
        _,
        _ ) ->
      true
  | _ -> false

let is_load = function Load _ | Lr_d _ -> true | _ -> false
let is_store = function Store _ | Sc_d _ -> true | _ -> false
let is_branch = function Branch _ | Jal _ | Jalr _ -> true | _ -> false

let dest = function
  | Rtype (_, rd, _, _)
  | Itype (_, rd, _, _)
  | Load (_, rd, _, _)
  | Jal (rd, _)
  | Jalr (rd, _, _)
  | Lui (rd, _)
  | Auipc (rd, _)
  | Csr (_, rd, _, _)
  | Lr_d (rd, _)
  | Sc_d (rd, _, _) ->
      if Reg.equal rd Reg.x0 then None else Some rd
  | Store _ | Branch _ | Fence | Ecall | Ebreak | Mret -> None

let source i k =
  let one a = if k = 0 then Reg.to_int a else -1 in
  let two a b = Reg.to_int (if k = 0 then a else b) in
  match i with
  | Rtype (_, _, rs1, rs2) | Branch (_, rs1, rs2, _) -> two rs1 rs2
  | Store (_, data, base, _) | Sc_d (_, data, base) -> two data base
  | Itype (_, _, rs1, _) | Csr (_, _, rs1, _) -> one rs1
  | Load (_, _, base, _) | Jalr (_, base, _) | Lr_d (_, base) -> one base
  | Jal _ | Lui _ | Auipc _ | Fence | Ecall | Ebreak | Mret -> -1

(* A match per constructor: the fork rule compares many instructions per
   dual run, and the polymorphic [=] pays a [caml_equal] call for each.
   The operation enums are constant constructors, so their [=] is an int
   compare. *)
let equal a b =
  let r = Reg.equal in
  match (a, b) with
  | Rtype (o, d, s1, s2), Rtype (o', d', s1', s2') ->
      (o : rop) = o' && r d d' && r s1 s1' && r s2 s2'
  | Itype (o, d, s, i), Itype (o', d', s', i') ->
      (o : iop) = o' && r d d' && r s s' && i = i'
  | Load (o, d, s, i), Load (o', d', s', i') ->
      (o : load_op) = o' && r d d' && r s s' && i = i'
  | Store (o, d, s, i), Store (o', d', s', i') ->
      (o : store_op) = o' && r d d' && r s s' && i = i'
  | Branch (o, s1, s2, i), Branch (o', s1', s2', i') ->
      (o : branch_op) = o' && r s1 s1' && r s2 s2' && i = i'
  | Jal (d, i), Jal (d', i') | Lui (d, i), Lui (d', i') | Auipc (d, i), Auipc (d', i')
    ->
      r d d' && i = i'
  | Jalr (d, s, i), Jalr (d', s', i') -> r d d' && r s s' && i = i'
  | Csr (o, d, s, i), Csr (o', d', s', i') ->
      (o : csr_op) = o' && r d d' && r s s' && i = i'
  | Lr_d (d, s), Lr_d (d', s') -> r d d' && r s s'
  | Sc_d (d, s1, s2), Sc_d (d', s1', s2') -> r d d' && r s1 s1' && r s2 s2'
  | Fence, Fence | Ecall, Ecall | Ebreak, Ebreak | Mret, Mret -> true
  | ( ( Rtype _ | Itype _ | Load _ | Store _ | Branch _ | Jal _ | Jalr _ | Lui _
      | Auipc _ | Csr _ | Lr_d _ | Sc_d _ | Fence | Ecall | Ebreak | Mret ),
      _ ) ->
      false

let rop_name = function
  | ADD -> "add" | SUB -> "sub" | SLL -> "sll" | SRL -> "srl" | SRA -> "sra"
  | SLT -> "slt" | SLTU -> "sltu" | AND -> "and" | OR -> "or" | XOR -> "xor"
  | ADDW -> "addw" | SUBW -> "subw" | SLLW -> "sllw" | SRLW -> "srlw"
  | SRAW -> "sraw" | MUL -> "mul" | MULH -> "mulh" | MULHSU -> "mulhsu"
  | MULHU -> "mulhu" | DIV -> "div" | DIVU -> "divu" | REM -> "rem"
  | REMU -> "remu" | MULW -> "mulw" | DIVW -> "divw" | DIVUW -> "divuw"
  | REMW -> "remw" | REMUW -> "remuw"

let iop_name = function
  | ADDI -> "addi" | SLTI -> "slti" | SLTIU -> "sltiu" | ANDI -> "andi"
  | ORI -> "ori" | XORI -> "xori" | SLLI -> "slli" | SRLI -> "srli"
  | SRAI -> "srai" | ADDIW -> "addiw" | SLLIW -> "slliw" | SRLIW -> "srliw"
  | SRAIW -> "sraiw"

let load_name = function
  | LB -> "lb" | LH -> "lh" | LW -> "lw" | LD -> "ld" | LBU -> "lbu"
  | LHU -> "lhu" | LWU -> "lwu"

let store_name = function SB -> "sb" | SH -> "sh" | SW -> "sw" | SD -> "sd"

let branch_name = function
  | BEQ -> "beq" | BNE -> "bne" | BLT -> "blt" | BGE -> "bge" | BLTU -> "bltu"
  | BGEU -> "bgeu"

let csr_name = function CSRRW -> "csrrw" | CSRRS -> "csrrs" | CSRRC -> "csrrc"

let pp fmt = function
  | Rtype (op, rd, rs1, rs2) ->
      Format.fprintf fmt "%s %a, %a, %a" (rop_name op) Reg.pp rd Reg.pp rs1
        Reg.pp rs2
  | Itype (op, rd, rs1, imm) ->
      Format.fprintf fmt "%s %a, %a, %d" (iop_name op) Reg.pp rd Reg.pp rs1 imm
  | Load (op, rd, base, off) ->
      Format.fprintf fmt "%s %a, %d(%a)" (load_name op) Reg.pp rd off Reg.pp base
  | Store (op, data, base, off) ->
      Format.fprintf fmt "%s %a, %d(%a)" (store_name op) Reg.pp data off Reg.pp
        base
  | Branch (op, rs1, rs2, off) ->
      Format.fprintf fmt "%s %a, %a, %d" (branch_name op) Reg.pp rs1 Reg.pp rs2
        off
  | Jal (rd, off) -> Format.fprintf fmt "jal %a, %d" Reg.pp rd off
  | Jalr (rd, base, off) ->
      Format.fprintf fmt "jalr %a, %d(%a)" Reg.pp rd off Reg.pp base
  | Lui (rd, imm) -> Format.fprintf fmt "lui %a, %d" Reg.pp rd imm
  | Auipc (rd, imm) -> Format.fprintf fmt "auipc %a, %d" Reg.pp rd imm
  | Csr (op, rd, rs1, csr) ->
      Format.fprintf fmt "%s %a, 0x%x, %a" (csr_name op) Reg.pp rd csr Reg.pp rs1
  | Lr_d (rd, base) -> Format.fprintf fmt "lr.d %a, (%a)" Reg.pp rd Reg.pp base
  | Sc_d (rd, data, base) ->
      Format.fprintf fmt "sc.d %a, %a, (%a)" Reg.pp rd Reg.pp data Reg.pp base
  | Fence -> Format.pp_print_string fmt "fence"
  | Ecall -> Format.pp_print_string fmt "ecall"
  | Ebreak -> Format.pp_print_string fmt "ebreak"
  | Mret -> Format.pp_print_string fmt "mret"

let to_string i = Format.asprintf "%a" pp i
