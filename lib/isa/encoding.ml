exception Encode_error of string

let ( <<< ) v n = Int32.shift_left v n
let ( ||| ) = Int32.logor
let ( &&& ) = Int32.logand

let check_range name v lo hi =
  if v < lo || v > hi then
    raise (Encode_error (Printf.sprintf "%s immediate %d out of [%d, %d]" name v lo hi))

let check_even name v = if v land 1 <> 0 then raise (Encode_error (name ^ " offset must be even"))

let reg r = Int32.of_int (Reg.to_int r)
let i32 = Int32.of_int

let r_format ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode =
  (funct7 <<< 25) ||| (rs2 <<< 20) ||| (rs1 <<< 15) ||| (funct3 <<< 12)
  ||| (rd <<< 7) ||| opcode

let i_format ~imm ~rs1 ~funct3 ~rd ~opcode =
  ((i32 imm &&& 0xFFFl) <<< 20)
  ||| (rs1 <<< 15) ||| (funct3 <<< 12) ||| (rd <<< 7) ||| opcode

let s_format ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  let imm = i32 imm in
  (((Int32.shift_right_logical imm 5) &&& 0x7Fl) <<< 25)
  ||| (rs2 <<< 20) ||| (rs1 <<< 15) ||| (funct3 <<< 12)
  ||| ((imm &&& 0x1Fl) <<< 7)
  ||| opcode

let b_format ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  let imm = i32 imm in
  let bit n = (Int32.shift_right_logical imm n) &&& 1l in
  let bits hi lo =
    (Int32.shift_right_logical imm lo) &&& (Int32.sub (1l <<< (hi - lo + 1)) 1l)
  in
  (bit 12 <<< 31) ||| (bits 10 5 <<< 25) ||| (rs2 <<< 20) ||| (rs1 <<< 15)
  ||| (funct3 <<< 12) ||| (bits 4 1 <<< 8) ||| (bit 11 <<< 7) ||| opcode

let u_format ~imm ~rd ~opcode = ((i32 imm &&& 0xFFFFFl) <<< 12) ||| (rd <<< 7) ||| opcode

let j_format ~imm ~rd ~opcode =
  let imm = i32 imm in
  let bit n = (Int32.shift_right_logical imm n) &&& 1l in
  let bits hi lo =
    (Int32.shift_right_logical imm lo) &&& (Int32.sub (1l <<< (hi - lo + 1)) 1l)
  in
  (bit 20 <<< 31) ||| (bits 10 1 <<< 21) ||| (bit 11 <<< 20)
  ||| (bits 19 12 <<< 12) ||| (rd <<< 7) ||| opcode

let op_opcode = 0b0110011l
let op32_opcode = 0b0111011l
let opimm_opcode = 0b0010011l
let opimm32_opcode = 0b0011011l
let load_opcode = 0b0000011l
let store_opcode = 0b0100011l
let branch_opcode = 0b1100011l
let jal_opcode = 0b1101111l
let jalr_opcode = 0b1100111l
let lui_opcode = 0b0110111l
let auipc_opcode = 0b0010111l
let system_opcode = 0b1110011l
let fence_opcode = 0b0001111l
let amo_opcode = 0b0101111l

let rop_fields : Instr.rop -> int32 * int32 * int32 = function
  (* funct7, funct3, opcode *)
  | ADD -> (0x00l, 0l, op_opcode)
  | SUB -> (0x20l, 0l, op_opcode)
  | SLL -> (0x00l, 1l, op_opcode)
  | SLT -> (0x00l, 2l, op_opcode)
  | SLTU -> (0x00l, 3l, op_opcode)
  | XOR -> (0x00l, 4l, op_opcode)
  | SRL -> (0x00l, 5l, op_opcode)
  | SRA -> (0x20l, 5l, op_opcode)
  | OR -> (0x00l, 6l, op_opcode)
  | AND -> (0x00l, 7l, op_opcode)
  | ADDW -> (0x00l, 0l, op32_opcode)
  | SUBW -> (0x20l, 0l, op32_opcode)
  | SLLW -> (0x00l, 1l, op32_opcode)
  | SRLW -> (0x00l, 5l, op32_opcode)
  | SRAW -> (0x20l, 5l, op32_opcode)
  | MUL -> (0x01l, 0l, op_opcode)
  | MULH -> (0x01l, 1l, op_opcode)
  | MULHSU -> (0x01l, 2l, op_opcode)
  | MULHU -> (0x01l, 3l, op_opcode)
  | DIV -> (0x01l, 4l, op_opcode)
  | DIVU -> (0x01l, 5l, op_opcode)
  | REM -> (0x01l, 6l, op_opcode)
  | REMU -> (0x01l, 7l, op_opcode)
  | MULW -> (0x01l, 0l, op32_opcode)
  | DIVW -> (0x01l, 4l, op32_opcode)
  | DIVUW -> (0x01l, 5l, op32_opcode)
  | REMW -> (0x01l, 6l, op32_opcode)
  | REMUW -> (0x01l, 7l, op32_opcode)

let iop_fields : Instr.iop -> int32 * int32 = function
  (* funct3, opcode *)
  | ADDI -> (0l, opimm_opcode)
  | SLTI -> (2l, opimm_opcode)
  | SLTIU -> (3l, opimm_opcode)
  | XORI -> (4l, opimm_opcode)
  | ORI -> (6l, opimm_opcode)
  | ANDI -> (7l, opimm_opcode)
  | SLLI -> (1l, opimm_opcode)
  | SRLI -> (5l, opimm_opcode)
  | SRAI -> (5l, opimm_opcode)
  | ADDIW -> (0l, opimm32_opcode)
  | SLLIW -> (1l, opimm32_opcode)
  | SRLIW -> (5l, opimm32_opcode)
  | SRAIW -> (5l, opimm32_opcode)

let load_funct3 : Instr.load_op -> int32 = function
  | LB -> 0l | LH -> 1l | LW -> 2l | LD -> 3l | LBU -> 4l | LHU -> 5l | LWU -> 6l

let store_funct3 : Instr.store_op -> int32 = function
  | SB -> 0l | SH -> 1l | SW -> 2l | SD -> 3l

let branch_funct3 : Instr.branch_op -> int32 = function
  | BEQ -> 0l | BNE -> 1l | BLT -> 4l | BGE -> 5l | BLTU -> 6l | BGEU -> 7l

let csr_funct3 : Instr.csr_op -> int32 = function
  | CSRRW -> 1l | CSRRS -> 2l | CSRRC -> 3l

let is_shift_imm : Instr.iop -> bool = function
  | SLLI | SRLI | SRAI | SLLIW | SRLIW | SRAIW -> true
  | _ -> false

let is_arith_right : Instr.iop -> bool = function
  | SRAI | SRAIW -> true
  | _ -> false

let encode (instr : Instr.t) =
  match instr with
  | Rtype (op, rd, rs1, rs2) ->
      let funct7, funct3, opcode = rop_fields op in
      r_format ~funct7 ~rs2:(reg rs2) ~rs1:(reg rs1) ~funct3 ~rd:(reg rd) ~opcode
  | Itype (op, rd, rs1, imm) ->
      let funct3, opcode = iop_fields op in
      if is_shift_imm op then begin
        let max_shamt =
          match op with Instr.SLLIW | SRLIW | SRAIW -> 31 | _ -> 63
        in
        check_range "shamt" imm 0 max_shamt;
        let imm = if is_arith_right op then imm lor 0x400 else imm in
        i_format ~imm ~rs1:(reg rs1) ~funct3 ~rd:(reg rd) ~opcode
      end
      else begin
        check_range "I-type" imm (-2048) 2047;
        i_format ~imm ~rs1:(reg rs1) ~funct3 ~rd:(reg rd) ~opcode
      end
  | Load (op, rd, base, off) ->
      check_range "load" off (-2048) 2047;
      i_format ~imm:off ~rs1:(reg base) ~funct3:(load_funct3 op) ~rd:(reg rd)
        ~opcode:load_opcode
  | Store (op, data, base, off) ->
      check_range "store" off (-2048) 2047;
      s_format ~imm:off ~rs2:(reg data) ~rs1:(reg base) ~funct3:(store_funct3 op)
        ~opcode:store_opcode
  | Branch (op, rs1, rs2, off) ->
      check_range "branch" off (-4096) 4095;
      check_even "branch" off;
      b_format ~imm:off ~rs2:(reg rs2) ~rs1:(reg rs1) ~funct3:(branch_funct3 op)
        ~opcode:branch_opcode
  | Jal (rd, off) ->
      check_range "jal" off (-1048576) 1048575;
      check_even "jal" off;
      j_format ~imm:off ~rd:(reg rd) ~opcode:jal_opcode
  | Jalr (rd, base, off) ->
      check_range "jalr" off (-2048) 2047;
      i_format ~imm:off ~rs1:(reg base) ~funct3:0l ~rd:(reg rd) ~opcode:jalr_opcode
  | Lui (rd, imm) ->
      check_range "lui" imm 0 0xFFFFF;
      u_format ~imm ~rd:(reg rd) ~opcode:lui_opcode
  | Auipc (rd, imm) ->
      check_range "auipc" imm 0 0xFFFFF;
      u_format ~imm ~rd:(reg rd) ~opcode:auipc_opcode
  | Csr (op, rd, rs1, csr) ->
      check_range "csr" csr 0 0xFFF;
      i_format ~imm:csr ~rs1:(reg rs1) ~funct3:(csr_funct3 op) ~rd:(reg rd)
        ~opcode:system_opcode
  | Lr_d (rd, base) ->
      r_format ~funct7:(0b0001000l <<< 0) ~rs2:0l ~rs1:(reg base) ~funct3:3l
        ~rd:(reg rd) ~opcode:amo_opcode
  | Sc_d (rd, data, base) ->
      r_format ~funct7:(0b0001100l <<< 0) ~rs2:(reg data) ~rs1:(reg base)
        ~funct3:3l ~rd:(reg rd) ~opcode:amo_opcode
  | Fence -> i_format ~imm:0 ~rs1:0l ~funct3:0l ~rd:0l ~opcode:fence_opcode
  | Ecall -> i_format ~imm:0 ~rs1:0l ~funct3:0l ~rd:0l ~opcode:system_opcode
  | Ebreak -> i_format ~imm:1 ~rs1:0l ~funct3:0l ~rd:0l ~opcode:system_opcode
  | Mret -> i_format ~imm:0x302 ~rs1:0l ~funct3:0l ~rd:0l ~opcode:system_opcode

let field word hi lo =
  Int32.to_int
    ((Int32.shift_right_logical word lo) &&& Int32.sub (1l <<< (hi - lo + 1)) 1l)

let sign_extend width v = if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

let decode word =
  let opcode = field word 6 0 in
  let rd = Reg.of_int (field word 11 7) in
  let funct3 = field word 14 12 in
  let rs1 = Reg.of_int (field word 19 15) in
  let rs2 = Reg.of_int (field word 24 20) in
  let funct7 = field word 31 25 in
  let i_imm = sign_extend 12 (field word 31 20) in
  let s_imm = sign_extend 12 ((field word 31 25 lsl 5) lor field word 11 7) in
  let b_imm =
    sign_extend 13
      ((field word 31 31 lsl 12) lor (field word 7 7 lsl 11)
      lor (field word 30 25 lsl 5) lor (field word 11 8 lsl 1))
  in
  let u_imm = field word 31 12 in
  let j_imm =
    sign_extend 21
      ((field word 31 31 lsl 20) lor (field word 19 12 lsl 12)
      lor (field word 20 20 lsl 11) lor (field word 30 21 lsl 1))
  in
  let err msg = Error (Printf.sprintf "%s (word 0x%08lx)" msg word) in
  match Int32.of_int opcode with
  | o when o = op_opcode || o = op32_opcode -> (
      let w = o = op32_opcode in
      let pick : Instr.rop option =
        match (funct7, funct3, w) with
        | 0x00, 0, false -> Some ADD | 0x20, 0, false -> Some SUB
        | 0x00, 1, false -> Some SLL | 0x00, 2, false -> Some SLT
        | 0x00, 3, false -> Some SLTU | 0x00, 4, false -> Some XOR
        | 0x00, 5, false -> Some SRL | 0x20, 5, false -> Some SRA
        | 0x00, 6, false -> Some OR | 0x00, 7, false -> Some AND
        | 0x01, 0, false -> Some MUL | 0x01, 1, false -> Some MULH
        | 0x01, 2, false -> Some MULHSU | 0x01, 3, false -> Some MULHU
        | 0x01, 4, false -> Some DIV | 0x01, 5, false -> Some DIVU
        | 0x01, 6, false -> Some REM | 0x01, 7, false -> Some REMU
        | 0x00, 0, true -> Some ADDW | 0x20, 0, true -> Some SUBW
        | 0x00, 1, true -> Some SLLW | 0x00, 5, true -> Some SRLW
        | 0x20, 5, true -> Some SRAW | 0x01, 0, true -> Some MULW
        | 0x01, 4, true -> Some DIVW | 0x01, 5, true -> Some DIVUW
        | 0x01, 6, true -> Some REMW | 0x01, 7, true -> Some REMUW
        | _ -> None
      in
      match pick with
      | Some op -> Ok (Instr.Rtype (op, rd, rs1, rs2))
      | None -> err "unknown R-type")
  | o when o = opimm_opcode || o = opimm32_opcode -> (
      let w = o = opimm32_opcode in
      let shamt_width = if w then 5 else 6 in
      let shamt = field word (19 + shamt_width) 20 in
      let upper = field word 31 (20 + shamt_width) in
      let pick : (Instr.iop * int) option =
        match (funct3, w) with
        | 0, false -> Some (ADDI, i_imm)
        | 2, false -> Some (SLTI, i_imm)
        | 3, false -> Some (SLTIU, i_imm)
        | 4, false -> Some (XORI, i_imm)
        | 6, false -> Some (ORI, i_imm)
        | 7, false -> Some (ANDI, i_imm)
        | 1, false when upper = 0 -> Some (SLLI, shamt)
        | 5, false when upper = 0 -> Some (SRLI, shamt)
        | 5, false when upper = 0x10 -> Some (SRAI, shamt)
        | 0, true -> Some (ADDIW, i_imm)
        | 1, true when upper = 0 -> Some (SLLIW, shamt)
        | 5, true when upper = 0 -> Some (SRLIW, shamt)
        | 5, true when upper = 0x20 -> Some (SRAIW, shamt)
        | _ -> None
      in
      match pick with
      | Some (op, imm) -> Ok (Instr.Itype (op, rd, rs1, imm))
      | None -> err "unknown I-type")
  | o when o = load_opcode -> (
      let pick : Instr.load_op option =
        match funct3 with
        | 0 -> Some LB | 1 -> Some LH | 2 -> Some LW | 3 -> Some LD
        | 4 -> Some LBU | 5 -> Some LHU | 6 -> Some LWU | _ -> None
      in
      match pick with
      | Some op -> Ok (Instr.Load (op, rd, rs1, i_imm))
      | None -> err "unknown load")
  | o when o = store_opcode -> (
      let pick : Instr.store_op option =
        match funct3 with
        | 0 -> Some SB | 1 -> Some SH | 2 -> Some SW | 3 -> Some SD | _ -> None
      in
      match pick with
      | Some op -> Ok (Instr.Store (op, rs2, rs1, s_imm))
      | None -> err "unknown store")
  | o when o = branch_opcode -> (
      let pick : Instr.branch_op option =
        match funct3 with
        | 0 -> Some BEQ | 1 -> Some BNE | 4 -> Some BLT | 5 -> Some BGE
        | 6 -> Some BLTU | 7 -> Some BGEU | _ -> None
      in
      match pick with
      | Some op -> Ok (Instr.Branch (op, rs1, rs2, b_imm))
      | None -> err "unknown branch")
  | o when o = jal_opcode -> Ok (Instr.Jal (rd, j_imm))
  | o when o = jalr_opcode ->
      if funct3 = 0 then Ok (Instr.Jalr (rd, rs1, i_imm)) else err "unknown jalr"
  | o when o = lui_opcode -> Ok (Instr.Lui (rd, u_imm))
  | o when o = auipc_opcode -> Ok (Instr.Auipc (rd, u_imm))
  | o when o = fence_opcode -> Ok Instr.Fence
  | o when o = amo_opcode -> (
      let funct5 = funct7 lsr 2 in
      match (funct5, funct3) with
      | 0b00010, 3 -> Ok (Instr.Lr_d (rd, rs1))
      | 0b00011, 3 -> Ok (Instr.Sc_d (rd, rs2, rs1))
      | _ -> err "unknown AMO")
  | o when o = system_opcode -> (
      match funct3 with
      | 0 -> (
          match field word 31 20 with
          | 0 -> Ok Instr.Ecall
          | 1 -> Ok Instr.Ebreak
          | 0x302 -> Ok Instr.Mret
          | _ -> err "unknown SYSTEM")
      | 1 -> Ok (Instr.Csr (CSRRW, rd, rs1, field word 31 20))
      | 2 -> Ok (Instr.Csr (CSRRS, rd, rs1, field word 31 20))
      | 3 -> Ok (Instr.Csr (CSRRC, rd, rs1, field word 31 20))
      | _ -> err "unknown SYSTEM funct3")
  | _ -> err "unknown opcode"
