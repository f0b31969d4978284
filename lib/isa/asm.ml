let nop = Instr.Itype (Instr.ADDI, Reg.x0, Reg.x0, 0)
let halt = Instr.Ebreak

let fits_simm12 v = Int64.compare v (-2048L) >= 0 && Int64.compare v 2047L <= 0

let fits_simm32 v =
  Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0

(* lui loads a sign-extended (imm20 << 12); pick imm20 so that
   (imm20 << 12) + low12 = v for 32-bit v. *)
let li32 rd v =
  if fits_simm12 v then [ Instr.Itype (Instr.ADDI, rd, Reg.x0, Int64.to_int v) ]
  else
    let low = Int64.to_int (Int64.logand v 0xFFFL) in
    let low = if low >= 2048 then low - 4096 else low in
    let upper =
      Int64.to_int
        (Int64.logand
           (Int64.shift_right (Int64.sub v (Int64.of_int low)) 12)
           0xFFFFFL)
    in
    let lui = Instr.Lui (rd, upper) in
    if low = 0 then [ lui ] else [ lui; Instr.Itype (Instr.ADDIW, rd, rd, low) ]

let rec li rd v =
  if fits_simm32 v then li32 rd v
  else begin
    (* Split into (high << shift) + low12 and recurse on high. *)
    let low = Int64.to_int (Int64.logand v 0xFFFL) in
    let low = if low >= 2048 then low - 4096 else low in
    let rest = Int64.sub v (Int64.of_int low) in
    (* rest has 12 low zero bits; shift right until odd or small enough. *)
    let rec strip shift rest =
      if shift < 12 && Int64.logand rest 1L = 0L && not (fits_simm32 rest) then
        strip (shift + 1) (Int64.shift_right rest 1)
      else (shift, rest)
    in
    let extra, high = strip 0 (Int64.shift_right rest 12) in
    li rd high
    @ [ Instr.Itype (Instr.SLLI, rd, rd, 12 + extra) ]
    @ (if low <> 0 then [ Instr.Itype (Instr.ADDI, rd, rd, low) ] else [])
  end
