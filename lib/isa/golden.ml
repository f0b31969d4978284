type fault =
  | Load_access_fault
  | Store_access_fault
  | Illegal_instruction
  | Breakpoint
  | Env_call

type mem_access = {
  addr : int64;
  size : int;
  is_store : bool;
  value : int64;
  sc_success : bool option;
}

type effect = {
  seq : int;
  index : int;
  pc : int64;
  instr : Instr.t;
  wb : (Reg.t * int64) option;
  mem : mem_access option;
  taken : bool option;
  fault : fault option;
  transient : bool;
}

type exit_reason = Fell_through | Ebreak_halt | Max_instrs

type outcome = {
  trace : effect array;
  transients : (int * effect array) list;
  regs : int64 array;
  memory : Memory.t;
  exit_reason : exit_reason;
}

let default_max_instrs = 4096
let default_transient_window = 128

type state = {
  regs : int64 array;
  mem : Memory.t;
  mutable pc : int64;
  mutable priv : Program.priv;
  mutable reservation : int64 option;
}

let clone s =
  {
    regs = Array.copy s.regs;
    mem = Memory.copy s.mem;
    pc = s.pc;
    priv = s.priv;
    reservation = s.reservation;
  }

let get s r = if Reg.equal r Reg.x0 then 0L else s.regs.(Reg.to_int r)

let set s r v = if not (Reg.equal r Reg.x0) then s.regs.(Reg.to_int r) <- v

let sext32 v = Int64.of_int32 (Int64.to_int32 v)

(* High 64 bits of the unsigned 128-bit product, 32-bit limb decomposition.
   Every partial product and sum stays exact modulo 2^64, so int64 wraparound
   with logical shifts is correct. *)
let umulh a b =
  let mask = 0xFFFF_FFFFL in
  let al = Int64.logand a mask and ah = Int64.shift_right_logical a 32 in
  let bl = Int64.logand b mask and bh = Int64.shift_right_logical b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let cross =
    Int64.add
      (Int64.add (Int64.shift_right_logical ll 32) (Int64.logand lh mask))
      (Int64.logand hl mask)
  in
  Int64.add
    (Int64.add hh
       (Int64.add (Int64.shift_right_logical lh 32) (Int64.shift_right_logical hl 32)))
    (Int64.shift_right_logical cross 32)

(* Signed and signed×unsigned variants derived from the unsigned high word. *)
let smulh a b =
  let h = umulh a b in
  let h = if Int64.compare a 0L < 0 then Int64.sub h b else h in
  if Int64.compare b 0L < 0 then Int64.sub h a else h

let sumulh a b =
  let h = umulh a b in
  if Int64.compare a 0L < 0 then Int64.sub h b else h

let rop_eval (op : Instr.rop) a b =
  let shamt64 = Int64.to_int (Int64.logand b 63L) in
  let shamt32 = Int64.to_int (Int64.logand b 31L) in
  let w32 f = sext32 (f ()) in
  match op with
  | ADD -> Int64.add a b
  | SUB -> Int64.sub a b
  | SLL -> Int64.shift_left a shamt64
  | SRL -> Int64.shift_right_logical a shamt64
  | SRA -> Int64.shift_right a shamt64
  | SLT -> if Int64.compare a b < 0 then 1L else 0L
  | SLTU -> if Int64.unsigned_compare a b < 0 then 1L else 0L
  | AND -> Int64.logand a b
  | OR -> Int64.logor a b
  | XOR -> Int64.logxor a b
  | ADDW -> w32 (fun () -> Int64.add a b)
  | SUBW -> w32 (fun () -> Int64.sub a b)
  | SLLW -> w32 (fun () -> Int64.shift_left a shamt32)
  | SRLW ->
      sext32
        (Int64.shift_right_logical (Int64.logand a 0xFFFF_FFFFL) shamt32)
  | SRAW -> sext32 (Int64.shift_right (sext32 a) shamt32)
  | MUL -> Int64.mul a b
  | MULH -> smulh a b
  | MULHU -> umulh a b
  | MULHSU -> sumulh a b
  | DIV ->
      if Int64.equal b 0L then -1L
      else if Int64.equal a Int64.min_int && Int64.equal b (-1L) then Int64.min_int
      else Int64.div a b
  | DIVU -> if Int64.equal b 0L then -1L else Int64.unsigned_div a b
  | REM ->
      if Int64.equal b 0L then a
      else if Int64.equal a Int64.min_int && Int64.equal b (-1L) then 0L
      else Int64.rem a b
  | REMU -> if Int64.equal b 0L then a else Int64.unsigned_rem a b
  | MULW -> w32 (fun () -> Int64.mul a b)
  | DIVW ->
      let a = sext32 a and b = sext32 b in
      if Int64.equal b 0L then -1L
      else if Int64.equal a (-2147483648L) && Int64.equal b (-1L) then
        -2147483648L
      else sext32 (Int64.div a b)
  | DIVUW ->
      let a = Int64.logand a 0xFFFF_FFFFL and b = Int64.logand b 0xFFFF_FFFFL in
      if Int64.equal b 0L then -1L else sext32 (Int64.div a b)
  | REMW ->
      let a = sext32 a and b = sext32 b in
      if Int64.equal b 0L then a
      else if Int64.equal a (-2147483648L) && Int64.equal b (-1L) then 0L
      else sext32 (Int64.rem a b)
  | REMUW ->
      let a = Int64.logand a 0xFFFF_FFFFL and b = Int64.logand b 0xFFFF_FFFFL in
      if Int64.equal b 0L then sext32 a else sext32 (Int64.rem a b)

let iop_eval (op : Instr.iop) a imm =
  let imm64 = Int64.of_int imm in
  match op with
  | ADDI -> Int64.add a imm64
  | SLTI -> if Int64.compare a imm64 < 0 then 1L else 0L
  | SLTIU -> if Int64.unsigned_compare a imm64 < 0 then 1L else 0L
  | ANDI -> Int64.logand a imm64
  | ORI -> Int64.logor a imm64
  | XORI -> Int64.logxor a imm64
  | SLLI -> Int64.shift_left a (imm land 63)
  | SRLI -> Int64.shift_right_logical a (imm land 63)
  | SRAI -> Int64.shift_right a (imm land 63)
  | ADDIW -> sext32 (Int64.add a imm64)
  | SLLIW -> sext32 (Int64.shift_left a (imm land 31))
  | SRLIW -> sext32 (Int64.shift_right_logical (Int64.logand a 0xFFFF_FFFFL) (imm land 31))
  | SRAIW -> sext32 (Int64.shift_right (sext32 a) (imm land 31))

let branch_eval (op : Instr.branch_op) a b =
  match op with
  | BEQ -> Int64.equal a b
  | BNE -> not (Int64.equal a b)
  | BLT -> Int64.compare a b < 0
  | BGE -> Int64.compare a b >= 0
  | BLTU -> Int64.unsigned_compare a b < 0
  | BGEU -> Int64.unsigned_compare a b >= 0

let load_size : Instr.load_op -> int * bool = function
  | LB -> (1, true)
  | LH -> (2, true)
  | LW -> (4, true)
  | LD -> (8, true)
  | LBU -> (1, false)
  | LHU -> (2, false)
  | LWU -> (4, false)

let store_size : Instr.store_op -> int = function
  | SB -> 1
  | SH -> 2
  | SW -> 4
  | SD -> 8

let protected program addr =
  match program.Program.protected_range with
  | Some (lo, hi) ->
      Int64.unsigned_compare addr lo >= 0 && Int64.unsigned_compare addr hi < 0
  | None -> false

(* Execute one instruction. [forward_faults]: execute loads that fault as if
   the data were forwarded (transient semantics). Returns the effect; state
   is updated, including [s.pc]. *)
let exec_one program s ~seq ~index ~transient ~forward_faults =
  let instr = program.Program.instrs.(index) in
  let pc = s.pc in
  let next = Int64.add pc 4L in
  let basic ?wb ?mem ?taken ?fault () =
    { seq; index; pc; instr; wb; mem; taken; fault; transient }
  in
  let user_mode = s.priv = Program.User in
  match instr with
  | Instr.Rtype (op, rd, rs1, rs2) ->
      let v = rop_eval op (get s rs1) (get s rs2) in
      set s rd v;
      s.pc <- next;
      basic ~wb:(rd, v) ()
  | Instr.Itype (op, rd, rs1, imm) ->
      let v = iop_eval op (get s rs1) imm in
      set s rd v;
      s.pc <- next;
      basic ~wb:(rd, v) ()
  | Instr.Lui (rd, imm) ->
      let v = sext32 (Int64.shift_left (Int64.of_int imm) 12) in
      set s rd v;
      s.pc <- next;
      basic ~wb:(rd, v) ()
  | Instr.Auipc (rd, imm) ->
      let v = Int64.add pc (sext32 (Int64.shift_left (Int64.of_int imm) 12)) in
      set s rd v;
      s.pc <- next;
      basic ~wb:(rd, v) ()
  | Instr.Load (op, rd, base, off) ->
      let addr = Int64.add (get s base) (Int64.of_int off) in
      let size, signed = load_size op in
      if user_mode && protected program addr then begin
        let value =
          if signed then Memory.load_signed s.mem ~addr ~size
          else Memory.load s.mem ~addr ~size
        in
        s.pc <- next;
        if forward_faults then begin
          (* Transient semantics: the faulting load's data is forwarded. *)
          set s rd value;
          basic ~wb:(rd, value)
            ~mem:{ addr; size; is_store = false; value; sc_success = None }
            ~fault:Load_access_fault ()
        end
        else
          basic
            ~mem:{ addr; size; is_store = false; value = 0L; sc_success = None }
            ~fault:Load_access_fault ()
      end
      else begin
        let value =
          if signed then Memory.load_signed s.mem ~addr ~size
          else Memory.load s.mem ~addr ~size
        in
        set s rd value;
        s.pc <- next;
        basic ~wb:(rd, value)
          ~mem:{ addr; size; is_store = false; value; sc_success = None }
          ()
      end
  | Instr.Store (op, data, base, off) ->
      let addr = Int64.add (get s base) (Int64.of_int off) in
      let size = store_size op in
      let value = get s data in
      if user_mode && protected program addr then begin
        s.pc <- next;
        basic
          ~mem:{ addr; size; is_store = true; value; sc_success = None }
          ~fault:Store_access_fault ()
      end
      else begin
        Memory.store s.mem ~addr ~size value;
        s.pc <- next;
        basic ~mem:{ addr; size; is_store = true; value; sc_success = None } ()
      end
  | Instr.Branch (op, rs1, rs2, off) ->
      let taken = branch_eval op (get s rs1) (get s rs2) in
      s.pc <- (if taken then Int64.add pc (Int64.of_int off) else next);
      basic ~taken ()
  | Instr.Jal (rd, off) ->
      set s rd next;
      s.pc <- Int64.add pc (Int64.of_int off);
      if Reg.equal rd Reg.x0 then basic ~taken:true ()
      else basic ~wb:(rd, next) ~taken:true ()
  | Instr.Jalr (rd, base, off) ->
      let target = Int64.logand (Int64.add (get s base) (Int64.of_int off)) (-2L) in
      set s rd next;
      s.pc <- target;
      if Reg.equal rd Reg.x0 then basic ~taken:true ()
      else basic ~wb:(rd, next) ~taken:true ()
  | Instr.Csr (op, rd, rs1, _csr) ->
      (* CSRs are modelled as reading 0; timing-relevant counters are filled
         in by the micro-architectural models at commit. *)
      let _ = op and _ = rs1 in
      set s rd 0L;
      s.pc <- next;
      basic ~wb:(rd, 0L) ()
  | Instr.Lr_d (rd, base) ->
      let addr = get s base in
      if user_mode && protected program addr then begin
        s.pc <- next;
        basic
          ~mem:{ addr; size = 8; is_store = false; value = 0L; sc_success = None }
          ~fault:Load_access_fault ()
      end
      else begin
        let value = Memory.load s.mem ~addr ~size:8 in
        set s rd value;
        s.reservation <- Some addr;
        s.pc <- next;
        basic ~wb:(rd, value)
          ~mem:{ addr; size = 8; is_store = false; value; sc_success = None }
          ()
      end
  | Instr.Sc_d (rd, data, base) ->
      let addr = get s base in
      let value = get s data in
      let success = s.reservation = Some addr in
      s.reservation <- None;
      if success then Memory.store s.mem ~addr ~size:8 value;
      let rd_val = if success then 0L else 1L in
      set s rd rd_val;
      s.pc <- next;
      basic ~wb:(rd, rd_val)
        ~mem:{ addr; size = 8; is_store = true; value; sc_success = Some success }
        ()
  | Instr.Fence ->
      s.pc <- next;
      basic ()
  | Instr.Ecall ->
      s.priv <- Program.Machine;
      s.pc <- next;
      basic ~fault:Env_call ()
  | Instr.Ebreak ->
      s.pc <- next;
      basic ~fault:Breakpoint ()
  | Instr.Mret ->
      s.priv <- Program.User;
      s.pc <- next;
      basic ()

let initial_state program =
  let s =
    {
      regs = Array.make 32 0L;
      mem = Memory.create ();
      pc = program.Program.base;
      priv = program.Program.start_priv;
      reservation = None;
    }
  in
  List.iter (fun (addr, v) -> Memory.store s.mem ~addr ~size:8 v) program.Program.data;
  s

(* A growable effect array: a trace is built in place, without a list to
   reverse and copy. The first guess at its length is the caller's (the
   program length: straight-line code runs each instruction once), and
   a buffer filled exactly is returned as it is. *)
module Trace_buf = struct
  type t = { mutable items : effect array; mutable len : int; guess : int }

  let create guess = { items = [||]; len = 0; guess = max 1 guess }

  let push b e =
    if b.len = Array.length b.items then begin
      let items =
        Array.make (if b.len = 0 then b.guess else 2 * b.len) e
      in
      Array.blit b.items 0 items 0 b.len;
      b.items <- items
    end;
    Array.unsafe_set b.items b.len e;
    b.len <- b.len + 1

  let contents b =
    if b.len = Array.length b.items then b.items else Array.sub b.items 0 b.len
end

(* Transient continuation: re-execute the faulting instruction on a cloned
   state with fault forwarding (its destination receives the protected
   data), then run the sequential successors for up to [window]
   instructions. The returned array covers only the successors — the
   faulting instruction itself already sits in the architectural trace. *)
let transient_continuation program s window start_seq =
  let s = clone s in
  let index = Program.pc_to_index program s.pc in
  if index >= 0 then
    ignore
      (exec_one program s ~seq:start_seq ~index ~transient:true
         ~forward_faults:true);
  let effs = Trace_buf.create (min window (Program.length program)) in
  let rec go count =
    if count < window then begin
      let index = Program.pc_to_index program s.pc in
      if index >= 0 then begin
        let eff =
          exec_one program s ~seq:(start_seq + count) ~index ~transient:true
            ~forward_faults:true
        in
        Trace_buf.push effs eff;
        match eff.instr with Instr.Ebreak -> () | _ -> go (count + 1)
      end
    end
  in
  go 0;
  Trace_buf.contents effs

(* Architectural access faults — the only trigger for transient forking —
   occur exactly when a user-mode load/store/lr targets the protected
   range ([exec_one]'s own condition, evaluated on the same pre-state).
   Predicting the fault up front lets [run] skip the pre-execution
   snapshot on the non-faulting path: cloning is a register-file copy plus
   a memory table copy per instruction, and was the dominant per-run
   allocation of the whole fuzz execute phase. *)
let will_access_fault program s index =
  s.priv = Program.User
  &&
  match program.Program.instrs.(index) with
  | Instr.Load (_, _, base, off) ->
      protected program (Int64.add (get s base) (Int64.of_int off))
  | Instr.Store (_, _, base, off) ->
      protected program (Int64.add (get s base) (Int64.of_int off))
  | Instr.Lr_d (_, base) -> protected program (get s base)
  | _ -> false

let run ?(max_instrs = default_max_instrs)
    ?(transient_window = default_transient_window) program =
  let s = initial_state program in
  let trace = Trace_buf.create (min max_instrs (Program.length program)) in
  let transients = ref [] in
  let rec go seq =
    if seq >= max_instrs then Max_instrs
    else begin
      let index = Program.pc_to_index program s.pc in
      if index < 0 then Fell_through
      else begin
        (* Snapshot the pre-execution state for transient forking, only
           when this instruction will actually fault. *)
        let pre =
          if will_access_fault program s index then Some (clone s) else None
        in
        let eff =
          exec_one program s ~seq ~index ~transient:false ~forward_faults:false
        in
        Trace_buf.push trace eff;
        (match (eff.fault, pre) with
        | Some (Load_access_fault | Store_access_fault), Some pre ->
            let cont =
              transient_continuation program pre transient_window (seq + 1)
            in
            transients := (seq, cont) :: !transients
        | Some (Load_access_fault | Store_access_fault), None ->
            (* [will_access_fault] mirrors [exec_one]'s fault condition
               exactly; a fault without a snapshot is a bug. *)
            assert false
        | (Some _ | None), _ -> ());
        match eff.instr with Instr.Ebreak -> Ebreak_halt | _ -> go (seq + 1)
      end
    end
  in
  let exit_reason = go 0 in
  {
    trace = Trace_buf.contents trace;
    transients = List.rev !transients;
    regs = Array.copy s.regs;
    memory = s.mem;
    exit_reason;
  }
