open Sonar_isa

type secret_flavor =
  | Neutral
  | Stride of { stride_log : int; extra_loads : int }
  | Latency of { use_div : bool }
  | Gated of { body : Instr.t list }

type chain = { c_reg : Reg.t; length : int }
type dual = { attacker : Instr.t list }

type t = {
  id : int;
  prefix : Instr.t list;
  chains : chain list;
  flavor : secret_flavor;
  suffix : Instr.t list;
  dual : dual option;
}

(* Register roles: a0 secret base, a1 buffer base, t0-t3 secret region
   scratch, t4-t6 random-region scratch, s2/s3 dependency chains. *)
let a0 = Reg.of_int 10
let a1 = Reg.of_int 11
let t0 = Reg.of_int 5
let t1 = Reg.of_int 6
let t2 = Reg.of_int 7
let t3 = Reg.of_int 28
let t4 = Reg.of_int 29
let t5 = Reg.of_int 30
let t6 = Reg.of_int 31
let s2 = Reg.of_int 18
let s3 = Reg.of_int 19
let chain_regs = [ s2; s3 ]

(* Extra data-base registers at 4 KiB tag strides: accesses with equal
   offsets from different bases share a DCache set but differ in tag — the
   precondition of the MSHR false-sharing (S5) and eviction (S12) channels. *)
let s4 = Reg.of_int 20
let s5 = Reg.of_int 21
let s6 = Reg.of_int 22
let data_bases = [ a1; s4; s5; s6 ]

let scratch = [ t4; t5; t6 ]

(* --- Random region generation --- *)

let random_buffer_offset rng = 8 * Rng.int rng 512

let secret_scratch = [ t0; t1; t2; t3 ]

let random_instr rng =
  let r () = Rng.pick rng scratch in
  (* Source operands occasionally read the secret-region scratch registers,
     so secret-derived data (and hence request taint) can flow into the
     random regions — the template's "any instruction preceding or following
     the secret-dependent instructions" interaction (Figure 4a). *)
  let src () =
    if Rng.chance rng 0.25 then Rng.pick rng secret_scratch else r ()
  in
  let roll = Rng.int rng 100 in
  if roll < 45 then
    (* Plain ALU op. *)
    let op =
      Rng.pick rng
        [ Instr.ADD; Instr.SUB; Instr.XOR; Instr.OR; Instr.AND; Instr.SLT ]
    in
    [ Instr.Rtype (op, r (), src (), src ()) ]
  else if roll < 60 then
    let op = Rng.pick rng [ Instr.ADDI; Instr.XORI; Instr.ANDI; Instr.ORI ] in
    [ Instr.Itype (op, r (), src (), Rng.int rng 1024) ]
  else if roll < 70 then
    let op = if Rng.bool rng then Instr.MUL else Instr.DIVU in
    [ Instr.Rtype (op, r (), src (), src ()) ]
  else if roll < 85 then
    [ Instr.Load (Instr.LD, r (), Rng.pick rng data_bases, random_buffer_offset rng) ]
  else if roll < 95 then
    [ Instr.Store (Instr.SD, src (), Rng.pick rng data_bases, random_buffer_offset rng) ]
  else
    (* Short forward branch over one shadow instruction. *)
    let op = Rng.pick rng [ Instr.BEQ; Instr.BNE; Instr.BLT ] in
    [
      Instr.Branch (op, r (), r (), 8);
      Instr.Itype (Instr.ADDI, r (), r (), 1);
    ]

let random_region rng ~len =
  List.concat (List.init len (fun _ -> random_instr rng))

(* --- Materialization --- *)

let li32 reg v =
  (* Constants used here always fit 32 bits. *)
  Asm.li reg v

let prelude =
  List.concat
    [
      li32 a0 Layout.secret_addr;
      li32 a1 Layout.buffer_base;
      li32 s4 (Int64.add Layout.buffer_base 4096L);
      li32 s5 (Int64.add Layout.buffer_base 8192L);
      li32 s6 (Int64.add Layout.buffer_base 16384L);
      [
        Instr.Itype (Instr.ADDI, s2, Reg.x0, 0);
        Instr.Itype (Instr.ADDI, s3, Reg.x0, 0);
      ];
    ]

let chain_instrs chains =
  List.concat_map
    (fun c -> List.init c.length (fun _ -> Instr.Itype (Instr.ADDI, c.c_reg, c.c_reg, 1)))
    chains

(* Value-neutral timing coupling: delays [target]'s readiness by the chain's
   resolution time without changing its value. *)
let couple chain_reg target =
  [
    Instr.Itype (Instr.ANDI, t3, chain_reg, 0);
    Instr.Rtype (Instr.ADD, target, target, t3);
  ]

let secret_block flavor chains =
  let coupling target =
    match chains with c :: _ -> couple c.c_reg target | [] -> []
  in
  match flavor with
  | Neutral ->
      [ Instr.Load (Instr.LD, t0, a0, 0) ]
      @ coupling t0
      @ [ Instr.Rtype (Instr.XOR, t1, t0, t1); Instr.Rtype (Instr.ADD, t2, t1, t1) ]
  | Stride { stride_log; extra_loads } ->
      [ Instr.Load (Instr.LD, t0, a0, 0) ]
      @ [
          Instr.Itype (Instr.SLLI, t1, t0, stride_log);
          Instr.Rtype (Instr.ADD, t1, t1, a1);
        ]
      @ coupling t1
      @ [ Instr.Load (Instr.LD, t2, t1, 0) ]
      @ List.init extra_loads (fun k -> Instr.Load (Instr.LD, t2, t1, 8 * (k + 1)))
  | Latency { use_div } ->
      [ Instr.Load (Instr.LD, t0, a0, 0) ]
      @ coupling t0
      @ [
          Instr.Lui (t1, 0x7FFF);
          Instr.Rtype (Instr.MUL, t2, t0, t1);
          Instr.Itype (Instr.ADDI, t2, t2, 3);
          (if use_div then Instr.Rtype (Instr.DIV, t3, t1, t2)
           else Instr.Rtype (Instr.MUL, t3, t1, t2));
        ]
  | Gated { body } ->
      let skip = 4 * (List.length body + 1) in
      ([ Instr.Load (Instr.LD, t0, a0, 0) ] @ coupling t0)
      @ [ Instr.Branch (Instr.BEQ, t0, Reg.x0, skip) ]
      @ body

let materialize t ~secret =
  let chain_part = chain_instrs t.chains in
  let block = secret_block t.flavor t.chains in
  let pre = prelude @ t.prefix @ chain_part in
  let secret_lo = List.length pre in
  let secret_hi = secret_lo + List.length block - 1 in
  let instrs = pre @ block @ t.suffix @ [ Asm.halt ] in
  let victim_program =
    Program.make
      ~data:[ (Layout.secret_addr, Int64.of_int secret) ]
      instrs
  in
  let victim =
    {
      Sonar_uarch.Machine.program = victim_program;
      secret_range = Some (secret_lo, secret_hi);
    }
  in
  match t.dual with
  | None -> [| victim |]
  | Some { attacker } ->
      let attacker_program =
        Program.make
          (List.concat [ li32 a1 Layout.attacker_base; attacker; [ Asm.halt ] ])
      in
      [|
        victim;
        { Sonar_uarch.Machine.program = attacker_program; secret_range = None };
      |]

(* --- Random testcases --- *)

let random_flavor rng =
  (* Most random testcases consume the secret value-neutrally; only a
     minority happen to couple it to addresses, latencies or control. *)
  if Rng.chance rng 0.55 then Neutral
  else
  match Rng.int rng 4 with
  | 0 -> Stride { stride_log = 6 + Rng.int rng 7; extra_loads = Rng.int rng 3 }
  | 1 -> Latency { use_div = Rng.chance rng 0.7 }
  | 2 ->
      Gated
        {
          body =
            (if Rng.bool rng then
               [ Instr.Rtype (Instr.DIV, t2, t1, t0) ]
             else
               [
                 Instr.Load (Instr.LD, t2, a1, 8 * Rng.int rng 256);
                 Instr.Load (Instr.LD, t2, a1, 8 * Rng.int rng 256);
               ]);
        }
  | _ ->
      Gated
        {
          body =
            [
              Instr.Itype (Instr.SLLI, t1, t0, 6);
              Instr.Rtype (Instr.ADD, t1, t1, a1);
              Instr.Load (Instr.LD, t2, t1, 2048);
            ];
        }

let random_attacker rng =
  let probe =
    match Rng.int rng 3 with
    | 0 ->
        (* Sweep loads over cache lines. *)
        List.init 6 (fun k -> Instr.Load (Instr.LD, t4, a1, 64 * k))
    | 1 -> [ Instr.Rtype (Instr.DIVU, t4, t5, t6); Instr.Rtype (Instr.MUL, t5, t4, t6) ]
    | _ -> List.init 4 (fun k -> Instr.Store (Instr.SD, t4, a1, 64 * k))
  in
  List.concat (List.init (2 + Rng.int rng 4) (fun _ -> probe))

let random rng ~id ~dual =
  {
    id;
    prefix = random_region rng ~len:(3 + Rng.int rng 6);
    chains =
      List.map (fun r -> { c_reg = r; length = 1 + Rng.int rng 6 }) chain_regs;
    flavor = random_flavor rng;
    suffix = random_region rng ~len:(3 + Rng.int rng 6);
    dual = (if dual then Some { attacker = random_attacker rng } else None);
  }

