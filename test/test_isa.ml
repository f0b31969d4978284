(* Tests for the ISA substrate: registers, memory, assembler
   helpers, and the golden functional model. *)

open Sonar_isa

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check64 = Alcotest.(check int64)
let checks = Alcotest.(check string)

let r = Reg.of_int

(* --- Reg --- *)

let test_reg_names () =
  checks "zero" "zero" (Reg.name (r 0));
  checks "sp" "sp" (Reg.name (r 2));
  checks "a0" "a0" (Reg.name (r 10));
  checks "t6" "t6" (Reg.name (r 31));
  checkb "of_name abi" true (Reg.of_name "a0" = Some (r 10));
  checkb "of_name numeric" true (Reg.of_name "x17" = Some (r 17));
  checkb "of_name bad" true (Reg.of_name "q9" = None);
  checkb "of_int out of range" true
    (match Reg.of_int 32 with exception Invalid_argument _ -> true | _ -> false)

(* --- Memory --- *)

let test_memory_rw () =
  let m = Memory.create () in
  Memory.store m ~addr:100L ~size:8 0x1122334455667788L;
  check64 "load64" 0x1122334455667788L (Memory.load m ~addr:100L ~size:8);
  check64 "load byte" 0x88L (Memory.load m ~addr:100L ~size:1);
  check64 "load byte 2" 0x77L (Memory.load m ~addr:101L ~size:1);
  Memory.store m ~addr:101L ~size:1 0xFFL;
  check64 "byte update" 0x11223344556_6FF88L (Memory.load m ~addr:100L ~size:8);
  check64 "unwritten is zero" 0L (Memory.load m ~addr:9999L ~size:8)

let test_memory_signed () =
  let m = Memory.create () in
  Memory.store m ~addr:0L ~size:1 0x80L;
  check64 "sign extend byte" (-128L) (Memory.load_signed m ~addr:0L ~size:1);
  check64 "zero extend byte" 128L (Memory.load m ~addr:0L ~size:1)

let test_memory_unaligned () =
  let m = Memory.create () in
  Memory.store m ~addr:6L ~size:4 0xAABBCCDDL;
  check64 "crosses word boundary" 0xAABBCCDDL (Memory.load m ~addr:6L ~size:4)

let prop_memory_roundtrip =
  QCheck2.Test.make ~name:"memory store/load roundtrip" ~count:300
    QCheck2.Gen.(triple (map Int64.of_int (int_bound 100000)) (oneofl [ 1; 2; 4; 8 ]) (map Int64.of_int int))
    (fun (addr, size, v) ->
      let m = Memory.create () in
      Memory.store m ~addr ~size v;
      let mask =
        if size = 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * size)) 1L
      in
      Int64.equal (Memory.load m ~addr ~size) (Int64.logand v mask))

(* Random mixed-size store / load sequences against a byte map. The
   addresses sit around bases that make accesses unaligned, cross words,
   overlap each other, and wrap past the top of the 64-bit space (the
   negative [int64]s); [Copy] continues on a copy, which must leave the
   original as it was. *)
type mem_op =
  | Store of int64 * int * int64
  | Load of int64 * int * bool  (* signed *)
  | Copy

let show_mem_op = function
  | Store (a, n, v) -> Printf.sprintf "store %Lx/%d %Lx" a n v
  | Load (a, n, signed) ->
      Printf.sprintf "load%s %Lx/%d" (if signed then "s" else "") a n
  | Copy -> "copy"

let prop_memory_matches_bytes =
  let gen =
    let open QCheck2.Gen in
    let addr =
      map2 Int64.add
        (oneofl
           [ 0L; 0x1000L; 0x8000_0000L; -16L; -8L; Int64.min_int;
             Int64.sub Int64.max_int 7L; 0x1234_5678_9ABC_DEF0L ])
        (map Int64.of_int (int_range (-3) 20))
    in
    let size = oneofl [ 1; 2; 4; 8 ] in
    list_size (int_range 1 120)
      (frequency
         [
           ( 5,
             map3 (fun a n v -> Store (a, n, v)) addr size (map Int64.of_int int)
           );
           (5, map3 (fun a n signed -> Load (a, n, signed)) addr size bool);
           (1, pure Copy);
         ])
  in
  QCheck2.Test.make ~name:"memory = byte map (mixed sizes, any address)"
    ~count:300 ~long_factor:25
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    gen
    (fun ops ->
      let bytes = Hashtbl.create 64 in
      let byte a = Option.value ~default:0L (Hashtbl.find_opt bytes a) in
      let expect addr size =
        let v = ref 0L in
        for i = size - 1 downto 0 do
          v :=
            Int64.logor (Int64.shift_left !v 8)
              (byte (Int64.add addr (Int64.of_int i)))
        done;
        !v
      in
      let m = ref (Memory.create ()) in
      let store addr size v =
        Memory.store !m ~addr ~size v;
        for i = 0 to size - 1 do
          Hashtbl.replace bytes
            (Int64.add addr (Int64.of_int i))
            (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
        done
      in
      List.for_all
        (fun op ->
          match op with
          | Store (addr, size, v) ->
              store addr size v;
              true
          | Load (addr, size, false) ->
              Int64.equal (Memory.load !m ~addr ~size) (expect addr size)
          | Load (addr, size, true) ->
              let bits = 8 * size in
              let v = expect addr size in
              let v =
                if size = 8 then v
                else Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits)
              in
              Int64.equal (Memory.load_signed !m ~addr ~size) v
          | Copy ->
              let original = !m and addr = 0x1003L in
              let before = Memory.load original ~addr ~size:8 in
              m := Memory.copy original;
              store addr 8 (Int64.lognot before);
              Int64.equal (Memory.load original ~addr ~size:8) before)
        ops)

(* --- Asm --- *)

let run_instrs instrs =
  let p = Program.make (instrs @ [ Asm.halt ]) in
  Golden.run p

let prop_li_materializes =
  QCheck2.Test.make ~name:"li materialises any constant" ~count:300
    QCheck2.Gen.(map Int64.of_int int)
    (fun v ->
      let o = run_instrs (Asm.li (r 5) v) in
      Int64.equal o.Golden.regs.(5) v)

let test_li_edges () =
  List.iter
    (fun v ->
      let o = run_instrs (Asm.li (r 5) v) in
      check64 (Printf.sprintf "li %Ld" v) v o.Golden.regs.(5))
    [ 0L; 1L; -1L; 2047L; 2048L; -2048L; 0x7FFFFFFFL; 0x80000000L;
      Int64.min_int; Int64.max_int; 0x20000000L; 0xDEADBEEF12345678L ]

(* --- Golden model --- *)

let test_golden_arith () =
  let o =
    run_instrs
      (Asm.li (r 5) 7L @ Asm.li (r 6) (-3L)
      @ [
          Instr.Rtype (Instr.MUL, r 7, r 5, r 6);
          Instr.Rtype (Instr.DIV, r 28, r 5, r 6);
          Instr.Rtype (Instr.REM, r 29, r 5, r 6);
        ])
  in
  check64 "mul" (-21L) o.Golden.regs.(7);
  check64 "div" (-2L) o.Golden.regs.(28);
  check64 "rem" 1L o.Golden.regs.(29)

let test_golden_div_edge_cases () =
  let o =
    run_instrs
      (Asm.li (r 5) 5L @ Asm.li (r 6) 0L @ Asm.li (r 7) Int64.min_int
      @ Asm.li (r 28) (-1L)
      @ [
          Instr.Rtype (Instr.DIV, r 29, r 5, r 6);  (* div by zero *)
          Instr.Rtype (Instr.REM, r 30, r 5, r 6);  (* rem by zero *)
          Instr.Rtype (Instr.DIV, r 31, r 7, r 28);  (* overflow *)
        ])
  in
  check64 "div by zero" (-1L) o.Golden.regs.(29);
  check64 "rem by zero" 5L o.Golden.regs.(30);
  check64 "div overflow" Int64.min_int o.Golden.regs.(31)

let test_golden_mulh () =
  let o =
    run_instrs
      (Asm.li (r 5) Int64.max_int @ Asm.li (r 6) Int64.max_int
      @ [
          Instr.Rtype (Instr.MULH, r 7, r 5, r 6);
          Instr.Rtype (Instr.MULHU, r 28, r 5, r 6);
        ])
  in
  (* maxint^2 = 0x3FFFFFFFFFFFFFFF0000000000000001 *)
  check64 "mulh" 0x3FFFFFFFFFFFFFFFL o.Golden.regs.(7);
  check64 "mulhu" 0x3FFFFFFFFFFFFFFFL o.Golden.regs.(28)

let test_golden_branches () =
  let o =
    run_instrs
      (Asm.li (r 5) 1L
      @ [
          Instr.Branch (Instr.BEQ, r 5, r 0, 8);  (* not taken *)
          Instr.Itype (Instr.ADDI, r 6, r 6, 1);  (* executed *)
          Instr.Branch (Instr.BNE, r 5, r 0, 8);  (* taken *)
          Instr.Itype (Instr.ADDI, r 6, r 6, 100);  (* skipped *)
          Instr.Itype (Instr.ADDI, r 6, r 6, 10);
        ])
  in
  check64 "branch semantics" 11L o.Golden.regs.(6)

let test_golden_jal_jalr () =
  let o =
    run_instrs
      [
        Instr.Jal (r 1, 8);  (* skip next *)
        Instr.Itype (Instr.ADDI, r 6, r 6, 100);
        Instr.Itype (Instr.ADDI, r 6, r 6, 1);
      ]
  in
  check64 "jal skipped" 1L o.Golden.regs.(6);
  check64 "link register" (Int64.add Program.default_base 4L) o.Golden.regs.(1)

let test_golden_memory_ops () =
  let o =
    run_instrs
      (Asm.li (r 5) 0x10000L @ Asm.li (r 6) 0x55AAL
      @ [
          Instr.Store (Instr.SD, r 6, r 5, 0);
          Instr.Load (Instr.LD, r 7, r 5, 0);
          Instr.Load (Instr.LH, r 28, r 5, 0);
          Instr.Load (Instr.LBU, r 29, r 5, 1);
        ])
  in
  check64 "ld" 0x55AAL o.Golden.regs.(7);
  check64 "lh sign" 0x55AAL o.Golden.regs.(28);
  check64 "lbu" 0x55L o.Golden.regs.(29)

let test_golden_lr_sc () =
  let o =
    run_instrs
      (Asm.li (r 5) 0x10000L @ Asm.li (r 6) 99L
      @ [
          Instr.Lr_d (r 7, r 5);
          Instr.Sc_d (r 28, r 6, r 5);  (* succeeds: reservation held *)
          Instr.Load (Instr.LD, r 29, r 5, 0);
          Instr.Sc_d (r 30, r 6, r 5);  (* fails: reservation consumed *)
        ])
  in
  check64 "sc success" 0L o.Golden.regs.(28);
  check64 "sc wrote" 99L o.Golden.regs.(29);
  check64 "second sc fails" 1L o.Golden.regs.(30)

let test_golden_fault_and_transient () =
  let secret = 0x2000_0000L in
  let p =
    Program.make
      ~data:[ (secret, 1L) ]
      ~start_priv:Program.User
      ~protected_range:(Some (secret, Int64.add secret 4096L))
      (Asm.li (r 10) secret
      @ [
          Instr.Load (Instr.LD, r 5, r 10, 0);  (* faults *)
          Instr.Itype (Instr.ADDI, r 6, r 5, 1);  (* arch: t0 stays 0 *)
          Asm.halt;
        ])
  in
  let o = Golden.run p in
  let fault_eff =
    Array.to_list o.Golden.trace
    |> List.find (fun (e : Golden.effect) -> e.fault <> None)
  in
  checkb "load access fault" true (fault_eff.Golden.fault = Some Golden.Load_access_fault);
  check64 "architecturally suppressed" 1L o.Golden.regs.(6);
  (* The transient continuation sees the forwarded secret. *)
  checki "one continuation" 1 (List.length o.transients);
  let _, cont = List.hd o.transients in
  let addi = cont.(0) in
  checkb "transient forwards secret" true
    (match addi.Golden.wb with Some (_, v) -> Int64.equal v 2L | None -> false)

let test_golden_priv_transitions () =
  let secret = 0x2000_0000L in
  let p =
    Program.make
      ~data:[ (secret, 42L) ]
      ~start_priv:Program.Machine
      ~protected_range:(Some (secret, Int64.add secret 8L))
      (Asm.li (r 10) secret
      @ [
          Instr.Load (Instr.LD, r 5, r 10, 0);  (* machine: allowed *)
          Instr.Mret;  (* drop to user *)
          Instr.Load (Instr.LD, r 6, r 10, 0);  (* user: faults *)
          Asm.halt;
        ])
  in
  let o = Golden.run p in
  check64 "machine read ok" 42L o.Golden.regs.(5);
  check64 "user read suppressed" 0L o.Golden.regs.(6)

let test_golden_halts () =
  let o = run_instrs [] in
  checkb "ebreak halt" true (o.Golden.exit_reason = Golden.Ebreak_halt);
  let p = Program.make [ Asm.nop; Asm.nop ] in
  checkb "fell through" true ((Golden.run p).exit_reason = Golden.Fell_through);
  let loop = Program.make [ Instr.Jal (r 0, 0) ] in
  checkb "instruction budget" true
    ((Golden.run ~max_instrs:50 loop).exit_reason = Golden.Max_instrs)

let test_golden_w_ops () =
  let o =
    run_instrs
      (Asm.li (r 5) 0xFFFFFFFFL
      @ [
          Instr.Itype (Instr.ADDIW, r 6, r 5, 1);  (* wraps to 0 *)
          Instr.Rtype (Instr.ADDW, r 7, r 5, r 5);
          Instr.Itype (Instr.SRAIW, r 28, r 5, 4);  (* sign-extended -1 *)
        ])
  in
  check64 "addiw wrap" 0L o.Golden.regs.(6);
  check64 "addw" (-2L) o.Golden.regs.(7);
  check64 "sraiw" (-1L) o.Golden.regs.(28)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sonar_isa"
    [
      ("reg", [ Alcotest.test_case "names" `Quick test_reg_names ]);
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "signed loads" `Quick test_memory_signed;
          Alcotest.test_case "unaligned" `Quick test_memory_unaligned;
        ]
        @ qcheck [ prop_memory_roundtrip; prop_memory_matches_bytes ] );
      ( "asm",
        [ Alcotest.test_case "li edge cases" `Quick test_li_edges ]
        @ qcheck [ prop_li_materializes ] );
      ( "golden",
        [
          Alcotest.test_case "arithmetic" `Quick test_golden_arith;
          Alcotest.test_case "div edge cases" `Quick test_golden_div_edge_cases;
          Alcotest.test_case "mulh" `Quick test_golden_mulh;
          Alcotest.test_case "branches" `Quick test_golden_branches;
          Alcotest.test_case "jal/jalr" `Quick test_golden_jal_jalr;
          Alcotest.test_case "memory ops" `Quick test_golden_memory_ops;
          Alcotest.test_case "lr/sc" `Quick test_golden_lr_sc;
          Alcotest.test_case "fault + transient" `Quick test_golden_fault_and_transient;
          Alcotest.test_case "privilege" `Quick test_golden_priv_transitions;
          Alcotest.test_case "halting" `Quick test_golden_halts;
          Alcotest.test_case "32-bit ops" `Quick test_golden_w_ops;
        ] );
    ]
