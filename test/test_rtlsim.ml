(* Tests for the bit-vector, levelization, simulation engine and runtime
   monitor. *)

open Sonar_rtlsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check64 = Alcotest.(check int64)

(* --- Bitvec --- *)

let bv w v = Bitvec.make ~width:w (Int64.of_int v)

let test_bitvec_masking () =
  check64 "mask to width" 3L (Bitvec.value (bv 2 7));
  check64 "full value" 255L (Bitvec.value (bv 8 255));
  checkb "width error low" true
    (match Bitvec.make ~width:0 1L with
    | exception Bitvec.Width_error _ -> true
    | _ -> false);
  checkb "width error high" true
    (match Bitvec.make ~width:64 1L with
    | exception Bitvec.Width_error _ -> true
    | _ -> false)

let test_bitvec_arith () =
  check64 "add wraps" 0L (Bitvec.value (Bitvec.add (bv 4 15) (bv 4 1)));
  check64 "sub wraps" 15L (Bitvec.value (Bitvec.sub (bv 4 0) (bv 4 1)));
  check64 "and" 4L (Bitvec.value (Bitvec.logand (bv 4 6) (bv 4 12)));
  check64 "or" 14L (Bitvec.value (Bitvec.logor (bv 4 6) (bv 4 12)));
  check64 "xor" 10L (Bitvec.value (Bitvec.logxor (bv 4 6) (bv 4 12)));
  check64 "not" 9L (Bitvec.value (Bitvec.lognot (bv 4 6)))

let test_bitvec_compare () =
  checkb "lt unsigned" true (Bitvec.is_true (Bitvec.lt (bv 8 3) (bv 8 200)));
  checkb "geq" true (Bitvec.is_true (Bitvec.geq (bv 8 200) (bv 8 200)));
  checkb "eq" true (Bitvec.is_true (Bitvec.eq (bv 8 42) (bv 8 42)));
  checkb "neq" false (Bitvec.is_true (Bitvec.neq (bv 8 42) (bv 8 42)))

let test_bitvec_shift_slice () =
  check64 "shl widens" 12L (Bitvec.value (Bitvec.shl 2 (bv 4 3)));
  checki "shl width" 6 (Bitvec.width (Bitvec.shl 2 (bv 4 3)));
  check64 "shr" 3L (Bitvec.value (Bitvec.shr 2 (bv 8 12)));
  check64 "bits" 5L (Bitvec.value (Bitvec.bits ~hi:4 ~lo:2 (bv 8 0b10100)));
  check64 "cat" 0xABL (Bitvec.value (Bitvec.cat (bv 4 0xA) (bv 4 0xB)));
  check64 "pad" 5L (Bitvec.value (Bitvec.pad 16 (bv 4 5)))

let prop_bitvec_add_commutes =
  QCheck2.Test.make ~name:"bitvec add commutes" ~count:300
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      Bitvec.equal (Bitvec.add (bv 16 a) (bv 16 b)) (Bitvec.add (bv 16 b) (bv 16 a)))

let prop_bitvec_mask_idempotent =
  QCheck2.Test.make ~name:"masking is idempotent" ~count:300
    QCheck2.Gen.(pair (int_range 1 63) (map Int64.of_int int))
    (fun (w, v) ->
      let x = Bitvec.make ~width:w v in
      Bitvec.equal x (Bitvec.make ~width:w (Bitvec.value x)))

(* --- Levelize / Engine --- *)

let counter_module =
  Sonar_ir.Parser.parse_module
    {|
module Counter [other] :
  input en : UInt<1>
  output out : UInt<8>
  reg count : UInt<8> reset 0
  node next = mux(en, add(count, UInt<8>(1)), count)
  connect count = next
  connect out = count
|}

let test_engine_counter () =
  let e = Engine.compile counter_module in
  Engine.poke_int e "en" 1;
  for _ = 1 to 5 do
    Engine.step e
  done;
  checki "counts to 5" 5 (Engine.peek_int e "out");
  Engine.poke_int e "en" 0;
  Engine.step e;
  checki "holds" 5 (Engine.peek_int e "out");
  checki "cycles" 6 (Engine.cycle e)

let test_engine_reset () =
  let e = Engine.compile counter_module in
  Engine.poke_int e "en" 1;
  Engine.step e;
  Engine.step e;
  Engine.reset e;
  checki "reset to 0" 0 (Engine.peek_int e "out");
  checki "cycle rewound" 0 (Engine.cycle e)

let test_engine_comb () =
  let m =
    Sonar_ir.Parser.parse_module
      {|
module Comb [other] :
  input a : UInt<8>
  input b : UInt<8>
  input s : UInt<1>
  output o : UInt<8>
  node picked = mux(s, a, b)
  connect o = picked
|}
  in
  let e = Engine.compile m in
  Engine.poke_int e "a" 11;
  Engine.poke_int e "b" 22;
  Engine.poke_int e "s" 1;
  Engine.settle e;
  checki "mux true" 11 (Engine.peek_int e "o");
  Engine.poke_int e "s" 0;
  Engine.settle e;
  checki "mux false" 22 (Engine.peek_int e "o")

let test_engine_unknown_signal () =
  let e = Engine.compile counter_module in
  checkb "unknown raises" true
    (match Engine.peek e "nonexistent" with
    | exception Engine.Unknown_signal _ -> true
    | _ -> false);
  checkb "poke non-input raises" true
    (match Engine.poke_int e "out" 1 with
    | exception Engine.Unknown_signal _ -> true
    | _ -> false)

let test_levelize_order () =
  let order = Levelize.order counter_module in
  checkb "both comb signals scheduled" true
    (List.mem "next" order && List.mem "out" order)

let test_levelize_cycle () =
  let m =
    Sonar_ir.Parser.parse_module
      {|
module Loop [other] :
  wire x : UInt<8>
  wire y : UInt<8>
  connect x = add(y, UInt<8>(1))
  connect y = add(x, UInt<8>(1))
|}
  in
  checkb "combinational cycle detected" true
    (match Levelize.order m with
    | exception Levelize.Combinational_cycle _ -> true
    | _ -> false)

let test_engine_tree_backend () =
  let e = Engine.compile ~backend:Engine.Tree counter_module in
  checkb "tree backend" true (Engine.backend e = Engine.Tree);
  Engine.poke_int e "en" 1;
  for _ = 1 to 5 do
    Engine.step e
  done;
  checki "interpreter counts to 5" 5 (Engine.peek_int e "out")

(* Regression: [cat] was handled by width inference but missing from the
   evaluator, so any netlist using concatenation raised at the first settle. *)
let cat_module =
  Sonar_ir.Parser.parse_module
    {|
module C [other] :
  input a : UInt<4>
  input b : UInt<4>
  output o : UInt<8>
  node j = cat(a, b)
  connect o = j
|}

let test_engine_cat () =
  List.iter
    (fun backend ->
      let e = Engine.compile ~backend cat_module in
      Engine.poke_int e "a" 0xA;
      Engine.poke_int e "b" 0xB;
      Engine.settle e;
      checki "cat(a, b)" 0xAB (Engine.peek_int e "o"))
    [ Engine.Tree; Engine.Compiled; Engine.Bitsliced ]

(* Width errors surface at [compile] on every backend (the Tree backend
   used to raise lazily, on first evaluation). *)
let test_cat_overflow_compile_time () =
  let open Sonar_ir in
  let m =
    Fmodule.make "Wide"
      [
        Stmt.Input { name = "a"; width = 32 };
        Stmt.Input { name = "b"; width = 32 };
        Stmt.Node
          {
            name = "j";
            expr = Expr.prim Expr.Cat [ Expr.reference "a"; Expr.reference "b" ];
          };
        Stmt.Output { name = "o"; width = 63 };
        Stmt.Connect { dst = "o"; src = Expr.reference "j" };
      ]
  in
  List.iter
    (fun (name, backend) ->
      checkb
        (Printf.sprintf "64-bit cat fails at compile on %s" name)
        true
        (match Engine.compile ~backend m with
        | exception Bitvec.Width_error _ -> true
        | _ -> false))
    [
      ("tree", Engine.Tree);
      ("compiled", Engine.Compiled);
      ("bitsliced", Engine.Bitsliced);
    ]

(* Acceptance gate: a compiled or bit-sliced [step] performs no per-cycle
   heap allocation attributable to value traffic, and neither does driving
   every input by name before it ([poke_int] on Compiled, [poke_lanes] on
   Bitsliced). The slack below covers the constant-size boxes of the
   [Gc.minor_words] calls themselves; any per-cycle or per-poke allocation
   would show up as >= 1 word x 1000 cycles. *)
let test_step_no_alloc () =
  let under_slack what name words =
    checkb
      (Printf.sprintf "allocation-free %s %s (%.0f minor words / 1000 cycles)"
         name what words)
      true (words < 64.)
  in
  let words_over_1000 f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let stimulus_module =
    let c = Sonar_dut.Netlist_gen.generate ~scale:0.01 ~pad:false Sonar_uarch.Config.boom in
    List.hd (Sonar_ir.Instrument.instrument c).Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules
  in
  let inputs = Array.of_list (List.map fst (Sonar_ir.Fmodule.inputs stimulus_module)) in
  checkb "stimulus module has several inputs" true (Array.length inputs > 4);
  List.iter
    (fun (name, backend) ->
      let e = Engine.compile ~backend counter_module in
      Engine.poke_int e "en" 1;
      under_slack "step" name (words_over_1000 (fun () -> Engine.step e));
      let e = Engine.compile ~backend stimulus_module in
      let buf = Array.make (Engine.lanes e) 0 in
      let state = ref 1 in
      let poke =
        match backend with
        | Engine.Bitsliced -> fun n -> Engine.poke_lanes e n buf
        | Engine.Tree | Engine.Compiled -> fun n -> Engine.poke_int e n buf.(0)
      in
      let cycle () =
        for i = 0 to Array.length inputs - 1 do
          for l = 0 to Array.length buf - 1 do
            state := (!state * 1103515245) + 12345;
            buf.(l) <- !state
          done;
          poke inputs.(i)
        done;
        Engine.step e
      in
      under_slack "poke-every-input + step" name (words_over_1000 cycle))
    [ ("compiled", Engine.Compiled); ("bitsliced", Engine.Bitsliced) ]

(* Differential property: the engine's evaluation of a fixed expression
   over random inputs matches a direct OCaml interpretation. *)
let prop_engine_matches_interpreter =
  let m =
    Sonar_ir.Parser.parse_module
      {|
module X [other] :
  input a : UInt<8>
  input b : UInt<8>
  input s : UInt<1>
  output o : UInt<8>
  node t = mux(s, add(a, b), xor(a, b))
  connect o = t
|}
  in
  QCheck2.Test.make ~name:"engine matches reference semantics" ~count:200
    QCheck2.Gen.(triple (int_bound 255) (int_bound 255) (int_bound 1))
    (fun (a, b, s) ->
      let e = Engine.compile m in
      Engine.poke_int e "a" a;
      Engine.poke_int e "b" b;
      Engine.poke_int e "s" s;
      Engine.settle e;
      let expect = if s = 1 then (a + b) land 255 else a lxor b in
      Engine.peek_int e "o" = expect)

(* --- Compiled-vs-interpreted differential --- *)

(* Generator of random well-formed netlists: a few inputs and registers, a
   chain of nodes whose expressions draw on every primop (including [cat]),
   register drives over the full environment, and an output. Expression
   widths are tracked during generation (with the same result-width rules
   the engine uses) so [cat] never exceeds 63 bits. *)
let gen_netlist : Sonar_ir.Fmodule.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Sonar_ir in
  let gen_width = int_range 1 16 in
  let rec gen_expr env fuel =
    let ref_gen =
      let* name, w = oneofl env in
      return (Expr.reference name, w)
    in
    let lit_gen =
      let* w = gen_width in
      let* v = int_bound 0xFFFF in
      return (Expr.lit ~width:w (Int64.of_int v), w)
    in
    if fuel = 0 then oneof [ ref_gen; lit_gen ]
    else
      let sub = gen_expr env (fuel - 1) in
      let unop =
        let* a, wa = sub in
        let* k = int_range 0 4 in
        let* n = int_range 0 6 in
        return
          (match k with
          | 0 -> (Expr.prim Expr.Not [ a ], wa)
          | 1 -> (Expr.prim (Expr.Shl n) [ a ], min 63 (wa + n))
          | 2 -> (Expr.prim (Expr.Shr n) [ a ], max 1 (wa - n))
          | 3 -> (Expr.prim (Expr.Bits (n + 3, n)) [ a ], 4)
          | _ -> (Expr.prim (Expr.Pad (n + 1)) [ a ], n + 1))
      in
      let binop =
        let* a, wa = sub in
        let* b, wb = sub in
        let* k = int_range 0 9 in
        return
          (match k with
          | 0 -> (Expr.prim Expr.Add [ a; b ], max wa wb)
          | 1 -> (Expr.prim Expr.Sub [ a; b ], max wa wb)
          | 2 -> (Expr.prim Expr.And [ a; b ], max wa wb)
          | 3 -> (Expr.prim Expr.Or [ a; b ], max wa wb)
          | 4 -> (Expr.prim Expr.Xor [ a; b ], max wa wb)
          | 5 -> (Expr.prim Expr.Eq [ a; b ], 1)
          | 6 -> (Expr.prim Expr.Neq [ a; b ], 1)
          | 7 -> (Expr.prim Expr.Lt [ a; b ], 1)
          | 8 -> (Expr.prim Expr.Geq [ a; b ], 1)
          | _ ->
              if wa + wb <= 63 then (Expr.prim Expr.Cat [ a; b ], wa + wb)
              else (Expr.prim Expr.Or [ a; b ], max wa wb))
      in
      let mux_gen =
        let* s, _ = sub in
        let* a, wa = sub in
        let* b, wb = sub in
        return (Expr.mux s a b, max wa wb)
      in
      frequency
        [ (2, ref_gen); (1, lit_gen); (2, unop); (3, binop); (2, mux_gen) ]
  in
  let* n_inputs = int_range 1 3 in
  let* input_widths = list_repeat n_inputs gen_width in
  let inputs = List.mapi (fun i w -> (Printf.sprintf "in%d" i, w)) input_widths in
  let* n_regs = int_range 0 2 in
  let* reg_specs = list_repeat n_regs (pair gen_width (int_bound 1000)) in
  let regs =
    List.mapi
      (fun i (w, r) -> (Printf.sprintf "r%d" i, w, Int64.of_int r))
      reg_specs
  in
  let base_env = inputs @ List.map (fun (n, w, _) -> (n, w)) regs in
  let* n_nodes = int_range 1 5 in
  let rec build_nodes env acc k =
    if k = 0 then return (List.rev acc, env)
    else
      let* e, w = gen_expr env 3 in
      let name = Printf.sprintf "n%d" (List.length acc) in
      build_nodes ((name, w) :: env) ((name, e) :: acc) (k - 1)
  in
  let* nodes, env = build_nodes base_env [] n_nodes in
  let* reg_drives = list_repeat n_regs (gen_expr env 2) in
  let last_node = Printf.sprintf "n%d" (n_nodes - 1) in
  let stmts =
    List.map (fun (n, w) -> Stmt.Input { name = n; width = w }) inputs
    @ List.map
        (fun (n, w, r) -> Stmt.Reg { name = n; width = w; reset = Some r })
        regs
    @ List.map (fun (n, e) -> Stmt.Node { name = n; expr = e }) nodes
    @ List.map2
        (fun (n, _, _) (e, _) -> Stmt.Connect { dst = n; src = e })
        regs reg_drives
    @ [
        Stmt.Output { name = "out"; width = 8 };
        Stmt.Connect { dst = "out"; src = Expr.reference last_node };
      ]
  in
  return (Fmodule.make "Rand" stmts)

(* Drive both backends with the same pseudo-random input stream and require
   every signal to agree after every cycle. *)
let engines_agree m ~cycles ~seed =
  let a = Engine.compile ~backend:Engine.Tree m in
  let b = Engine.compile ~backend:Engine.Compiled m in
  let inputs = Sonar_ir.Fmodule.inputs m in
  let names = Engine.signal_names a in
  let state = ref (seed lor 1) in
  let agree () =
    List.for_all
      (fun n -> Bitvec.equal (Engine.peek a n) (Engine.peek b n))
      names
  in
  let ok = ref (agree ()) in
  for _ = 1 to cycles do
    List.iter
      (fun (n, _) ->
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        Engine.poke_int a n !state;
        Engine.poke_int b n !state)
      inputs;
    Engine.step a;
    Engine.step b;
    ok := !ok && agree ()
  done;
  !ok

let prop_compiled_matches_interpreted =
  QCheck2.Test.make ~name:"compiled step = interpreted step (random netlists)"
    ~count:150
    QCheck2.Gen.(triple gen_netlist (int_range 1 15) (int_bound 0x3FFFFF))
    (fun (m, cycles, seed) -> engines_agree m ~cycles ~seed)

(* --- Bit-sliced lane differential --- *)

(* Drive [active_lanes] lanes of one bit-sliced engine with independent
   pseudo-random input streams, and the same streams into [active_lanes]
   sequential compiled engines; every lane of every signal must agree after
   every cycle. Idle lanes (never poked) must behave as a compiled run under
   all-zero stimulus. *)
let lanes_agree ?(active_lanes = Engine.max_lanes) m ~cycles ~seed =
  let bs = Engine.compile ~backend:Engine.Bitsliced m in
  let refs =
    Array.init active_lanes (fun _ ->
        Engine.compile ~backend:Engine.Compiled m)
  in
  let idle_ref = Engine.compile ~backend:Engine.Compiled m in
  let inputs = Sonar_ir.Fmodule.inputs m in
  let names = Engine.signal_names bs in
  let states =
    Array.init active_lanes (fun l -> ref (((seed + (31 * l)) lor 1) land max_int))
  in
  let next l =
    let s = states.(l) in
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s
  in
  let agree () =
    List.for_all
      (fun n ->
        let sb = Engine.slot bs n in
        let active_ok = ref true in
        for l = 0 to active_lanes - 1 do
          let expect = Engine.read_slot refs.(l) (Engine.slot refs.(l) n) in
          if Engine.read_slot_lane bs sb ~lane:l <> expect then
            active_ok := false
        done;
        let idle_expect = Engine.read_slot idle_ref (Engine.slot idle_ref n) in
        for l = active_lanes to Engine.max_lanes - 1 do
          if Engine.read_slot_lane bs sb ~lane:l <> idle_expect then
            active_ok := false
        done;
        !active_ok)
      names
  in
  let ok = ref (agree ()) in
  for _ = 1 to cycles do
    List.iter
      (fun (n, _) ->
        for l = 0 to active_lanes - 1 do
          let v = next l in
          Engine.poke_lane bs n ~lane:l v;
          Engine.poke_int refs.(l) n v
        done)
      inputs;
    Engine.step bs;
    Array.iter Engine.step refs;
    Engine.step idle_ref;
    ok := !ok && agree ()
  done;
  !ok

let prop_bitsliced_matches_compiled =
  QCheck2.Test.make
    ~name:"bit-sliced lanes = 63 sequential compiled runs (random netlists)"
    ~count:60
    QCheck2.Gen.(triple gen_netlist (int_range 1 8) (int_bound 0x3FFFFF))
    (fun (m, cycles, seed) -> lanes_agree m ~cycles ~seed)

(* --- Lazy settling: reads never perturb state --- *)

(* A random stimulus program: each op pokes one input (index taken modulo
   the input count) with an arbitrary int, negative ones included, or
   steps; [read] marks where the sparse run observes. *)
type op = { poke : (int * int) option; read : bool }

let gen_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 40)
    (let* poke = option ~ratio:0.7 (pair (int_bound 7) int) in
     let* read = bool in
     return { poke; read })

(* Every signal's value, in declaration order. *)
let snapshot e = List.map (Engine.peek e) (Engine.signal_names e)

(* Run [ops] on a fresh engine. The dense run pokes through [poke_int] and
   reads after every op; the sparse run pokes through [poke] with a
   [Bitvec.t] and reads only at the marked ops. Both end with a read. *)
let run_ops ~backend ~dense m ops =
  let e = Engine.compile ~backend m in
  let inputs = Array.of_list (Sonar_ir.Fmodule.inputs m) in
  let seen = ref [] in
  List.iter
    (fun { poke; read } ->
      (match poke with
      | None -> Engine.step e
      | Some (i, v) ->
          let n, w = inputs.(i mod Array.length inputs) in
          if dense then Engine.poke_int e n v
          else Engine.poke e n (Bitvec.make ~width:w (Int64.of_int v)));
      if dense || read then seen := snapshot e :: !seen
      else seen := [] :: !seen)
    ops;
  List.rev (snapshot e :: !seen)

(* Tree, Compiled and Bitsliced give the same dense trajectory; on each
   backend, the sparse run sees at its marked ops exactly what the dense
   run saw there and ends in the same state. *)
let prop_reads_never_perturb =
  QCheck2.Test.make ~name:"reads never perturb state; poke_int = poke (random netlists)"
    ~count:150
    QCheck2.Gen.(pair gen_netlist gen_ops)
    (fun (m, ops) ->
      let dense = run_ops ~backend:Engine.Tree ~dense:true m ops in
      List.for_all
        (fun backend ->
          run_ops ~backend ~dense:true m ops = dense
          && List.for_all2
               (fun d s -> s = [] || s = d)
               dense
               (run_ops ~backend ~dense:false m ops))
        [ Engine.Tree; Engine.Compiled; Engine.Bitsliced ])

(* Input [a] of width [w], wired to output [o]. *)
let passthrough w =
  let open Sonar_ir in
  Fmodule.make "Pass"
    [
      Stmt.Input { name = "a"; width = w };
      Stmt.Output { name = "o"; width = w };
      Stmt.Connect { dst = "o"; src = Expr.reference "a" };
    ]

(* [poke_int] masks like a [Bitvec.t] of the input's width, for every width
   up to 63 and every int, on every backend. *)
let prop_poke_int_masks =
  QCheck2.Test.make ~name:"poke_int v = poke (Bitvec.make v), widths 1..63" ~count:300
    QCheck2.Gen.(pair (int_range 1 63) (oneof [ int; int_range (-4) 4 ]))
    (fun (w, v) ->
      let m = passthrough w in
      let expect = Bitvec.make ~width:w (Int64.of_int v) in
      List.for_all
        (fun backend ->
          let by_int = Engine.compile ~backend m in
          let by_bv = Engine.compile ~backend m in
          Engine.poke_int by_int "a" v;
          Engine.poke by_bv "a" expect;
          List.for_all
            (fun n ->
              Bitvec.equal (Engine.peek by_int n) expect
              && Bitvec.equal (Engine.peek by_bv n) expect)
            [ "a"; "o" ])
        [ Engine.Tree; Engine.Compiled; Engine.Bitsliced ])

(* [poke_lanes] equals a [poke_lane] loop that drives the missing lanes to
   0, over stale lanes from an earlier batch, for input widths 1..63 and
   batch sizes 0..63 (63 is the transpose's fast path, shorter batches the
   generic loop). *)
let prop_poke_lanes_matches_poke_lane =
  let open QCheck2.Gen in
  let gen =
    let* w = int_range 1 63 in
    let* n = oneof [ return Engine.max_lanes; int_range 0 Engine.max_lanes ] in
    let* vals = array_repeat n int in
    let* stale = array_repeat Engine.max_lanes int in
    return (w, vals, stale)
  in
  QCheck2.Test.make ~name:"poke_lanes = poke_lane loop (widths 1..63, batches 0..63)"
    ~count:300 gen
    (fun (w, vals, stale) ->
      let m = passthrough w in
      let bulk = Engine.compile ~backend:Engine.Bitsliced m in
      let lane_by_lane = Engine.compile ~backend:Engine.Bitsliced m in
      Array.iteri
        (fun lane v ->
          Engine.poke_lane bulk "a" ~lane v;
          Engine.poke_lane lane_by_lane "a" ~lane v)
        stale;
      Engine.poke_lanes bulk "a" vals;
      for lane = 0 to Engine.max_lanes - 1 do
        let v = if lane < Array.length vals then vals.(lane) else 0 in
        Engine.poke_lane lane_by_lane "a" ~lane v
      done;
      let mask = if w = 63 then -1 else (1 lsl w) - 1 in
      List.for_all
        (fun n ->
          let got = Engine.read_slot_lanes bulk (Engine.slot bulk n) in
          got = Engine.read_slot_lanes lane_by_lane (Engine.slot lane_by_lane n)
          && Array.for_all2
               (fun g lane -> g = (if lane < Array.length vals then vals.(lane) land mask else 0))
               got
               (Array.init Engine.max_lanes Fun.id))
        [ "a"; "o" ])

(* The same differential over the generated (and instrumented) boom and
   nutshell netlists — every module, every signal, every cycle. *)
let test_generated_netlist_differential () =
  List.iter
    (fun cfg ->
      let circuit = Sonar_dut.Netlist_gen.generate ~scale:0.02 ~pad:false cfg in
      let r = Sonar_ir.Instrument.instrument circuit in
      List.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s/%s compiled = interpreted"
               cfg.Sonar_uarch.Config.name m.Sonar_ir.Fmodule.name)
            true
            (engines_agree m ~cycles:12 ~seed:(Hashtbl.hash m.Sonar_ir.Fmodule.name)))
        r.Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules)
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]

(* Every lane of a 63-lane bit-sliced run over the instrumented DUT
   netlists, against 63 sequential compiled runs. *)
let test_bitsliced_dut_differential () =
  List.iter
    (fun cfg ->
      let circuit = Sonar_dut.Netlist_gen.generate ~scale:0.02 ~pad:false cfg in
      let r = Sonar_ir.Instrument.instrument circuit in
      List.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s/%s bit-sliced lanes = compiled"
               cfg.Sonar_uarch.Config.name m.Sonar_ir.Fmodule.name)
            true
            (lanes_agree m ~cycles:6 ~seed:(Hashtbl.hash m.Sonar_ir.Fmodule.name)))
        r.Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules)
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]

(* Partial batches: 1, 2 and 62 active lanes — idle lanes must stay on the
   all-zero-stimulus trajectory and active lanes must still be exact. *)
let test_bitsliced_partial_batches () =
  let m =
    Sonar_ir.Parser.parse_module
      {|
module P [other] :
  input a : UInt<8>
  input b : UInt<8>
  output o : UInt<8>
  reg acc : UInt<8> reset 3
  node t = mux(gt(a, b), sub(a, b), add(acc, xor(a, b)))
  connect acc = t
  connect o = acc
|}
  in
  List.iter
    (fun active_lanes ->
      checkb
        (Printf.sprintf "%d active lanes" active_lanes)
        true
        (lanes_agree ~active_lanes m ~cycles:10 ~seed:(active_lanes * 7919)))
    [ 1; 2; 62 ]

(* Width-63 signals with the top bit set: [read_slot] / [read_slot_lane]
   return the raw 63-bit pattern (negative when bit 62 is set) on every
   backend; [read_slot64] recovers the unsigned value. *)
let test_bitsliced_width63_top_bit () =
  let open Sonar_ir in
  let m =
    Fmodule.make "W63"
      [
        Stmt.Input { name = "a"; width = 63 };
        Stmt.Node
          {
            name = "inc";
            expr =
              Expr.prim Expr.Add
                [ Expr.reference "a"; Expr.lit ~width:63 1L ];
          };
        Stmt.Output { name = "o"; width = 63 };
        Stmt.Connect { dst = "o"; src = Expr.reference "inc" };
      ]
  in
  let top = 1 lsl 62 in
  List.iter
    (fun backend ->
      let e = Engine.compile ~backend m in
      Engine.poke_int e "a" (top lor 5);
      Engine.settle e;
      let s = Engine.slot e "o" in
      checkb "raw pattern is negative" true (Engine.read_slot e s < 0);
      checki "raw pattern" (top lor 6) (Engine.read_slot e s);
      check64 "unsigned via read_slot64" 0x4000_0000_0000_0006L
        (Engine.read_slot64 e s))
    [ Engine.Tree; Engine.Compiled; Engine.Bitsliced ];
  (* Per-lane: distinct top-bit patterns in distinct lanes. *)
  let e = Engine.compile ~backend:Engine.Bitsliced m in
  Engine.poke_lane e "a" ~lane:7 (top lor 1);
  Engine.poke_lane e "a" ~lane:8 2;
  Engine.settle e;
  let s = Engine.slot e "o" in
  checki "lane 7 wraps through the top bit" (top lor 2)
    (Engine.read_slot_lane e s ~lane:7);
  checki "lane 8 stays small" 3 (Engine.read_slot_lane e s ~lane:8);
  checki "idle lane" 1 (Engine.read_slot_lane e s ~lane:0)

(* Shifts at and beyond the operand width, on all backends. *)
let test_bitsliced_shift_ge_width () =
  let open Sonar_ir in
  let m =
    Fmodule.make "Shifts"
      [
        Stmt.Input { name = "a"; width = 4 };
        Stmt.Node
          { name = "l"; expr = Expr.prim (Expr.Shl 60) [ Expr.reference "a" ] };
        Stmt.Node
          { name = "r"; expr = Expr.prim (Expr.Shr 4) [ Expr.reference "a" ] };
        Stmt.Node
          { name = "r2"; expr = Expr.prim (Expr.Shr 63) [ Expr.reference "a" ] };
        Stmt.Output { name = "o"; width = 63 };
        Stmt.Connect
          {
            dst = "o";
            src =
              Expr.prim Expr.Or
                [
                  Expr.reference "l";
                  Expr.prim Expr.Or
                    [ Expr.reference "r"; Expr.reference "r2" ];
                ];
          };
      ]
  in
  List.iter
    (fun backend ->
      let e = Engine.compile ~backend m in
      Engine.poke_int e "a" 0xF;
      Engine.settle e;
      (* shl 60 of a 4-bit value keeps only the bits below 63 — the native
         63-bit shift drops the same top bit the engine masks away. *)
      checki "shl into the top" (0xF lsl 60)
        (Engine.read_slot e (Engine.slot e "l"));
      checki "shr = width" 0 (Engine.read_slot e (Engine.slot e "r"));
      checki "shr 63" 0 (Engine.read_slot e (Engine.slot e "r2")))
    [ Engine.Tree; Engine.Compiled; Engine.Bitsliced ];
  checkb "shift differential across lanes" true
    (lanes_agree m ~cycles:8 ~seed:0xBEEF)

(* Unsigned comparisons: values with the top bit of their width set must
   compare as large, not negative, on every backend and every lane. *)
let test_bitsliced_unsigned_compares () =
  let open Sonar_ir in
  let cmp name op =
    Stmt.Node
      { name; expr = Expr.prim op [ Expr.reference "a"; Expr.reference "b" ] }
  in
  let m =
    Fmodule.make "Cmp"
      [
        Stmt.Input { name = "a"; width = 8 };
        Stmt.Input { name = "b"; width = 8 };
        cmp "lt" Expr.Lt;
        cmp "leq" Expr.Leq;
        cmp "gt" Expr.Gt;
        cmp "geq" Expr.Geq;
        cmp "eq" Expr.Eq;
        cmp "neq" Expr.Neq;
        Stmt.Output { name = "o"; width = 6 };
        Stmt.Connect
          {
            dst = "o";
            src =
              List.fold_left
                (fun acc n ->
                  Expr.prim Expr.Cat [ acc; Expr.reference n ])
                (Expr.reference "lt")
                [ "leq"; "gt"; "geq"; "eq"; "neq" ];
          };
      ]
  in
  List.iter
    (fun backend ->
      let e = Engine.compile ~backend m in
      let check_case a b =
        Engine.poke_int e "a" a;
        Engine.poke_int e "b" b;
        Engine.settle e;
        let get n = Engine.read_slot e (Engine.slot e n) in
        checki (Printf.sprintf "lt %d %d" a b) (if a < b then 1 else 0) (get "lt");
        checki (Printf.sprintf "leq %d %d" a b) (if a <= b then 1 else 0)
          (get "leq");
        checki (Printf.sprintf "gt %d %d" a b) (if a > b then 1 else 0) (get "gt");
        checki (Printf.sprintf "geq %d %d" a b) (if a >= b then 1 else 0)
          (get "geq");
        checki (Printf.sprintf "eq %d %d" a b) (if a = b then 1 else 0) (get "eq");
        checki (Printf.sprintf "neq %d %d" a b) (if a <> b then 1 else 0)
          (get "neq")
      in
      (* 200 > 3 unsigned; equal values; both top-bit-set values. *)
      check_case 200 3;
      check_case 3 200;
      check_case 200 200;
      check_case 255 128;
      check_case 0 255)
    [ Engine.Tree; Engine.Compiled; Engine.Bitsliced ];
  checkb "compare differential across lanes" true
    (lanes_agree m ~cycles:8 ~seed:0xCAFE)

(* Bulk transpose helpers round-trip: poke_lanes in, read_slot_lanes out. *)
let test_bitsliced_transpose_roundtrip () =
  let e = Engine.compile ~backend:Engine.Bitsliced cat_module in
  let vals_a = Array.init Engine.max_lanes (fun l -> (l * 3) land 0xF) in
  let vals_b = Array.init Engine.max_lanes (fun l -> (l + 9) land 0xF) in
  Engine.poke_lanes e "a" vals_a;
  Engine.poke_lanes e "b" vals_b;
  Engine.settle e;
  let o = Engine.read_slot_lanes e (Engine.slot e "o") in
  checki "63 lanes out" Engine.max_lanes (Array.length o);
  Array.iteri
    (fun l v ->
      checki (Printf.sprintf "lane %d" l) ((vals_a.(l) lsl 4) lor vals_b.(l)) v)
    o

(* --- Monitor --- *)

let monitored_engine () =
  let m = Sonar_dut.Netlist_gen.example_module () in
  let r = Sonar_ir.Instrument.instrument (Sonar_ir.Circuit.make "c" [ m ]) in
  let m' = List.hd r.Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules in
  let e = Engine.compile m' in
  (e, Monitor.create e r.monitors)

let test_monitor_simultaneous () =
  let e, mon = monitored_engine () in
  Engine.poke_int e "io_ldq_idx_valid" 1;
  Engine.poke_int e "io_stq_idx_valid" 1;
  Engine.settle e;
  Monitor.sample mon;
  let st = List.hd (Monitor.states mon ~lane:0) in
  checkb "triggered" true st.Monitor.triggered;
  Alcotest.(check (option int)) "interval 0" (Some 0) st.min_pair_interval

let test_monitor_interval () =
  let e, mon = monitored_engine () in
  Engine.poke_int e "io_ldq_idx_valid" 1;
  Engine.settle e;
  Monitor.sample mon;
  Engine.poke_int e "io_ldq_idx_valid" 0;
  Engine.step e;
  Engine.step e;
  Monitor.sample mon;
  Engine.poke_int e "io_stq_idx_valid" 1;
  Engine.settle e;
  Monitor.sample mon;
  let st = List.hd (Monitor.states mon ~lane:0) in
  checkb "not simultaneous" false st.Monitor.triggered;
  Alcotest.(check (option int)) "interval 2" (Some 2) st.min_pair_interval

let test_monitor_window () =
  let e, mon = monitored_engine () in
  Monitor.set_window mon ~start:100 ~stop:200;
  Engine.poke_int e "io_ldq_idx_valid" 1;
  Engine.poke_int e "io_stq_idx_valid" 1;
  Engine.settle e;
  Monitor.sample mon;
  let st = List.hd (Monitor.states mon ~lane:0) in
  checkb "outside window ignored" false st.Monitor.triggered;
  checki "no hits recorded" 0 st.request_hits

(* The monitor's observable stream must be identical whichever engine
   backend it samples: same [reqsIntvl] minima, triggers, and hit counts
   after every cycle of the same stimulus on an instrumented netlist. *)
let test_monitor_stream_backends () =
  let m = Sonar_dut.Netlist_gen.example_module () in
  let r = Sonar_ir.Instrument.instrument (Sonar_ir.Circuit.make "c" [ m ]) in
  let m' = List.hd r.Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules in
  let run backend =
    let e = Engine.compile ~backend m' in
    let mon = Monitor.create e r.monitors in
    let stream = ref [] in
    List.iter
      (fun (ld, st) ->
        Engine.poke_int e "io_ldq_idx_valid" ld;
        Engine.poke_int e "io_stq_idx_valid" st;
        Engine.step e;
        Monitor.sample mon;
        stream :=
          List.map
            (fun (s : Monitor.point_state) ->
              ( s.point_id,
                s.min_pair_interval,
                s.min_self_interval,
                s.triggered,
                s.request_hits ))
            (Monitor.states mon ~lane:0)
          :: !stream)
      [ (1, 0); (0, 0); (0, 0); (0, 1); (1, 1); (0, 0); (1, 0); (0, 1) ];
    List.rev !stream
  in
  let compiled = run Engine.Compiled in
  checkb "identical reqsIntvl streams (tree)" true (run Engine.Tree = compiled);
  (* Scalar pokes broadcast on the bit-sliced backend, so its lane 0 must
     carry the identical stream too. *)
  checkb "identical reqsIntvl streams (bitsliced)" true
    (run Engine.Bitsliced = compiled)

(* Batch sampling differential: every lane of a [Monitor] over a
   bit-sliced engine must report exactly the per-point state the same
   monitor reports over a compiled run of that lane's stimulus (one lane)
   — window gating included. *)
let test_monitor_batch_lanes () =
  let m = Sonar_dut.Netlist_gen.example_module () in
  let r = Sonar_ir.Instrument.instrument (Sonar_ir.Circuit.make "c" [ m ]) in
  let m' = List.hd r.Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules in
  let cycles = 24 in
  (* Lane-dependent stimulus with distinct phases per source. *)
  let ld_stim lane cycle = if (cycle + lane) mod 3 = 0 then 1 else 0 in
  let st_stim lane cycle = if (cycle + (2 * lane)) mod 4 = 0 then 1 else 0 in
  let snapshot states =
    List.map
      (fun (s : Monitor.point_state) ->
        ( s.point_id,
          s.min_pair_interval,
          s.min_self_interval,
          s.triggered,
          s.request_hits ))
      states
  in
  let bs = Engine.compile ~backend:Engine.Bitsliced m' in
  let bmon = Monitor.create bs r.monitors in
  checki "batch lanes" Engine.max_lanes (Monitor.lanes bmon);
  Monitor.set_window bmon ~start:5 ~stop:18;
  for cycle = 0 to cycles - 1 do
    for lane = 0 to Engine.max_lanes - 1 do
      Engine.poke_lane bs "io_ldq_idx_valid" ~lane (ld_stim lane cycle);
      Engine.poke_lane bs "io_stq_idx_valid" ~lane (st_stim lane cycle)
    done;
    Engine.step bs;
    Monitor.sample bmon
  done;
  for lane = 0 to Engine.max_lanes - 1 do
    let e = Engine.compile ~backend:Engine.Compiled m' in
    let mon = Monitor.create e r.monitors in
    Monitor.set_window mon ~start:5 ~stop:18;
    for cycle = 0 to cycles - 1 do
      Engine.poke_int e "io_ldq_idx_valid" (ld_stim lane cycle);
      Engine.poke_int e "io_stq_idx_valid" (st_stim lane cycle);
      Engine.step e;
      Monitor.sample mon
    done;
    checkb
      (Printf.sprintf "lane %d bitsliced = compiled monitor" lane)
      true
      (snapshot (Monitor.states bmon ~lane) = snapshot (Monitor.states mon ~lane:0))
  done

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sonar_rtlsim"
    [
      ( "bitvec",
        [
          Alcotest.test_case "masking" `Quick test_bitvec_masking;
          Alcotest.test_case "arithmetic" `Quick test_bitvec_arith;
          Alcotest.test_case "comparisons" `Quick test_bitvec_compare;
          Alcotest.test_case "shift/slice/cat" `Quick test_bitvec_shift_slice;
        ]
        @ qcheck [ prop_bitvec_add_commutes; prop_bitvec_mask_idempotent ] );
      ( "engine",
        [
          Alcotest.test_case "counter" `Quick test_engine_counter;
          Alcotest.test_case "reset" `Quick test_engine_reset;
          Alcotest.test_case "combinational" `Quick test_engine_comb;
          Alcotest.test_case "unknown signals" `Quick test_engine_unknown_signal;
          Alcotest.test_case "tree backend" `Quick test_engine_tree_backend;
          Alcotest.test_case "cat" `Quick test_engine_cat;
          Alcotest.test_case "cat overflow at compile" `Quick
            test_cat_overflow_compile_time;
          Alcotest.test_case "allocation-free step" `Quick test_step_no_alloc;
        ]
        @ qcheck
            [ prop_engine_matches_interpreter; prop_poke_int_masks; prop_reads_never_perturb ] );
      ( "compiled-differential",
        [
          Alcotest.test_case "generated boom/nutshell netlists" `Quick
            test_generated_netlist_differential;
          Alcotest.test_case "monitor stream across backends" `Quick
            test_monitor_stream_backends;
        ]
        @ qcheck [ prop_compiled_matches_interpreted ] );
      ( "bitsliced",
        [
          Alcotest.test_case "boom/nutshell lane differential" `Quick
            test_bitsliced_dut_differential;
          Alcotest.test_case "partial batches" `Quick
            test_bitsliced_partial_batches;
          Alcotest.test_case "width-63 top bit" `Quick
            test_bitsliced_width63_top_bit;
          Alcotest.test_case "shift >= width" `Quick
            test_bitsliced_shift_ge_width;
          Alcotest.test_case "unsigned compares" `Quick
            test_bitsliced_unsigned_compares;
          Alcotest.test_case "transpose round-trip" `Quick
            test_bitsliced_transpose_roundtrip;
          Alcotest.test_case "batch monitor lanes" `Quick
            test_monitor_batch_lanes;
        ]
        @ qcheck [ prop_bitsliced_matches_compiled; prop_poke_lanes_matches_poke_lane ] );
      ( "levelize",
        [
          Alcotest.test_case "ordering" `Quick test_levelize_order;
          Alcotest.test_case "cycle detection" `Quick test_levelize_cycle;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "simultaneous trigger" `Quick test_monitor_simultaneous;
          Alcotest.test_case "interval measurement" `Quick test_monitor_interval;
          Alcotest.test_case "window gating" `Quick test_monitor_window;
        ] );
    ]
