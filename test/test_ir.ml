(* Unit and property tests for the circuit IR and its static analyses. *)

open Sonar_ir

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- Component --- *)

let test_component_roundtrip () =
  List.iter
    (fun c ->
      check
        (Alcotest.option (Alcotest.testable Component.pp Component.equal))
        "of_string/to_string" (Some c)
        (Component.of_string (Component.to_string c)))
    Component.all

let test_component_unknown () =
  checkb "unknown tag" true (Component.of_string "bogus" = None)

(* --- Expr --- *)

let e_ref = Expr.reference
let e_lit v = Expr.lit ~width:8 (Int64.of_int v)

let test_expr_refs () =
  let e =
    Expr.mux (e_ref "s") (Expr.prim Expr.Add [ e_ref "a"; e_ref "b" ]) (e_ref "a")
  in
  check Alcotest.(list string) "refs dedup" [ "s"; "a"; "b" ] (Expr.refs e)

let test_expr_count_muxes () =
  let inner = Expr.mux (e_ref "s1") (e_lit 1) (e_lit 2) in
  let outer = Expr.mux (e_ref "s0") inner (e_ref "x") in
  checki "nested muxes" 2 (Expr.count_muxes outer);
  checki "no muxes" 0 (Expr.count_muxes (Expr.prim Expr.Add [ e_lit 1; e_lit 2 ]))

let test_expr_equal () =
  let a = Expr.prim Expr.Add [ e_ref "x"; e_lit 1 ] in
  checkb "equal" true (Expr.equal a (Expr.prim Expr.Add [ e_ref "x"; e_lit 1 ]));
  checkb "not equal" false (Expr.equal a (Expr.prim Expr.Sub [ e_ref "x"; e_lit 1 ]))

let test_primop_arity () =
  checki "not arity" 1 (Expr.primop_arity Expr.Not);
  checki "add arity" 2 (Expr.primop_arity Expr.Add);
  checki "bits arity" 1 (Expr.primop_arity (Expr.Bits (3, 0)))

(* --- Parser / printer round trips --- *)

let test_parse_expr () =
  let e = Parser.parse_expr "mux(sel, add(a, UInt<8>(3)), shl<2>(b))" in
  checki "muxes" 1 (Expr.count_muxes e);
  checks "roundtrip" "mux(sel, add(a, UInt<8>(3)), shl<2>(b))"
    (Format.asprintf "%a" Expr.pp e)

let example_text =
  {|
circuit Demo :
  module M [lsu] :
    input io_a_data : UInt<8>
    input io_a_valid : UInt<1>
    input io_b_data : UInt<8>
    input sel : UInt<1>
    output out : UInt<8>
    reg r : UInt<8> reset 0
    node pick = mux(sel, io_a_data, io_b_data)
    connect r = pick
    connect out = r
|}

let test_parse_circuit () =
  let c = Parser.parse example_text in
  checks "name" "Demo" c.Circuit.name;
  checki "modules" 1 (Circuit.module_count c);
  let m = Option.get (Circuit.find_module c "M") in
  checki "stmts" 9 (Fmodule.stmt_count m);
  checkb "component" true (m.Fmodule.component = Component.Lsu)

let test_print_parse_roundtrip () =
  let c = Parser.parse example_text in
  let text = Format.asprintf "%a" Circuit.pp c in
  let c2 = Parser.parse text in
  checks "roundtrip text" text (Format.asprintf "%a" Circuit.pp c2)

let test_parse_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Error _ -> true
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  checkb "missing circuit" true (fails "module M [lsu] :");
  checkb "bad component" true (fails "circuit C :\n module M [nope] :");
  checkb "bad operator" true
    (fails "circuit C :\n module M [lsu] :\n node x = frobnicate(a)");
  checkb "arity" true (fails "circuit C :\n module M [lsu] :\n node x = add(a)");
  checkb "bad char" true (fails "circuit C : %$#")

let test_lexer_comments () =
  let c = Parser.parse "circuit C : ; a comment\nmodule M [rob] : ; another\n" in
  checki "module parsed" 1 (Circuit.module_count c)

(* Round-trip property over generated netlists. *)
let test_netlist_roundtrip () =
  let c = Sonar_dut.Netlist_gen.generate ~scale:0.005 ~pad:false Sonar_uarch.Config.boom in
  let text = Format.asprintf "%a" Circuit.pp c in
  let c2 = Parser.parse text in
  checki "stmt count preserved" (Circuit.stmt_count c) (Circuit.stmt_count c2);
  checks "fixpoint" text (Format.asprintf "%a" Circuit.pp c2)

(* --- Mux-tree tracing --- *)

let test_mux_tree_example () =
  (* The paper's Figure 3 example: ldq_stq_idx is one point with a 2-level
     cascade and 3 requests. *)
  let m = Sonar_dut.Netlist_gen.example_module () in
  let points = Mux_tree.points_of_module m in
  checki "one contention point" 1 (List.length points);
  let p = List.hd points in
  checks "output" "ldq_stq_idx" p.Mux_tree.output;
  checki "requests" 3 (Mux_tree.request_count p);
  checki "depth" 2 p.depth;
  checki "absorbed" 2 p.absorbed_muxes;
  check Alcotest.(list string) "selects" [ "sel_ld"; "sel_retry" ] p.selects;
  checki "naive count" 2 (Mux_tree.naive_mux_count m)

let test_mux_in_sel_not_absorbed () =
  (* A MUX in a select position roots its own tree. *)
  let m =
    Parser.parse_module
      {|
module M [exec] :
  input a : UInt<8>
  input b : UInt<8>
  input c : UInt<1>
  input d : UInt<1>
  input e : UInt<1>
  node selmux = mux(e, c, d)
  node out1 = mux(selmux, a, b)
  output o : UInt<8>
  connect o = out1
|}
  in
  checki "two points" 2 (List.length (Mux_tree.points_of_module m))

let test_mux_embedded_in_prim () =
  let m =
    Parser.parse_module
      {|
module M [exec] :
  input a : UInt<8>
  input b : UInt<8>
  input s : UInt<1>
  node out1 = add(mux(s, a, b), a)
  output o : UInt<8>
  connect o = out1
|}
  in
  let points = Mux_tree.points_of_module m in
  checki "embedded root found" 1 (List.length points);
  checki "naive" 1 (Mux_tree.naive_mux_count m)

let test_mux_tree_cycle_safe () =
  (* Combinational loop through named muxes must not hang the tracer. *)
  let m =
    Parser.parse_module
      {|
module M [other] :
  input s : UInt<1>
  input a : UInt<8>
  wire x : UInt<8>
  wire y : UInt<8>
  connect x = mux(s, a, y)
  connect y = mux(s, a, x)
|}
  in
  ignore (Mux_tree.points_of_module m);
  checkb "terminates" true true

(* --- Validity (Algorithm 1) --- *)

let test_prefix_candidates () =
  check
    Alcotest.(list string)
    "prefixes"
    [ "io_commit_uops"; "io_commit"; "io" ]
    (Validity.prefix_candidates "io_commit_uops_inst");
  check Alcotest.(list string) "no underscore" [] (Validity.prefix_candidates "abc")

let validity_module =
  Parser.parse_module
    {|
module M [rob] :
  input io_commit_valid : UInt<1>
  input io_commit_uops_inst : UInt<8>
  input plain : UInt<8>
  input src_valid : UInt<1>
  input src_data : UInt<8>
  node derived = add(src_data, UInt<8>(1))
  output o : UInt<8>
  connect o = derived
|}

let vtest = Alcotest.testable Validity.pp Validity.equal

let test_validity_direct () =
  check vtest "direct prefix match"
    (Validity.Direct "io_commit_valid")
    (Validity.determine validity_module (Expr.reference "io_commit_uops_inst"))

let test_validity_constant () =
  check vtest "literal is constant" Validity.Constant
    (Validity.determine validity_module (e_lit 7))

let test_validity_always () =
  check vtest "no valid anywhere" Validity.Always
    (Validity.determine validity_module (Expr.reference "plain"))

let test_validity_derived () =
  (* "derived" has no <prefix>_valid, but its source src_data has one. *)
  check vtest "derived from source"
    (Validity.Direct "src_valid")
    (Validity.determine validity_module (Expr.reference "derived"))

(* --- Constant filter --- *)

let test_filter_classification () =
  let m = Sonar_dut.Netlist_gen.example_module () in
  let classified = Const_filter.classify_module m in
  checki "classified count" 1 (List.length classified);
  checkb "monitored" true (List.hd classified).Const_filter.monitored

let test_filter_constant_point () =
  let m =
    Parser.parse_module
      {|
module M [other] :
  input s : UInt<1>
  node k = mux(s, UInt<8>(1), UInt<8>(2))
  output o : UInt<8>
  connect o = k
|}
  in
  let classified = Const_filter.classify_module m in
  checkb "constant point filtered" false (List.hd classified).Const_filter.monitored

let test_filter_single_valid () =
  let m =
    Parser.parse_module
      {|
module M [other] :
  input s : UInt<1>
  input rq_valid : UInt<1>
  input rq_data : UInt<8>
  input other : UInt<8>
  node k = mux(s, rq_data, other)
  output o : UInt<8>
  connect o = k
|}
  in
  let c = List.hd (Const_filter.classify_module m) in
  checkb "monitored" true c.Const_filter.monitored;
  checkb "single valid class" true c.single_valid

(* --- Instrumentation --- *)

let test_instrument_adds_monitors () =
  let m = Sonar_dut.Netlist_gen.example_module () in
  let circuit = Circuit.make "c" [ m ] in
  let r = Instrument.instrument circuit in
  checki "one point instrumented" 1 r.Instrument.points_instrumented;
  checkb "statements added" true (r.stmts_added > 0);
  let pm = List.hd r.monitors in
  checkb "valid outputs" true (List.length pm.Instrument.valid_outputs >= 2);
  checkb "interval output" true (pm.intvl_output <> None)

let test_instrument_runs_in_engine () =
  (* The instrumented example module must simulate, and the interval output
     must reach 0 when both requests fire in the same cycle. *)
  let m = Sonar_dut.Netlist_gen.example_module () in
  let r = Instrument.instrument (Circuit.make "c" [ m ]) in
  let m' = List.hd r.Instrument.circuit.Circuit.modules in
  let engine = Sonar_rtlsim.Engine.compile m' in
  let pm = List.hd r.monitors in
  let intvl = Option.get pm.Instrument.intvl_output in
  Sonar_rtlsim.Engine.poke_int engine "io_ldq_idx_valid" 1;
  Sonar_rtlsim.Engine.poke_int engine "io_stq_idx_valid" 1;
  Sonar_rtlsim.Engine.step engine;
  checki "simultaneous requests -> interval 0" 0
    (Sonar_rtlsim.Engine.peek_int engine intvl)

let test_instrument_interval_nonzero () =
  let m = Sonar_dut.Netlist_gen.example_module () in
  let r = Instrument.instrument (Circuit.make "c" [ m ]) in
  let m' = List.hd r.Instrument.circuit.Circuit.modules in
  let engine = Sonar_rtlsim.Engine.compile m' in
  let pm = List.hd r.monitors in
  let intvl = Option.get pm.Instrument.intvl_output in
  Sonar_rtlsim.Engine.poke_int engine "io_ldq_idx_valid" 1;
  Sonar_rtlsim.Engine.step engine;
  Sonar_rtlsim.Engine.poke_int engine "io_ldq_idx_valid" 0;
  Sonar_rtlsim.Engine.step engine;
  Sonar_rtlsim.Engine.step engine;
  Sonar_rtlsim.Engine.poke_int engine "io_stq_idx_valid" 1;
  Sonar_rtlsim.Engine.step engine;
  Sonar_rtlsim.Engine.poke_int engine "io_stq_idx_valid" 0;
  Sonar_rtlsim.Engine.settle engine;
  checki "three cycles apart" 3 (Sonar_rtlsim.Engine.peek_int engine intvl)

let test_specdoctor_quadratic () =
  (* Pair checks grow quadratically with module size. *)
  let gen scale = Sonar_dut.Netlist_gen.generate ~scale ~pad:false Sonar_uarch.Config.nutshell in
  let r1 = Specdoctor_instrument.instrument (gen 0.02) in
  let r2 = Specdoctor_instrument.instrument (gen 0.04) in
  checkb "superlinear pair checks" true
    (float_of_int r2.Specdoctor_instrument.pair_checks
    > 2.5 *. float_of_int r1.Specdoctor_instrument.pair_checks)

(* --- Analysis calibration (Figures 6 and 7) --- *)

let test_analysis_boom_calibration () =
  let c = Sonar_dut.Netlist_gen.generate ~pad:false Sonar_uarch.Config.boom in
  let s = Analysis.summarize c in
  checki "naive" 31484 s.Analysis.naive_mux_points;
  checki "identified" 8975 s.identified_points;
  checki "monitored" 6620 s.monitored_points

let test_analysis_nutshell_calibration () =
  let c = Sonar_dut.Netlist_gen.generate ~pad:false Sonar_uarch.Config.nutshell in
  let s = Analysis.summarize c in
  checki "naive" 23618 s.Analysis.naive_mux_points;
  checki "identified" 4631 s.identified_points;
  checki "monitored" 2976 s.monitored_points

let test_analysis_components_sum () =
  let c = Sonar_dut.Netlist_gen.generate ~scale:0.1 ~pad:false Sonar_uarch.Config.boom in
  let s = Analysis.summarize c in
  let sum_id = List.fold_left (fun a cs -> a + cs.Analysis.identified) 0 s.per_component in
  let sum_mon = List.fold_left (fun a cs -> a + cs.Analysis.monitored) 0 s.per_component in
  checki "components sum to identified" s.identified_points sum_id;
  checki "components sum to monitored" s.monitored_points sum_mon

(* --- QCheck properties --- *)

let gen_expr =
  let open QCheck2.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Expr.reference (Printf.sprintf "v%d" (abs i mod 8))) int;
                map (fun i -> Expr.lit ~width:8 (Int64.of_int (abs i mod 256))) int;
              ]
          else
            oneof
              [
                map (fun i -> Expr.reference (Printf.sprintf "v%d" (abs i mod 8))) int;
                map3
                  (fun a b c -> Expr.mux a b c)
                  (self (n / 2)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> Expr.prim Expr.Add [ a; b ]) (self (n / 2)) (self (n / 2));
                map (fun a -> Expr.prim Expr.Not [ a ]) (self (n - 1));
              ])
        n)

let prop_expr_print_parse =
  QCheck2.Test.make ~name:"expr print/parse roundtrip" ~count:200 gen_expr (fun e ->
      Expr.equal e (Parser.parse_expr (Format.asprintf "%a" Expr.pp e)))

let prop_mux_count_vs_points =
  QCheck2.Test.make ~name:"points never exceed naive mux count" ~count:100 gen_expr
    (fun e ->
      let m =
        Fmodule.make "M"
          (List.map (fun v -> Stmt.Input { name = v; width = 8 })
             (List.filter (fun v -> v.[0] = 'v') (Expr.refs e))
          @ [ Stmt.Node { name = "n"; expr = e } ])
      in
      List.length (Mux_tree.points_of_module m) <= max 1 (Mux_tree.naive_mux_count m))

let prop_absorbed_sum =
  QCheck2.Test.make ~name:"absorbed muxes partition the naive count" ~count:100
    gen_expr (fun e ->
      let m =
        Fmodule.make "M"
          (List.map (fun v -> Stmt.Input { name = v; width = 8 })
             (List.filter (fun v -> v.[0] = 'v') (Expr.refs e))
          @ [ Stmt.Node { name = "n"; expr = e } ])
      in
      let points = Mux_tree.points_of_module m in
      let absorbed = List.fold_left (fun a p -> a + p.Mux_tree.absorbed_muxes) 0 points in
      absorbed = Mux_tree.naive_mux_count m)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sonar_ir"
    [
      ( "component",
        [
          Alcotest.test_case "roundtrip" `Quick test_component_roundtrip;
          Alcotest.test_case "unknown" `Quick test_component_unknown;
        ] );
      ( "expr",
        [
          Alcotest.test_case "refs" `Quick test_expr_refs;
          Alcotest.test_case "count muxes" `Quick test_expr_count_muxes;
          Alcotest.test_case "equality" `Quick test_expr_equal;
          Alcotest.test_case "primop arity" `Quick test_primop_arity;
        ] );
      ( "parser",
        [
          Alcotest.test_case "expr" `Quick test_parse_expr;
          Alcotest.test_case "circuit" `Quick test_parse_circuit;
          Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "netlist roundtrip" `Quick test_netlist_roundtrip;
        ] );
      ( "mux_tree",
        [
          Alcotest.test_case "figure-3 example" `Quick test_mux_tree_example;
          Alcotest.test_case "sel not absorbed" `Quick test_mux_in_sel_not_absorbed;
          Alcotest.test_case "embedded in prim" `Quick test_mux_embedded_in_prim;
          Alcotest.test_case "cycle safe" `Quick test_mux_tree_cycle_safe;
        ] );
      ( "validity",
        [
          Alcotest.test_case "prefix candidates" `Quick test_prefix_candidates;
          Alcotest.test_case "direct" `Quick test_validity_direct;
          Alcotest.test_case "constant" `Quick test_validity_constant;
          Alcotest.test_case "always" `Quick test_validity_always;
          Alcotest.test_case "derived" `Quick test_validity_derived;
        ] );
      ( "const_filter",
        [
          Alcotest.test_case "example monitored" `Quick test_filter_classification;
          Alcotest.test_case "constant filtered" `Quick test_filter_constant_point;
          Alcotest.test_case "single-valid class" `Quick test_filter_single_valid;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "adds monitors" `Quick test_instrument_adds_monitors;
          Alcotest.test_case "simulates, interval 0" `Quick test_instrument_runs_in_engine;
          Alcotest.test_case "interval 3" `Quick test_instrument_interval_nonzero;
          Alcotest.test_case "specdoctor quadratic" `Quick test_specdoctor_quadratic;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "boom calibration" `Quick test_analysis_boom_calibration;
          Alcotest.test_case "nutshell calibration" `Quick test_analysis_nutshell_calibration;
          Alcotest.test_case "component sums" `Quick test_analysis_components_sum;
        ] );
      ( "properties",
        qcheck [ prop_expr_print_parse; prop_mux_count_vs_points; prop_absorbed_sum ] );
    ]
