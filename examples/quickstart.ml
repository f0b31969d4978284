(* Quickstart: the whole Sonar pipeline in one page.

   1. Identify contention points in a circuit via bottom-up MUX tracing.
   2. Filter states without side-channel risk (Algorithm 1).
   3. Fuzz a processor timing model with contention-state guidance.
   4. Inspect the dual-differential detector's findings.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* Step 1-2: static analysis of a small hand-written circuit — the
     paper's Figure 3 example plus a constant point that the filter drops. *)
  let circuit_text =
    {|
circuit Quickstart :
  module Lsu [lsu] :
    input io_ldq_idx_data : UInt<8>
    input io_ldq_idx_valid : UInt<1>
    input io_stq_idx_data : UInt<8>
    input io_stq_idx_valid : UInt<1>
    input sel_ld : UInt<1>
    output out : UInt<8>
    node ldq_stq_idx = mux(sel_ld, io_ldq_idx_data, io_stq_idx_data)
    connect out = ldq_stq_idx
  module ConstSel [other] :
    input s : UInt<1>
    output o : UInt<8>
    node k = mux(s, UInt<8>(1), UInt<8>(2))
    connect o = k
|}
  in
  let circuit = Sonar_ir.Parser.parse circuit_text in
  let summary = Sonar_ir.Analysis.summarize circuit in
  Format.printf "== Static identification and filtering ==@.%a@.@."
    Sonar_ir.Analysis.pp_summary summary;

  (* Step 3: a short guided fuzzing campaign on the NutShell-like core. *)
  Format.printf "== Guided fuzzing (NutShell model, 60 iterations) ==@.";
  let outcome =
    Sonar.Fuzzer.run
      ~options:{ Sonar.Fuzzer.Options.default with seed = 2024L }
      Sonar_uarch.Config.nutshell Sonar.Feedback.sonar ~iterations:60
  in
  Format.printf
    "contention coverage %.0f netlist points, %d secret-reflecting timing \
     differences in %d testcases@.@."
    outcome.Sonar.Fuzzer.final_coverage outcome.final_timing_diffs
    outcome.testcases_with_diffs;

  (* Step 4: the dual-differential report of the first finding. *)
  match outcome.first_reports with
  | [] -> Format.printf "no findings in this short run — try more iterations@."
  | (iteration, report) :: _ ->
      Format.printf "== First finding (iteration %d) ==@.%a@." iteration
        Sonar.Detector.pp_report report
