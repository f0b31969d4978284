(* Netlist analysis end to end: generate the BOOM-calibrated netlist,
   instrument it with reqsIntvl monitors, simulate an instrumented module
   in the RTL engine, and watch the runtime monitor observe a contention.

   Run with: dune exec examples/netlist_analysis.exe *)

let () =
  (* Full-scale identification (Figure 6/7 numbers). *)
  let circuit = Sonar_dut.Netlist_gen.generate ~pad:false Sonar_uarch.Config.boom in
  Format.printf "%a@.@." Sonar_ir.Analysis.pp_summary
    (Sonar_ir.Analysis.summarize circuit);

  (* Instrument the Figure 3 example module and drive it. *)
  let m = Sonar_dut.Netlist_gen.example_module () in
  let result = Sonar_ir.Instrument.instrument (Sonar_ir.Circuit.make "demo" [ m ]) in
  Format.printf "instrumented %d point(s), %d statements added@."
    result.Sonar_ir.Instrument.points_instrumented result.stmts_added;
  let m' = List.hd result.circuit.Sonar_ir.Circuit.modules in
  let engine = Sonar_rtlsim.Engine.compile m' in
  let monitor = Sonar_rtlsim.Monitor.create engine result.monitors in
  (* Two requests four cycles apart, then simultaneous. *)
  Sonar_rtlsim.Engine.poke_int engine "io_ldq_idx_valid" 1;
  Sonar_rtlsim.Engine.settle engine;
  Sonar_rtlsim.Monitor.sample monitor;
  Sonar_rtlsim.Engine.poke_int engine "io_ldq_idx_valid" 0;
  for _ = 1 to 3 do
    Sonar_rtlsim.Engine.step engine;
    Sonar_rtlsim.Monitor.sample monitor
  done;
  Sonar_rtlsim.Engine.poke_int engine "io_ldq_idx_valid" 1;
  Sonar_rtlsim.Engine.poke_int engine "io_stq_idx_valid" 1;
  Sonar_rtlsim.Engine.settle engine;
  Sonar_rtlsim.Monitor.sample monitor;
  List.iter
    (fun (st : Sonar_rtlsim.Monitor.point_state) ->
      Format.printf
        "point %s: min pairwise reqsIntvl %s, volatile contention %s@."
        st.point_id
        (match st.min_pair_interval with
        | Some v -> string_of_int v ^ " cycles"
        | None -> "-")
        (if st.triggered then "TRIGGERED" else "not triggered"))
    (Sonar_rtlsim.Monitor.states monitor ~lane:0)
