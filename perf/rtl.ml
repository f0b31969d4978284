(* The static workload: the padded BOOM netlist through generation,
   analysis, instrumentation and both RTL engines, then every instrumented
   module stepped under a per-module LCG stimulus. One design cycle steps
   every module once. *)

module Engine = Sonar_rtlsim.Engine

type design = {
  stmts : int;  (** statements of the generated netlist *)
  instrumented_stmts : int;
  monitored_points : int;
  stmts_added : int;
  inputs : string array array;  (** per module *)
  compiled : Engine.t array;
  bitsliced : Engine.t array;
}

let timed sp name ~id f =
  match sp with None -> f () | Some sp -> Spans.span sp name ~id f

let generate ~scale = Sonar_dut.Netlist_gen.generate ~scale ~pad:true Sonar_uarch.Config.boom

let inputs_of m = Array.of_list (List.map fst (Sonar_ir.Fmodule.inputs m))

let setup ?sp ~scale () =
  let circuit = timed sp "netlist_gen" ~id:0 (fun () -> generate ~scale) in
  let summary = timed sp "analysis" ~id:0 (fun () -> Sonar_ir.Analysis.summarize circuit) in
  let instr = timed sp "instrument" ~id:0 (fun () -> Sonar_ir.Instrument.instrument circuit) in
  let icircuit = instr.Sonar_ir.Instrument.circuit in
  let modules = Array.of_list icircuit.Sonar_ir.Circuit.modules in
  let compile name backend =
    Array.mapi (fun id m -> timed sp name ~id (fun () -> Engine.compile ~backend m)) modules
  in
  let compiled = compile "engine.compile" Engine.Compiled in
  let bitsliced = compile "engine.compile_bitsliced" Engine.Bitsliced in
  {
    stmts = Sonar_ir.Circuit.stmt_count circuit;
    instrumented_stmts = Sonar_ir.Circuit.stmt_count icircuit;
    monitored_points = summary.Sonar_ir.Analysis.monitored_points;
    stmts_added = instr.Sonar_ir.Instrument.stmts_added;
    inputs = Array.map inputs_of modules;
    compiled;
    bitsliced;
  }

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF
let lane_seed ~seed ~m ~lane = Hashtbl.hash (seed, m, lane) lor 1

(* Stimulus state: one LCG per (module, lane); scalar engines use lane 0. *)
let stimulus d ~seed =
  Array.mapi
    (fun m _ -> Array.init Engine.max_lanes (fun lane -> lane_seed ~seed ~m ~lane))
    d.inputs

let step_compiled d st =
  Array.iteri
    (fun m e ->
      let s = st.(m) in
      Array.iter
        (fun n ->
          s.(0) <- lcg s.(0);
          Engine.poke_int e n s.(0))
        d.inputs.(m);
      Engine.step e)
    d.compiled

let step_bitsliced d st buf =
  Array.iteri
    (fun m e ->
      let s = st.(m) in
      Array.iter
        (fun n ->
          for lane = 0 to Engine.max_lanes - 1 do
            s.(lane) <- lcg s.(lane);
            buf.(lane) <- s.(lane)
          done;
          Engine.poke_lanes e n buf)
        d.inputs.(m);
      Engine.step e)
    d.bitsliced

(* Correctness gates on a 2%-scale netlist, counted in (signal, cycle)
   samples: Compiled against the Tree oracle over 12 cycles, and selected
   Bitsliced lanes against Compiled engines over a 40-cycle prefix. *)
let gate_engines ~seed =
  let icircuit = (Sonar_ir.Instrument.instrument (generate ~scale:0.02)).Sonar_ir.Instrument.circuit in
  let samples = ref 0 and mismatches = ref 0 in
  let check same =
    incr samples;
    if not same then incr mismatches
  in
  List.iteri
    (fun m fm ->
      let inputs = inputs_of fm in
      let tree = Engine.compile ~backend:Engine.Tree fm in
      let compiled = Engine.compile ~backend:Engine.Compiled fm in
      let names = Engine.signal_names tree in
      let s = ref (lane_seed ~seed ~m ~lane:0) in
      for _ = 1 to 12 do
        Array.iter
          (fun n ->
            s := lcg !s;
            Engine.poke_int tree n !s;
            Engine.poke_int compiled n !s)
          inputs;
        Engine.step tree;
        Engine.step compiled;
        List.iter
          (fun n ->
            check (Sonar_rtlsim.Bitvec.equal (Engine.peek tree n) (Engine.peek compiled n)))
          names
      done;
      let lanes = [| 0; 1; 31; Engine.max_lanes - 1 |] in
      let bs = Engine.compile ~backend:Engine.Bitsliced fm in
      let refs = Array.map (fun _ -> Engine.compile ~backend:Engine.Compiled fm) lanes in
      let st = Array.init Engine.max_lanes (fun lane -> lane_seed ~seed ~m ~lane) in
      let buf = Array.make Engine.max_lanes 0 in
      let slots = List.map (fun n -> (Engine.slot bs n, n)) names in
      for _ = 1 to 40 do
        Array.iter
          (fun n ->
            for lane = 0 to Engine.max_lanes - 1 do
              st.(lane) <- lcg st.(lane);
              buf.(lane) <- st.(lane)
            done;
            Engine.poke_lanes bs n buf;
            Array.iteri (fun i lane -> Engine.poke_int refs.(i) n st.(lane)) lanes)
          inputs;
        Engine.step bs;
        Array.iter Engine.step refs;
        List.iter
          (fun (slot, n) ->
            Array.iteri
              (fun i lane ->
                check
                  (Engine.read_slot_lane bs slot ~lane
                  = Engine.read_slot refs.(i) (Engine.slot refs.(i) n)))
              lanes)
          slots
      done)
    icircuit.Sonar_ir.Circuit.modules;
  if !mismatches > 0 then
    Printf.eprintf "perf: %d engine samples differ from their oracle\n" !mismatches;
  (!samples, !mismatches)

(* Design cycles per timed block: long enough to read the clock rarely,
   short enough to give many blocks per run. *)
let block = 10

let timed_block f =
  let words0 = Gc.minor_words () in
  let t0 = Host.now_ns () in
  for _ = 1 to block do
    f ()
  done;
  let dt = Host.seconds_since t0 in
  (dt, Gc.minor_words () -. words0)

let run ~scale ~seed ~seconds =
  let design = ref None in
  let setups =
    List.init 3 (fun _ ->
        (* Free the previous design first, so that peak memory is one
           design's. *)
        design := None;
        Gc.full_major ();
        let t0 = Host.now_ns () in
        design := Some (setup ~scale ());
        Host.seconds_since t0)
  in
  let d = Option.get !design in
  let st = stimulus d ~seed in
  step_compiled d st;
  let blocks = Measure.repeat ~seconds ~min:2 (fun () -> timed_block (fun () -> step_compiled d st)) in
  let samples, mismatches = gate_engines ~seed in
  let cycles = block * List.length blocks in
  let fb = float_of_int block in
  {
    Measure.correct = mismatches = 0;
    attempted = cycles + samples;
    failed = mismatches;
    metrics =
      [
        ("ops_per_s", Stats.median (List.map (fun (dt, _) -> fb /. dt) blocks));
        ("setup_s", Stats.median setups);
        ("peak_rss_mb", Host.peak_rss_mb ());
        ("minor_words_per_op", Stats.median (List.map (fun (_, w) -> w /. fb) blocks));
      ];
  }

let trace ~scale ~seed ~seconds ~out =
  let sp = Spans.create () in
  let half = seconds /. 2. in
  let d, compiled_blocks, lane_blocks =
    Spans.group sp "rtl-static" ~id:seed (fun () ->
        let d = setup ~sp ~scale () in
        let st = stimulus d ~seed in
        let cycle = ref 0 in
        let stepped name f () =
          incr cycle;
          Spans.span sp name ~id:!cycle f
        in
        (* Each block of compiled cycles with a span per cycle is followed
           by one under a single span, for the tracing overhead. *)
        let compiled =
          Measure.repeat ~seconds:half ~min:2 (fun () ->
              let traced = timed_block (stepped "engine.step" (fun () -> step_compiled d st)) in
              let plain =
                Spans.span sp "engine.block" ~id:!cycle (fun () ->
                    timed_block (fun () -> step_compiled d st))
              in
              (traced, fst plain))
        in
        let buf = Array.make Engine.max_lanes 0 in
        let lanes =
          Measure.repeat ~seconds:half ~min:2 (fun () ->
              timed_block (stepped "engine.lane_step" (fun () -> step_bitsliced d st buf)))
        in
        (d, compiled, lanes))
  in
  let sum f = List.fold_left (fun a x -> a +. f x) 0. in
  let untraced_steps = sum snd compiled_blocks in
  let compiled_blocks = List.map fst compiled_blocks in
  let traced_steps = sum fst compiled_blocks in
  Spans.write sp (Filename.concat out "spans.jsonl");
  let samples, mismatches = gate_engines ~seed in
  let cycles l = float_of_int (block * List.length l) in
  let per_kstmt name n = 1e3 *. Spans.total sp name /. (float_of_int n /. 1e3) in
  let words = sum snd compiled_blocks in
  let compiled_cycles = cycles compiled_blocks and lane_cycles = cycles lane_blocks in
  {
    Measure.correct = mismatches = 0;
    attempted = int_of_float (compiled_cycles +. lane_cycles) + samples;
    failed = mismatches;
    metrics =
      [
        ("netlist_gen.ms_per_kstmt", per_kstmt "netlist_gen" d.stmts);
        ("analysis.ms_per_kstmt", per_kstmt "analysis" d.stmts);
        ("instrument.ms_per_kstmt", per_kstmt "instrument" d.stmts);
        ("engine.compile_ms_per_kstmt", per_kstmt "engine.compile" d.instrumented_stmts);
        ( "engine.compile_bitsliced_ms_per_kstmt",
          per_kstmt "engine.compile_bitsliced" d.instrumented_stmts );
        ("analysis.monitored_points", float_of_int d.monitored_points);
        ("instrument.stmts_added", float_of_int d.stmts_added);
        ("engine.us_per_cycle", 1e6 *. Spans.total sp "engine.step" /. compiled_cycles);
        ( "engine.us_per_lane_cycle",
          1e6 *. Spans.total sp "engine.lane_step"
          /. (lane_cycles *. float_of_int Engine.max_lanes) );
        ("engine.minor_words_per_kcycle", 1e3 *. words /. compiled_cycles);
        ("trace.overhead", (traced_steps /. untraced_steps) -. 1.);
        ( "trace.unattributed_share",
          Spans.self_time sp "rtl-static" /. Spans.total sp "rtl-static" );
      ];
  }
