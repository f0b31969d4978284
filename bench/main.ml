(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
   paper-vs-measured numbers).

   Default sizes keep the whole run to a few minutes; set SONAR_BENCH_FULL=1
   to scale campaign iterations and PoC trials up to paper scale. Individual
   experiments can be selected by passing their ids as argv (e.g.
   `bench/main.exe fig8 table3`); no arguments runs everything. *)

let full = Sys.getenv_opt "SONAR_BENCH_FULL" <> None

(* SONAR_BENCH_SMOKE=1 shrinks the fixed-scale experiments (table2's
   full-size netlist generation, simulation cycle counts) so CI can exercise
   them end-to-end on every push without paper-scale runtimes. *)
let smoke = Sys.getenv_opt "SONAR_BENCH_SMOKE" <> None
let fuzz_iterations = if full then 3000 else 400
let poc_trials = if full then 100 else 8
let poc_bits = if full then 128 else 32

(* Shared worker pool: independent per-DUT computations (summaries,
   campaigns, channel measurements, PoCs) fan out across it; printing stays
   sequential so the report reads cleanly. All fanned tasks are pure, so
   results are identical to a sequential run. *)
let pool = lazy (Sonar.Domain_pool.create ())
let pmap f xs = Sonar.Domain_pool.map_list (Lazy.force pool) f xs

let section id title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==================================================\n%!"

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Table 1: DUT configuration parameters.                              *)

let table1 () =
  section "table1" "Key parameters of BOOM and NutShell (Table 1)";
  List.iter
    (fun cfg ->
      Format.printf "%a@.@." Sonar_uarch.Config.pp cfg)
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]

(* ------------------------------------------------------------------ *)
(* Figure 6 / Figure 7: contention-point identification and filtering. *)

let summaries = lazy (
  pmap
    (fun cfg ->
      let circuit = Sonar_dut.Netlist_gen.generate ~pad:false cfg in
      (cfg, circuit, Sonar_ir.Analysis.summarize circuit))
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ])

let fig6 () =
  section "fig6" "Identified contention points: naive 2:1-MUX vs bottom-up";
  Printf.printf "%-10s %14s %14s %12s\n" "DUT" "2:1-MUX" "bottom-up" "reduction";
  List.iter
    (fun (cfg, _, s) ->
      Printf.printf "%-10s %14d %14d %11.1f%%\n" cfg.Sonar_uarch.Config.name
        s.Sonar_ir.Analysis.naive_mux_points s.identified_points
        (100. *. s.reduction_vs_naive))
    (Lazy.force summaries);
  Printf.printf "(paper: BOOM 31484 -> 8975, -71.5%%; NutShell 23618 -> 4631, -80.4%%)\n"

let fig7 () =
  section "fig7" "Distribution of contention points; filtering (Figure 7)";
  List.iter
    (fun (cfg, _, s) ->
      Printf.printf "%s: identified %d -> monitored %d (-%.1f%%)\n"
        cfg.Sonar_uarch.Config.name s.Sonar_ir.Analysis.identified_points
        s.monitored_points
        (100. *. s.reduction_by_filter);
      List.iter
        (fun (cs : Sonar_ir.Analysis.component_stats) ->
          Printf.printf "  %-9s identified %6d  monitored %6d\n"
            (Sonar_ir.Component.to_string cs.component)
            cs.identified cs.monitored)
        s.per_component)
    (Lazy.force summaries);
  Printf.printf "(paper: BOOM 8975 -> 6620, -26.2%%; NutShell 4631 -> 2976, -35.7%%)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: instrumentation overhead.                                  *)

let table2 () =
  section "table2" "Instrumentation overhead of Sonar (Table 2)";
  let gen_scale = if smoke then 0.05 else 1.0 in
  let sim_cycles = if smoke then 500 else 2000 in
  let fuzz_iters = if smoke then 10 else 40 in
  pmap
    (fun cfg ->
      let name = cfg.Sonar_uarch.Config.name in
      (* "Compile": netlist generation + analysis (plain) vs + instrumentation. *)
      let circuit, t_gen =
        time_it (fun () ->
            Sonar_dut.Netlist_gen.generate ~scale:gen_scale ~pad:true cfg)
      in
      let _, t_analyze = time_it (fun () -> Sonar_ir.Analysis.summarize circuit) in
      let instr_result, t_instr =
        time_it (fun () -> Sonar_ir.Instrument.instrument circuit)
      in
      let base = float_of_int (Sonar_ir.Circuit.stmt_count circuit) in
      let added = float_of_int instr_result.Sonar_ir.Instrument.stmts_added in
      let compile_plain = t_gen +. t_analyze in
      let compile_instr = compile_plain +. t_instr in
      (* Simulation speed: a reduced-scale instrumented netlist through the
         RTL engine, vs the same netlist uninstrumented; each on both the
         compiled (slot-resolved closures) and interpreted (tree-walking
         oracle) backends, so the instrumentation overhead is reported on
         the fast path and the compile-stage win is visible alongside. *)
      let small = Sonar_dut.Netlist_gen.generate ~scale:0.01 ~pad:false cfg in
      let small_instr = Sonar_ir.Instrument.instrument small in
      let sim_speed ~backend circuit =
        let m = List.hd circuit.Sonar_ir.Circuit.modules in
        let engine = Sonar_rtlsim.Engine.compile ~backend m in
        let _, dt =
          time_it (fun () ->
              for _ = 1 to sim_cycles do
                Sonar_rtlsim.Engine.step engine
              done)
        in
        float_of_int sim_cycles /. dt
      in
      let hz_plain = sim_speed ~backend:Sonar_rtlsim.Engine.Compiled small in
      let hz_instr =
        sim_speed ~backend:Sonar_rtlsim.Engine.Compiled
          small_instr.Sonar_ir.Instrument.circuit
      in
      let hz_plain_tree = sim_speed ~backend:Sonar_rtlsim.Engine.Tree small in
      let hz_instr_tree =
        sim_speed ~backend:Sonar_rtlsim.Engine.Tree
          small_instr.Sonar_ir.Instrument.circuit
      in
      (* Fuzzing speed: timed Sonar iterations on the timing model. *)
      let _, t_fuzz =
        time_it (fun () ->
            ignore
              (Sonar.Fuzzer.run
                 ~options:{ Sonar.Fuzzer.Options.default with seed = 5L }
                 cfg Sonar.Feedback.sonar ~iterations:fuzz_iters))
      in
      Printf.sprintf
        "%-10s points %5d | compile %.2fs (+%.0f%%) | new stmts %.0fk (%.0f%%) \
         | sim %.0fk -> %.0fk cyc/s (-%.0f%%) | fuzzing %.0f/hour\n\
        \           engine backends: interpreted %.0fk -> %.0fk cyc/s | \
         compiled %.0fk -> %.0fk cyc/s (%.1fx on instrumented)"
        name instr_result.points_instrumented compile_instr
        (100. *. (compile_instr -. compile_plain) /. compile_plain)
        (added /. 1000.)
        (100. *. added /. (base +. added))
        (hz_plain /. 1000.) (hz_instr /. 1000.)
        (100. *. (hz_plain -. hz_instr) /. hz_plain)
        (3600. /. (t_fuzz /. float_of_int fuzz_iters))
        (hz_plain_tree /. 1000.)
        (hz_instr_tree /. 1000.)
        (hz_plain /. 1000.) (hz_instr /. 1000.)
        (hz_instr /. Float.max 1. hz_instr_tree))
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]
  |> List.iter print_endline;
  Printf.printf
    "(paper: compile +43%%/+45%%; new verilog 14%%/20%%; sim slowdown \
     26%%/38%%; fuzzing 239/h BOOM, 7596/h NutShell)\n";
  (* Span-level breakdown of the compile-stage numbers above: profile one
     representative pipeline pass sequentially (the profiler hooks feed a
     single-domain span recorder, so this must not run under [pmap]). *)
  let obs_sink, obs_snapshot = Sonar.Telemetry.observatory () in
  let recorder = Sonar.Telemetry.Span.recorder obs_sink.Sonar.Telemetry.emit in
  let hook = Some (Sonar.Telemetry.Span.hook recorder) in
  Sonar_ir.Analysis.set_profiler hook;
  Sonar_ir.Instrument.set_profiler hook;
  Sonar_rtlsim.Engine.set_profiler hook;
  Fun.protect
    ~finally:(fun () ->
      Sonar_ir.Analysis.set_profiler None;
      Sonar_ir.Instrument.set_profiler None;
      Sonar_rtlsim.Engine.set_profiler None)
    (fun () ->
      let cfg = Sonar_uarch.Config.nutshell in
      let circuit =
        Sonar_dut.Netlist_gen.generate ~scale:(if smoke then 0.02 else 0.2)
          ~pad:false cfg
      in
      ignore (Sonar_ir.Analysis.summarize circuit);
      let instr = Sonar_ir.Instrument.instrument circuit in
      List.iter
        (fun m -> ignore (Sonar_rtlsim.Engine.compile m))
        instr.Sonar_ir.Instrument.circuit.Sonar_ir.Circuit.modules);
  let snap = obs_snapshot () in
  print_endline "\ncompile-stage span tree (NutShell, reduced scale):";
  let rec render indent (n : Sonar.Telemetry.Observatory.span_node) =
    Printf.printf "%s%s  %dx  %.3fs\n" indent n.span_name n.calls n.seconds;
    List.iter (render (indent ^ "  ")) n.children
  in
  List.iter (render "  ") snap.Sonar.Telemetry.Observatory.span_tree

(* ------------------------------------------------------------------ *)
(* Figure 8 (+ §8.3.2): Sonar vs random testing.                       *)

(* One Figure 8 campaign and its rows at every sixth of the campaign and at
   its end, rebuilt from the events it streams: coverage at iteration i is
   the last contention_triggered coverage at or before i (the largest, as
   coverage only grows), and timing differences the sum of ccd_finding
   counts at or before i. *)
let fig8_campaign (cfg, strategy) =
  let n = fuzz_iterations in
  let cov = Array.make (n + 1) 0. and diffs = Array.make (n + 1) 0 in
  let sink =
    Sonar.Telemetry.make (function
      | Sonar.Telemetry.Contention_triggered { iteration; coverage; _ } ->
          cov.(iteration) <- coverage
      | Sonar.Telemetry.Ccd_finding { iteration; findings; _ } ->
          diffs.(iteration) <- diffs.(iteration) + findings
      | _ -> ())
  in
  let o =
    Sonar.Fuzzer.run
      ~options:{ Sonar.Fuzzer.Options.default with seed = 42L; sinks = [ sink ] }
      cfg strategy ~iterations:n
  in
  for i = 1 to n do
    cov.(i) <- Float.max cov.(i) cov.(i - 1);
    diffs.(i) <- diffs.(i) + diffs.(i - 1)
  done;
  let rows =
    List.filter_map
      (fun i ->
        if i mod max 1 (n / 6) = 0 || i = n then Some (i, cov.(i), diffs.(i))
        else None)
      (List.init n succ)
  in
  (o, rows)

let fig8 () =
  section "fig8" "Triggered contentions and timing differences vs random";
  (* All four campaigns (2 DUTs x {sonar, random}) run concurrently. *)
  let campaigns =
    pmap fig8_campaign
      (List.concat_map
         (fun cfg ->
           [ (cfg, Sonar.Feedback.sonar); (cfg, Sonar.Feedback.random) ])
         [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ])
  in
  List.iteri
    (fun i cfg ->
      let name = cfg.Sonar_uarch.Config.name in
      Printf.printf "--- %s (%d iterations per fuzzer) ---\n%!" name fuzz_iterations;
      let sonar, sonar_rows = List.nth campaigns (2 * i) in
      let random, random_rows = List.nth campaigns ((2 * i) + 1) in
      List.iter2
        (fun (iteration, cov_a, diffs_a) (_, cov_b, diffs_b) ->
          Printf.printf
            "iter %5d | sonar: coverage %7.0f diffs %6d | random: coverage \
             %7.0f diffs %6d\n"
            iteration cov_a diffs_a cov_b diffs_b)
        sonar_rows random_rows;
      let pct a b = if b = 0. then 0. else 100. *. (a -. b) /. b in
      Printf.printf
        "summary: coverage %+.0f%%, timing differences %+.0f%% vs random \
         (paper: +117%% and +210%% on average)\n"
        (pct sonar.final_coverage random.final_coverage)
        (pct (float_of_int sonar.final_timing_diffs)
           (float_of_int random.final_timing_diffs));
      Printf.printf
        "testcases with timing differences: %.1f%% (paper: timing differences \
         observed for 2.4-7.2%% of triggered contentions)\n"
        (100.
        *. float_of_int sonar.testcases_with_diffs
        /. float_of_int fuzz_iterations))
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]

(* ------------------------------------------------------------------ *)
(* Figure 9: single-valid dominance of early contentions.              *)

let fig9 () =
  section "fig9" "Single-valid-signal dominance in the first 20 testcases";
  pmap
    (fun cfg ->
      let o =
        Sonar.Fuzzer.run
          ~options:{ Sonar.Fuzzer.Options.default with seed = 7L }
          cfg Sonar.Feedback.sonar ~iterations:20
      in
      Printf.sprintf "%-10s single-valid share of early coverage: %.0f%%"
        cfg.Sonar_uarch.Config.name
        (100. *. o.single_valid_share_first20))
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]
  |> List.iter print_endline;
  Printf.printf "(paper: contentions triggered by the first 20 testcases are \
                 dominated by single valid signals)\n"

(* ------------------------------------------------------------------ *)
(* Figure 10: strategy breakdown.                                      *)

let fig10 () =
  section "fig10" "Effectiveness of each fuzzing strategy (BOOM)";
  let iters = max 100 (fuzz_iterations / 2) in
  let strategies =
    [
      ("random (none)", Sonar.Feedback.random);
      ( "retention",
        Sonar.Feedback.of_flags
          { retention = true; selection = false; directed_mutation = false } );
      ( "retention+selection",
        Sonar.Feedback.of_flags
          { retention = true; selection = true; directed_mutation = false } );
      ("full (directed mutation)", Sonar.Feedback.sonar);
    ]
  in
  pmap
    (fun (name, strategy) ->
      let o =
        Sonar.Fuzzer.run
          ~options:{ Sonar.Fuzzer.Options.default with seed = 42L }
          Sonar_uarch.Config.boom strategy ~iterations:iters
      in
      Printf.sprintf "%-26s coverage %8.0f  timing diffs %6d" name
        o.final_coverage o.final_timing_diffs)
    strategies
  |> List.iter print_endline;
  Printf.printf "(paper: each added strategy increases triggered contentions, \
                 most visibly late in the campaign)\n"

(* ------------------------------------------------------------------ *)
(* Figure 11 + §8.3.4: vs SpecDoctor.                                  *)

let fig11 () =
  section "fig11" "Sonar vs SpecDoctor: new contention points; instrumentation complexity";
  let iters = max 200 (fuzz_iterations / 2) in
  (* Both fuzzers race through the same loop with the same options; only
     the strategy differs. *)
  let run strategy =
    Sonar.Fuzzer.run
      ~options:{ Sonar.Fuzzer.Options.default with seed = 11L }
      Sonar_uarch.Config.boom strategy ~iterations:iters
  in
  let p = Lazy.force pool in
  let sonar_f = Sonar.Domain_pool.submit p (fun () -> run Sonar.Feedback.sonar) in
  let sd_f =
    Sonar.Domain_pool.submit p (fun () -> run Sonar.Feedback.specdoctor)
  in
  let sonar = Sonar.Domain_pool.await sonar_f in
  let sd = Sonar.Domain_pool.await sd_f in
  Printf.printf "after %d iterations: sonar %.0f vs specdoctor %.0f contention \
                 points (%.2fx; paper: 2.13x)\n"
    iters sonar.final_coverage sd.final_coverage
    (sonar.final_coverage /. Float.max 1. sd.final_coverage);
  (* Instrumentation complexity: O(n) vs O(n^2) over module size. *)
  Printf.printf "\ninstrumentation scaling (statements -> seconds):\n";
  Printf.printf "%8s %12s %12s %14s\n" "stmts" "sonar O(n)" "specdoc O(n^2)" "pair checks";
  List.iter
    (fun scale ->
      let c = Sonar_dut.Netlist_gen.generate ~scale ~pad:false Sonar_uarch.Config.boom in
      let n = Sonar_ir.Circuit.stmt_count c in
      let _, t_sonar = time_it (fun () -> Sonar_ir.Instrument.instrument c) in
      let sd_result, t_sd =
        time_it (fun () -> Sonar_ir.Specdoctor_instrument.instrument c)
      in
      Printf.printf "%8d %11.3fs %11.3fs %14d\n" n t_sonar t_sd
        sd_result.Sonar_ir.Specdoctor_instrument.pair_checks)
    [ 0.05; 0.1; 0.2; 0.4 ]

(* ------------------------------------------------------------------ *)
(* Table 3: the fourteen side channels.                                *)

let table3 () =
  section "table3" "Contention side channels found by Sonar (Table 3)";
  Printf.printf "%-4s %-10s %-9s %-4s %-18s %-10s %s\n" "#" "resource" "DUT" "new"
    "measured delta" "paper" "detector";
  pmap (fun c -> (c, Sonar.Channels.measure c)) Sonar.Channels.all
  |> List.iter (fun ((c : Sonar.Channels.t), (m : Sonar.Channels.measurement)) ->
         Printf.printf "%-4s %-10s %-9s %-4s %14d cyc %5d-%-4d %s%s\n"
           c.Sonar.Channels.id c.resource c.dut
           (if c.is_new then "yes" else "no")
           m.time_difference (fst c.paper_band) (snd c.paper_band)
           (if m.in_band then "band-ok" else "OFF-BAND")
           (if m.points_implicated then ", point implicated" else ", POINT MISSING"))

(* ------------------------------------------------------------------ *)
(* §8.5: exploitability.                                               *)

let exploit () =
  section "exploit" "Meltdown-style PoC accuracy (§8.5)";
  List.filter_map
    (fun c ->
      Option.map
        (fun gadget -> (c, gadget))
        (Sonar.Attack.gadget_for c.Sonar.Channels.id))
    Sonar.Channels.all
  |> pmap (fun ((c : Sonar.Channels.t), gadget) ->
         let cfg = Option.get (Sonar_uarch.Config.by_name c.dut) in
         Sonar.Attack.run_poc ~trials:poc_trials ~key_bits:poc_bits cfg
           ~channel_id:c.id gadget)
  |> List.iter (fun r -> Format.printf "%a@." Sonar.Attack.pp_result r);
  Printf.printf
    "(paper: >99%% key accuracy for S1-S7/S11-S12 on BOOM; <2%% on NutShell \
     because exceptions are detected before the channel is established)\n"

(* ------------------------------------------------------------------ *)
(* §8.6: mitigation — timer coarsening.                                 *)

let mitigation () =
  section "mitigation" "Timer-coarsening mitigation (§8.6)";
  Printf.printf
    "Restricting clock registers quantises the attacker's measurements;      accuracy collapses once the granularity exceeds the channel margin.
";
  List.iter
    (fun (id, gadget) ->
      Printf.printf "%s PoC bit accuracy:" id;
      List.iter
        (fun g ->
          let r =
            Sonar.Attack.run_poc ~trials:4 ~key_bits:24 ~timer_granularity:g
              Sonar_uarch.Config.boom ~channel_id:id gadget
          in
          Printf.printf "  g=%-3d %5.1f%%" g (100. *. r.Sonar.Attack.bit_accuracy))
        [ 1; 8; 32; 128; 512 ];
      print_newline ())
    [ ("S11", Sonar.Attack.Cache_probe); ("S1", Sonar.Attack.Channel_occupancy) ]

(* ------------------------------------------------------------------ *)
(* Parallel execution: wall-clock jobs=1 vs jobs=N, determinism check.  *)

let speedup () =
  section "speedup" "Parallel fuzzing wall-clock: jobs x checkpoint sweep";
  let cfg = Sonar_uarch.Config.boom in
  let iters = fuzz_iterations in
  let batch = Sonar.Fuzzer.default_batch in
  let jobs_n = max 2 (Sonar.Domain_pool.default_jobs ()) in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "%s, %d iterations, full strategy, batch=%d, host cores=%d\n%!"
    cfg.Sonar_uarch.Config.name iters batch host_cores;
  (* Each run carries an in-memory telemetry aggregator so the wall-clock
     splits into generate/execute/feedback phases — the execute share is
     the only part extra jobs can parallelise (sinks observe the campaign
     but never influence it; the bit-identical check below still holds). *)
  let campaign jobs checkpoint =
    let sink, snap = Sonar.Telemetry.aggregator () in
    let o =
      Sonar.Fuzzer.run
        ~options:
          {
            Sonar.Fuzzer.Options.default with
            seed = 42L;
            jobs;
            checkpoint;
            sinks = [ sink ];
          }
        cfg Sonar.Feedback.sonar ~iterations:iters
    in
    (o, snap ())
  in
  (* Cross-mode identity: the checkpoint toggle changes only the
     cycles_simulated / cycles_saved / checkpoint_hits statistics, never
     the fuzzing outcome, so the comparison zeroes those three fields.
     Same-mode (jobs) comparisons stay full structural equality. *)
  let strip (o : Sonar.Fuzzer.outcome) =
    { o with cycles_simulated = 0; cycles_saved = 0; checkpoint_hits = 0 }
  in
  let phase_line (m : Sonar.Telemetry.Metrics.snapshot) =
    Printf.printf
    "           phases: generate %6.2fs | execute %6.2fs | feedback %6.2fs \
     (pool utilization %.0f%%)\n%!"
      m.generate_seconds m.execute_seconds m.feedback_seconds
      (100. *. m.pool_utilization)
  in
  let (o1, m1), t1 = time_it (fun () -> campaign 1 true) in
  Printf.printf "  jobs=1            %8.2fs\n%!" t1;
  phase_line m1;
  (* The headline number is the jobs=N checkpoint-on entry. The two
     checkpoint-off entries isolate the prefix-reuse win: identical
     outcomes (modulo the cycle statistics), more simulated cycles. *)
  let sweep_points = [ (jobs_n, true); (1, false); (jobs_n, false) ] in
  let sweep =
    List.map
      (fun (jobs, checkpoint) ->
        let (o, m), t = time_it (fun () -> campaign jobs checkpoint) in
        let sp = t1 /. t in
        let identical =
          if checkpoint then o = o1 else strip o = strip o1
        in
        Printf.printf "  jobs=%-3d checkpoint=%-3s %6.2fs  (%.2fx)\n%!" jobs
          (if checkpoint then "on" else "off")
          t sp;
        phase_line m;
        (jobs, checkpoint, t, sp, identical, o, m))
      sweep_points
  in
  let identical =
    List.for_all (fun (_, _, _, _, id, _, _) -> id) sweep
  in
  Printf.printf
    "  outcomes bit-identical across all (jobs, checkpoint): %b\n"
    identical;
  let _, _, tn, headline, _, _, mn =
    List.find (fun (jobs, cp, _, _, _, _, _) -> jobs = jobs_n && cp) sweep
  in
  let _, _, _, _, _, o_off, _ =
    List.find (fun (jobs, cp, _, _, _, _, _) -> jobs = 1 && not cp) sweep
  in
  (* Simulated-cycle reduction: checkpoint-off simulates the shared prefix
     of every dual run twice; checkpoint-on skips it the second time. *)
  let cycle_reduction =
    let off = float_of_int o_off.Sonar.Fuzzer.cycles_simulated in
    if off = 0. then 0.
    else
      float_of_int (o_off.cycles_simulated - o1.Sonar.Fuzzer.cycles_simulated)
      /. off
  in
  Printf.printf
    "  simulated cycles: %d (checkpoint on) vs %d (off) — %.1f%% saved, \
     %d/%d dual runs hit a checkpoint\n"
    o1.Sonar.Fuzzer.cycles_simulated o_off.Sonar.Fuzzer.cycles_simulated
    (100. *. cycle_reduction)
    o1.checkpoint_hits iters;
  let oversubscribed = host_cores < jobs_n in
  if oversubscribed then
    Printf.printf
      "\n  *** WARNING: oversubscribed — %d jobs on %d host cores. ***\n\
      \  *** Workers time-share cores; speedup numbers understate what ***\n\
      \  *** the parallel driver achieves on an unloaded machine.      ***\n"
      jobs_n host_cores;
  let doc =
    Sonar.Json.Obj
      [
        ("dut", Sonar.Json.String cfg.Sonar_uarch.Config.name);
        ("iterations", Sonar.Json.Int iters);
        ("batch", Sonar.Json.Int batch);
        ("jobs", Sonar.Json.Int jobs_n);
        ("host_cores", Sonar.Json.Int host_cores);
        ("oversubscribed", Sonar.Json.Bool oversubscribed);
        ("seconds_jobs1", Sonar.Json.Float t1);
        ("seconds_jobsN", Sonar.Json.Float tn);
        ("speedup", Sonar.Json.Float headline);
        ("identical_outcomes", Sonar.Json.Bool identical);
        ("cycles_simulated", Sonar.Json.Int o1.Sonar.Fuzzer.cycles_simulated);
        ( "cycles_simulated_nocheckpoint",
          Sonar.Json.Int o_off.Sonar.Fuzzer.cycles_simulated );
        ("cycles_saved", Sonar.Json.Int o1.cycles_saved);
        ("checkpoint_hits", Sonar.Json.Int o1.checkpoint_hits);
        ("cycle_reduction", Sonar.Json.Float cycle_reduction);
        ( "sweep",
          Sonar.Json.List
            (List.map
               (fun (jobs, checkpoint, t, sp, id, (o : Sonar.Fuzzer.outcome), _) ->
                 Sonar.Json.Obj
                   [
                     ("jobs", Sonar.Json.Int jobs);
                     ("checkpoint", Sonar.Json.Bool checkpoint);
                     ("seconds", Sonar.Json.Float t);
                     ("speedup", Sonar.Json.Float sp);
                     ("identical", Sonar.Json.Bool id);
                     ("cycles_simulated", Sonar.Json.Int o.cycles_simulated);
                     ("cycles_saved", Sonar.Json.Int o.cycles_saved);
                     ("checkpoint_hits", Sonar.Json.Int o.checkpoint_hits);
                   ])
               sweep) );
        ("final_coverage", Sonar.Json.Float o1.Sonar.Fuzzer.final_coverage);
        ("final_timing_diffs", Sonar.Json.Int o1.final_timing_diffs);
        ("phases_jobs1", Sonar.Telemetry.Metrics.to_json m1);
        ("phases_jobsN", Sonar.Telemetry.Metrics.to_json mn);
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Sonar.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* Strategy shoot-out: every registered feedback strategy on the same
   budget, with the determinism contract cross-checked per strategy.     *)

let strategies () =
  section "strategies"
    "Feedback strategy shoot-out: channels found per registered strategy";
  let cfg = Sonar_uarch.Config.nutshell in
  let iters = if smoke then 60 else max 200 (fuzz_iterations / 2) in
  (* A batch smaller than the campaign so selection/reward feedback kicks
     in across several generations even at smoke scale; fixed across the
     jobs=1 / jobs=2 comparison (batch shapes the campaign, jobs must
     not). *)
  let batch = min Sonar.Fuzzer.default_batch (max 8 (iters / 5)) in
  Printf.printf "%s, %d iterations, batch=%d, seed=42 — %d strategies\n%!"
    cfg.Sonar_uarch.Config.name iters batch
    (List.length Sonar.Feedback.names);
  (* Stateful strategies (bandit, novelty tables) learn in-place, so each
     campaign gets a fresh instance from the registry; the trace is the
     default-class JSONL stream (no wall-clock events), which the
     determinism contract requires to be byte-identical across jobs. *)
  let campaign name jobs =
    let strategy =
      match Sonar.Feedback.create name with
      | Some s -> s
      | None -> failwith ("unregistered strategy " ^ name)
    in
    let buf = Buffer.create 4096 in
    let sink =
      Sonar.Telemetry.jsonl (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
    in
    (* The channels found: state-diff point names of finding testcases,
       collected where the strategy is handed each observation. *)
    let channels = ref [] in
    let reward campaign (obs : Sonar.Feedback.observation) =
      if obs.report.findings <> [] then
        channels :=
          List.map Sonar_uarch.Cpoint.diff_point obs.report.state_diffs
          @ !channels;
      strategy.Sonar.Feedback.reward campaign obs
    in
    let o =
      Sonar.Fuzzer.run
        ~options:
          {
            Sonar.Fuzzer.Options.default with
            seed = 42L;
            jobs;
            batch;
            sinks = [ sink ];
          }
        cfg { strategy with reward } ~iterations:iters
    in
    (o, Buffer.contents buf, List.length (List.sort_uniq compare !channels))
  in
  let rows =
    List.map
      (fun name ->
        let (o1, trace1, channels), t = time_it (fun () -> campaign name 1) in
        let o2, trace2, _ = campaign name 2 in
        let identical = o1 = o2 && String.equal trace1 trace2 in
        Printf.printf
          "  %-18s coverage %8.0f  timing diffs %5d  channels %3d  \
           identical(jobs1=jobs2) %b  %6.2fs\n%!"
          name o1.Sonar.Fuzzer.final_coverage o1.final_timing_diffs channels
          identical t;
        (name, o1, channels, identical, t))
      Sonar.Feedback.names
  in
  let all_identical = List.for_all (fun (_, _, _, id, _) -> id) rows in
  Printf.printf "  all strategies bit-identical across jobs: %b\n"
    all_identical;
  let doc =
    Sonar.Json.Obj
      [
        ("dut", Sonar.Json.String cfg.Sonar_uarch.Config.name);
        ("iterations", Sonar.Json.Int iters);
        ("batch", Sonar.Json.Int batch);
        ("seed", Sonar.Json.Int 42);
        ("identical_all", Sonar.Json.Bool all_identical);
        ( "strategies",
          Sonar.Json.List
            (List.map
               (fun (name, (o : Sonar.Fuzzer.outcome), channels, id, t) ->
                 Sonar.Json.Obj
                   [
                     ("name", Sonar.Json.String name);
                     ( "description",
                       Sonar.Json.String
                         (Option.value ~default:""
                            (List.assoc_opt name Sonar.Feedback.all)) );
                     ("channels_found", Sonar.Json.Int channels);
                     ( "weighted_coverage",
                       Sonar.Json.Float o.final_coverage );
                     ("timing_diffs", Sonar.Json.Int o.final_timing_diffs);
                     ( "testcases_with_diffs",
                       Sonar.Json.Int o.testcases_with_diffs );
                     ( "contentions_triggered_testcases",
                       Sonar.Json.Int o.contentions_triggered_testcases );
                     ("identical", Sonar.Json.Bool id);
                     ("seconds", Sonar.Json.Float t);
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_strategies.json" in
  output_string oc (Sonar.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_strategies.json\n"

(* ------------------------------------------------------------------ *)
(* Engine benchmark: the zero-allocation claim, a compiled/interpreted  *)
(* differential check over generated DUT netlists (CI greps its verdict *)
(* line), and bit-sliced batch throughput.                              *)

let engine_bench () =
  section "engine"
    "RTL engine: step allocation; differential check; bit-sliced batch";
  let plain =
    Sonar_dut.Netlist_gen.generate ~scale:0.01 ~pad:false
      Sonar_uarch.Config.boom
  in
  let instr = (Sonar_ir.Instrument.instrument plain).Sonar_ir.Instrument.circuit in
  let first c = List.hd c.Sonar_ir.Circuit.modules in
  let engine_of backend c = Sonar_rtlsim.Engine.compile ~backend (first c) in
  (* Per-cycle allocation on the compiled path (the step loop is meant to
     be allocation-free; the interpreted oracle boxes a Bitvec per node). *)
  let alloc_per_kcycle backend =
    let e = engine_of backend instr in
    Sonar_rtlsim.Engine.step e;
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      Sonar_rtlsim.Engine.step e
    done;
    Gc.minor_words () -. w0
  in
  Printf.printf "\nminor-heap words / 1000 cycles (instrumented netlist):\n";
  Printf.printf "  interpreted %12.0f\n"
    (alloc_per_kcycle Sonar_rtlsim.Engine.Tree);
  Printf.printf "  compiled    %12.0f\n"
    (alloc_per_kcycle Sonar_rtlsim.Engine.Compiled);
  Printf.printf "  bit-sliced  %12.0f (63 lanes per step)\n%!"
    (alloc_per_kcycle Sonar_rtlsim.Engine.Bitsliced);
  (* The same with stimulus: every input driven by name with a fresh LCG
     value before each step ([poke_int] on Compiled, [poke_lanes] on
     Bitsliced). CI gates both below 64 words. *)
  let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF in
  let stimulus_words_per_kcycle backend =
    let m = first instr in
    let e = Sonar_rtlsim.Engine.compile ~backend m in
    let inputs = Array.of_list (List.map fst (Sonar_ir.Fmodule.inputs m)) in
    let buf = Array.make (Sonar_rtlsim.Engine.lanes e) 0 in
    let state = ref 1 in
    let poke =
      match backend with
      | Sonar_rtlsim.Engine.Bitsliced -> fun n -> Sonar_rtlsim.Engine.poke_lanes e n buf
      | Sonar_rtlsim.Engine.Tree | Sonar_rtlsim.Engine.Compiled ->
          fun n -> Sonar_rtlsim.Engine.poke_int e n buf.(0)
    in
    let cycle () =
      for i = 0 to Array.length inputs - 1 do
        for l = 0 to Array.length buf - 1 do
          state := lcg !state;
          buf.(l) <- !state
        done;
        poke inputs.(i)
      done;
      Sonar_rtlsim.Engine.step e
    in
    cycle ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      cycle ()
    done;
    Gc.minor_words () -. w0
  in
  let stim_compiled = stimulus_words_per_kcycle Sonar_rtlsim.Engine.Compiled in
  let stim_bitsliced = stimulus_words_per_kcycle Sonar_rtlsim.Engine.Bitsliced in
  Printf.printf "minor-heap words / 1000 cycles of poke-every-input + step:\n";
  Printf.printf "  compiled    %12.0f (poke_int)\n" stim_compiled;
  Printf.printf "  bit-sliced  %12.0f (poke_lanes)\n%!" stim_bitsliced;
  (* Differential: every module of both instrumented DUT netlists, stepped
     under a deterministic input stimulus on both backends, must expose
     bit-identical signal values every cycle. *)
  let cycles = 12 in
  let mismatches = ref 0 and modules = ref 0 in
  List.iter
    (fun cfg ->
      let c =
        Sonar_dut.Netlist_gen.generate ~scale:0.02 ~pad:false cfg
      in
      let ic = (Sonar_ir.Instrument.instrument c).Sonar_ir.Instrument.circuit in
      List.iter
        (fun m ->
          incr modules;
          let a = Sonar_rtlsim.Engine.compile ~backend:Sonar_rtlsim.Engine.Tree m in
          let b =
            Sonar_rtlsim.Engine.compile ~backend:Sonar_rtlsim.Engine.Compiled m
          in
          let inputs = Sonar_ir.Fmodule.inputs m in
          let names = Sonar_rtlsim.Engine.signal_names a in
          let state = ref (Hashtbl.hash m.Sonar_ir.Fmodule.name lor 1) in
          for _ = 1 to cycles do
            List.iter
              (fun (n, _) ->
                state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
                Sonar_rtlsim.Engine.poke_int a n !state;
                Sonar_rtlsim.Engine.poke_int b n !state)
              inputs;
            Sonar_rtlsim.Engine.step a;
            Sonar_rtlsim.Engine.step b;
            List.iter
              (fun n ->
                if
                  not
                    (Sonar_rtlsim.Bitvec.equal
                       (Sonar_rtlsim.Engine.peek a n)
                       (Sonar_rtlsim.Engine.peek b n))
                then incr mismatches)
              names
          done)
        ic.Sonar_ir.Circuit.modules)
    [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ];
  if !mismatches = 0 then
    Printf.printf
      "\nengine differential: ok (%d modules, %d cycles each, both DUTs)\n"
      !modules cycles
  else
    Printf.printf "\nengine differential: MISMATCH (%d signal deviations)\n"
      !mismatches;
  (* Bit-sliced batch throughput: one 63-lane bit-sliced simulation vs 63
     sequential compiled runs of the same instrumented module, each lane
     driven by its own deterministic LCG stimulus. Lane identity is checked
     exhaustively (every signal, every lane, every cycle) on a short
     prefix; the timed runs then measure raw stepping throughput. *)
  let lanes = Sonar_rtlsim.Engine.max_lanes in
  let m = first instr in
  let bs_inputs = List.map fst (Sonar_ir.Fmodule.inputs m) in
  let seed_of lane = (0xB05 + (31 * lane)) lor 1 in
  let verify_cycles = if smoke then 40 else 200 in
  let lanes_identical =
    let bs = engine_of Sonar_rtlsim.Engine.Bitsliced instr in
    let refs =
      Array.init lanes (fun _ -> engine_of Sonar_rtlsim.Engine.Compiled instr)
    in
    let states = Array.init lanes seed_of in
    let buf = Array.make lanes 0 in
    let names = Sonar_rtlsim.Engine.signal_names bs in
    let ok = ref true in
    for _ = 1 to verify_cycles do
      List.iter
        (fun n ->
          for l = 0 to lanes - 1 do
            states.(l) <- lcg states.(l);
            buf.(l) <- states.(l);
            Sonar_rtlsim.Engine.poke_int refs.(l) n states.(l)
          done;
          Sonar_rtlsim.Engine.poke_lanes bs n buf)
        bs_inputs;
      Sonar_rtlsim.Engine.step bs;
      Array.iter Sonar_rtlsim.Engine.step refs;
      List.iter
        (fun n ->
          let sb = Sonar_rtlsim.Engine.slot bs n in
          for l = 0 to lanes - 1 do
            let sr = Sonar_rtlsim.Engine.slot refs.(l) n in
            if
              Sonar_rtlsim.Engine.read_slot_lane bs sb ~lane:l
              <> Sonar_rtlsim.Engine.read_slot refs.(l) sr
            then ok := false
          done)
        names
    done;
    !ok
  in
  (* Engines are compiled outside the timed regions and [reset] between
     runs, matching a fuzzing campaign (compile once, simulate many). *)
  let timed_cycles = if smoke then 1_500 else 20_000 in
  let bs_timed = engine_of Sonar_rtlsim.Engine.Bitsliced instr in
  let seq_timed = engine_of Sonar_rtlsim.Engine.Compiled instr in
  let (), t_batch =
    time_it (fun () ->
        let bs = bs_timed in
        Sonar_rtlsim.Engine.reset bs;
        let states = Array.init lanes seed_of in
        let buf = Array.make lanes 0 in
        for _ = 1 to timed_cycles do
          List.iter
            (fun n ->
              for l = 0 to lanes - 1 do
                states.(l) <- lcg states.(l);
                buf.(l) <- states.(l)
              done;
              Sonar_rtlsim.Engine.poke_lanes bs n buf)
            bs_inputs;
          Sonar_rtlsim.Engine.step bs
        done)
  in
  let (), t_seq =
    time_it (fun () ->
        let e = seq_timed in
        for l = 0 to lanes - 1 do
          Sonar_rtlsim.Engine.reset e;
          let state = ref (seed_of l) in
          for _ = 1 to timed_cycles do
            List.iter
              (fun n ->
                state := lcg !state;
                Sonar_rtlsim.Engine.poke_int e n !state)
              bs_inputs;
            Sonar_rtlsim.Engine.step e
          done
        done)
  in
  let lane_cycles = float_of_int (lanes * timed_cycles) in
  let cps_seq = lane_cycles /. t_seq in
  let cps_batch = lane_cycles /. t_batch in
  let batch_speedup = t_seq /. t_batch in
  Printf.printf
    "\nbit-sliced batch (%d lanes x %d cycles, instrumented %s):\n" lanes
    timed_cycles m.Sonar_ir.Fmodule.name;
  Printf.printf "  lane identity vs compiled: %s\n"
    (if lanes_identical then
       Printf.sprintf "ok (%d cycles, every signal, every lane)" verify_cycles
     else "MISMATCH");
  Printf.printf "  sequential  %12.0f lane-cycles/s  (%.3f s)\n" cps_seq t_seq;
  Printf.printf "  bit-sliced  %12.0f lane-cycles/s  (%.3f s)\n" cps_batch
    t_batch;
  Printf.printf "  batch speedup: %.2fx\n" batch_speedup;
  let doc =
    Sonar.Json.Obj
      [
        ("dut", Sonar.Json.String "boom");
        ("module", Sonar.Json.String m.Sonar_ir.Fmodule.name);
        ("lanes", Sonar.Json.Int lanes);
        ("cycles", Sonar.Json.Int timed_cycles);
        ("verify_cycles", Sonar.Json.Int verify_cycles);
        ("lanes_identical", Sonar.Json.Bool lanes_identical);
        ("seconds_sequential", Sonar.Json.Float t_seq);
        ("seconds_bitsliced", Sonar.Json.Float t_batch);
        ("lane_cycles_per_sec_sequential", Sonar.Json.Float cps_seq);
        ("lane_cycles_per_sec_bitsliced", Sonar.Json.Float cps_batch);
        ("batch_speedup", Sonar.Json.Float batch_speedup);
        ("stimulus_words_per_kcycle_compiled", Sonar.Json.Float stim_compiled);
        ("stimulus_words_per_kcycle_bitsliced", Sonar.Json.Float stim_bitsliced);
      ]
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc (Sonar.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_engine.json\n"

(* ------------------------------------------------------------------ *)
(* Observability: trace rotation overhead vs a plain single-file trace, *)
(* merged-report byte-identity, and the /metrics render rate a scraper  *)
(* would see (CI greps the identity verdict).                           *)

let observability () =
  section "observability"
    "trace rotation overhead, merged-report identity, /metrics render rate";
  let module T = Sonar.Telemetry in
  let iterations = if smoke then 120 else 600 in
  let campaign sinks =
    ignore
      (Sonar.Fuzzer.run
         ~options:
           { Sonar.Fuzzer.Options.default with seed = 23L; batch = 8; sinks }
         Sonar_uarch.Config.nutshell Sonar.Feedback.sonar ~iterations)
  in
  let read_lines path =
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  in
  (* baseline: no trace at all, then one flat file, then rotation *)
  let (), t_bare = time_it (fun () -> campaign []) in
  let flat = Filename.temp_file "sonar_bench_obs" ".jsonl" in
  let (), t_flat =
    time_it (fun () ->
        let s = T.jsonl_file flat in
        campaign [ s ];
        T.close s)
  in
  let base = Filename.temp_file "sonar_bench_rot" ".jsonl" in
  Sys.remove base;
  let (), t_rot =
    time_it (fun () ->
        let s = T.rotating_jsonl ~max_generations:5 base in
        campaign [ s ];
        T.close s)
  in
  let segments =
    let rec go i acc =
      let p = T.segment_path base i in
      if Sys.file_exists p then go (i + 1) (p :: acc) else List.rev acc
    in
    go 0 []
  in
  let merged =
    match Sonar.Report.load_many ~label:"campaign" segments with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let reference = Sonar.Report.of_lines ~source:"campaign" (read_lines flat) in
  let merged_identical =
    Sonar.Report.to_markdown reference = Sonar.Report.to_markdown merged
    && Sonar.Json.to_string (Sonar.Report.to_json reference)
       = Sonar.Json.to_string (Sonar.Report.to_json merged)
  in
  Printf.printf "campaign (%d iterations):\n" iterations;
  Printf.printf "  no trace      %7.3f s\n" t_bare;
  Printf.printf "  flat trace    %7.3f s  (+%.1f%%)\n" t_flat
    (100. *. ((t_flat /. t_bare) -. 1.));
  Printf.printf "  rotated trace %7.3f s  (+%.1f%%, %d segments)\n" t_rot
    (100. *. ((t_rot /. t_bare) -. 1.))
    (List.length segments);
  Printf.printf "merged report identical to flat-trace report: %s\n"
    (if merged_identical then "ok" else "MISMATCH");
  (* scrape cost: replay the campaign the way `sonar serve` does and
     request /metrics from its handler *)
  let feed, handler = Sonar.Serve.replay ~health:[] in
  List.iter feed (read_lines flat);
  let renders = if smoke then 200 else 2000 in
  let body = ref "" in
  let (), t_render =
    time_it (fun () ->
        for _ = 1 to renders do
          body := (Option.get (handler "/metrics")).Sonar.Serve.body
        done)
  in
  let renders_per_sec = float_of_int renders /. t_render in
  Printf.printf "/metrics render: %d bytes, %.0f renders/s\n"
    (String.length !body) renders_per_sec;
  let doc =
    Sonar.Json.Obj
      [
        ("iterations", Sonar.Json.Int iterations);
        ("seconds_no_trace", Sonar.Json.Float t_bare);
        ("seconds_flat_trace", Sonar.Json.Float t_flat);
        ("seconds_rotated_trace", Sonar.Json.Float t_rot);
        ("segments", Sonar.Json.Int (List.length segments));
        ("merged_identical", Sonar.Json.Bool merged_identical);
        ("metrics_bytes", Sonar.Json.Int (String.length !body));
        ("metrics_renders_per_sec", Sonar.Json.Float renders_per_sec);
      ]
  in
  let oc = open_out "BENCH_observability.json" in
  output_string oc (Sonar.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_observability.json\n";
  Sys.remove flat;
  List.iter Sys.remove segments

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("table2", table2);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("table3", table3);
    ("exploit", exploit);
    ("mitigation", mitigation);
    ("speedup", speedup);
    ("strategies", strategies);
    ("engine", engine_bench);
    ("observability", observability);
  ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None ->
          Printf.printf "unknown experiment %s (available: %s)\n" id
            (String.concat ", " (List.map fst experiments)))
    selected;
  if Lazy.is_val pool then Sonar.Domain_pool.shutdown (Lazy.force pool);
  Printf.printf "\nAll selected experiments completed%s.\n"
    (if full then " (full scale)" else " (reduced scale; SONAR_BENCH_FULL=1 for paper scale)")
