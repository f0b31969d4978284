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
     26%%/38%%; fuzzing 239/h BOOM, 7596/h NutShell)\n"

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
  (* The reference is jobs=1 checkpoint-on; the headline number is the
     jobs=N checkpoint-on entry. The two checkpoint-off entries isolate the
     prefix-reuse win: identical outcomes (modulo the cycle statistics),
     more simulated cycles. Each point is timed as the median of [repeats]
     runs taken in interleaved rounds, round r running every point once in
     an order rotated by r, so drift in host load falls on all points
     alike instead of on whichever runs last. *)
  let repeats = 3 in
  let points = [| (1, true); (jobs_n, true); (1, false); (jobs_n, false) |] in
  let n = Array.length points in
  let runs = Array.make n [] in
  for r = 0 to repeats - 1 do
    for k = 0 to n - 1 do
      let i = (k + r) mod n in
      let jobs, checkpoint = points.(i) in
      let (o, m), t = time_it (fun () -> campaign jobs checkpoint) in
      runs.(i) <- (t, o, m) :: runs.(i)
    done
  done;
  let median i =
    List.nth
      (List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) runs.(i))
      (repeats / 2)
  in
  let t1, o1, m1 = median 0 in
  let identical_runs i =
    let _, checkpoint = points.(i) in
    List.for_all
      (fun (_, o, _) -> if checkpoint then o = o1 else strip o = strip o1)
      runs.(i)
  in
  Printf.printf "  jobs=1            %8.2fs  (median of %d)\n" t1 repeats;
  phase_line m1;
  let sweep =
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let jobs, checkpoint = points.(i) in
        let t, o, m = median i in
        let sp = t1 /. t in
        Printf.printf "  jobs=%-3d checkpoint=%-3s %6.2fs  (%.2fx)\n%!" jobs
          (if checkpoint then "on" else "off")
          t sp;
        phase_line m;
        (jobs, checkpoint, t, sp, identical_runs i, o, m))
  in
  let identical =
    identical_runs 0 && List.for_all (fun (_, _, _, _, id, _, _) -> id) sweep
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
        ("repeats", Sonar.Json.Int repeats);
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
