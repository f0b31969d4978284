(* Campaign workloads: fuzzing campaigns through [Sonar.Fuzzer.run] at
   jobs = 1, and a traced replay of the same generation loop built from the
   layers' public calls, so that each layer is timed from outside. *)

open Sonar
module Machine = Sonar_uarch.Machine

type t = {
  cfg : Sonar_uarch.Config.t;
  strategy : string;  (** a {!Feedback.create} name *)
  dual : bool;  (** dual-core (Figure 4b attacker) testcases *)
  testcases : int;  (** per campaign *)
  traced : bool;  (** attach the [fuzz --trace --stats] sinks *)
  counted : int;  (** campaigns a traced run takes its counts from *)
}

let strategy w =
  match Feedback.create w.strategy with
  | Some s -> s
  | None -> invalid_arg ("perf: unknown strategy " ^ w.strategy)

let batch = Fuzzer.default_batch

(* The sinks [sonar fuzz --trace FILE --stats] attaches, with the
   aggregator and observatory snapshot functions. *)
let stats_sinks trace_path =
  let agg, metrics = Telemetry.aggregator () in
  let obs, observatory = Telemetry.observatory () in
  ([ Telemetry.jsonl_file trace_path; agg; obs ], metrics, observatory)

let fuzz ?(checkpoint = true) ?(sinks = []) w ~seed ~iterations =
  let options =
    {
      Fuzzer.Options.default with
      seed = Int64.of_int seed;
      dual = w.dual;
      checkpoint;
      sinks;
    }
  in
  let o = Fuzzer.run ~options w.cfg (strategy w) ~iterations in
  List.iter Telemetry.close sinks;
  o

(* One campaign as the workload runs it: with its sinks when traced. *)
let campaign w ~seed ~iterations ~trace_path =
  if w.traced then
    let sinks, _, _ = stats_sinks trace_path in
    fuzz ~sinks w ~seed ~iterations
  else fuzz w ~seed ~iterations

(* Correctness gates; each returns (attempted, failed) in its own unit. *)

let gate_checkpoint w ~seed =
  let n = min 512 w.testcases in
  let strip (o : Fuzzer.outcome) =
    { o with cycles_simulated = 0; cycles_saved = 0; checkpoint_hits = 0 }
  in
  let on = fuzz w ~seed ~iterations:n in
  let off = fuzz ~checkpoint:false w ~seed ~iterations:n in
  if strip on = strip off then (n, 0)
  else begin
    prerr_endline "perf: checkpoint on and off give different outcomes";
    (n, n)
  end

(* The report of a traced campaign must count every testcase and agree
   with the outcome's coverage; lines it cannot read count as failed. *)
let gate_report ~trace_path ~iterations (o : Fuzzer.outcome) =
  match Report.load trace_path with
  | Error e ->
      prerr_endline ("perf: " ^ e);
      (1, 1)
  | Ok r ->
      let summary = Json.member "summary" (Report.to_json r) in
      let testcases = Json.to_int (Json.member "testcases" summary) in
      let coverage = Json.to_float (Json.member "final_coverage" summary) in
      let lines = Report.events r + Report.skipped r in
      if testcases = iterations && coverage = o.final_coverage then
        (lines, Report.skipped r)
      else begin
        Printf.eprintf
          "perf: report counts %d testcases and coverage %g; the campaign \
           ran %d with coverage %g\n"
          testcases coverage iterations o.final_coverage;
        (lines, lines)
      end

(* ---- untraced run: the end-to-end metrics ---- *)

(* A run is a sequence of campaigns, the [j]th on a seed derived from the
   run's own, so that its numbers average over the testcases of many
   campaigns: one campaign's speed depends much on what its corpus grows
   into. *)
let campaign_seed seed j = Hashtbl.hash (seed, j)

let run w ~seed ~seconds ~out =
  let trace_path = Filename.concat out "campaign.jsonl" in
  (* Set-up is a cold first generation, in a fresh process each time, on
     seeds apart from the measured campaigns'. One is measured before each
     campaign, so that the samples span the whole run: a block of them at
     the start would all catch the host in one state. *)
  let warm_up i () =
    ignore (campaign w ~seed:(campaign_seed seed (-1 - i)) ~iterations:batch ~trace_path)
  in
  warm_up 0 ();
  let j = ref 0 and last = ref None and setups = ref [] in
  let campaigns =
    Measure.repeat ~seconds ~min:3 (fun () ->
        setups := Measure.cold_seconds (warm_up !j) :: !setups;
        let seed = campaign_seed seed !j in
        incr j;
        let words0 = Gc.minor_words () in
        let t0 = Host.now_ns () in
        last :=
          (try Some (campaign w ~seed ~iterations:w.testcases ~trace_path)
           with e ->
             prerr_endline ("perf: campaign raised " ^ Printexc.to_string e);
             None);
        (Host.seconds_since t0, Gc.minor_words () -. words0, Option.is_none !last))
  in
  let gates =
    gate_checkpoint w ~seed:(campaign_seed seed 0)
    ::
    (match !last with
    | Some o when w.traced -> [ gate_report ~trace_path ~iterations:w.testcases o ]
    | _ -> [])
  in
  let raised = List.length (List.filter (fun (_, _, r) -> r) campaigns) in
  let failed = (raised * w.testcases) + Measure.sum snd gates in
  let n = float_of_int w.testcases in
  let words = List.fold_left (fun a (_, words, _) -> a +. words) 0. campaigns in
  {
    Measure.correct = failed = 0;
    attempted = (w.testcases * List.length campaigns) + Measure.sum fst gates;
    failed;
    metrics =
      [
        ("ops_per_s", Stats.median (List.map (fun (dt, _, _) -> n /. dt) campaigns));
        ("setup_s", Stats.median !setups);
        ("peak_rss_mb", Host.peak_rss_mb ());
        ("minor_words_per_op", words /. (n *. float_of_int (List.length campaigns)));
      ];
  }

(* ---- traced run: the per-layer metrics ---- *)

let apply_operator rng mstate ~directed_enabled op tc =
  match (op : Feedback.operator) with
  | Feedback.Composite -> Mutation.mutate rng mstate ~directed_enabled tc
  | Feedback.Directed -> Mutation.directed rng mstate tc
  | Feedback.Random_edit -> Mutation.random_edit rng tc
  | Feedback.Similarity -> Mutation.enhance_similarity rng tc

(* Counts summed over every replayed campaign of a traced run. *)
type counters = {
  mutable timing_diffs : int;
  mutable tcs_with_diffs : int;
  mutable cycles_simulated : int;
  mutable cycles_saved : int;
  mutable checkpoint_hits : int;
  mutable cycle_limit_hits : int;
  mutable golden_trace_len : int;
  mutable novel : int;
  mutable retained : int;
  mutable machine_words : float;
}

let copy c = { c with novel = c.novel }

(* [Fuzzer.run]'s generation loop at jobs = 1 without sinks, rebuilt from
   public calls with one span per layer call. The golden model also runs
   beside the machine, duplicating the machine's own golden runs, so that
   the machine's self time is its span minus the golden span. Returns the
   final coverage and corpus size. *)
let replay sp c w ~seed ~iterations =
  let strategy = strategy w in
  let cfg = w.cfg in
  let ctx = Machine.Ctx.create cfg in
  let rng = Rng.create (Int64.of_int seed) in
  let corpus = Corpus.create () in
  let mstate = Mutation.create_state () in
  let coverage = Coverage.create () in
  let campaign =
    { Feedback.corpus; mstate; emit = None; mutate_ratio = strategy.Feedback.mutate_ratio }
  in
  let generate id =
    Spans.span sp "generate" ~id (fun () ->
        let crng = Rng.split rng in
        match strategy.Feedback.select campaign crng with
        | Some sel ->
            ( apply_operator crng mstate
                ~directed_enabled:strategy.Feedback.directed_mutation
                sel.Feedback.op sel.Feedback.entry.Corpus.tc,
              sel.Feedback.target,
              Some sel.Feedback.op )
        | None -> (Testcase.random crng ~id ~dual:w.dual, None, None))
  in
  let golden_len (p : Sonar_isa.Program.t) =
    Array.length (Sonar_isa.Golden.run p).Sonar_isa.Golden.trace
  in
  let execute id tc =
    let inputs0, inputs1 =
      Spans.span sp "materialize" ~id (fun () ->
          (Testcase.materialize tc ~secret:0, Testcase.materialize tc ~secret:1))
    in
    (* As in [Machine.run_dual], a core whose program is the same under both
       secrets is run once. *)
    Spans.span sp "golden" ~id (fun () ->
        Array.iteri
          (fun i (input : Machine.core_input) ->
            let p1 = inputs1.(i).Machine.program in
            let n1 = if p1 = input.program then 0 else golden_len p1 in
            c.golden_trace_len <- c.golden_trace_len + golden_len input.program + n1)
          inputs0);
    let words0 = Gc.minor_words () in
    let pair =
      Spans.span sp "machine" ~id (fun () ->
          Executor.run_pair ~ctx cfg (fun ~secret ->
              if secret = 0 then inputs0 else inputs1))
    in
    c.machine_words <- c.machine_words +. (Gc.minor_words () -. words0);
    pair
  in
  let fold id tc target op (pair : Executor.pair) =
    let saved = pair.cp.Machine.cycles_saved in
    c.cycles_simulated <-
      c.cycles_simulated + pair.run0.Machine.cycles + pair.run1.Machine.cycles - saved;
    c.cycles_saved <- c.cycles_saved + saved;
    if saved > 0 then c.checkpoint_hits <- c.checkpoint_hits + 1;
    List.iter
      (fun (r : Machine.result) ->
        if r.hit_cycle_limit then c.cycle_limit_hits <- c.cycle_limit_hits + 1)
      [ pair.run0; pair.run1 ];
    let intervals =
      Spans.span sp "min_intervals" ~id (fun () -> Executor.min_intervals pair)
    in
    let added, component_delta =
      Spans.span sp "coverage" ~id (fun () -> Coverage.add_pair_delta coverage pair)
    in
    if added > 0. then c.novel <- c.novel + 1;
    let report = Spans.span sp "detector" ~id (fun () -> Detector.detect pair) in
    let n = List.length report.Detector.findings in
    if n > 0 then begin
      c.timing_diffs <- c.timing_diffs + n;
      c.tcs_with_diffs <- c.tcs_with_diffs + 1
    end;
    let triggered = Spans.span sp "triggered" ~id (fun () -> Executor.triggered pair) in
    let obs =
      {
        Feedback.iteration = id;
        testcase = tc;
        pair;
        intervals;
        triggered;
        coverage_added = added;
        coverage_total = Coverage.total coverage;
        component_delta;
        report;
        target;
        op;
      }
    in
    let kept =
      Spans.span sp "feedback" ~id (fun () ->
          strategy.Feedback.reward campaign obs;
          strategy.Feedback.consider campaign tc obs)
    in
    if kept then c.retained <- c.retained + 1
  in
  let generation = ref 0 in
  while !generation * batch < iterations do
    let first = (!generation * batch) + 1 in
    let k = min batch (iterations - first + 1) in
    incr generation;
    Spans.group sp "generation" ~id:!generation (fun () ->
        let cands = Array.init k (fun j -> generate (first + j)) in
        let pairs = Array.mapi (fun j (tc, _, _) -> execute (first + j) tc) cands in
        Array.iteri
          (fun j (tc, target, op) -> fold (first + j) tc target op pairs.(j))
          cands)
  done;
  (Coverage.total coverage, Corpus.size corpus)

(* A real campaign whose sinks are wrapped to time every emit. *)
let telemetry_pass w ~seed ~trace_path =
  let emit_ns = ref 0 and events = ref 0 in
  let sinks, metrics, observatory = stats_sinks trace_path in
  let timed (s : Telemetry.sink) =
    Telemetry.make ~close:s.close (fun ev ->
        let t0 = Host.now_ns () in
        s.emit ev;
        emit_ns := !emit_ns + (Host.now_ns () - t0);
        incr events)
  in
  let t0 = Host.now_ns () in
  let o = fuzz ~sinks:(List.map timed sinks) w ~seed ~iterations:w.testcases in
  let wall = Host.seconds_since t0 in
  let n = float_of_int w.testcases in
  let emit_s = float_of_int !emit_ns *. 1e-9 in
  let bytes = float_of_int (Unix.stat trace_path).Unix.st_size in
  ( o,
    [
      ("telemetry.us_per_tc", 1e6 *. emit_s /. n);
      ("telemetry.events_per_tc", float_of_int !events /. n);
      ("telemetry.share", emit_s /. wall);
      ("telemetry.trace_bytes_per_tc", bytes /. n);
    ],
    metrics (),
    observatory () )

(* Offline consumers of the trace: load it, render both report forms, and
   render the Prometheus page once; medians of 15 rounds. *)
let report_pass ~trace_path metrics observatory =
  let mb = float_of_int (Unix.stat trace_path).Unix.st_size /. 1e6 in
  let rounds =
    List.init 15 (fun _ ->
        let t0 = Host.now_ns () in
        let r = match Report.load trace_path with Ok r -> r | Error e -> failwith e in
        let t1 = Host.now_ns () in
        ignore (Report.to_markdown r);
        ignore (Json.to_string (Report.to_json r));
        let t2 = Host.now_ns () in
        ignore (Serve.prometheus metrics observatory);
        let t3 = Host.now_ns () in
        (t1 - t0, t2 - t1, t3 - t2))
  in
  let med f = Stats.median (List.map (fun r -> float_of_int (f r) *. 1e-9) rounds) in
  [
    ("report.load_ms_per_mb", 1e3 *. med (fun (l, _, _) -> l) /. mb);
    ("report.render_ms_per_mb", 1e3 *. med (fun (_, r, _) -> r) /. mb);
    ("serve.prometheus_us_per_render", 1e6 *. med (fun (_, _, p) -> p));
  ]

let trace w ~seed ~seconds ~out =
  let n = w.testcases in
  ignore (fuzz w ~seed:(campaign_seed seed (-1)) ~iterations:batch);
  let sp = Spans.create () in
  let c =
    {
      timing_diffs = 0;
      tcs_with_diffs = 0;
      cycles_simulated = 0;
      cycles_saved = 0;
      checkpoint_hits = 0;
      cycle_limit_hits = 0;
      golden_trace_len = 0;
      novel = 0;
      retained = 0;
      machine_words = 0.;
    }
  in
  let coverage = ref 0. and corpus = ref 0 in
  let counted = ref None in
  let j = ref 0 in
  (* The untraced run's campaigns, each run for real and replayed with
     spans; the replay must reproduce the campaign's outcome. Which of the
     two goes first alternates, so that neither always inherits the other's
     garbage. The counts are those of the first [w.counted] campaigns, so
     that they depend on the seed alone; the campaigns after them, as many
     as [seconds] allows, add only timing samples. *)
  let pairs =
    Measure.repeat ~seconds ~min:w.counted (fun () ->
        let seed = campaign_seed seed !j in
        incr j;
        let before = copy c in
        let final = ref (0., 0) in
        let untraced () =
          let t0 = Host.now_ns () in
          let o = fuzz w ~seed ~iterations:n in
          (o, Host.seconds_since t0)
        in
        let traced () =
          let t0 = Host.now_ns () in
          final := replay sp c w ~seed ~iterations:n;
          Host.seconds_since t0
        in
        let (o, untraced), traced =
          if !j mod 2 = 1 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        coverage := !coverage +. fst !final;
        corpus := !corpus + snd !final;
        if !j = w.counted then counted := Some (copy c, !coverage, !corpus);
        let same =
          o.final_coverage = fst !final
          && o.final_timing_diffs = c.timing_diffs - before.timing_diffs
          && o.testcases_with_diffs = c.tcs_with_diffs - before.tcs_with_diffs
          && o.cycles_simulated = c.cycles_simulated - before.cycles_simulated
          && o.cycles_saved = c.cycles_saved - before.cycles_saved
          && o.checkpoint_hits = c.checkpoint_hits - before.checkpoint_hits
        in
        if not same then prerr_endline "perf: the replay differs from Fuzzer.run";
        (untraced, traced, same))
  in
  Spans.write sp (Filename.concat out "spans.jsonl");
  let telemetry, (gate_n, gate_failed) =
    if w.traced then begin
      let trace_path = Filename.concat out "campaign.jsonl" in
      let o, telemetry, metrics, observatory =
        telemetry_pass w ~seed:(campaign_seed seed 0) ~trace_path
      in
      ( telemetry @ report_pass ~trace_path metrics observatory,
        gate_report ~trace_path ~iterations:n o )
    end
    else ([], (0, 0))
  in
  let runs = List.length pairs in
  let k, coverage, corpus = Option.get !counted in
  let fi = float_of_int in
  let total = fi (n * runs) and counted_tcs = fi (n * w.counted) in
  let per_tc s = 1e6 *. s /. total in
  let rate x = fi x /. counted_tcs in
  let per_ktc x = 1e3 *. rate x in
  let golden = Spans.total sp "golden" in
  let machine = Spans.total sp "machine" -. golden in
  let loop = Spans.total sp "generation" -. golden in
  let share s = s /. loop in
  let untraced = List.fold_left (fun a (u, _, _) -> a +. u) 0. pairs in
  let traced = List.fold_left (fun a (_, t, _) -> a +. t) 0. pairs in
  let failed =
    (n * List.length (List.filter (fun (_, _, same) -> not same) pairs)) + gate_failed
  in
  {
    Measure.correct = failed = 0;
    attempted = (n * runs) + gate_n;
    failed;
    metrics =
      [
        ("machine.us_per_tc", per_tc machine);
        ("machine.share", share machine);
        ("machine.ns_per_sim_cycle", 1e9 *. machine /. fi c.cycles_simulated);
        ("machine.minor_words_per_tc", k.machine_words /. counted_tcs);
        ("machine.sim_cycles_per_tc", rate k.cycles_simulated);
        ("machine.checkpoint_hit_rate", rate k.checkpoint_hits);
        ( "machine.cycles_saved_share",
          fi k.cycles_saved /. fi (k.cycles_saved + k.cycles_simulated) );
        ("machine.cycle_limit_hits_per_ktc", per_ktc k.cycle_limit_hits);
        ("golden.us_per_tc", per_tc golden);
        ("golden.share", share golden);
        ("golden.trace_len_per_tc", rate k.golden_trace_len);
        ("generate.us_per_tc", per_tc (Spans.total sp "generate"));
        ("generate.share", share (Spans.total sp "generate"));
        ("materialize.us_per_tc", per_tc (Spans.total sp "materialize"));
        ("executor.min_intervals_us_per_tc", per_tc (Spans.total sp "min_intervals"));
        ("executor.triggered_us_per_tc", per_tc (Spans.total sp "triggered"));
        ("coverage.us_per_tc", per_tc (Spans.total sp "coverage"));
        ("coverage.novel_tc_rate", rate k.novel);
        ("coverage.total", coverage /. fi w.counted);
        ("detector.us_per_tc", per_tc (Spans.total sp "detector"));
        ("detector.finding_tc_rate", rate k.tcs_with_diffs);
        ("detector.timing_diffs_per_ktc", per_ktc k.timing_diffs);
        ("feedback.us_per_tc", per_tc (Spans.total sp "feedback"));
        ("feedback.retained_per_ktc", per_ktc k.retained);
        ("corpus.size", fi corpus /. fi w.counted);
        ("trace.overhead", (traced /. untraced) -. 1.);
        ( "trace.unattributed_share",
          Spans.self_time sp "generation" /. Spans.total sp "generation" );
      ]
      @ telemetry;
  }
