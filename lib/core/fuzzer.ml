type strategy = Feedback.t

type outcome = {
  final_coverage : float;
  final_timing_diffs : int;
  testcases_with_diffs : int;
  contentions_triggered_testcases : int;
  single_valid_share_first20 : float;
  first_reports : (int * Detector.report) list;
  cycles_simulated : int;
  cycles_saved : int;
  checkpoint_hits : int;
}

(* Sized for the compiled engine: one testcase is cheap enough that
   feedback at a finer granularity buys nothing, while a larger generation
   gives the parallel executor full slices to hand each worker. *)
let default_batch = 64

(* How many finding reports an outcome keeps: enough to show, bounded so a
   long campaign's outcome does not grow with its length. *)
let first_reports_kept = 3

module Options = struct
  type t = {
    seed : int64;
    dual : bool;
    jobs : int;
    batch : int;
    checkpoint : bool;
    sinks : Telemetry.sink list;
  }

  let default =
    {
      seed = 1L;
      dual = false;
      jobs = 1;
      batch = default_batch;
      checkpoint = true;
      sinks = [];
    }
end

(* A generated candidate awaiting execution: its iteration number, the
   directed-mutation target captured at generation time (pre-mutation best
   interval included), the operator that produced it (None = fresh), and
   the testcase itself. *)
type candidate = {
  cand_iteration : int;
  cand_target : Feedback.target option;
  cand_op : Feedback.operator option;
  cand_tc : Testcase.t;
}

let apply_operator rng mstate ~directed_enabled op tc =
  match (op : Feedback.operator) with
  | Feedback.Composite -> Mutation.mutate rng mstate ~directed_enabled tc
  | Feedback.Directed -> Mutation.directed rng mstate tc
  | Feedback.Random_edit -> Mutation.random_edit rng tc
  | Feedback.Similarity -> Mutation.enhance_similarity rng tc

let run ?(options = Options.default) cfg (strategy : Feedback.t) ~iterations =
  let { Options.seed; dual; jobs; batch; checkpoint; sinks } = options in
  if batch < 1 then invalid_arg "Fuzzer.run: batch must be >= 1";
  if jobs < 1 then invalid_arg "Fuzzer.run: jobs must be >= 1";
  (* With no sinks, no event is ever constructed: the telemetry layer costs
     nothing on the hot path and the outcome is bit-identical to a run that
     predates it (asserted in the tests). *)
  let telemetry_on = sinks <> [] in
  let emit ev = Telemetry.emit_all sinks ev in
  (* Observatory state: per-(point, source-pair) interval histograms filled
     by the fold, flushed as interval_histogram events at each
     generation end. Profiling spans bracket the pipeline stages; both are
     created only when someone is listening. *)
  let hists = if telemetry_on then Some (Telemetry.Histogram.registry ()) else None in
  let span =
    if telemetry_on then
      let recorder = Telemetry.Span.recorder emit in
      fun name -> Telemetry.Span.enter recorder name
    else fun _ () -> ()
  in
  let rng = Rng.create seed in
  let corpus = Corpus.create () in
  let mstate = Mutation.create_state () in
  let coverage = Coverage.create () in
  let timing_diffs = ref 0 in
  let tcs_with_diffs = ref 0 in
  let tcs_with_contention = ref 0 in
  let cycles_simulated = ref 0 in
  let cycles_saved = ref 0 in
  let checkpoint_hits = ref 0 in
  let first_reports = ref [] in
  let sv_weight_20 = ref 0. and total_weight_20 = ref 0. in
  (* Fold-phase events, the strategy hooks' included. Each testcase is
     folded as soon as its dual run finishes, so its results die young,
     but the fold's events wait here until the generation's last
     [Testcase_executed]: traces keep the execute-then-fold order of a
     whole-generation fold. If the campaign raises mid-generation they
     are dropped; a whole-generation fold would not have emitted them yet
     either. *)
  let pending = Queue.create () in
  let emit_fold ev = Queue.push ev pending in
  (* Campaign context handed to every strategy hook. The strategy's
     mutate-vs-generate ratio is resolved once here, so a record update on
     a preset ([{ Feedback.sonar with mutate_ratio = 0.5 }]) genuinely
     tunes the campaign. *)
  let campaign =
    {
      Feedback.corpus;
      mstate;
      emit = (if telemetry_on then Some emit_fold else None);
      mutate_ratio = strategy.Feedback.mutate_ratio;
    }
  in
  (* Generation phase: draw one candidate, sequentially, against the corpus
     and strategy state as of the previous generation. Every candidate gets
     its own split RNG stream, so the draw depends only on the (seed,
     iteration-order) prefix — never on worker count or scheduling. *)
  let generate iteration =
    let crng = Rng.split rng in
    match strategy.Feedback.select campaign crng with
    | Some sel ->
        let tc =
          apply_operator crng mstate
            ~directed_enabled:strategy.Feedback.directed_mutation
            sel.Feedback.op sel.Feedback.entry.Corpus.tc
        in
        {
          cand_iteration = iteration;
          cand_target = sel.Feedback.target;
          cand_op = Some sel.Feedback.op;
          cand_tc = tc;
        }
    | None ->
        {
          cand_iteration = iteration;
          cand_target = None;
          cand_op = None;
          cand_tc = strategy.Feedback.fresh crng ~id:iteration ~dual;
        }
  in
  (* Fold phase: absorb one executed candidate. Runs sequentially in
     candidate order, so coverage / corpus / detector / mutation-feedback
     updates — and the telemetry events they emit — are identical for every
     worker count. *)
  let fold cand pair =
    let iteration = cand.cand_iteration in
    let saved = pair.Executor.cp.Sonar_uarch.Machine.cycles_saved in
    cycles_simulated :=
      !cycles_simulated
      + pair.Executor.run0.Sonar_uarch.Machine.cycles
      + pair.Executor.run1.Sonar_uarch.Machine.cycles
      - saved;
    cycles_saved := !cycles_saved + saved;
    if saved > 0 then incr checkpoint_hits;
    let intervals = Executor.min_intervals pair in
    Option.iter
      (fun h ->
        List.iter
          (fun ((point, src_pair), v) ->
            Telemetry.Histogram.observe h ~point ~src_pair v)
          intervals)
      hists;
    let added, component_delta = Coverage.add_pair_delta coverage pair in
    if added > 0. then begin
      incr tcs_with_contention;
      if telemetry_on then
        emit_fold
          (Telemetry.Contention_triggered
             { iteration; added; coverage = Coverage.total coverage })
    end;
    if iteration = 20 then begin
      total_weight_20 := Coverage.total coverage;
      sv_weight_20 := Coverage.single_valid_weight coverage *. !total_weight_20
    end;
    let report = Detector.detect pair in
    let n_findings = List.length report.Detector.findings in
    if n_findings > 0 then begin
      timing_diffs := !timing_diffs + n_findings;
      incr tcs_with_diffs;
      if !tcs_with_diffs <= first_reports_kept then
        first_reports := (iteration, report) :: !first_reports;
      if telemetry_on then
        emit_fold
          (Telemetry.Ccd_finding
             {
               iteration;
               findings = n_findings;
               total_delta = report.Detector.total_delta;
             })
    end;
    (* Strategy hooks, in the order the legacy fold emitted its events:
       reward (directed-mutation feedback / learner updates, which may
       emit Mutation_flip) before consider (retention, which may emit
       Corpus_evicted / Corpus_retained). *)
    let obs =
      {
        Feedback.iteration;
        testcase = cand.cand_tc;
        pair;
        intervals;
        triggered = Executor.triggered pair;
        coverage_added = added;
        coverage_total = Coverage.total coverage;
        component_delta;
        report;
        target = cand.cand_target;
        op = cand.cand_op;
      }
    in
    strategy.Feedback.reward campaign obs;
    ignore (strategy.Feedback.consider campaign cand.cand_tc obs)
  in
  let now () = if telemetry_on then Unix.gettimeofday () else 0. in
  let campaign_t0 = now () in
  let iteration = ref 0 in
  (* The trace footer, emitted exactly once however the campaign ends, so a
     partial trace is machine-distinguishable from a completed one. On the
     crash path each sink gets its own guarded emit — a sink may itself be
     what crashed the campaign. *)
  let campaign_end outcome =
    Telemetry.Campaign_end
      {
        outcome;
        iterations_done = !iteration;
        coverage = Coverage.total coverage;
        timing_diffs = !timing_diffs;
        corpus_size = Corpus.size corpus;
        wall_seconds = Some (now () -. campaign_t0);
      }
  in
  let run_generations pool =
    let end_campaign = span "campaign" in
    let generation = ref 0 in
    while !iteration < iterations do
      incr generation;
      let k = min batch (iterations - !iteration) in
      if telemetry_on then
        emit
          (Telemetry.Generation_start
             {
               generation = !generation;
               first_iteration = !iteration + 1;
               size = k;
             });
      let end_generation = span "generation" in
      let sim_before = !cycles_simulated in
      let saved_before = !cycles_saved in
      let hits_before = !checkpoint_hits in
      let t0 = now () in
      let end_generate = span "generate" in
      let candidates = Array.init k (fun j -> generate (!iteration + j + 1)) in
      end_generate ();
      let t1 = now () in
      (* Each candidate is folded as its pair arrives; with sinks attached,
         its execution is announced first, and the fold's share of the
         execute phase is timed apart and booked as feedback. *)
      let fold_seconds = ref 0. in
      let end_execute = span "execute" in
      Executor.execute_batch ?pool ~checkpoint cfg
        (List.init k (fun j -> candidates.(j).cand_tc))
        (fun j pair ->
          if telemetry_on then begin
            emit
              (Telemetry.Testcase_executed
                 {
                   testcase_id = candidates.(j).cand_tc.Testcase.id;
                   cycles0 = pair.Executor.run0.Sonar_uarch.Machine.cycles;
                   cycles1 = pair.Executor.run1.Sonar_uarch.Machine.cycles;
                 });
            let f0 = now () in
            fold candidates.(j) pair;
            fold_seconds := !fold_seconds +. (now () -. f0)
          end
          else fold candidates.(j) pair);
      end_execute ();
      let t2 = now () in
      let end_feedback = span "feedback" in
      Queue.iter emit pending;
      Queue.clear pending;
      end_feedback ();
      iteration := !iteration + k;
      if telemetry_on then begin
        let t3 = now () in
        let timing phase seconds =
          emit (Telemetry.Phase_timing { generation = !generation; phase; seconds })
        in
        timing Telemetry.Generate (t1 -. t0);
        timing Telemetry.Execute (t2 -. t1 -. !fold_seconds);
        timing Telemetry.Feedback (!fold_seconds +. (t3 -. t2));
        emit
          (Telemetry.Checkpoint_stats
             {
               generation = !generation;
               testcases = k;
               hits = !checkpoint_hits - hits_before;
               cycles_saved = !cycles_saved - saved_before;
               cycles_simulated = !cycles_simulated - sim_before;
             });
        Option.iter
          (fun reg ->
            Telemetry.flush_histograms reg ~generation:!generation emit)
          hists;
        emit
          (Telemetry.Coverage_heatmap
             { generation = !generation; components = Coverage.heatmap coverage });
        emit
          (Telemetry.Generation_end
             {
               generation = !generation;
               iterations_done = !iteration;
               coverage = Coverage.total coverage;
               timing_diffs = !timing_diffs;
               corpus_size = Corpus.size corpus;
             })
      end;
      end_generation ()
    done;
    end_campaign ()
  in
  (* Trace header: the outcome-determining campaign inputs. Emitted before
     any generation, and never the wall-clock knobs (jobs/checkpoint)
     — traces stay byte-identical across those. *)
  if telemetry_on then
    emit
      (Telemetry.Campaign_start
         { strategy = strategy.Feedback.name; seed; iterations; batch; dual });
  (* Exception safety: a crashing DUT (or sink) must still leave attached
     trace files flushed and parseable, so close every sink before
     re-raising. On the success path sinks stay open — callers may keep
     streaming into them (and [Telemetry.close] is idempotent anyway). *)
  (try
     if jobs > 1 then
       Domain_pool.with_pool ~jobs (fun pool -> run_generations (Some pool))
     else run_generations None;
     if telemetry_on then emit (campaign_end "completed")
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     if telemetry_on then begin
       let footer = campaign_end "crashed" in
       List.iter (fun s -> try s.Telemetry.emit footer with _ -> ()) sinks
     end;
     List.iter (fun s -> try Telemetry.close s with _ -> ()) sinks;
     Printexc.raise_with_backtrace e bt);
  {
    final_coverage = Coverage.total coverage;
    final_timing_diffs = !timing_diffs;
    testcases_with_diffs = !tcs_with_diffs;
    contentions_triggered_testcases = !tcs_with_contention;
    single_valid_share_first20 =
      (if !total_weight_20 = 0. then 0. else !sv_weight_20 /. !total_weight_20);
    first_reports = List.rev !first_reports;
    cycles_simulated = !cycles_simulated;
    cycles_saved = !cycles_saved;
    checkpoint_hits = !checkpoint_hits;
  }

let json_of_outcome o : Json.t =
  Json.Obj
    [
      ("final_coverage", Json.Float o.final_coverage);
      ("final_timing_diffs", Json.Int o.final_timing_diffs);
      ("testcases_with_diffs", Json.Int o.testcases_with_diffs);
      ( "contentions_triggered_testcases",
        Json.Int o.contentions_triggered_testcases );
      ("single_valid_share_first20", Json.Float o.single_valid_share_first20);
      ("cycles_simulated", Json.Int o.cycles_simulated);
      ("cycles_saved", Json.Int o.cycles_saved);
      ("checkpoint_hits", Json.Int o.checkpoint_hits);
      ( "first_findings",
        Json.List
          (List.map
             (fun (iteration, (r : Detector.report)) ->
               Json.Obj
                 [
                   ("iteration", Json.Int iteration);
                   ("findings", Json.Int (List.length r.Detector.findings));
                   ("raw_timing_diffs", Json.Int r.raw_timing_diffs);
                   ("total_delta", Json.Int r.total_delta);
                   ("diverged", Json.Bool r.diverged);
                 ])
             o.first_reports) );
    ]
