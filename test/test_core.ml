(* Tests for the Sonar fuzzer: RNG, testcases, corpus, mutation, CCD,
   detector, coverage, fuzzing loop, the 14 channel scenarios and the
   Meltdown-style exploitability analysis. *)

open Sonar

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 0.0001))

(* Both secret-runs of one testcase. *)
let execute cfg tc =
  Executor.run_pair cfg (fun ~secret -> Testcase.materialize tc ~secret)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 1L and b = Rng.create 1L in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 2L in
  for _ = 1 to 200 do
    let v = Rng.int rng 7 in
    checkb "in bounds" true (v >= 0 && v < 7)
  done;
  checkb "zero bound rejected" true
    (match Rng.int rng 0 with exception Invalid_argument _ -> true | _ -> false)

let test_rng_split_independent () =
  let a = Rng.create 3L in
  let b = Rng.split a in
  checkb "split differs" true (Rng.int64 a <> Rng.int64 b)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 4L in
  let l = [ 1; 2; 3; 4; 5; 6 ] in
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

(* --- Testcase --- *)

let test_testcase_materialize () =
  let rng = Rng.create 5L in
  let tc = Testcase.random rng ~id:1 ~dual:false in
  let inputs = Testcase.materialize tc ~secret:1 in
  checki "single core" 1 (Array.length inputs);
  let input = inputs.(0) in
  checkb "secret range present" true (input.Sonar_uarch.Machine.secret_range <> None);
  let lo, hi = Option.get input.secret_range in
  checkb "range well-formed" true (0 < lo && lo <= hi);
  checkb "range inside program" true
    (hi < Sonar_isa.Program.length input.program);
  (* The secret value lands in the data section. *)
  checkb "secret datum" true
    (List.exists
       (fun (a, v) -> Int64.equal a Layout.secret_addr && Int64.equal v 1L)
       input.program.Sonar_isa.Program.data)

let test_testcase_dual () =
  let rng = Rng.create 6L in
  let tc = Testcase.random rng ~id:1 ~dual:true in
  let inputs = Testcase.materialize tc ~secret:0 in
  checki "two cores" 2 (Array.length inputs);
  checkb "attacker has no secret range" true
    (inputs.(1).Sonar_uarch.Machine.secret_range = None)

let test_testcase_runs_cleanly () =
  (* Materialised testcases must execute to completion on both DUTs. *)
  let rng = Rng.create 7L in
  for i = 1 to 10 do
    let tc = Testcase.random rng ~id:i ~dual:false in
    List.iter
      (fun cfg ->
        let m =
          Sonar_uarch.Machine.run cfg (Testcase.materialize tc ~secret:(i land 1))
        in
        checkb "no cycle-limit hit" false m.Sonar_uarch.Machine.hit_cycle_limit)
      [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ]
  done

let test_neutral_flavor_no_diff () =
  (* A Neutral testcase whose random regions do not consume secret-derived
     values behaves identically under both secrets. (Regions that feed the
     secret into an operand-dependent divide CAN leak — that is a genuine
     channel, not a test failure, so this test pins the regions.) *)
  let fixed_region =
    [
      Sonar_isa.Instr.Itype (Sonar_isa.Instr.ADDI, Sonar_isa.Reg.of_int 29,
                             Sonar_isa.Reg.of_int 29, 1);
      Sonar_isa.Instr.Load (Sonar_isa.Instr.LD, Sonar_isa.Reg.of_int 30,
                            Sonar_isa.Reg.of_int 11, 64);
      Sonar_isa.Instr.Store (Sonar_isa.Instr.SD, Sonar_isa.Reg.of_int 29,
                             Sonar_isa.Reg.of_int 11, 128);
    ]
  in
  let tc =
    {
      (Testcase.random (Rng.create 8L) ~id:1 ~dual:false) with
      flavor = Testcase.Neutral;
      prefix = fixed_region;
      suffix = fixed_region;
    }
  in
  let pair = execute Sonar_uarch.Config.boom tc in
  let report = Detector.detect pair in
  checki "no CCD findings" 0 (List.length report.Detector.findings);
  checki "no run-length delta" 0 report.total_delta

let test_latency_flavor_differs () =
  (* The divide's latency depends on the secret-derived operand. *)
  let rng = Rng.create 9L in
  let tc =
    {
      (Testcase.random rng ~id:1 ~dual:false) with
      flavor = Testcase.Latency { use_div = true };
    }
  in
  let pair = execute Sonar_uarch.Config.boom tc in
  let report = Detector.detect pair in
  checkb "latency flavor leaks timing" true
    (report.Detector.findings <> [] || report.total_delta <> 0)

(* --- Corpus --- *)

let dummy_tc = Testcase.random (Rng.create 10L) ~id:0 ~dual:false

let test_corpus_retention () =
  let c = Corpus.create () in
  checkb "first improves" true (Corpus.consider c dummy_tc ~intervals:[ (("p", 0), 5) ]);
  checkb "worse rejected" false (Corpus.consider c dummy_tc ~intervals:[ (("p", 0), 9) ]);
  checkb "equal rejected" false (Corpus.consider c dummy_tc ~intervals:[ (("p", 0), 5) ]);
  checkb "better accepted" true (Corpus.consider c dummy_tc ~intervals:[ (("p", 0), 2) ]);
  checkb "new point accepted" true (Corpus.consider c dummy_tc ~intervals:[ (("q", 1), 50) ]);
  checki "entries" 3 (Corpus.size c);
  Alcotest.(check (option int)) "best tracked" (Some 2) (Corpus.best_interval c ("p", 0))

let test_corpus_selection_prefers_small () =
  let c = Corpus.create () in
  ignore (Corpus.consider c dummy_tc ~intervals:[ (("big", 0), 500); (("small", 0), 1) ]);
  let rng = Rng.create 11L in
  let picks = ref 0 in
  for _ = 1 to 50 do
    match Corpus.select c rng with
    | Some (_, ("small", 0)) -> incr picks
    | _ -> ()
  done;
  checkb "small interval targeted mostly" true (!picks > 35)

let test_corpus_zero_not_selected () =
  let c = Corpus.create () in
  ignore (Corpus.consider c dummy_tc ~intervals:[ (("done", 0), 0) ]);
  checkb "nothing to chase" true (Corpus.select c (Rng.create 1L) = None)

let test_corpus_eviction_keeps_newest () =
  let c = Corpus.create ~max_entries:4 () in
  (* Strictly improving intervals so every candidate is retained. *)
  for i = 1 to 10 do
    let tc = { dummy_tc with Testcase.id = i } in
    checkb "retained" true (Corpus.consider c tc ~intervals:[ (("p", 0), 100 - i) ])
  done;
  checki "size clamped to max_entries" 4 (Corpus.size c);
  Alcotest.(check (list int)) "newest seeds survive, newest first"
    [ 10; 9; 8; 7 ]
    (List.map (fun (e : Corpus.entry) -> e.tc.Testcase.id) (Corpus.entries c))

(* --- Mutation --- *)

let chain_lengths (tc : Testcase.t) =
  List.map (fun (c : Testcase.chain) -> c.length) tc.chains

let test_mutation_directed_grow_shrink () =
  let rng = Rng.create 12L in
  let st = Mutation.create_state () in
  st.Mutation.dir <- Mutation.Grow;
  let tc' = Mutation.directed rng st dummy_tc in
  checkb "grow increases a chain" true
    (List.fold_left ( + ) 0 (chain_lengths tc')
    > List.fold_left ( + ) 0 (chain_lengths dummy_tc));
  st.Mutation.dir <- Mutation.Shrink;
  let tc'' = Mutation.directed rng st tc' in
  checkb "shrink decreases" true
    (List.fold_left ( + ) 0 (chain_lengths tc'')
    < List.fold_left ( + ) 0 (chain_lengths tc'))

let test_mutation_feedback_flips () =
  let st = Mutation.create_state () in
  let d0 = st.Mutation.dir in
  Mutation.feedback st ~improved:true;
  checkb "kept on improvement" true (st.Mutation.dir = d0);
  Mutation.feedback st ~improved:false;
  checkb "flipped on failure" true (st.Mutation.dir <> d0)

let test_mutation_preserves_flavor () =
  let rng = Rng.create 13L in
  let st = Mutation.create_state () in
  let tc = { dummy_tc with flavor = Testcase.Latency { use_div = true } } in
  let tc' = Mutation.mutate rng st ~directed_enabled:true tc in
  checkb "flavor preserved" true (tc'.Testcase.flavor = tc.Testcase.flavor)

let test_mutation_similarity_in_buffer () =
  let rng = Rng.create 14L in
  for _ = 1 to 20 do
    let tc = Mutation.enhance_similarity rng dummy_tc in
    List.iter
      (fun i ->
        match i with
        | Sonar_isa.Instr.Load (_, _, _, off) | Sonar_isa.Instr.Store (_, _, _, off)
          ->
            checkb "offset within base window" true (off >= 0 && off <= 4088)
        | _ -> ())
      (tc.Testcase.prefix @ tc.Testcase.suffix)
  done

(* --- CCD --- *)

let commit idx cycle : Sonar_uarch.Core_model.commit_record =
  {
    c_eff =
      {
        Sonar_isa.Golden.seq = idx;
        index = idx;
        pc = Int64.of_int (4 * idx);
        instr = Sonar_isa.Asm.nop;
        wb = None;
        mem = None;
        taken = None;
        fault = None;
        transient = false;
      };
    c_cycle = cycle;
    c_dispatch = cycle - 2;
  }

(* The aligned rows as (static index, cycle0, cycle1, ccd0, ccd1), in
   alignment order. *)
let aligned_rows run0 run1 =
  let rows = ref [] in
  let diverged =
    Ccd.align run0 run1
      (fun _ (c0 : Sonar_uarch.Core_model.commit_record) c1 ~ccd0 ~ccd1 ->
        rows :=
          (c0.c_eff.Sonar_isa.Golden.index, c0.c_cycle, c1.c_cycle, ccd0, ccd1)
          :: !rows)
  in
  (List.rev !rows, diverged)

let test_ccd_inorder_propagation_filtered () =
  (* Paper Figure 5: a div is delayed by 1 cycle; the following mul commits
     later only because of in-order commit. Only the div's CCD changes. *)
  let run0 = [ commit 0 10; commit 1 20; commit 2 21 ] in
  let run1 = [ commit 0 10; commit 1 21; commit 2 22 ] in
  let rows, diverged = aligned_rows run0 run1 in
  checkb "aligned" false diverged;
  let affected = List.filter (fun (_, _, _, ccd0, ccd1) -> ccd0 <> ccd1) rows in
  checki "only the div is genuinely affected" 1 (List.length affected);
  checki "it is instruction 1" 1
    (match affected with (index, _, _, _, _) :: _ -> index | [] -> -1);
  checki "raw timing diffs include propagation" 2
    (List.length (List.filter (fun (_, c0, c1, _, _) -> c0 <> c1) rows))

let test_ccd_divergent_traces () =
  let run0 = [ commit 0 1; commit 1 2; commit 5 9 ] in
  let run1 = [ commit 0 1; commit 2 3; commit 3 4; commit 5 9 ] in
  let rows, diverged = aligned_rows run0 run1 in
  checkb "diverged" true diverged;
  (* head = instr 0; tail = instr 5 *)
  checki "aligned rows" 2 (List.length rows)

(* --- Coverage --- *)

let test_coverage_accumulates_once () =
  let rng = Rng.create 15L in
  let tc = Testcase.random rng ~id:1 ~dual:false in
  let pair = execute Sonar_uarch.Config.boom tc in
  let cov = Coverage.create () in
  let first = Coverage.add_pair cov pair in
  checkb "first run adds coverage" true (first > 0.);
  let again = Coverage.add_pair cov pair in
  checkf "identical run adds nothing" 0. again;
  checkf "total stable" first (Coverage.total cov)

let test_coverage_components () =
  let rng = Rng.create 16L in
  let cov = Coverage.create () in
  for i = 1 to 5 do
    ignore
      (Coverage.add_pair cov
         (execute Sonar_uarch.Config.boom (Testcase.random rng ~id:i ~dual:false)))
  done;
  let per = Coverage.per_component cov in
  let sum = List.fold_left (fun a (_, w) -> a +. w) 0. per in
  checkb "component split sums to total" true
    (Float.abs (sum -. Coverage.total cov) < 1e-6)

(* --- Fuzzer --- *)

let test_fuzzer_deterministic () =
  let run () =
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with seed = 17L }
      Sonar_uarch.Config.nutshell Feedback.sonar ~iterations:15
  in
  let a = run () and b = run () in
  checkf "same coverage" a.Fuzzer.final_coverage b.Fuzzer.final_coverage;
  checki "same diffs" a.final_timing_diffs b.final_timing_diffs

let test_fuzzer_jobs_bit_identical () =
  (* The whole outcome — series, coverage, reports — must not depend on the
     worker count, only on (seed, strategy, iterations, batch). *)
  let run jobs =
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with seed = 17L; jobs }
      Sonar_uarch.Config.nutshell Feedback.sonar ~iterations:24
  in
  let sequential = run 1 and parallel = run 4 in
  checkb "bit-identical outcome for jobs=1 vs jobs=4" true
    (sequential = parallel)

let test_fuzzer_jobs_matrix strategy_name () =
  (* jobs is a wall-clock-only knob: the outcome — series, coverage,
     reports — is a pure function of (seed, strategy, iterations, batch)
     for every pool size and the slicing it derives, and for {e every}
     registered strategy (stateful learners included — their hooks run on
     the campaign's domain in candidate order). batch=7 keeps the campaign
     multi-generation so feedback boundaries are exercised, and its
     {!Executor.auto_chunk} slices cover the partial (jobs 2 and 3:
     2,2,2,1) and single-testcase (jobs 4) cases against the sequential
     jobs=1 reference. A fresh instance per campaign, as the
     {!Feedback.create} contract requires. *)
  let batch = 7 in
  let run jobs =
    let strategy = Option.get (Feedback.create strategy_name) in
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with seed = 17L; jobs; batch }
      Sonar_uarch.Config.nutshell strategy ~iterations:18
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "bit-identical outcome (%s, jobs=%d)" strategy_name
           jobs)
        true
        (run jobs = reference))
    [ 2; 3; 4 ]

let test_fuzzer_strategy_traces_identical () =
  (* The default-class JSONL trace (everything but the wall-clock events)
     is part of the determinism contract: byte-identical across worker
     counts, for every strategy, with the campaign_start header naming the
     strategy as its first line. *)
  let trace strategy_name jobs =
    let buf = Buffer.create 4096 in
    let sink =
      Telemetry.jsonl (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
    in
    let strategy = Option.get (Feedback.create strategy_name) in
    ignore
      (Fuzzer.run
         ~options:
           {
             Fuzzer.Options.default with
             seed = 17L;
             jobs;
             batch = 6;
             sinks = [ sink ];
           }
         Sonar_uarch.Config.nutshell strategy ~iterations:12);
    Buffer.contents buf
  in
  List.iter
    (fun name ->
      let t1 = trace name 1 and t3 = trace name 3 in
      checkb (name ^ " trace byte-identical jobs=1 vs jobs=3") true
        (String.equal t1 t3);
      let header = List.hd (String.split_on_char '\n' t1) in
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s
          && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      checkb (name ^ " first trace line is campaign_start") true
        (contains header "\"event\":\"campaign_start\"");
      checkb (name ^ " header names the strategy") true
        (contains header ("\"strategy\":\"" ^ name ^ "\"")))
    Feedback.names

(* --- Campaign pin --- *)

(* Digest of a whole [sonar] campaign for each of {boom, nutshell} x
   {single, dual}: the outcome's counters and first reports as plain
   values, and the JSONL trace it streams. 192 testcases at the default
   batch of 64 are three generations, so corpus selection, directed
   mutation and the per-testcase fold (intervals, triggered sub-points,
   coverage, detector) all feed back into later generations. The
   constants go back to when the outcome still kept a series point per
   testcase and every finding's report, so they pin the campaign, not
   just its outcome type. Until reports became one type, the pin digested
   the [Marshal] form of the outcome's counters and text reports; the
   constants were then recomputed on the code before that change, as this
   projection, where the old digests still gave the old constants. *)
let report_view (r : Detector.report) =
  ( List.map
      (fun (f : Detector.finding) ->
        ( (f.core, f.position, Sonar_isa.Instr.to_string f.instr, f.static_index),
          (f.ccd0, f.ccd1, f.commit_delta) ))
      r.findings,
    (r.raw_timing_diffs, r.diverged, r.total_delta),
    List.map
      (fun d -> (Sonar_uarch.Cpoint.diff_point d, Sonar_uarch.Cpoint.diff_text d))
      r.state_diffs )

let projection (o : Fuzzer.outcome) =
  ( ( o.final_coverage,
      o.final_timing_diffs,
      o.testcases_with_diffs,
      o.contentions_triggered_testcases,
      o.single_valid_share_first20 ),
    (o.cycles_simulated, o.cycles_saved, o.checkpoint_hits),
    List.map (fun (i, r) -> (i, report_view r)) o.first_reports )

let campaign_digest cfg ~dual ~jobs =
  let trace = Buffer.create 65536 in
  let sink =
    Telemetry.jsonl (fun line ->
        Buffer.add_string trace line;
        Buffer.add_char trace '\n')
  in
  let outcome =
    Fuzzer.run
      ~options:
        { Fuzzer.Options.default with seed = 23L; dual; jobs; sinks = [ sink ] }
      cfg
      (Option.get (Feedback.create "sonar"))
      ~iterations:192
  in
  Digest.to_hex
    (Digest.string
       (Digest.string
          (Marshal.to_string (projection outcome) [ Marshal.No_sharing ])
       ^ Digest.string (Buffer.contents trace)))

let test_campaign_pin () =
  (* One constant per case, at jobs 1 (sequential) and jobs 3 (the pool
     path): the digest covers the trace, so it pins where the executed
     events and interval histograms come from on both paths. *)
  List.iter
    (fun (cfg, dual, expected) ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s jobs=%d" cfg.Sonar_uarch.Config.name
               (if dual then "dual" else "single")
               jobs)
            expected
            (campaign_digest cfg ~dual ~jobs))
        [ 1; 3 ])
    [
      (Sonar_uarch.Config.boom, false, "33e96a255a7e126e0414daf121a89c3b");
      (Sonar_uarch.Config.boom, true, "17e782d2d677425f835bf3e8ea1f25d5");
      (Sonar_uarch.Config.nutshell, false, "39e9a52f76aca1be4f983ca2ee7c4e65");
      (Sonar_uarch.Config.nutshell, true, "8149d29329c1599c165079005c25d41d");
    ]

let test_feedback_registry () =
  checki "six shipped strategies" 6 (List.length Feedback.names);
  List.iter
    (fun name ->
      checkb (name ^ " resolvable") true (Feedback.create name <> None);
      checkb
        (name ^ " described")
        true
        (match List.assoc_opt name Feedback.all with
        | Some d -> String.length d > 0
        | None -> false))
    Feedback.names;
  checkb "unknown name rejected" true (Feedback.create "bogus" = None);
  checkb "sonar preset keeps the historical mutate ratio" true
    (Feedback.sonar.Feedback.mutate_ratio = 0.8);
  (* Stateful strategies must come out fresh per call: two instances may
     not share learner state (physical inequality of the closures is the
     observable proxy). *)
  checkb "bandit instances independent" true
    (Option.get (Feedback.create "bandit") !=
       Option.get (Feedback.create "bandit"))

(* Executed-candidate fixture shared by the order-insensitivity property:
   one real dual-run with non-empty intervals and triggered points. *)
let consider_fixture =
  lazy
    (let rng = Rng.create 99L in
     let tc = Testcase.random rng ~id:1 ~dual:false in
     let pair = execute Sonar_uarch.Config.nutshell tc in
     (tc, pair))

let prop_consider_order_insensitive =
  QCheck2.Test.make
    ~name:"consider is insensitive to observation-list ordering" ~count:30
    QCheck2.Gen.(int_bound 1_000_000)
    (fun salt ->
      let tc, pair = Lazy.force consider_fixture in
      let intervals = Executor.min_intervals pair in
      let triggered = Executor.triggered pair in
      let report = Detector.detect pair in
      List.for_all
        (fun name ->
          (* Fresh strategy + campaign per verdict so stateful learners
             start identical; only the list order differs. *)
          let verdict intervals triggered =
            let strategy = Option.get (Feedback.create name) in
            let campaign =
              {
                Feedback.corpus = Corpus.create ();
                mstate = Mutation.create_state ();
                emit = None;
                mutate_ratio = strategy.Feedback.mutate_ratio;
              }
            in
            let obs =
              {
                Feedback.iteration = 0;
                testcase = tc;
                pair;
                intervals;
                triggered;
                coverage_added = 0.;
                coverage_total = 0.;
                component_delta = [];
                report;
                target = None;
                op = Some Feedback.Composite;
              }
            in
            strategy.Feedback.reward campaign obs;
            strategy.Feedback.consider campaign tc obs
          in
          let shuffle l = Rng.shuffle (Rng.create (Int64.of_int salt)) l in
          verdict intervals triggered
          = verdict (shuffle intervals) (shuffle triggered))
        Feedback.names)

(* The hashtable fold-and-sort that [Executor.min_intervals] and
   [Executor.triggered] replaced with per-point merges, kept as their
   reference. *)
let reference_min_intervals (pair : Executor.pair) =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (r : Sonar_uarch.Machine.result) ->
      List.iter
        (fun (s : Sonar_uarch.Cpoint.snapshot) ->
          List.iter
            (fun (pair_id, v) ->
              let key = (s.point_name, pair_id) in
              match Hashtbl.find_opt table key with
              | Some m when m <= v -> ()
              | Some _ | None -> Hashtbl.replace table key v)
            s.s_pair_intervals)
        r.snapshots)
    [ pair.run0; pair.run1 ];
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let reference_triggered (pair : Executor.pair) =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (r : Sonar_uarch.Machine.result) ->
      List.iter
        (fun (s : Sonar_uarch.Cpoint.snapshot) ->
          let w = float_of_int s.s_fanout /. float_of_int s.s_max_subs in
          List.iter
            (fun (kind, sub) -> Hashtbl.replace table (s.point_name, kind, sub) w)
            s.s_triggered)
        r.snapshots)
    [ pair.run0; pair.run1 ];
  List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) table [])

(* Executed pairs of random testcases on both designs, single and dual
   core. *)
let prop_fold_matches_reference =
  QCheck2.Test.make ~name:"merged fold = hashtable fold" ~count:60
    QCheck2.Gen.(triple (int_range 1 10_000) bool bool)
    (fun (seed, dual, nutshell) ->
      let cfg =
        if nutshell then Sonar_uarch.Config.nutshell else Sonar_uarch.Config.boom
      in
      let pair =
        execute cfg
          (Testcase.random (Rng.create (Int64.of_int seed)) ~id:seed ~dual)
      in
      Executor.min_intervals pair = reference_min_intervals pair
      && Executor.triggered pair = reference_triggered pair)

let test_auto_chunk () =
  (* ~2 slices per worker, never below 1, and the slices always cover the
     whole batch. *)
  checki "64 candidates on 2 workers" 16 (Executor.auto_chunk ~jobs:2 64);
  checki "ceiling division" 6 (Executor.auto_chunk ~jobs:3 31);
  checki "tiny batch still one testcase per task" 1
    (Executor.auto_chunk ~jobs:8 3);
  List.iter
    (fun (jobs, n) ->
      let c = Executor.auto_chunk ~jobs n in
      checkb (Printf.sprintf "chunk >= 1 (jobs=%d n=%d)" jobs n) true (c >= 1);
      let slices = (n + c - 1) / c in
      checkb
        (Printf.sprintf "at most 2*jobs slices (jobs=%d n=%d)" jobs n)
        true
        (n = 0 || slices <= 2 * jobs))
    [ (1, 1); (1, 64); (2, 64); (3, 17); (4, 64); (16, 5); (2, 0) ]

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_executor_scratch_allocates_less () =
  (* Every executor path now runs on a reused worker-local Machine.Ctx —
     including one-off [Executor.run_pair] — so the baseline here is
     explicitly-fresh machines built through [Machine.run] without a
     context. The reused path must allocate a small fraction of that:
     cache line arrays, contention-point tables and the per-core pipeline
     models all come from the context instead of the minor heap, and the
     golden model no longer clones its full state (registers plus a memory
     hashtable) per instruction — it snapshots only at the rare access
     faults that actually fork a transient continuation. Measured at
     ~30k minor words per run (was ~90k before the lazy clone, ~190k
     before context reuse); the ratio and the absolute per-run ceiling
     below lock both wins in. *)
  let rng = Rng.create 31L in
  let tcs = List.init 4 (fun i -> Testcase.random rng ~id:(i + 1) ~dual:false) in
  let cfg = Sonar_uarch.Config.boom in
  Executor.execute_batch cfg tcs (fun _ _ -> ());
  let fresh =
    minor_words_during (fun () ->
        List.iter
          (fun tc ->
            ignore (Sonar_uarch.Machine.run cfg (Testcase.materialize tc ~secret:0));
            ignore (Sonar_uarch.Machine.run cfg (Testcase.materialize tc ~secret:1)))
          tcs)
  in
  let reused =
    minor_words_during (fun () ->
        Executor.execute_batch cfg tcs (fun _ _ -> ()))
  in
  checkb
    (Printf.sprintf "scratch path allocates less (fresh %.0f, reused %.0f)"
       fresh reused)
    true
    (reused < 0.35 *. fresh);
  (* 8 machine runs (4 testcases x 2 secrets): the execute phase must stay
     under 45k minor words per run. *)
  checkb
    (Printf.sprintf "per-run allocation ceiling (%.0f minor words / run)"
       (reused /. 8.))
    true
    (reused /. 8. < 45_000.)

let test_executor_batch_matches_sequential () =
  (* The callback sees every index once, in input order, with the pair
     [run_pair] gives that testcase — sequentially (jobs 1) and on a pool
     whose {!Executor.auto_chunk} slices 7 testcases as 2,2,2,1 (jobs 2,
     a partial slice) or one testcase per slice (jobs 4). *)
  let rng = Rng.create 21L in
  let tcs = List.init 7 (fun i -> Testcase.random rng ~id:(i + 1) ~dual:false) in
  List.iter
    (fun (cfg : Sonar_uarch.Config.t) ->
      let expected = Array.of_list (List.map (execute cfg) tcs) in
      let check_run label run =
        let label = cfg.name ^ " " ^ label in
        let seen = ref [] in
        run (fun i pair ->
            checkb (Printf.sprintf "%s: pair %d identical" label i) true
              (pair = expected.(i));
            seen := i :: !seen);
        Alcotest.(check (list int))
          (label ^ ": indices in order") (List.init 7 Fun.id) (List.rev !seen)
      in
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "jobs=%d" jobs in
          if jobs = 1 then check_run label (Executor.execute_batch cfg tcs)
          else
            Sonar.Domain_pool.with_pool ~jobs (fun pool ->
                check_run label (Executor.execute_batch ~pool cfg tcs)))
        [ 1; 2; 4 ])
    [ Sonar_uarch.Config.nutshell; Sonar_uarch.Config.boom ]

let test_domain_pool_basics () =
  Sonar.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let squares =
        Sonar.Domain_pool.map_list pool (fun x -> x * x) [ 1; 2; 3; 4; 5 ]
      in
      Alcotest.(check (list int)) "ordered results" [ 1; 4; 9; 16; 25 ] squares;
      (* Nested submission: a pooled task that submits and awaits subtasks
         must not deadlock (await helps run queued work). *)
      let nested =
        Sonar.Domain_pool.await
          (Sonar.Domain_pool.submit pool (fun () ->
               List.fold_left ( + ) 0
                 (Sonar.Domain_pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ])))
      in
      checki "nested fork-join" 12 nested;
      (* Exceptions propagate through await. *)
      checkb "exception propagates" true
        (match
           Sonar.Domain_pool.await
             (Sonar.Domain_pool.submit pool (fun () -> failwith "boom"))
         with
        | exception Failure m -> m = "boom"
        | _ -> false))

(* A campaign with the state fold attached, and the fold's summary. *)
let run_with_state ~options cfg strategy ~iterations =
  let sink, state = Telemetry.state () in
  let o =
    Fuzzer.run ~options:{ options with Fuzzer.Options.sinks = [ sink ] } cfg
      strategy ~iterations
  in
  (o, Telemetry.State.summary (state ()))

let test_fuzzer_series_monotonic () =
  let o, s =
    run_with_state
      ~options:{ Fuzzer.Options.default with seed = 18L; batch = 5 }
      Sonar_uarch.Config.boom Feedback.sonar ~iterations:25
  in
  checki "one point per generation" 5 (List.length s.series);
  let rec mono = function
    | (a : Telemetry.generation_end) :: (b : Telemetry.generation_end) :: rest ->
        a.coverage <= b.coverage && a.timing_diffs <= b.timing_diffs && mono (b :: rest)
    | _ -> true
  in
  checkb "cumulative series" true (mono s.series);
  let last = List.nth s.series 4 in
  checki "series ends at the campaign's end" 25 last.iterations_done;
  checkf "series ends at the outcome's coverage" o.Fuzzer.final_coverage
    last.coverage;
  checki "series ends at the outcome's timing diffs" o.final_timing_diffs
    last.timing_diffs

let test_fuzzer_finds_diffs () =
  let o, s =
    run_with_state
      ~options:{ Fuzzer.Options.default with seed = 19L }
      Sonar_uarch.Config.boom Feedback.sonar ~iterations:40
  in
  checkb "finds timing differences" true (o.Fuzzer.final_timing_diffs > 0);
  (* The outcome keeps the first three finding reports, and the event
     stream every finding: the two agree on the first three. *)
  checki "keeps the first three reports" (min 3 o.testcases_with_diffs)
    (List.length o.first_reports);
  Alcotest.(check (list (pair int int)))
    "first reports are the first findings"
    (List.filteri (fun i _ -> i < 3)
       (List.map
          (fun (f : Telemetry.State.finding) -> (f.iteration, f.count))
          s.findings))
    (List.map
       (fun (i, (r : Detector.report)) -> (i, List.length r.findings))
       o.first_reports);
  let doc = Fuzzer.json_of_outcome o in
  checki "json lists the first findings" (List.length o.first_reports)
    (match Json.member "first_findings" doc with
    | Json.List l -> List.length l
    | _ -> -1);
  checkb "json has no findings list" true (Json.member "findings" doc = Json.Null)

let test_baseline_specdoctor_runs () =
  let o, s =
    run_with_state
      ~options:{ Fuzzer.Options.default with seed = 20L }
      Sonar_uarch.Config.boom
      (Option.get (Feedback.create "specdoctor"))
      ~iterations:10
  in
  checki "testcases run" 10 s.testcases;
  checkb "covers something" true (o.Fuzzer.final_coverage > 0.)

(* SpecDoctor's generator: a gated transient secret region and no
   dependency chains on every fresh testcase. *)
let test_specdoctor_fresh () =
  let rng = Rng.create 5L in
  for id = 1 to 20 do
    let tc = Feedback.specdoctor.Feedback.fresh rng ~id ~dual:(id mod 2 = 0) in
    checkb "gated flavour" true
      (match tc.Testcase.flavor with Testcase.Gated _ -> true | _ -> false);
    checkb "no chains" true (tc.Testcase.chains = []);
    checkb "dual honoured" (id mod 2 = 0) (tc.Testcase.dual <> None)
  done

(* --- Channels (Table 3) --- *)

let channel_case (c : Channels.t) =
  Alcotest.test_case (c.id ^ " " ^ c.resource) `Slow (fun () ->
      let m = Channels.measure c in
      checkb
        (Printf.sprintf "%s timing difference in band (got %d, paper %d-%d)"
           c.id m.Channels.time_difference (fst c.paper_band) (snd c.paper_band))
        true m.in_band;
      checkb (c.id ^ " contention point implicated") true m.points_implicated)

let test_channels_catalogue () =
  checki "fourteen channels" 14 (List.length Channels.all);
  checki "twelve on boom" 12 (List.length (Channels.for_dut "boom"));
  checki "two on nutshell" 2 (List.length (Channels.for_dut "nutshell"));
  checki "eleven new" 11
    (List.length (List.filter (fun c -> c.Channels.is_new) Channels.all));
  checkb "find works" true (Channels.find "S5" <> None);
  checkb "unknown id" true (Channels.find "S99" = None)

(* Digest of the [Detector.pp_report] text of all fourteen scenarios,
   each behind its id: the findings and every contention-state
   discrepancy, formatted as reports are printed. The constant was
   computed when a report's state diffs were formatted into a separate
   text report first. *)
let test_channels_report_text () =
  let text =
    String.concat ""
      (List.map
         (fun (c : Channels.t) ->
           Format.asprintf "%s@.%a@." c.id Detector.pp_report
             (Channels.measure c).report)
         Channels.all)
  in
  Alcotest.(check string)
    "report text" "9bf8966df8b25c37443a249a61a4bd85"
    (Digest.to_hex (Digest.string text))

(* --- Attack (§8.5) --- *)

let test_attack_gadget_mapping () =
  checkb "S1 has a PoC" true (Attack.gadget_for "S1" <> None);
  checkb "S8 was known: no PoC" true (Attack.gadget_for "S8" = None);
  checkb "S9 was known: no PoC" true (Attack.gadget_for "S9" = None);
  checkb "S10 was known: no PoC" true (Attack.gadget_for "S10" = None)

let test_attack_boom_high_accuracy () =
  let r =
    Attack.run_poc ~trials:4 ~key_bits:24 Sonar_uarch.Config.boom
      ~channel_id:"S1" Attack.Channel_occupancy
  in
  checkb "boom channel PoC accurate" true (r.Attack.bit_accuracy > 0.9);
  checkb "transient window opened" true (r.avg_transient_window > 1.)

let test_attack_cache_probe_accuracy () =
  let r =
    Attack.run_poc ~trials:4 ~key_bits:24 Sonar_uarch.Config.boom
      ~channel_id:"S11" Attack.Cache_probe
  in
  checkb "cache-probe PoC accurate" true (r.Attack.bit_accuracy > 0.9)

let test_attack_timer_mitigation () =
  (* §8.6: coarsening the clock below the channel margin kills the PoC. *)
  let fine =
    Attack.run_poc ~trials:2 ~key_bits:16 ~timer_granularity:1
      Sonar_uarch.Config.boom ~channel_id:"S11" Attack.Cache_probe
  in
  let coarse =
    Attack.run_poc ~trials:2 ~key_bits:16 ~timer_granularity:512
      Sonar_uarch.Config.boom ~channel_id:"S11" Attack.Cache_probe
  in
  checkb "fine-grained clock leaks" true (fine.Attack.bit_accuracy > 0.9);
  checkb "coarse clock mitigates" true (coarse.Attack.bit_accuracy < 0.8)

let test_attack_nutshell_fails () =
  let r =
    Attack.run_poc ~trials:3 ~key_bits:16 Sonar_uarch.Config.nutshell
      ~channel_id:"S13" Attack.Port_pressure
  in
  checkb "nutshell PoC near chance" true (r.Attack.bit_accuracy < 0.75);
  checkf "no transient window" 0. r.avg_transient_window;
  checkb "key never recovered" true (r.key_success_rate < 0.02)

let () =
  Alcotest.run "sonar_core"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "testcase",
        [
          Alcotest.test_case "materialize" `Quick test_testcase_materialize;
          Alcotest.test_case "dual core" `Quick test_testcase_dual;
          Alcotest.test_case "runs cleanly" `Quick test_testcase_runs_cleanly;
          Alcotest.test_case "neutral flavor" `Quick test_neutral_flavor_no_diff;
          Alcotest.test_case "latency flavor leaks" `Quick test_latency_flavor_differs;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "retention" `Quick test_corpus_retention;
          Alcotest.test_case "selection bias" `Quick test_corpus_selection_prefers_small;
          Alcotest.test_case "zero ignored" `Quick test_corpus_zero_not_selected;
          Alcotest.test_case "eviction keeps newest" `Quick test_corpus_eviction_keeps_newest;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "domain pool basics" `Quick test_domain_pool_basics;
          Alcotest.test_case "batch matches sequential" `Quick
            test_executor_batch_matches_sequential;
          Alcotest.test_case "auto chunk sizing" `Quick test_auto_chunk;
          Alcotest.test_case "scratch context allocates less" `Quick
            test_executor_scratch_allocates_less;
          Alcotest.test_case "jobs bit-identical" `Quick test_fuzzer_jobs_bit_identical;
        ]
        @ List.map
            (fun name ->
              Alcotest.test_case
                ("jobs x chunk bit-identical: " ^ name)
                `Quick
                (test_fuzzer_jobs_matrix name))
            Feedback.names
        @ [
            Alcotest.test_case "traces byte-identical across jobs" `Quick
              test_fuzzer_strategy_traces_identical;
          ] );
      ( "feedback",
        [
          Alcotest.test_case "registry" `Quick test_feedback_registry;
          QCheck_alcotest.to_alcotest prop_consider_order_insensitive;
          QCheck_alcotest.to_alcotest prop_fold_matches_reference;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "directed grow/shrink" `Quick test_mutation_directed_grow_shrink;
          Alcotest.test_case "feedback flips" `Quick test_mutation_feedback_flips;
          Alcotest.test_case "flavor preserved" `Quick test_mutation_preserves_flavor;
          Alcotest.test_case "similarity bounds" `Quick test_mutation_similarity_in_buffer;
        ] );
      ( "ccd",
        [
          Alcotest.test_case "in-order propagation filtered" `Quick
            test_ccd_inorder_propagation_filtered;
          Alcotest.test_case "divergent traces" `Quick test_ccd_divergent_traces;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "deduplication" `Quick test_coverage_accumulates_once;
          Alcotest.test_case "per-component split" `Quick test_coverage_components;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "deterministic" `Quick test_fuzzer_deterministic;
          Alcotest.test_case "series monotonic" `Quick test_fuzzer_series_monotonic;
          Alcotest.test_case "finds differences" `Quick test_fuzzer_finds_diffs;
          Alcotest.test_case "specdoctor baseline" `Quick test_baseline_specdoctor_runs;
          Alcotest.test_case "specdoctor fresh testcases" `Quick test_specdoctor_fresh;
          Alcotest.test_case "campaign pin" `Quick test_campaign_pin;
        ] );
      ( "channels",
        Alcotest.test_case "catalogue" `Quick test_channels_catalogue
        :: Alcotest.test_case "report text" `Quick test_channels_report_text
        :: List.map channel_case Channels.all );
      ( "attack",
        [
          Alcotest.test_case "gadget mapping" `Quick test_attack_gadget_mapping;
          Alcotest.test_case "boom channel PoC" `Slow test_attack_boom_high_accuracy;
          Alcotest.test_case "cache probe PoC" `Slow test_attack_cache_probe_accuracy;
          Alcotest.test_case "nutshell PoC fails" `Slow test_attack_nutshell_fails;
          Alcotest.test_case "timer mitigation" `Slow test_attack_timer_mitigation;
        ] );
    ]
