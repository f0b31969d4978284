(* Tests for the campaign telemetry subsystem: the Json document model,
   event JSON round-tripping, sink aggregation against a hand-run campaign,
   trace determinism across worker counts, and the Options-record API
   (equivalence with the deprecated legacy signature, null-sink
   non-interference). *)

open Sonar

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 0.0001))

(* --- Json --- *)

let test_json_print () =
  checks "compact object" {|{"a":1,"b":[true,null,"x"]}|}
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null; Json.String "x" ]) ]));
  checks "integral float keeps a decimal" "2.0" (Json.to_string (Json.Float 2.));
  checks "negative int" "-17" (Json.to_string (Json.Int (-17)));
  checks "escapes" {|"a\"b\\c\nd"|} (Json.to_string (Json.String "a\"b\\c\nd"));
  checks "non-finite floats are null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_parse () =
  checkb "object round-trip" true
    (Json.of_string {| { "x" : [1, 2.5, "s", false] , "y": null } |}
    = Json.Obj
        [
          ( "x",
            Json.List [ Json.Int 1; Json.Float 2.5; Json.String "s"; Json.Bool false ]
          );
          ("y", Json.Null);
        ]);
  checkb "exponent parses as float" true
    (match Json.of_string "1e3" with Json.Float f -> f = 1000. | _ -> false);
  checkb "string escapes" true (Json.of_string {|"aA\n"|} = Json.String "aA\n");
  checkb "trailing garbage rejected" true
    (match Json.of_string "1 x" with exception Json.Parse_error _ -> true | _ -> false);
  checkb "unterminated string rejected" true
    (match Json.of_string {|"abc|} with exception Json.Parse_error _ -> true | _ -> false)

let test_json_print_parse_identity () =
  let docs =
    [
      Json.Null;
      Json.Obj [];
      Json.List [];
      Json.Obj
        [
          ("n", Json.Int 42);
          ("f", Json.Float 3.25);
          ("deep", Json.Obj [ ("l", Json.List [ Json.List [ Json.Int 1 ] ]) ]);
          ("s", Json.String "tab\there");
        ];
    ]
  in
  List.iter
    (fun doc ->
      checkb "parse (print doc) = doc" true (Json.of_string (Json.to_string doc) = doc))
    docs

let test_json_member () =
  let doc = Json.of_string {|{"a":{"b":7}}|} in
  checki "nested member" 7 Json.(to_int (member "b" (member "a" doc)));
  checkb "missing member is Null" true (Json.member "zzz" doc = Json.Null);
  checkf "to_float accepts ints" 7. Json.(to_float (member "b" (member "a" doc)))

let test_json_unicode_escapes () =
  checkb "ASCII \\u escape" true (Json.of_string {|"A"|} = Json.String "A");
  checkb "2-byte UTF-8 code point" true
    (Json.of_string {|"é"|} = Json.String "\xc3\xa9");
  checkb "3-byte UTF-8 code point" true
    (Json.of_string {|"▁"|} = Json.String "\xe2\x96\x81");
  checkb "truncated \\u escape rejected" true
    (match Json.of_string {|"\u00|} with
    | exception Json.Parse_error _ -> true
    | _ -> false);
  checkb "non-hex \\u escape rejected" true
    (match Json.of_string {|"\uZZZZ"|} with
    | exception Json.Parse_error _ -> true
    | _ -> false);
  checkb "unknown escape rejected" true
    (match Json.of_string {|"\q"|} with
    | exception Json.Parse_error _ -> true
    | _ -> false)

let test_json_control_chars () =
  (* Control characters must escape on output and survive a round-trip. *)
  let s = "\x00\x01\x1f bell\x07" in
  let printed = Json.to_string (Json.String s) in
  checks "control chars printed as escapes"
    "\"\\u0000\\u0001\\u001f bell\\u0007\"" printed;
  checkb "and parse back to the same bytes" true
    (Json.of_string printed = Json.String s)

let test_json_deep_nesting () =
  let depth = 500 in
  let src =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "7"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let doc = Json.of_string src in
  let rec measure acc = function
    | Json.List [ inner ] -> measure (acc + 1) inner
    | Json.Int 7 -> acc
    | _ -> Alcotest.fail "unexpected shape"
  in
  checki "nesting depth preserved" depth (measure 0 doc);
  checks "deep document re-prints to its source" src (Json.to_string doc)

let test_json_error_positions () =
  (* Parse errors must carry a byte offset so a bad trace line is
     diagnosable. *)
  let offset_of src =
    (* messages read "... at offset N": recover N *)
    match Json.of_string src with
    | exception Json.Parse_error msg -> (
        match String.rindex_opt msg ' ' with
        | Some i ->
            int_of_string_opt (String.sub msg (i + 1) (String.length msg - i - 1))
        | None -> None)
    | _ -> None
  in
  checkb "trailing garbage offset" true (offset_of "1 x" = Some 2);
  checkb "truncated object reports end of input" true
    (offset_of {|{"a":|} = Some 5);
  checkb "truncated list reports end of input" true (offset_of "[1," = Some 3);
  checkb "empty input reports offset 0" true (offset_of "" = Some 0)

(* --- Json qcheck properties --- *)

(* Finite floats that survive [Float f -> print -> parse] exactly (the
   printer guarantees round-trip for every finite float; quotients of small
   ints keep counter-example shrinking readable). *)
let gen_safe_float =
  QCheck2.Gen.(
    map
      (fun (a, b) -> float_of_int a /. float_of_int (max 1 (abs b)))
      (pair (int_range (-10000) 10000) (int_range 1 1000)))

let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) int;
              map (fun f -> Json.Float f) gen_safe_float;
              map (fun s -> Json.String s) (string_size (int_bound 12));
            ]
        in
        if n <= 0 then scalar
        else
          frequency
            [
              (2, scalar);
              ( 1,
                map
                  (fun l -> Json.List l)
                  (list_size (int_bound 4) (self (n / 2))) );
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (string_size (int_bound 8)) (self (n / 2)))) );
            ]))

let qcheck_json_roundtrip =
  QCheck2.Test.make ~name:"parse (print doc) = doc" ~count:300 gen_json
    (fun doc -> Json.of_string (Json.to_string doc) = doc)

let qcheck_json_string_bytes =
  (* Arbitrary bytes — including control characters and invalid UTF-8 —
     survive printing and reparsing unchanged. *)
  QCheck2.Test.make ~name:"any byte string round-trips" ~count:300
    QCheck2.Gen.(string_size (int_bound 40))
    (fun s -> Json.of_string (Json.to_string (Json.String s)) = Json.String s)

let qcheck_json_trailing_garbage =
  QCheck2.Test.make ~name:"trailing garbage always rejected" ~count:200
    gen_json
    (fun doc ->
      match Json.of_string (Json.to_string doc ^ " true") with
      | exception Json.Parse_error _ -> true
      | _ -> false)

let qcheck_json_truncation =
  (* Trace lines are objects, and an object is only closed by its final
     '}' — so every strict prefix of one must raise Parse_error (truncated
     input is never silently accepted). *)
  QCheck2.Test.make ~name:"truncated objects always rejected" ~count:100
    gen_json
    (fun doc ->
      let s = Json.to_string (Json.Obj [ ("event", doc) ]) in
      List.for_all
        (fun len ->
          match Json.of_string (String.sub s 0 len) with
          | exception Json.Parse_error _ -> true
          | _ -> false)
        (List.init (String.length s) Fun.id))

(* --- event JSON round-trip --- *)

let sample_events =
  [
    Telemetry.Campaign_start
      {
        strategy = "timing-coverage";
        seed = 23L;
        iterations = 400;
        batch = 64;
        dual = true;
      };
    Telemetry.Generation_start { generation = 1; first_iteration = 1; size = 8 };
    Telemetry.Testcase_executed { testcase_id = 3; cycles0 = 220; cycles1 = 224 };
    Telemetry.Contention_triggered { iteration = 3; added = 12.5; coverage = 40.25 };
    Telemetry.Ccd_finding { iteration = 4; findings = 2; total_delta = -3 };
    Telemetry.Corpus_retained { testcase_id = 4; corpus_size = 2 };
    Telemetry.Corpus_evicted { testcase_id = 1; corpus_size = 256 };
    Telemetry.Mutation_flip { iteration = 5; direction = "shrink" };
    Telemetry.Generation_end
      {
        generation = 1;
        iterations_done = 8;
        coverage = 40.25;
        timing_diffs = 2;
        corpus_size = 2;
      };
    Telemetry.Phase_timing
      { generation = 1; phase = Telemetry.Execute; seconds = 0.125 };
    Telemetry.Interval_histogram
      {
        generation = 2;
        point = "c0.exec.wb_port";
        src_pair = 1;
        total = 12;
        min_interval = 0;
        max_interval = 33;
        buckets = [ (0, 4); (3, 6); (6, 2) ];
      };
    Telemetry.Coverage_heatmap
      { generation = 2; components = [ ("exec", 12.5); ("lsu", 0.) ] };
    Telemetry.Span_begin { span_id = 1; parent = None; name = "campaign" };
    Telemetry.Span_begin { span_id = 2; parent = Some 1; name = "generation" };
    Telemetry.Span_end { span_id = 2; name = "generation"; seconds = 0.25 };
  ]

let test_event_json_roundtrip () =
  List.iter
    (fun ev ->
      match Telemetry.event_of_json (Telemetry.json_of_event ev) with
      | Some ev' -> checkb "decode (encode ev) = ev" true (ev = ev')
      | None -> Alcotest.fail "event failed to decode")
    sample_events;
  checkb "unknown event name rejected" true
    (Telemetry.event_of_json (Json.of_string {|{"event":"martian"}|}) = None);
  checkb "malformed payload rejected" true
    (Telemetry.event_of_json (Json.of_string {|{"event":"ccd_finding"}|}) = None)

(* --- interval histograms --- *)

let test_histogram_bucketing () =
  let open Telemetry.Histogram in
  checki "0 -> bucket 0" 0 (bucket_of 0);
  checki "1 -> bucket 1" 1 (bucket_of 1);
  checki "2 -> bucket 2" 2 (bucket_of 2);
  checki "3 -> bucket 2" 2 (bucket_of 3);
  checki "4 -> bucket 3" 3 (bucket_of 4);
  checki "7 -> bucket 3" 3 (bucket_of 7);
  checki "8 -> bucket 4" 4 (bucket_of 8);
  checkb "bucket 0 range" true (bucket_range 0 = (0, 0));
  checkb "bucket 3 range" true (bucket_range 3 = (4, 7));
  let h = create () in
  checkb "empty extrema" true (min_value h = None && max_value h = None);
  List.iter (add h) [ 0; 0; 1; 3; 3; 3; 1000; -5 ];
  checki "total counts every add" 8 (total h);
  checkb "negative clamps to 0" true (min_value h = Some 0);
  checkb "max tracked" true (max_value h = Some 1000);
  checkb "counts ascending, non-empty buckets only" true
    (counts h = [ (0, 3); (1, 1); (2, 3); (10, 1) ])

let test_histogram_json_and_merge () =
  let open Telemetry.Histogram in
  let h = create () in
  List.iter (add h) [ 2; 2; 9; 70 ];
  checks "json: total, extrema and non-empty buckets"
    {|{"total":4,"min":2,"max":70,"buckets":[[2,2],[4,1],[7,1]]}|}
    (Json.to_string (to_json h));
  checks "json of an empty histogram"
    {|{"total":0,"min":null,"max":null,"buckets":[]}|}
    (Json.to_string (to_json (create ())));
  let g = create () in
  List.iter (add g) [ 0; 9 ];
  let m = merge h g in
  checki "merge sums totals" (total h + total g) (total m);
  checkb "merge min" true (min_value m = Some 0);
  checkb "merge max" true (max_value m = Some 70);
  checkb "arguments not mutated" true (total h = 4 && total g = 2)

let test_histogram_registry_dirty () =
  let open Telemetry.Histogram in
  let r = registry () in
  observe r ~point:"b" ~src_pair:0 4;
  observe r ~point:"a" ~src_pair:1 7;
  observe r ~point:"a" ~src_pair:1 2;
  let drained = drain_dirty r in
  Alcotest.(check (list (pair string int)))
    "first drain: both keys, sorted"
    [ ("a", 1); ("b", 0) ]
    (List.map fst drained);
  checki "observations accumulate per key" 2
    (total (List.assoc ("a", 1) drained));
  checkb "second drain is empty" true (drain_dirty r = []);
  observe r ~point:"b" ~src_pair:0 1;
  Alcotest.(check (list (pair string int)))
    "only the touched key is dirty again"
    [ ("b", 0) ]
    (List.map fst (drain_dirty r));
  checki "registry keeps all histograms" 2 (List.length (to_list r))

(* --- span recorder --- *)

let test_span_recorder () =
  let events = ref [] in
  let t = ref 0. in
  let clock () =
    let v = !t in
    t := v +. 1.;
    v
  in
  let r = Telemetry.Span.recorder ~clock (fun e -> events := e :: !events) in
  let end_a = Telemetry.Span.enter r "a" in
  let end_b = Telemetry.Span.enter r "b" in
  end_b ();
  end_a ();
  end_a ();
  (* ending twice must not re-emit *)
  let got = List.rev !events in
  checkb "begin/end sequence with nesting and durations" true
    (got
    = [
        Telemetry.Span_begin { span_id = 1; parent = None; name = "a" };
        Telemetry.Span_begin { span_id = 2; parent = Some 1; name = "b" };
        Telemetry.Span_end { span_id = 2; name = "b"; seconds = 1. };
        Telemetry.Span_end { span_id = 1; name = "a"; seconds = 3. };
      ]);
  (* with every span closed, the next one is a root again *)
  let end_c = Telemetry.Span.enter r "c" in
  end_c ();
  checkb "closed spans leave the stack" true
    (match !events with
    | Telemetry.Span_end { span_id = 3; name = "c"; seconds = 1. }
      :: Telemetry.Span_begin { span_id = 3; parent = None; name = "c" }
      :: _ -> true
    | _ -> false)

let test_span_tree_merging () =
  (* Two generations under one campaign, each with the same child names:
     same-named siblings merge with summed seconds and call counts. *)
  let spans =
    [
      (1, None, "campaign", 10.);
      (2, Some 1, "generation", 4.);
      (3, Some 2, "execute", 3.);
      (4, Some 1, "generation", 6.);
      (5, Some 4, "execute", 2.);
      (* orphan: parent id never began (truncated trace) -> becomes a root *)
      (9, Some 99, "stray", 1.);
    ]
  in
  (* a reused id whose parent chain loops back (a damaged trace) still
     yields a finite tree: a parent is the latest earlier span with its id *)
  (match
     Telemetry.Observatory.build_span_tree
       [ (1, None, "r", 1.); (2, Some 1, "x", 1.); (1, Some 2, "y", 1.) ]
   with
  | [ { span_name = "r"; children = [ { span_name = "x"; children = [ y ]; _ } ]; _ } ] ->
      checks "looping ids nest in begin order" "y" y.Telemetry.Observatory.span_name
  | _ -> Alcotest.fail "expected r > x > y");
  match Telemetry.Observatory.build_span_tree spans with
  | [ root; stray ] ->
      checks "root name" "campaign" root.Telemetry.Observatory.span_name;
      checki "root calls" 1 root.calls;
      (match root.children with
      | [ gen ] ->
          checks "generations merged" "generation" gen.Telemetry.Observatory.span_name;
          checki "two generation calls" 2 gen.calls;
          checkf "seconds summed" 10. gen.seconds;
          (match gen.children with
          | [ ex ] ->
              checki "execute calls merged" 2 ex.Telemetry.Observatory.calls;
              checkf "execute seconds" 5. ex.seconds
          | kids -> Alcotest.failf "expected one merged child, got %d" (List.length kids))
      | kids -> Alcotest.failf "expected one child, got %d" (List.length kids));
      checks "orphan becomes a root" "stray" stray.Telemetry.Observatory.span_name
  | nodes -> Alcotest.failf "expected two roots, got %d" (List.length nodes)

(* The analysis profiler hook, fed by a span recorder into the campaign
   state fold exactly as [sonar analyze --profile] wires it. *)
let test_analysis_profiler_hook () =
  let sink, read = Telemetry.state () in
  let r = Telemetry.Span.recorder sink.Telemetry.emit in
  let circuit =
    Sonar_dut.Netlist_gen.generate ~scale:0.02 ~pad:false
      Sonar_uarch.Config.nutshell
  in
  let events () = (Telemetry.State.summary (read ())).events in
  Fun.protect ~finally:(fun () -> Sonar_ir.Analysis.set_profiler None)
    (fun () ->
      Sonar_ir.Analysis.set_profiler (Some (Telemetry.Span.enter r));
      ignore (Sonar_ir.Analysis.summarize circuit));
  (* each node as its path from the root and its call count *)
  let rec paths prefix (n : Telemetry.Observatory.span_node) =
    let path = prefix ^ "/" ^ n.span_name in
    (path, n.calls) :: List.concat_map (paths path) n.children
  in
  Alcotest.(check (list (pair string int)))
    "analysis span with its three phases, once each"
    [
      ("/analysis", 1);
      ("/analysis/analysis.naive_mux_count", 1);
      ("/analysis/analysis.identify", 1);
      ("/analysis/analysis.filter", 1);
    ]
    (List.concat_map (paths "")
       (Telemetry.State.summary (read ())).observatory.span_tree);
  let before = events () in
  ignore (Sonar_ir.Analysis.summarize circuit);
  checki "no events once the hook is removed" before (events ())

(* --- campaign helpers --- *)

let nutshell = Sonar_uarch.Config.nutshell

let campaign ?(sinks = []) ?(jobs = 1) ?(batch = Fuzzer.Options.default.batch)
    ~iterations () =
  Fuzzer.run
    ~options:{ Fuzzer.Options.default with seed = 23L; jobs; batch; sinks }
    nutshell Feedback.sonar ~iterations

(* --- aggregator vs a hand-run campaign --- *)

let test_aggregator_matches_outcome () =
  let sink, snap = Telemetry.aggregator () in
  let lines = ref [] in
  let trace = Telemetry.jsonl (fun l -> lines := l :: !lines) in
  let last_gen = ref None in
  let gens =
    Telemetry.make (function
      | Telemetry.Generation_end g -> last_gen := Some g
      | _ -> ())
  in
  let o = campaign ~sinks:[ sink; trace; gens ] ~batch:8 ~iterations:30 () in
  let m = snap () in
  checki "one executed event per iteration" 30 m.Telemetry.Metrics.testcases;
  checki "generations = ceil(30/8)" 4 m.generations;
  checkf "coverage tracks the outcome" o.Fuzzer.final_coverage m.coverage;
  checki "findings sum matches" o.final_timing_diffs m.ccd_findings;
  checki "finding testcases match" o.testcases_with_diffs m.finding_testcases;
  checki "contention testcases match" o.contentions_triggered_testcases
    m.contention_testcases;
  checki "corpus size matches the final generation end"
    (Option.get !last_gen).corpus_size m.corpus_size;
  checkb "retention happened" true (m.retained > 0);
  checkb "phase timings accumulated" true
    (m.generate_seconds >= 0. && m.execute_seconds > 0. && m.feedback_seconds > 0.);
  checkb "events/sec positive" true (m.events_per_second > 0.);
  checki "cycles simulated match" o.cycles_simulated m.cycles_simulated;
  checki "cycles saved match" o.cycles_saved m.cycles_saved;
  checki "checkpoint hits match" o.checkpoint_hits m.checkpoint_hits;
  (* the report of the same campaign's trace reads the same numbers *)
  let summary =
    Json.member "summary" (Report.to_json (Report.of_lines (List.rev !lines)))
  in
  let field f = Json.member f summary in
  checki "report testcases" 30 (Json.to_int (field "testcases"));
  checkf "report coverage" o.final_coverage (Json.to_float (field "final_coverage"));
  checki "report timing diffs" o.final_timing_diffs
    (Json.to_int (field "final_timing_diffs"))

(* --- JSONL trace: parser round-trip and jobs-determinism --- *)

let trace_lines ?batch ~jobs ~iterations () =
  let lines = ref [] in
  let sink = Telemetry.jsonl (fun s -> lines := s :: !lines) in
  ignore (campaign ~sinks:[ sink ] ?batch ~jobs ~iterations ());
  List.rev !lines

let test_jsonl_roundtrip () =
  let lines = trace_lines ~jobs:1 ~iterations:16 () in
  checkb "trace not empty" true (lines <> []);
  List.iter
    (fun line ->
      match Telemetry.event_of_json (Json.of_string line) with
      | Some ev ->
          checks "re-encode reproduces the line byte-for-byte" line
            (Json.to_string (Telemetry.json_of_event ev))
      | None -> Alcotest.fail ("line did not decode to an event: " ^ line))
    lines;
  checkb "trace contains a generation_end" true
    (List.exists
       (fun l ->
         match Telemetry.event_of_json (Json.of_string l) with
         | Some (Telemetry.Generation_end _) -> true
         | _ -> false)
       lines)

let test_trace_jobs_deterministic () =
  (* The acceptance property: the JSONL trace is byte-identical for every
     jobs at fixed seed/batch — jobs is wall-clock only (Phase_timing is
     excluded by default). batch=7 keeps the campaign multi-generation so
     generation events are exercised too, and its slices cover the
     partial (jobs 2 and 3: 2,2,2,1) and single-testcase (jobs 4) cases. *)
  let batch = 7 in
  let reference =
    String.concat "\n" (trace_lines ~batch ~jobs:1 ~iterations:24 ())
  in
  checkb "trace not empty" true (reference <> "");
  List.iter
    (fun jobs ->
      let t = String.concat "\n" (trace_lines ~batch ~jobs ~iterations:24 ()) in
      checks (Printf.sprintf "byte-identical trace (jobs=%d)" jobs) reference t)
    [ 2; 3; 4 ]

let test_fold_events_follow_execution () =
  (* The loop folds each testcase as its pair arrives but holds the fold's
     events until the generation's last testcase_executed, so a generation
     reads: all its executions, then all its fold events. *)
  List.iter
    (fun jobs ->
      let events = ref [] in
      let sink = Telemetry.make (fun ev -> events := ev :: !events) in
      ignore (campaign ~sinks:[ sink ] ~batch:8 ~jobs ~iterations:40 ());
      let folds = ref 0 in
      (* Per generation: testcases executed so far, and whether a fold
         event has been seen. *)
      let executed = ref 0 and folding = ref false in
      List.iter
        (fun ev ->
          match ev with
          | Telemetry.Generation_start _ ->
              executed := 0;
              folding := false
          | Telemetry.Testcase_executed { testcase_id; _ } ->
              checkb
                (Printf.sprintf "jobs=%d: testcase %d executed before any fold"
                   jobs testcase_id)
                false !folding;
              incr executed
          | Telemetry.Contention_triggered _ | Telemetry.Ccd_finding _
          | Telemetry.Corpus_retained _ | Telemetry.Corpus_evicted _
          | Telemetry.Mutation_flip _ ->
              checki (Printf.sprintf "jobs=%d: whole generation executed" jobs)
                8 !executed;
              folding := true;
              incr folds
          | _ -> ())
        (List.rev !events);
      checkb (Printf.sprintf "jobs=%d: fold events seen" jobs) true (!folds > 0))
    [ 1; 2 ]

let test_jsonl_timings_opt_in () =
  let count ~timings =
    let phases = ref 0 and spans = ref 0 in
    let sink =
      Telemetry.jsonl ~timings (fun s ->
          match Telemetry.event_of_json (Json.of_string s) with
          | Some (Telemetry.Phase_timing _) -> incr phases
          | Some (Telemetry.Span_begin _ | Telemetry.Span_end _) -> incr spans
          | _ -> ())
    in
    ignore (campaign ~sinks:[ sink ] ~iterations:8 ());
    (!phases, !spans)
  in
  checkb "wall-clock class excluded by default" true (count ~timings:false = (0, 0));
  (* one 8-iteration generation: 3 phase timings; spans = campaign +
     generation + generate/execute/feedback, each a begin and an end *)
  checkb "phase timings and spans when opted in" true
    (count ~timings:true = (3, 10))

let test_jsonl_file_writes () =
  let path = Filename.temp_file "sonar_trace" ".jsonl" in
  let sink = Telemetry.jsonl_file path in
  ignore (campaign ~sinks:[ sink ] ~iterations:8 ());
  Telemetry.close sink;
  Telemetry.close sink;
  (* close is idempotent *)
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       checkb "line parses" true (Json.of_string line <> Json.Null);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  checkb "several events on disk" true (!n > 8)

let test_partial_trace_on_raise () =
  (* Satellite property: a campaign that dies mid-run (here: a sink that
     raises, standing in for a crashing DUT) must still leave the attached
     trace file flushed, parseable line-by-line, and non-trivial. *)
  let path = Filename.temp_file "sonar_crash" ".jsonl" in
  let file_sink = Telemetry.jsonl_file path in
  let exception Boom in
  let n = ref 0 in
  let bomb =
    (* count the same event class the trace writer keeps, so the line-count
       assertion below is exact *)
    Telemetry.make (fun ev ->
        if not (Telemetry.is_timing_event ev) then begin
          incr n;
          if !n > 40 then raise Boom
        end)
  in
  (match campaign ~sinks:[ file_sink; bomb ] ~iterations:64 () with
  | exception Boom -> ()
  | _ -> Alcotest.fail "expected the campaign to propagate the failure");
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       (match Telemetry.event_of_json (Json.of_string line) with
       | Some _ -> ()
       | None -> Alcotest.fail ("partial trace line did not decode: " ^ line));
       incr lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  checkb "partial trace holds the events before the crash" true (!lines >= 40)

(* --- campaign_end footer --- *)

let decode line = Telemetry.event_of_json (Json.of_string line)

let test_campaign_end_footer () =
  let lines = trace_lines ~jobs:1 ~iterations:16 () in
  (match decode (List.nth lines (List.length lines - 1)) with
  | Some (Telemetry.Campaign_end e) ->
      checks "campaign completed" "completed" e.outcome;
      checki "footer carries the final iteration count" 16 e.iterations_done;
      checkb "wall-clock stripped from the default trace class" true
        (e.wall_seconds = None)
  | _ -> Alcotest.fail "trace must end with a campaign_end footer");
  (* with the timings opt-in the footer keeps its wall-clock *)
  let timed = ref [] in
  let sink = Telemetry.jsonl ~timings:true (fun s -> timed := s :: !timed) in
  ignore (campaign ~sinks:[ sink ] ~iterations:8 ());
  checkb "wall-clock present under --timings" true
    (List.exists
       (fun l ->
         match decode l with
         | Some (Telemetry.Campaign_end { wall_seconds = Some w; _ }) -> w >= 0.
         | _ -> false)
       !timed)

let test_campaign_end_on_crash () =
  (* the crash path still stamps a footer so a partial trace is
     distinguishable from a completed one *)
  let lines = ref [] in
  let trace = Telemetry.jsonl (fun s -> lines := s :: !lines) in
  let exception Boom in
  let n = ref 0 in
  let bomb =
    Telemetry.make (fun ev ->
        if not (Telemetry.is_timing_event ev) then begin
          incr n;
          if !n > 40 then raise Boom
        end)
  in
  (* batch 8: the bomb trips during the second generation, after the
     iteration counter has advanced past the first *)
  (match campaign ~sinks:[ trace; bomb ] ~batch:8 ~iterations:64 () with
  | exception Boom -> ()
  | _ -> Alcotest.fail "expected the campaign to propagate the failure");
  match decode (List.hd !lines) with
  | Some (Telemetry.Campaign_end e) ->
      checks "footer says crashed" "crashed" e.outcome;
      checkb "progress recorded up to the crash" true (e.iterations_done > 0)
  | _ -> Alcotest.fail "crashed trace must still end with a campaign_end"

(* --- rotating trace writer --- *)

let read_file_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let rotated_segments base =
  let rec go i acc =
    let p = Telemetry.segment_path base i in
    if Sys.file_exists p then go (i + 1) (p :: acc) else List.rev acc
  in
  go 0 []

let remove_segments base =
  List.iter Sys.remove (rotated_segments base)

let test_rotating_jsonl () =
  let base = Filename.temp_file "sonar_rot" ".jsonl" in
  Sys.remove base;
  let sink = Telemetry.rotating_jsonl ~max_generations:1 base in
  ignore (campaign ~sinks:[ sink ] ~batch:8 ~iterations:24 ());
  Telemetry.close sink;
  let segments = rotated_segments base in
  checkb "one segment per generation boundary" true (List.length segments >= 3);
  List.iteri
    (fun i seg ->
      let lines = read_file_lines seg in
      checkb "segment not empty" true (lines <> []);
      (* every segment is self-contained: it opens with a campaign_start
         (the real header for segment 0, a resync replay afterwards) *)
      (match decode (List.hd lines) with
      | Some (Telemetry.Campaign_start _) -> ()
      | _ -> Alcotest.failf "segment %d does not open with campaign_start" i);
      let resyncs =
        List.filter (fun l -> Telemetry.json_is_resync (Json.of_string l)) lines
      in
      if i = 0 then checki "no resync lines in segment 0" 0 (List.length resyncs)
      else checkb "later segments carry a resync head" true (resyncs <> []))
    segments;
  (* dropping the resync lines reassembles exactly the unrotated trace *)
  let reassembled =
    List.concat_map
      (fun seg ->
        List.filter
          (fun l -> not (Telemetry.json_is_resync (Json.of_string l)))
          (read_file_lines seg))
      segments
  in
  let unrotated = trace_lines ~batch:8 ~jobs:1 ~iterations:24 () in
  checks "reassembly is byte-identical"
    (String.concat "\n" unrotated)
    (String.concat "\n" reassembled);
  remove_segments base

let test_rotating_validation () =
  let bad f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  checkb "some threshold required" true
    (bad (fun () -> Telemetry.rotating_jsonl "/tmp/x.jsonl"));
  checkb "max_bytes >= 1" true
    (bad (fun () -> Telemetry.rotating_jsonl ~max_bytes:0 "/tmp/x.jsonl"));
  checkb "max_generations >= 1" true
    (bad (fun () -> Telemetry.rotating_jsonl ~max_generations:0 "/tmp/x.jsonl"))

(* --- state sink read across domains --- *)

let test_state_read_across_domains () =
  (* The live views read the state from the HTTP domain while the campaign
     domain folds into it: every read is a whole state, and reads never go
     backwards. *)
  let sink, read = Telemetry.state () in
  let ev =
    Telemetry.Testcase_executed { testcase_id = 1; cycles0 = 5; cycles1 = 5 }
  in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let last = ref 0 and monotone = ref true in
        while not (Atomic.get stop) do
          let s = Telemetry.State.summary (read ()) in
          if s.testcases < !last || s.events <> s.testcases then monotone := false;
          last := s.testcases
        done;
        !monotone)
  in
  for _ = 1 to 20_000 do
    sink.Telemetry.emit ev
  done;
  Atomic.set stop true;
  checkb "reads were whole and monotone" true (Domain.join reader);
  checki "no emission lost" 20_000 (Telemetry.State.summary (read ())).testcases

(* --- one campaign-state fold: the merge law --- *)

(* Campaign bodies over small domains, so that generated campaigns collide
   on span ids and histogram keys. Seconds and weights are multiples of
   1/8 below 2^20, whose sums are exact. *)
let gen_event =
  let open QCheck2.Gen in
  let small = int_range 0 5 in
  let eighths = map (fun k -> float_of_int k /. 8.) (int_range 0 64) in
  let name = oneofl [ "a"; "b"; "c" ] in
  oneof
    [
      return
        (Telemetry.Generation_start { generation = 1; first_iteration = 1; size = 4 });
      map
        (fun testcase_id ->
          Telemetry.Testcase_executed { testcase_id; cycles0 = 10; cycles1 = 12 })
        small;
      map2
        (fun iteration coverage ->
          Telemetry.Contention_triggered { iteration; added = 1.; coverage })
        small eighths;
      map2
        (fun iteration findings ->
          Telemetry.Ccd_finding { iteration; findings; total_delta = findings - 2 })
        small small;
      map2
        (fun testcase_id corpus_size ->
          Telemetry.Corpus_retained { testcase_id; corpus_size })
        small small;
      map2
        (fun testcase_id corpus_size ->
          Telemetry.Corpus_evicted { testcase_id; corpus_size })
        small small;
      map
        (fun direction -> Telemetry.Mutation_flip { iteration = 1; direction })
        (oneofl [ "grow"; "shrink" ]);
      map3
        (fun generation coverage n ->
          Telemetry.Generation_end
            {
              generation;
              iterations_done = 4 * generation;
              coverage;
              timing_diffs = n;
              corpus_size = n;
            })
        small eighths small;
      map2
        (fun phase seconds ->
          Telemetry.Phase_timing { generation = 1; phase; seconds })
        (oneofl Telemetry.[ Generate; Execute; Feedback ])
        eighths;
      map3
        (fun point lo n ->
          Telemetry.Interval_histogram
            {
              generation = 1;
              point;
              src_pair = lo mod 2;
              total = n + 1;
              min_interval = lo;
              max_interval = lo + n;
              buckets = [ (Telemetry.Histogram.bucket_of lo, n + 1) ];
            })
        name small small;
      map2
        (fun c w ->
          Telemetry.Coverage_heatmap { generation = 1; components = [ (c, w) ] })
        name eighths;
      map3
        (fun span_id p name ->
          Telemetry.Span_begin
            { span_id; parent = (if p = 0 then None else Some p); name })
        small small name;
      map3
        (fun span_id name seconds -> Telemetry.Span_end { span_id; name; seconds })
        small name eighths;
      map2
        (fun hits saved ->
          Telemetry.Checkpoint_stats
            {
              generation = 1;
              testcases = 4;
              hits;
              cycles_saved = saved;
              cycles_simulated = 100 + saved;
            })
        small small;
      map3
        (fun outcome coverage wall ->
          Telemetry.Campaign_end
            {
              outcome;
              iterations_done = 8;
              coverage;
              timing_diffs = 1;
              corpus_size = 2;
              wall_seconds = (if wall > 4. then Some wall else None);
            })
        (oneofl [ "completed"; "crashed" ])
        eighths eighths;
    ]

let gen_campaign =
  QCheck2.Gen.(
    map2
      (fun strategy body ->
        Telemetry.Campaign_start
          { strategy; seed = 1L; iterations = 8; batch = 4; dual = false }
        :: body)
      (oneofl [ "sonar"; "random" ])
      (list_size (int_bound 20) gen_event))

let gen_campaigns = QCheck2.Gen.(list_size (int_bound 4) gen_campaign)

(* Every view of a state as one string, so equal strings mean equal
   views: the metrics (wall-clock fixed), the observatory and the report. *)
let views st =
  let s = Telemetry.State.summary st in
  String.concat "\n"
    [
      Json.to_string (Telemetry.Metrics.to_json (Telemetry.State.metrics ~elapsed:1. s));
      Json.to_string (Telemetry.Observatory.to_json s.observatory);
      Json.to_string (Report.to_json (Report.of_state ~source:"s" ~skipped:0 st));
    ]

let fold_each = List.map Telemetry.State.of_events

let qcheck_fold_concat =
  QCheck2.Test.make ~name:"fold (c1 @ .. @ cn) = merge of the folds" ~count:300
    gen_campaigns (fun cs ->
      views (Telemetry.State.of_events (List.concat cs))
      = views (List.fold_left Telemetry.State.merge Telemetry.State.empty (fold_each cs)))

let qcheck_merge_associative =
  QCheck2.Test.make ~name:"merge is associative, empty its identity" ~count:300
    QCheck2.Gen.(triple gen_campaigns gen_campaigns gen_campaigns)
    (fun (xs, ys, zs) ->
      let open Telemetry.State in
      let fold cs = List.fold_left merge empty (fold_each cs) in
      let a = fold xs and b = fold ys and c = fold zs in
      views (merge (merge a b) c) = views (merge a (merge b c))
      && views (merge empty a) = views a
      && views (merge a empty) = views a)

(* --- observatory merge --- *)

let test_observatory_merge () =
  let build emissions =
    let sink, snap = Telemetry.observatory () in
    List.iter sink.Telemetry.emit emissions;
    snap ()
  in
  let hist ~point ~total ~min_interval buckets =
    Telemetry.Interval_histogram
      { generation = 1; point; src_pair = 0; total; min_interval;
        max_interval = 9; buckets }
  in
  let a =
    build
      [
        hist ~point:"x" ~total:3 ~min_interval:2 [ (2, 3) ];
        Telemetry.Coverage_heatmap
          { generation = 1; components = [ ("exec", 1.) ] };
      ]
  in
  let b =
    build
      [
        hist ~point:"x" ~total:2 ~min_interval:1 [ (1, 2) ];
        hist ~point:"y" ~total:5 ~min_interval:4 [ (3, 5) ];
        Telemetry.Coverage_heatmap
          { generation = 1; components = [ ("exec", 2.); ("lsu", 1.) ] };
      ]
  in
  let m = Telemetry.Observatory.merge a b in
  (match m.Telemetry.Observatory.points with
  | [ p1; p2 ] ->
      checkb "same key summed, re-sorted by min interval" true
        (p1.Telemetry.Observatory.point = "x" && p2.point = "y");
      checki "histograms summed" 5 (Telemetry.Histogram.total p1.hist);
      checkb "merged min" true
        (Telemetry.Histogram.min_value p1.hist = Some 1)
  | pts -> Alcotest.failf "expected 2 merged points, got %d" (List.length pts));
  checkb "heatmap weights summed per component" true
    (m.heatmap = [ ("exec", 3.); ("lsu", 1.) ])

(* --- observatory sink --- *)

let test_observatory_snapshot () =
  let sink, snap = Telemetry.observatory () in
  let hist ~point ~src_pair ~total ~min_interval ~max_interval buckets =
    sink.Telemetry.emit
      (Telemetry.Interval_histogram
         { generation = 1; point; src_pair; total; min_interval; max_interval;
           buckets })
  in
  (* two keys; the second emission for ("x", 0) supersedes the first *)
  hist ~point:"x" ~src_pair:0 ~total:3 ~min_interval:2 ~max_interval:9 [ (2, 3) ];
  hist ~point:"y" ~src_pair:1 ~total:5 ~min_interval:0 ~max_interval:4 [ (0, 5) ];
  hist ~point:"x" ~src_pair:0 ~total:4 ~min_interval:1 ~max_interval:9 [ (1, 4) ];
  sink.Telemetry.emit
    (Telemetry.Coverage_heatmap { generation = 1; components = [ ("exec", 1.) ] });
  sink.Telemetry.emit
    (Telemetry.Coverage_heatmap
       { generation = 2; components = [ ("exec", 2.); ("lsu", 1.) ] });
  sink.Telemetry.emit
    (Telemetry.Span_begin { span_id = 1; parent = None; name = "campaign" });
  sink.Telemetry.emit
    (Telemetry.Span_end { span_id = 1; name = "campaign"; seconds = 2.5 });
  (* events the observatory ignores must be harmless *)
  sink.Telemetry.emit
    (Telemetry.Generation_end
       { generation = 2; iterations_done = 9; coverage = 1.; timing_diffs = 0;
         corpus_size = 1 });
  let s = snap () in
  (match s.Telemetry.Observatory.points with
  | [ a; b ] ->
      checkb "ascending by min interval" true
        (a.Telemetry.Observatory.point = "y" && b.point = "x");
      checki "latest cumulative histogram wins" 4
        (Telemetry.Histogram.total b.hist);
      checkb "decoded extrema preserved" true
        (Telemetry.Histogram.min_value b.hist = Some 1
        && Telemetry.Histogram.max_value b.hist = Some 9)
  | pts -> Alcotest.failf "expected 2 points, got %d" (List.length pts));
  checkb "latest heatmap wins" true
    (s.heatmap = [ ("exec", 2.); ("lsu", 1.) ]);
  (match s.span_tree with
  | [ root ] ->
      checkb "span tree assembled" true
        (root.Telemetry.Observatory.span_name = "campaign"
        && root.calls = 1 && root.seconds = 2.5)
  | t -> Alcotest.failf "expected 1 span root, got %d" (List.length t));
  checkb "snapshot serialises" true
    (match Telemetry.Observatory.to_json s with Json.Obj _ -> true | _ -> false);
  (* an end whose begin was cut off (a truncated trace) stands as a root *)
  sink.Telemetry.emit
    (Telemetry.Span_end { span_id = 7; name = "orphan"; seconds = 1. });
  match (snap ()).span_tree with
  | [ _; orphan ] ->
      checkb "an end without a begin becomes a root" true
        (orphan.Telemetry.Observatory.span_name = "orphan"
        && orphan.calls = 1 && orphan.seconds = 1.)
  | t -> Alcotest.failf "expected 2 span roots, got %d" (List.length t)

(* --- corpus events --- *)

let test_corpus_events () =
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let c = Corpus.create ~max_entries:2 () in
  let tc i = { (Testcase.random (Rng.create 1L) ~id:0 ~dual:false) with Testcase.id = i } in
  ignore (Corpus.consider ~emit c (tc 1) ~intervals:[ (("p", 0), 9) ]);
  ignore (Corpus.consider ~emit c (tc 2) ~intervals:[ (("p", 0), 8) ]);
  ignore (Corpus.consider ~emit c (tc 3) ~intervals:[ (("p", 0), 9) ]);
  (* no improvement: no events *)
  ignore (Corpus.consider ~emit c (tc 4) ~intervals:[ (("p", 0), 7) ]);
  let retained =
    List.filter_map
      (function Telemetry.Corpus_retained e -> Some e.testcase_id | _ -> None)
      (List.rev !events)
  in
  let evicted =
    List.filter_map
      (function Telemetry.Corpus_evicted e -> Some e.testcase_id | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check (list int)) "retained ids in order" [ 1; 2; 4 ] retained;
  Alcotest.(check (list int)) "oldest entry evicted" [ 1 ] evicted

(* --- progress sink --- *)

let test_progress_reports () =
  let path = Filename.temp_file "sonar_progress" ".txt" in
  let oc = open_out path in
  let sink = Telemetry.progress ~out:oc ~every:8 ~total:16 () in
  ignore (campaign ~sinks:[ sink ] ~batch:8 ~iterations:16 ());
  (* the reporter flushes after every line, so the output is on disk
     before the channel is closed — an observer (tail -f, the serve
     follower) must not be starved by buffering *)
  let read () =
    let ic = open_in path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    contents
  in
  let contents = read () in
  close_out oc;
  Sys.remove path;
  checkb "progress lines flushed as they happen" true
    (String.length contents > 0
    && String.length contents - String.length (String.concat "" (String.split_on_char '\n' contents)) >= 2);
  checkb "final line reports the campaign outcome" true
    (let rec contains i =
       i + 8 <= String.length contents
       && (String.sub contents i 8 = "campaign" || contains (i + 1))
     in
     contains 0)

(* --- Options record API --- *)

let test_options_record_equivalences () =
  (* Omitting ~options must mean exactly Options.default, and a record
     built field-by-field must behave like the record-update idiom —
     the invariants the removed run_legacy wrapper used to pin down. *)
  let implicit = Fuzzer.run nutshell Feedback.sonar ~iterations:15 in
  let explicit_default =
    Fuzzer.run ~options:Fuzzer.Options.default nutshell Feedback.sonar
      ~iterations:15
  in
  checkb "no ~options = Options.default" true (implicit = explicit_default);
  let via_update =
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with seed = 17L; batch = 5 }
      nutshell Feedback.sonar ~iterations:15
  in
  let via_literal =
    Fuzzer.run
      ~options:
        {
          Fuzzer.Options.seed = 17L;
          dual = false;
          jobs = 1;
          batch = 5;
          checkpoint = true;
          sinks = [];
        }
      nutshell Feedback.sonar ~iterations:15
  in
  checkb "bit-identical outcomes" true (via_update = via_literal)

let test_null_sink_not_observable () =
  (* Attaching sinks (null or real) must not perturb the campaign. *)
  let bare = campaign ~iterations:16 () in
  let with_null = campaign ~sinks:[ Telemetry.null ] ~iterations:16 () in
  let agg, _ = Telemetry.aggregator () in
  let with_agg = campaign ~sinks:[ agg; Telemetry.null ] ~iterations:16 () in
  checkb "null sink: identical outcome" true (bare = with_null);
  checkb "aggregator: identical outcome" true (bare = with_agg)

let test_options_validation () =
  let run ~batch ~jobs () =
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with batch; jobs }
      nutshell Feedback.sonar ~iterations:4
  in
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  checkb "batch < 1 rejected" true (bad (run ~batch:0 ~jobs:1));
  checkb "jobs < 1 rejected" true (bad (run ~batch:8 ~jobs:0))

let () =
  Alcotest.run "sonar_telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "parsing" `Quick test_json_parse;
          Alcotest.test_case "print/parse identity" `Quick
            test_json_print_parse_identity;
          Alcotest.test_case "member access" `Quick test_json_member;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "control characters" `Quick test_json_control_chars;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "error positions" `Quick test_json_error_positions;
        ] );
      ( "json properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_json_roundtrip;
            qcheck_json_string_bytes;
            qcheck_json_trailing_garbage;
            qcheck_json_truncation;
          ] );
      ( "events",
        [ Alcotest.test_case "json round-trip" `Quick test_event_json_roundtrip ] );
      ( "histograms",
        [
          Alcotest.test_case "bucketing and extrema" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "json round-trip and merge" `Quick
            test_histogram_json_and_merge;
          Alcotest.test_case "registry dirty set" `Quick
            test_histogram_registry_dirty;
        ] );
      ( "spans",
        [
          Alcotest.test_case "recorder with injected clock" `Quick
            test_span_recorder;
          Alcotest.test_case "tree merging" `Quick test_span_tree_merging;
          Alcotest.test_case "analysis profiler hook" `Quick
            test_analysis_profiler_hook;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "aggregator matches campaign" `Quick
            test_aggregator_matches_outcome;
          Alcotest.test_case "jsonl round-trips" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "trace identical across jobs" `Quick
            test_trace_jobs_deterministic;
          Alcotest.test_case "fold events follow a generation's executions"
            `Quick test_fold_events_follow_execution;
          Alcotest.test_case "timings are opt-in" `Quick test_jsonl_timings_opt_in;
          Alcotest.test_case "jsonl file writer" `Quick test_jsonl_file_writes;
          Alcotest.test_case "campaign_end footer" `Quick
            test_campaign_end_footer;
          Alcotest.test_case "campaign_end on crash" `Quick
            test_campaign_end_on_crash;
          Alcotest.test_case "rotating trace writer" `Quick test_rotating_jsonl;
          Alcotest.test_case "rotation validation" `Quick
            test_rotating_validation;
          Alcotest.test_case "state sink read across domains" `Quick
            test_state_read_across_domains;
          Alcotest.test_case "observatory merge" `Quick test_observatory_merge;
          Alcotest.test_case "partial trace survives a crash" `Quick
            test_partial_trace_on_raise;
          Alcotest.test_case "observatory snapshot" `Quick
            test_observatory_snapshot;
          Alcotest.test_case "corpus events" `Quick test_corpus_events;
          Alcotest.test_case "progress reporter" `Quick test_progress_reports;
        ] );
      ( "campaign state",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_fold_concat; qcheck_merge_associative ] );
      ( "options",
        [
          Alcotest.test_case "record equivalences" `Quick
            test_options_record_equivalences;
          Alcotest.test_case "sinks never perturb outcomes" `Quick
            test_null_sink_not_observable;
          Alcotest.test_case "validation" `Quick test_options_validation;
        ] );
    ]
