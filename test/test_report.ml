(* Tests for the offline trace-report builder behind `sonar report`:
   replaying a real campaign trace, resilience to malformed input, the
   markdown/HTML/JSON renderers, and report determinism. *)

open Sonar

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let nutshell = Sonar_uarch.Config.nutshell

let trace_lines ?(timings = false) ~iterations () =
  let lines = ref [] in
  let sink = Telemetry.jsonl ~timings (fun s -> lines := s :: !lines) in
  let o =
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with seed = 23L; sinks = [ sink ] }
      nutshell Feedback.sonar ~iterations
  in
  (o, List.rev !lines)

let test_campaign_replay () =
  let o, lines = trace_lines ~iterations:24 () in
  let r = Report.of_lines ~source:"test" lines in
  checki "nothing skipped" 0 (Report.skipped r);
  checki "every line became an event" (List.length lines) (Report.events r);
  let md = Report.to_markdown r in
  List.iter
    (fun section -> checkb (section ^ " present") true (contains ~needle:section md))
    [
      "# Sonar campaign report";
      "## Summary";
      "## Coverage over iterations";
      "## Contention points by minimum interval";
      "## Coverage heatmap";
      "## Profiling spans";
      "## CCD findings";
    ];
  (* summary numbers come from the trace, which tracked the outcome *)
  checkb "testcase count in summary" true
    (contains ~needle:"| testcases | 24 |" md);
  checkb "final coverage in summary" true
    (contains
       ~needle:(Printf.sprintf "%.1f" o.Fuzzer.final_coverage)
       md);
  (* without --timings the trace has no spans; the section says so *)
  checkb "span section notes the timings opt-in" true
    (contains ~needle:"timings opt-in" md)

let test_span_tree_rendering () =
  let _, lines = trace_lines ~timings:true ~iterations:16 () in
  let md = Report.to_markdown (Report.of_lines lines) in
  checkb "campaign span row" true (contains ~needle:"campaign" md);
  checkb "execute span row" true (contains ~needle:"execute" md);
  checkb "no opt-in note when spans exist" false (contains ~needle:"timings opt-in" md)

let test_skipped_lines () =
  let _, lines = trace_lines ~iterations:8 () in
  let polluted =
    [ "not json at all"; {|{"event":"martian"}|}; "" ]
    @ lines
    @ [ {|{"truncated|} ]
  in
  let r = Report.of_lines polluted in
  checki "bad lines counted, blank ignored" 3 (Report.skipped r);
  checki "good events all kept" (List.length lines) (Report.events r);
  checkb "skip count surfaces in the summary" true
    (contains ~needle:"| skipped lines | 3 |" (Report.to_markdown r))

let test_empty_and_missing () =
  let r = Report.of_lines [] in
  checki "empty trace, zero events" 0 (Report.events r);
  checkb "empty trace still renders" true
    (contains ~needle:"No generation_end events" (Report.to_markdown r));
  match Report.load "/nonexistent/sonar-trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file must be an error"

let test_html_renderer () =
  let ev =
    Telemetry.Coverage_heatmap
      { generation = 1; components = [ ("a<b>&\"c", 1.0) ] }
  in
  let html = Report.to_html (Report.of_events [ ev ]) in
  checkb "is a complete document" true
    (contains ~needle:"<!DOCTYPE html>" html && contains ~needle:"</html>" html);
  checkb "component names are escaped" true
    (contains ~needle:"a&lt;b&gt;&amp;&quot;c" html);
  checkb "raw markup never leaks" false (contains ~needle:"a<b>" html)

let test_json_sidecar () =
  let _, lines = trace_lines ~iterations:16 () in
  let doc = Report.to_json (Report.of_lines ~source:"t" lines) in
  (* serialises and reparses; carries the sections machines consume *)
  let doc' = Json.of_string (Json.to_string doc) in
  checkb "sidecar round-trips" true (doc = doc');
  checks "source recorded" "t"
    Json.(to_str (member "source" (member "summary" doc)));
  checkb "series present" true
    (match Json.member "series" doc with Json.List (_ :: _) -> true | _ -> false);
  checkb "observatory present" true
    (match Json.member "observatory" doc with Json.Obj _ -> true | _ -> false)

let test_deterministic () =
  let _, a = trace_lines ~iterations:16 () in
  let _, b = trace_lines ~iterations:16 () in
  checks "same trace, byte-identical markdown"
    (Report.to_markdown (Report.of_lines a))
    (Report.to_markdown (Report.of_lines b));
  checks "same trace, byte-identical sidecar"
    (Json.to_string (Report.to_json (Report.of_lines a)))
    (Json.to_string (Report.to_json (Report.of_lines b)))

(* --- rotation, shard merging, campaign_end surfacing --- *)

let rotated_segments base =
  let rec go i acc =
    let p = Telemetry.segment_path base i in
    if Sys.file_exists p then go (i + 1) (p :: acc) else List.rev acc
  in
  go 0 []

let fresh_base () =
  let base = Filename.temp_file "sonar_report_rot" ".jsonl" in
  Sys.remove base;
  base

let test_rotated_merge_byte_identity () =
  (* The PR's determinism invariant: the merged report over rotated
     segments is byte-identical to the single-trace report, for every
     worker count. *)
  List.iter
    (fun jobs ->
      let base = fresh_base () in
      let rot = Telemetry.rotating_jsonl ~max_generations:2 base in
      let opts jobs sinks =
        { Fuzzer.Options.default with seed = 23L; batch = 8; jobs; sinks }
      in
      ignore
        (Fuzzer.run ~options:(opts jobs [ rot ]) nutshell Feedback.sonar
           ~iterations:40);
      Telemetry.close rot;
      let segments = rotated_segments base in
      checkb "campaign actually rotated" true (List.length segments > 1);
      let single = ref [] in
      let mem = Telemetry.jsonl (fun s -> single := s :: !single) in
      ignore
        (Fuzzer.run ~options:(opts 1 [ mem ]) nutshell Feedback.sonar
           ~iterations:40);
      let merged =
        match Report.load_many ~label:"campaign" segments with
        | Ok r -> r
        | Error msg -> Alcotest.fail msg
      in
      let reference = Report.of_lines ~source:"campaign" (List.rev !single) in
      checks
        (Printf.sprintf "markdown byte-identical (jobs=%d)" jobs)
        (Report.to_markdown reference)
        (Report.to_markdown merged);
      checks
        (Printf.sprintf "sidecar byte-identical (jobs=%d)" jobs)
        (Json.to_string (Report.to_json reference))
        (Json.to_string (Report.to_json merged));
      checki "still a single campaign" 1 (Report.campaigns merged);
      List.iter Sys.remove segments)
    [ 1; 2 ]

let test_rotated_merge_after_crash () =
  (* A campaign killed mid-segment leaves parseable segments whose merged
     report equals the plain-trace report of the same crashed campaign. *)
  let exception Boom in
  let run sinks =
    let n = ref 0 in
    let bomb =
      Telemetry.make (fun ev ->
          if not (Telemetry.is_timing_event ev) then begin
            incr n;
            if !n > 60 then raise Boom
          end)
    in
    match
      Fuzzer.run
        ~options:
          { Fuzzer.Options.default with seed = 23L; batch = 8;
            sinks = sinks @ [ bomb ] }
        nutshell Feedback.sonar ~iterations:64
    with
    | exception Boom -> ()
    | _ -> Alcotest.fail "expected the campaign to crash"
  in
  let base = fresh_base () in
  let rot = Telemetry.rotating_jsonl ~max_generations:1 base in
  run [ rot ];
  Telemetry.close rot;
  let segments = rotated_segments base in
  checkb "rotation happened before the crash" true (List.length segments > 1);
  let single = ref [] in
  let mem = Telemetry.jsonl (fun s -> single := s :: !single) in
  run [ mem ];
  let merged =
    match Report.load_many ~label:"campaign" segments with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let reference = Report.of_lines ~source:"campaign" (List.rev !single) in
  checks "crashed campaign merges byte-identically"
    (Report.to_markdown reference)
    (Report.to_markdown merged);
  checkb "outcome survives the merge" true
    (Report.outcome merged = Some "crashed");
  checkb "crash surfaces in the summary" true
    (contains ~needle:"| outcome | crashed |" (Report.to_markdown merged));
  List.iter Sys.remove segments

let test_shard_merge_equals_concat () =
  (* Distinct campaigns (per-shard traces) merge cluster-level, and the
     merge is file-boundary-agnostic: report(a, b) = report(a ++ b). *)
  let shard seed =
    let lines = ref [] in
    let sink = Telemetry.jsonl (fun s -> lines := s :: !lines) in
    ignore
      (Fuzzer.run
         ~options:{ Fuzzer.Options.default with seed; sinks = [ sink ] }
         nutshell Feedback.sonar ~iterations:16);
    List.rev !lines
  in
  let a = shard 23L and b = shard 24L in
  let merged = Report.of_traces ~label:"fleet" [ ("a", a); ("b", b) ] in
  let concatenated = Report.of_lines ~source:"fleet" (a @ b) in
  checks "files vs concatenation, byte-identical"
    (Report.to_markdown concatenated)
    (Report.to_markdown merged);
  checki "two campaigns merged" 2 (Report.campaigns merged);
  checkb "both completed" true (Report.outcome merged = Some "completed");
  checkb "campaign count in the header" true
    (contains ~needle:"across 2 merged campaigns" (Report.to_markdown merged));
  checkb "campaigns-merged summary row" true
    (contains ~needle:"| campaigns merged | 2 |" (Report.to_markdown merged))

let test_outcome_surfacing () =
  let _, lines = trace_lines ~iterations:8 () in
  let md = Report.to_markdown (Report.of_lines lines) in
  checkb "completed outcome row" true
    (contains ~needle:"| outcome | completed |" md);
  checkb "header always counts events and skipped lines" true
    (contains
       ~needle:(Printf.sprintf "Replayed %d events, 0 skipped lines." (List.length lines))
       md);
  (* a trace cut before its footer reads as incomplete *)
  let truncated =
    List.filter
      (fun l ->
        match Telemetry.event_of_json (Json.of_string l) with
        | Some (Telemetry.Campaign_end _) -> false
        | _ -> true)
      lines
  in
  let r = Report.of_lines truncated in
  checkb "no footer, no outcome" true (Report.outcome r = None);
  checkb "incomplete outcome row" true
    (contains ~needle:"| outcome | incomplete (no campaign_end) |"
       (Report.to_markdown r));
  (* html carries the same header *)
  checkb "html header paragraph" true
    (contains ~needle:"skipped lines" (Report.to_html r))

let test_top_limits_points () =
  let _, lines = trace_lines ~iterations:24 () in
  let r = Report.of_lines lines in
  let count_rows md =
    (* data rows of the contention-point table: lines between its header
       separator and the next blank line *)
    match String.split_on_char '\n' md with
    | [] -> 0
    | all ->
        let rec after_header = function
          | [] -> []
          | l :: rest ->
              if contains ~needle:"| point | pair |" l then rest
              else after_header rest
        in
        let rec rows n = function
          | l :: rest when String.length l > 0 && l.[0] = '|' -> rows (n + 1) rest
          | _ -> n
        in
        rows (-1) (after_header all) (* -1 skips the --- separator row *)
  in
  checki "top=3 keeps three rows" 3 (count_rows (Report.to_markdown ~top:3 r));
  checkb "default keeps more" true (count_rows (Report.to_markdown r) > 3)

(* The distribution cell of the contention-point table: an empty
   histogram renders as an empty cell, and a populated one as one glyph
   per bucket over its range, scaled to the fullest bucket, with a space
   for each empty bucket inside the range. *)
let test_point_sparklines () =
  let hist point src_pair ~min_interval ~max_interval buckets =
    Telemetry.Interval_histogram
      { generation = 0; point; src_pair; total = List.fold_left (fun n (_, c) -> n + c) 0 buckets;
        min_interval; max_interval; buckets }
  in
  let md =
    Report.to_markdown
      (Report.of_events
         [ hist "quiet" 0 ~min_interval:0 ~max_interval:0 [];
           hist "busy" 1 ~min_interval:1 ~max_interval:12 [ (1, 1); (3, 4); (4, 2) ] ])
  in
  checkb "empty histogram, empty cell" true (contains ~needle:"| quiet | 0 | 0 | 0 | 0 |  |\n" md);
  checkb "levels 2, gap, 7, 4" true
    (contains ~needle:"| busy | 1 | 7 | 1 | 12 | \xe2\x96\x83 \xe2\x96\x88\xe2\x96\x85 |\n" md)

(* `sonar fuzz --stats` prints the report of its live state: a campaign
   folded live renders the same markdown and JSON as its --timings trace
   replayed, and the rows only live state and --timings traces can fill
   stay out of a default trace's report. *)
let test_live_state_equals_timings_trace () =
  let sink, read = Telemetry.state () in
  let timed = ref [] and plain = ref [] in
  let buffer lines ~timings = Telemetry.jsonl ~timings (fun l -> lines := l :: !lines) in
  ignore
    (Fuzzer.run
       ~options:
         {
           Fuzzer.Options.default with
           seed = 3L;
           batch = 8;
           sinks = [ sink; buffer timed ~timings:true; buffer plain ~timings:false ];
         }
       nutshell Feedback.sonar ~iterations:40);
  let live = Report.of_state ~source:"campaign" ~skipped:0 (read ()) in
  let replayed = Report.of_lines ~source:"campaign" (List.rev !timed) in
  let md = Report.to_markdown live in
  checks "markdown" (Report.to_markdown replayed) md;
  checks "json" (Json.to_string (Report.to_json replayed))
    (Json.to_string (Report.to_json live));
  let rows md =
    List.map (fun row -> contains ~needle:("| " ^ row ^ " | ") md) [ "checkpointing"; "throughput" ]
  in
  Alcotest.(check (list bool)) "live report has both rows" [ true; true ] (rows md);
  Alcotest.(check (list bool))
    "default trace report has neither" [ false; false ]
    (rows (Report.to_markdown (Report.of_lines ~source:"campaign" (List.rev !plain))))

let () =
  Alcotest.run "sonar_report"
    [
      ( "report",
        [
          Alcotest.test_case "campaign replay" `Quick test_campaign_replay;
          Alcotest.test_case "span tree rendering" `Quick test_span_tree_rendering;
          Alcotest.test_case "skipped lines" `Quick test_skipped_lines;
          Alcotest.test_case "empty and missing input" `Quick test_empty_and_missing;
          Alcotest.test_case "html renderer" `Quick test_html_renderer;
          Alcotest.test_case "json sidecar" `Quick test_json_sidecar;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "top limits the point table" `Quick
            test_top_limits_points;
          Alcotest.test_case "rotated merge byte-identity" `Quick
            test_rotated_merge_byte_identity;
          Alcotest.test_case "rotated merge after a crash" `Quick
            test_rotated_merge_after_crash;
          Alcotest.test_case "shard merge equals concatenation" `Quick
            test_shard_merge_equals_concat;
          Alcotest.test_case "outcome surfacing" `Quick test_outcome_surfacing;
          Alcotest.test_case "point sparklines" `Quick test_point_sparklines;
          Alcotest.test_case "live state equals its timings trace" `Quick
            test_live_state_equals_timings_trace;
        ] );
    ]
