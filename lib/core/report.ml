(* Campaign reports: a Telemetry.State — replayed from JSONL traces, or
   the live state of `sonar fuzz --stats` — as a self-contained markdown
   or HTML document (plus a JSON form for machines). This module is the
   one text renderer of campaign state; the numbers are the state's
   summary, so the report of a trace is as deterministic as the trace
   itself. *)

type t = {
  source : string;
  skipped : int;
  s : Telemetry.State.summary;
}

let of_state ~source ~skipped st = { source; skipped; s = Telemetry.State.summary st }

let of_events ?(source = "<events>") ?(skipped = 0) events =
  of_state ~source ~skipped (Telemetry.State.of_events events)

(* All inputs form one line stream: rotation segments reassemble because
   the reader drops their resync heads, and each real campaign_start opens
   a new campaign, so reporting [a b] equals reporting their
   concatenation. *)
let of_traces ?label sources =
  let label =
    match label with
    | Some l -> l
    | None -> String.concat ", " (List.map fst sources)
  in
  let reader = Telemetry.reader () in
  let st =
    List.fold_left
      (List.fold_left (fun st line ->
           match Telemetry.read_line reader line with
           | Some ev -> Telemetry.State.add st ev
           | None -> st))
      Telemetry.State.empty (List.map snd sources)
  in
  of_state ~source:label ~skipped:(Telemetry.skipped reader) st

let of_lines ?source lines =
  let label = Option.value ~default:"<lines>" source in
  of_traces ~label [ (label, lines) ]

let read_lines path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Ok (List.rev !lines)

let load_many ?label paths =
  let rec read acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match read_lines p with
        | Error msg -> Error msg
        | Ok lines -> read ((p, lines) :: acc) rest)
  in
  Result.map (of_traces ?label) (read [] paths)

let load path = load_many ~label:path [ path ]

let skipped r = r.skipped
let events r = r.s.events
let outcome r = r.s.outcome
let campaigns r = r.s.campaigns

(* ------------------------------------------------------------------ *)
(* Section model shared by the markdown and HTML renderers.            *)

type block =
  | Table of string list * string list list  (* headers, rows *)
  | Pre of string
  | Para of string

type section = { title : string; blocks : block list }

let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let glyph level = spark_glyphs.(max 0 (min 7 level))

(* One glyph per value, scaled to the series maximum; long series are
   resampled (by last-value-in-bin) to [width] columns. *)
let spark_of_floats ?(width = 60) values =
  match values with
  | [] -> ""
  | _ ->
      let values =
        let n = List.length values in
        if n <= width then values
        else
          let arr = Array.of_list values in
          List.init width (fun i -> arr.(((i + 1) * n / width) - 1))
      in
      let peak = List.fold_left Float.max 1e-9 values in
      String.concat ""
        (List.map
           (fun v -> glyph (int_of_float (Float.round (7. *. Float.max 0. v /. peak))))
           values)

(* A histogram's bars over its populated bucket range, scaled to the
   fullest bucket (any non-empty bucket shows at least the second level);
   empty buckets inside the range render as spaces so gaps in the
   distribution stay visible. *)
let sparkline h =
  match Telemetry.Histogram.counts h with
  | [] -> ""
  | (lo, _) :: _ as nonzero ->
      let hi = fst (List.nth nonzero (List.length nonzero - 1)) in
      let peak = List.fold_left (fun a (_, c) -> max a c) 1 nonzero in
      String.concat ""
        (List.init (hi - lo + 1) (fun i ->
             match List.assoc_opt (lo + i) nonzero with
             | None -> " "
             | Some c -> glyph (((c * 7) + peak - 1) / peak)))

let bar ?(width = 24) ~peak v =
  let n = int_of_float (Float.round (float_of_int width *. v /. Float.max peak 1e-9)) in
  String.concat "" (List.init (max 0 (min width n)) (fun _ -> glyph 7 (* full block *)))

let fmt_f = Printf.sprintf "%.1f"
let fmt_s = Printf.sprintf "%.3fs"

(* One line under the title, rendered in both markdown and HTML: the
   reader learns up front how much of the input actually decoded. *)
let header_para r =
  Printf.sprintf "Replayed %d events, %d skipped lines%s." r.s.events r.skipped
    (if r.s.campaigns > 1 then
       Printf.sprintf " across %d merged campaigns" r.s.campaigns
     else "")

let summary_section ({ source; skipped; s } : t) =
  let rows =
    [ [ "trace"; source ] ]
    @ (match s.strategy with
      | Some s -> [ [ "strategy"; s ] ]
      | None -> [])
    @ [
      [ "outcome";
        Option.value ~default:"incomplete (no campaign_end)" s.outcome ];
    ]
    @ (match s.wall_seconds with
      | Some w ->
          [
            [ "campaign wall-clock"; fmt_s w ];
            [ "throughput";
              Printf.sprintf "%.1f testcases/s"
                (Telemetry.State.metrics ~elapsed:w s).testcases_per_second ];
          ]
      | None -> [])
    @ (if s.campaigns > 1 then
         [ [ "campaigns merged"; string_of_int s.campaigns ] ]
       else [])
    @ [
      [ "events"; string_of_int s.events ];
      [ "skipped lines"; string_of_int skipped ];
      [ "testcases"; string_of_int s.testcases ];
      [ "generations"; string_of_int s.generations ];
      [ "iterations done"; string_of_int s.iterations_done ];
      [ "contention coverage"; fmt_f s.coverage ];
      [ "contention testcases"; string_of_int s.contention_testcases ];
      [ "timing differences (CCD)"; string_of_int s.timing_diffs ];
      [ "finding testcases"; string_of_int (List.length s.findings) ];
      [ "corpus size"; string_of_int s.corpus_size ];
      [ "retained / evicted";
        Printf.sprintf "%d / %d" s.retained s.evicted ];
      [ "direction flips"; string_of_int s.direction_flips ];
    ]
    (* only checkpoint_stats events count simulated cycles, and every
       testcase simulates some *)
    @ (if s.cycles_simulated > 0 then
         [ [ "checkpointing";
             Printf.sprintf "%d cycles simulated, %d saved (%d hits)"
               s.cycles_simulated s.cycles_saved s.checkpoint_hits ] ]
       else [])
    @ List.map
        (fun (p, secs) -> [ Telemetry.phase_name p ^ " wall-clock"; fmt_s secs ])
        s.phase_seconds
  in
  { title = "Summary"; blocks = [ Table ([ "metric"; "value" ], rows) ] }

let coverage_section (s : Telemetry.State.summary) =
  if s.series = [] then
    { title = "Coverage over iterations";
      blocks = [ Para "No generation_end events in the trace." ] }
  else
    let spark =
      spark_of_floats (List.map (fun (p : Telemetry.generation_end) -> p.coverage) s.series)
    in
    let n = List.length s.series in
    let sampled =
      (* at most 16 table rows, evenly spaced, always including the last *)
      let arr = Array.of_list s.series in
      let k = min 16 n in
      List.init k (fun i -> arr.(((i + 1) * n / k) - 1))
    in
    let rows =
      List.map
        (fun (p : Telemetry.generation_end) ->
          [ string_of_int p.generation; string_of_int p.iterations_done;
            fmt_f p.coverage; string_of_int p.timing_diffs;
            string_of_int p.corpus_size ])
        sampled
    in
    {
      title = "Coverage over iterations";
      blocks =
        [
          Pre ("coverage  " ^ spark);
          Table
            ( [ "generation"; "iterations"; "coverage"; "timing diffs";
                "corpus" ],
              rows );
        ];
    }

let points_section ~top (s : Telemetry.State.summary) =
  let points = s.observatory.points in
  if points = [] then
    { title = "Contention points by minimum interval";
      blocks = [ Para "No interval_histogram events in the trace." ] }
  else
    let rows =
      List.filteri (fun i _ -> i < top) points
      |> List.map (fun (p : Telemetry.Observatory.point_hist) ->
             let h = p.hist in
             [
               p.point;
               string_of_int p.src_pair;
               string_of_int (Telemetry.Histogram.total h);
               string_of_int
                 (Option.value ~default:0 (Telemetry.Histogram.min_value h));
               string_of_int
                 (Option.value ~default:0 (Telemetry.Histogram.max_value h));
               sparkline h;
             ])
    in
    {
      title = "Contention points by minimum interval";
      blocks =
        [
          Para
            (Printf.sprintf
               "Top %d of %d (point, source-pair) interval distributions; \
                buckets are powers of two, bars scale to the fullest bucket."
               (min top (List.length points))
               (List.length points));
          Table
            ([ "point"; "pair"; "n"; "min"; "max"; "distribution" ], rows);
        ];
    }

let heatmap_section (s : Telemetry.State.summary) =
  let heatmap = s.observatory.heatmap in
  if heatmap = [] then
    { title = "Coverage heatmap";
      blocks = [ Para "No coverage_heatmap events in the trace." ] }
  else
    let peak = List.fold_left (fun a (_, w) -> Float.max a w) 0. heatmap in
    let rows =
      List.map
        (fun (name, w) -> [ name; fmt_f w; bar ~peak w ])
        heatmap
    in
    { title = "Coverage heatmap";
      blocks = [ Table ([ "component"; "weight"; "share" ], rows) ] }

let span_tree_text tree =
  let buf = Buffer.create 256 in
  let rec render indent (n : Telemetry.Observatory.span_node) =
    Buffer.add_string buf
      (Printf.sprintf "%-*s %6dx %10.3fs\n"
         (max (String.length indent + String.length n.span_name) 30)
         (indent ^ n.span_name)
         n.calls n.seconds);
    List.iter (render (indent ^ "  ")) n.children
  in
  List.iter (render "") tree;
  Buffer.contents buf

let spans_section (s : Telemetry.State.summary) =
  let tree = s.observatory.span_tree in
  if tree = [] then
    { title = "Profiling spans";
      blocks =
        [
          Para
            "No span events in the trace (spans are wall-clock data; rerun \
             with the timings opt-in, e.g. `sonar fuzz --trace FILE \
             --timings`).";
        ] }
  else { title = "Profiling spans"; blocks = [ Pre (span_tree_text tree) ] }

let findings_section (s : Telemetry.State.summary) =
  if s.findings = [] then
    { title = "CCD findings";
      blocks = [ Para "No secret-reflecting timing differences recorded." ] }
  else
    let total = List.fold_left (fun a (f : Telemetry.State.finding) -> a + f.count) 0 s.findings in
    let rows =
      List.filteri (fun i _ -> i < 20) s.findings
      |> List.map (fun (f : Telemetry.State.finding) ->
             [ string_of_int f.iteration; string_of_int f.count;
               string_of_int f.total_delta ])
    in
    {
      title = "CCD findings";
      blocks =
        [
          Para
            (Printf.sprintf
               "%d findings across %d testcases (first %d testcases shown)."
               total (List.length s.findings)
               (min 20 (List.length s.findings)));
          Table ([ "iteration"; "findings"; "total delta" ], rows);
        ];
    }

let sections ?(top = 10) r =
  [
    summary_section r;
    coverage_section r.s;
    points_section ~top r.s;
    heatmap_section r.s;
    spans_section r.s;
    findings_section r.s;
  ]

(* ------------------------------------------------------------------ *)
(* Renderers.                                                          *)

let render_markdown ~header secs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# Sonar campaign report\n\n";
  Buffer.add_string buf (header ^ "\n");
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "\n## %s\n\n" s.title);
      List.iter
        (function
          | Para p -> Buffer.add_string buf (p ^ "\n\n")
          | Pre p ->
              Buffer.add_string buf "```\n";
              Buffer.add_string buf p;
              if p <> "" && p.[String.length p - 1] <> '\n' then
                Buffer.add_char buf '\n';
              Buffer.add_string buf "```\n\n"
          | Table (headers, rows) ->
              let line cells =
                "| " ^ String.concat " | " cells ^ " |\n"
              in
              Buffer.add_string buf (line headers);
              Buffer.add_string buf
                (line (List.map (fun _ -> "---") headers));
              List.iter (fun r -> Buffer.add_string buf (line r)) rows;
              Buffer.add_char buf '\n')
        s.blocks)
    secs;
  Buffer.contents buf

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_html ~header secs =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>Sonar campaign report</title>\n\
     <style>\n\
     body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:60rem;\
     padding:0 1rem;color:#1a1a1a}\n\
     table{border-collapse:collapse;margin:0.5rem 0}\n\
     th,td{border:1px solid #ccc;padding:0.25rem 0.6rem;text-align:left;\
     font-variant-numeric:tabular-nums}\n\
     th{background:#f2f2f2}\n\
     pre{background:#f7f7f7;padding:0.75rem;overflow-x:auto}\n\
     </style></head><body>\n<h1>Sonar campaign report</h1>\n";
  Buffer.add_string buf
    (Printf.sprintf "<p>%s</p>\n" (html_escape header));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "<h2>%s</h2>\n" (html_escape s.title));
      List.iter
        (function
          | Para p ->
              Buffer.add_string buf
                (Printf.sprintf "<p>%s</p>\n" (html_escape p))
          | Pre p ->
              Buffer.add_string buf
                (Printf.sprintf "<pre>%s</pre>\n" (html_escape p))
          | Table (headers, rows) ->
              Buffer.add_string buf "<table><thead><tr>";
              List.iter
                (fun h ->
                  Buffer.add_string buf
                    (Printf.sprintf "<th>%s</th>" (html_escape h)))
                headers;
              Buffer.add_string buf "</tr></thead><tbody>\n";
              List.iter
                (fun r ->
                  Buffer.add_string buf "<tr>";
                  List.iter
                    (fun c ->
                      Buffer.add_string buf
                        (Printf.sprintf "<td>%s</td>" (html_escape c)))
                    r;
                  Buffer.add_string buf "</tr>\n")
                rows;
              Buffer.add_string buf "</tbody></table>\n")
        s.blocks)
    secs;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let to_markdown ?top r = render_markdown ~header:(header_para r) (sections ?top r)
let to_html ?top r = render_html ~header:(header_para r) (sections ?top r)

let to_json ({ source; skipped; s } : t) : Json.t =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ( "summary",
        Json.Obj
          [
            ("source", Json.String source);
            ("strategy", opt (fun v -> Json.String v) s.strategy);
            ("outcome", opt (fun v -> Json.String v) s.outcome);
            ("wall_seconds", opt (fun v -> Json.Float v) s.wall_seconds);
            ("campaigns", Json.Int s.campaigns);
            ("events", Json.Int s.events);
            ("skipped", Json.Int skipped);
            ("testcases", Json.Int s.testcases);
            ("generations", Json.Int s.generations);
            ("iterations_done", Json.Int s.iterations_done);
            ("final_coverage", Json.Float s.coverage);
            ("final_timing_diffs", Json.Int s.timing_diffs);
            ("final_corpus_size", Json.Int s.corpus_size);
            ("contention_testcases", Json.Int s.contention_testcases);
            ("retained", Json.Int s.retained);
            ("evicted", Json.Int s.evicted);
            ("direction_flips", Json.Int s.direction_flips);
            ( "phase_seconds",
              Json.Obj
                (List.map
                   (fun (p, secs) -> (Telemetry.phase_name p, Json.Float secs))
                   s.phase_seconds) );
          ] );
      ( "series",
        Json.List
          (List.map
             (fun (p : Telemetry.generation_end) ->
               Json.Obj
                 [
                   ("generation", Json.Int p.generation);
                   ("iterations_done", Json.Int p.iterations_done);
                   ("coverage", Json.Float p.coverage);
                   ("timing_diffs", Json.Int p.timing_diffs);
                   ("corpus_size", Json.Int p.corpus_size);
                 ])
             s.series) );
      ( "findings",
        Json.List
          (List.map
             (fun (f : Telemetry.State.finding) ->
               Json.Obj
                 [
                   ("iteration", Json.Int f.iteration);
                   ("findings", Json.Int f.count);
                   ("total_delta", Json.Int f.total_delta);
                 ])
             s.findings) );
      ("observatory", Telemetry.Observatory.to_json s.observatory);
    ]
