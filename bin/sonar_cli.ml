(* Command-line interface to the Sonar framework.

     sonar analyze  --dut boom            static identification & filtering
     sonar fuzz     --dut boom -n 500     guided fuzzing campaign
     sonar report   trace.jsonl ...       offline report from JSONL trace(s)
     sonar serve    trace.jsonl           HTTP observability over a trace
     sonar channels [--id S5]             measure the Table 3 channels
     sonar attack   --id S11 -t 10        Meltdown-style PoC

   Machine-readable output: `--format json` (analyze/fuzz/channels) emits
   one stable JSON document on stdout; `sonar fuzz --trace FILE` streams
   the campaign's telemetry events as JSONL (schema: DESIGN.md §9), and
   `sonar report` turns one or more such traces (rotated segments or
   per-shard files) into a markdown/HTML document plus a JSON sidecar.
   Live campaigns expose /healthz, /snapshot and /metrics (Prometheus)
   via `sonar fuzz --serve PORT`; `sonar serve` does the same offline. *)

open Cmdliner
module Json = Sonar.Json
module Telemetry = Sonar.Telemetry

let dut_arg =
  let doc = "Design under test: boom or nutshell." in
  Arg.(value & opt string "boom" & info [ "dut" ] ~docv:"DUT" ~doc)

let format_arg =
  let doc = "Output format: $(b,text) (human-readable) or $(b,json) (one \
             stable JSON document on stdout)." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

(* Count flags are checked by their converter: a nonsensical value is a
   usage error, never silently clamped — a clamped `--jobs 0` would report
   jobs=1 results under a flag that said otherwise. *)
let int_in ~lo ~hi expected =
  let parse s =
    match int_of_string_opt s with
    | Some v when lo <= v && v <= hi -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive = int_in ~lo:1 ~hi:max_int "an integer >= 1"
let port = int_in ~lo:0 ~hi:65535 "a port number 0-65535"

let config_of_name name =
  match Sonar_uarch.Config.by_name name with
  | Some cfg -> Ok cfg
  | None -> Error (`Msg (Printf.sprintf "unknown DUT %s (boom|nutshell)" name))

let unknown_channel id =
  Printf.eprintf "unknown channel id %s; valid ids: %s\n" id
    (String.concat ", " (List.map (fun c -> c.Sonar.Channels.id) Sonar.Channels.all));
  1

(* Install the analysis profiling hook, feeding one span recorder; returns
   the uninstaller. *)
let install_profiler emit =
  let recorder = Telemetry.Span.recorder emit in
  Sonar_ir.Analysis.set_profiler (Some (Telemetry.Span.enter recorder));
  fun () -> Sonar_ir.Analysis.set_profiler None

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let json_of_summary dut (s : Sonar_ir.Analysis.summary) : Json.t =
  Json.Obj
    [
      ("command", Json.String "analyze");
      ("dut", Json.String dut);
      ("circuit", Json.String s.circuit_name);
      ("naive_mux_points", Json.Int s.naive_mux_points);
      ("identified_points", Json.Int s.identified_points);
      ("monitored_points", Json.Int s.monitored_points);
      ("reduction_vs_naive", Json.Float s.reduction_vs_naive);
      ("reduction_by_filter", Json.Float s.reduction_by_filter);
      ( "per_component",
        Json.List
          (List.map
             (fun (cs : Sonar_ir.Analysis.component_stats) ->
               Json.Obj
                 [
                   ( "component",
                     Json.String (Sonar_ir.Component.to_string cs.component) );
                   ("identified", Json.Int cs.identified);
                   ("monitored", Json.Int cs.monitored);
                 ])
             s.per_component) );
    ]

let analyze dut format profile =
  match config_of_name dut with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok cfg ->
      let obs = if profile then Some (Telemetry.observatory ()) else None in
      let uninstall =
        match obs with
        | Some (sink, _) -> install_profiler sink.Telemetry.emit
        | None -> Fun.id
      in
      let summary =
        Fun.protect ~finally:uninstall @@ fun () ->
        let circuit = Sonar_dut.Netlist_gen.generate ~pad:false cfg in
        Sonar_ir.Analysis.summarize circuit
      in
      let snapshot = Option.map (fun (_, snap) -> snap ()) obs in
      (match format with
      | `Text ->
          Format.printf "%a@." Sonar_ir.Analysis.pp_summary summary;
          Option.iter
            (fun (s : Telemetry.Observatory.snapshot) ->
              Format.printf "@.profiling spans:@.";
              print_string (Sonar.Report.span_tree_text s.span_tree))
            snapshot
      | `Json ->
          let doc =
            match (json_of_summary dut summary, snapshot) with
            | Json.Obj fields, Some s ->
                Json.Obj
                  (fields @ [ ("profile", Telemetry.Observatory.to_json s) ])
            | doc, _ -> doc
          in
          print_endline (Json.to_string doc));
      0

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let list_strategies () =
  List.iter
    (fun (name, description) -> Printf.printf "%-18s %s\n" name description)
    Sonar.Feedback.all;
  0

let unknown_strategy name =
  Printf.eprintf "unknown strategy %s; valid strategies: %s\n" name
    (String.concat ", " Sonar.Feedback.names);
  1

let fuzz dut iterations seed strategy_name list dual jobs batch no_checkpoint
    trace timings rotate_bytes rotate_generations serve_port stats progress
    format =
  if list then list_strategies ()
  else
  let checkpoint = not no_checkpoint in
  let rotate = rotate_bytes <> None || rotate_generations <> None in
  if rotate && trace = None then begin
    Printf.eprintf
      "sonar fuzz: --rotate-bytes/--rotate-generations need --trace FILE\n";
    exit 1
  end;
  match Sonar.Feedback.create strategy_name with
  | None -> unknown_strategy strategy_name
  | Some strategy -> (
  match config_of_name dut with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok cfg ->
      let jobs =
        match jobs with Some j -> j | None -> Sonar.Domain_pool.default_jobs ()
      in
      let trace_sink =
        Option.map
          (fun path ->
            if rotate then
              Telemetry.rotating_jsonl ~timings ?max_bytes:rotate_bytes
                ?max_generations:rotate_generations path
            else Telemetry.jsonl_file ~timings path)
          trace
      in
      (* One campaign-state fold behind both --stats and --serve. *)
      let state =
        if stats || serve_port <> None then Some (Telemetry.state ()) else None
      in
      let t0 = Unix.gettimeofday () in
      let progress_sink =
        Option.map
          (fun every -> Telemetry.progress ~every ~total:iterations ())
          progress
      in
      let server =
        Option.map
          (fun port ->
            let health = [ ("iterations_target", Json.Int iterations) ] in
            let read = snd (Option.get state) in
            let server =
              Sonar.Serve.start ~port (Sonar.Serve.campaign_routes ~status:"running" ~health read)
            in
            Printf.eprintf
              "sonar fuzz: observability on http://127.0.0.1:%d/ \
               (healthz, snapshot, metrics)\n%!"
              (Sonar.Serve.port server);
            server)
          serve_port
      in
      let sinks =
        List.filter_map Fun.id [ trace_sink; Option.map fst state; progress_sink ]
      in
      let options =
        {
          Sonar.Fuzzer.Options.seed = Int64.of_int seed;
          dual;
          jobs;
          batch;
          checkpoint;
          sinks;
        }
      in
      (* Close the sinks however the campaign ends ([Telemetry.close] is
         idempotent, so the fuzzer's own close-on-raise path composes): a
         crash mid-campaign still leaves a flushed, parseable trace. *)
      let o =
        Fun.protect
          ~finally:(fun () ->
            List.iter Telemetry.close sinks;
            Option.iter Sonar.Serve.stop server)
          (fun () -> Sonar.Fuzzer.run ~options cfg strategy ~iterations)
      in
      let stats_state =
        if stats then Option.map (fun (_, read) -> read ()) state else None
      in
      (match format with
      | `Json ->
          let meta =
            [
              ("command", Json.String "fuzz");
              ("dut", Json.String dut);
              ("iterations", Json.Int iterations);
              ("seed", Json.Int seed);
              ("strategy", Json.String strategy.Sonar.Feedback.name);
              ("dual", Json.Bool dual);
              ("jobs", Json.Int jobs);
              ("batch", Json.Int batch);
              ("checkpoint", Json.Bool checkpoint);
            ]
          in
          let outcome_fields =
            match Sonar.Fuzzer.json_of_outcome o with
            | Json.Obj fields -> fields
            | other -> [ ("outcome", other) ]
          in
          let stats_fields =
            match stats_state with
            | Some st ->
                let s = Telemetry.State.summary st in
                let elapsed = Unix.gettimeofday () -. t0 in
                [
                  ("metrics", Telemetry.Metrics.to_json (Telemetry.State.metrics ~elapsed s));
                  ("observatory", Telemetry.Observatory.to_json s.observatory);
                ]
            | None -> []
          in
          print_endline
            (Json.to_string (Json.Obj (meta @ outcome_fields @ stats_fields)))
      | `Text ->
          Format.printf
            "%s, %d iterations (strategy %s):@.  contention coverage %.0f \
             netlist points@.  %d secret-reflecting timing differences in %d \
             testcases@."
            dut iterations strategy.Sonar.Feedback.name
            o.Sonar.Fuzzer.final_coverage o.final_timing_diffs
            o.testcases_with_diffs;
          List.iter
            (fun (iteration, report) ->
              Format.printf "@.finding at iteration %d:@.%a@." iteration
                Sonar.Detector.pp_report report)
            o.first_reports;
          (* The `sonar report` document of the live state: with
             --trace T --timings, the same bytes as `sonar report T`. *)
          Option.iter
            (fun st ->
              let source = Option.value ~default:"<live>" trace in
              Format.printf "@.";
              print_string
                (Sonar.Report.to_markdown (Sonar.Report.of_state ~source ~skipped:0 st)))
            stats_state);
      0)

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report traces top format output sidecar no_sidecar strict label =
  match Sonar.Report.load_many ?label traces with
  | Error msg ->
      Printf.eprintf "sonar report: %s\n" msg;
      1
  | Ok r ->
      let shown =
        match label with Some l -> l | None -> String.concat ", " traces
      in
      if Sonar.Report.skipped r > 0 then
        Printf.eprintf "sonar report: skipped %d unparseable line(s) of %s\n"
          (Sonar.Report.skipped r) shown;
      let doc =
        match format with
        | `Markdown -> Sonar.Report.to_markdown ~top r
        | `Html -> Sonar.Report.to_html ~top r
      in
      (match output with
      | None -> print_string doc
      | Some path ->
          let oc = open_out path in
          output_string oc doc;
          close_out oc);
      if not no_sidecar then begin
        let path =
          match sidecar with
          | Some p -> p
          | None -> List.hd traces ^ ".report.json"
        in
        let oc = open_out path in
        output_string oc (Json.to_string (Sonar.Report.to_json r));
        output_char oc '\n';
        close_out oc
      end;
      if strict && Sonar.Report.skipped r > 0 then begin
        Printf.eprintf
          "sonar report: --strict: %d line(s) did not parse\n"
          (Sonar.Report.skipped r);
        2
      end
      else 0

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

(* Replay trace file(s) through Serve.replay — the reader and fold of
   `sonar report`, so the served numbers equal the report's — then serve
   the endpoints until interrupted. With --follow, the last file keeps
   being tailed for appended complete lines — point it at the trace of a
   campaign still running. *)
let serve traces port follow =
  let health =
    [ ("traces", Json.List (List.map (fun t -> Json.String t) traces)) ]
  in
  let feed, handler = Sonar.Serve.replay ~health in
  let replay_whole path =
    let ic = open_in_bin path in
    (try
       while true do
         feed (input_line ic)
       done
     with End_of_file -> ());
    close_in ic
  in
  (* The tailed file is consumed by byte offset, complete lines only, so
     a line caught mid-write is fed on the next poll instead of half now. *)
  let carry = Buffer.create 256 in
  let offset = ref 0 in
  let drain path =
    match open_in_bin path with
    | exception Sys_error msg -> Printf.eprintf "sonar serve: %s\n%!" msg
    | ic ->
        let len = in_channel_length ic in
        if len > !offset then begin
          seek_in ic !offset;
          Buffer.add_string carry (really_input_string ic (len - !offset));
          offset := len;
          let data = Buffer.contents carry in
          Buffer.clear carry;
          let rec split start =
            match String.index_from_opt data start '\n' with
            | Some i ->
                feed (String.sub data start (i - start));
                split (i + 1)
            | None ->
                Buffer.add_substring carry data start
                  (String.length data - start)
          in
          split 0
        end;
        close_in ic
  in
  let rec replay = function
    | [] -> ()
    | [ last ] -> drain last
    | f :: rest ->
        replay_whole f;
        replay rest
  in
  replay traces;
  let server = Sonar.Serve.start ~port handler in
  Printf.eprintf
    "sonar serve: %d trace file(s) replayed; listening on \
     http://127.0.0.1:%d/ (healthz, snapshot, metrics)%s\n%!"
    (List.length traces) (Sonar.Serve.port server)
    (if follow then " — following" else "");
  let last = List.nth traces (List.length traces - 1) in
  while true do
    Unix.sleepf (if follow then 0.5 else 3600.);
    if follow then drain last
  done;
  0

(* ------------------------------------------------------------------ *)
(* channels                                                            *)

let channels id format =
  let selected =
    match id with
    | Some id -> Option.map (fun c -> [ c ]) (Sonar.Channels.find id)
    | None -> Some Sonar.Channels.all
  in
  match selected with
  | None -> unknown_channel (Option.get id)
  | Some selected -> (
      let measurements = List.map Sonar.Channels.measure selected in
      match format with
      | `Text ->
          List.iter
            (fun m -> Format.printf "%a@." Sonar.Channels.pp_measurement m)
            measurements;
          0
      | `Json ->
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("command", Json.String "channels");
                    ( "channels",
                      Json.List
                        (List.map Sonar.Channels.json_of_measurement measurements)
                    );
                  ]));
          0)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)

let attack id trials bits =
  match Sonar.Channels.find id with
  | None -> unknown_channel id
  | Some c -> (
      match Sonar.Attack.gadget_for id with
      | None ->
          Format.printf "%s was previously known; the paper builds no PoC for it@." id;
          0
      | Some gadget ->
          let cfg = Option.get (Sonar_uarch.Config.by_name c.dut) in
          let r =
            Sonar.Attack.run_poc ~trials ~key_bits:bits cfg ~channel_id:id gadget
          in
          Format.printf "%a@." Sonar.Attack.pp_result r;
          0)

(* ------------------------------------------------------------------ *)
(* command definitions                                                 *)

let analyze_cmd =
  let doc = "identify and filter contention points in a DUT netlist" in
  let profile =
    Arg.(
      value
      & flag
      & info [ "profile" ]
          ~doc:
            "Record profiling spans around the analysis pipeline \
             (identification, counting, filtering) and print the span tree.")
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const analyze $ dut_arg $ format_arg $ profile)

let fuzz_cmd =
  let doc = "run a contention-guided fuzzing campaign" in
  let iters =
    Arg.(value & opt positive 200 & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Iterations.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let strategy =
    Arg.(
      value
      & opt string "sonar"
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            "Feedback strategy driving the campaign (see \
             $(b,--list-strategies)). Default: $(b,sonar), the paper's \
             policy.")
  in
  let list =
    Arg.(
      value
      & flag
      & info [ "list-strategies" ]
          ~doc:"List the shipped feedback strategies and exit.")
  in
  let dual =
    Arg.(value & flag & info [ "dual" ] ~doc:"Dual-core testcases (Figure 4b).")
  in
  let jobs =
    Arg.(
      value
      & opt (some positive) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel testcase execution (default: \
             \\$(b,SONAR_JOBS) or the core count). Results are identical \
             for every N; only wall-clock changes.")
  in
  let batch =
    Arg.(
      value
      & opt positive Sonar.Fuzzer.default_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Generation size (candidates drawn before feedback lands). \
             Shapes the campaign; keep it fixed when comparing runs.")
  in
  let no_checkpoint =
    Arg.(
      value
      & flag
      & info [ "no-checkpoint" ]
          ~doc:
            "Disable prefix-checkpointed dual runs: simulate each \
             testcase's shared pre-secret prefix twice instead of once. \
             Results and traces are bit-identical either way; only the \
             simulated-cycle statistics (cycles_simulated, cycles_saved, \
             checkpoint_hits) change.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the campaign's telemetry events to $(docv) as JSONL \
             (one event per line; deterministic for a fixed seed/batch, \
             independent of --jobs).")
  in
  let timings =
    Arg.(
      value
      & flag
      & info [ "timings" ]
          ~doc:
            "Include the wall-clock event class (phase timings and \
             profiling spans) in the $(b,--trace) file. These events are \
             not deterministic, so traces written with this flag are not \
             byte-comparable across runs.")
  in
  let rotate_bytes =
    Arg.(
      value
      & opt (some positive) None
      & info [ "rotate-bytes" ] ~docv:"N"
          ~doc:
            "Rotate the $(b,--trace) file into numbered segments \
             ($(i,FILE).0000, $(i,FILE).0001, …) once a segment exceeds \
             $(docv) bytes. Rotation happens only at generation \
             boundaries; every segment is self-contained (state-replay \
             header) and $(b,sonar report) merges them back \
             byte-identically.")
  in
  let rotate_generations =
    Arg.(
      value
      & opt (some positive) None
      & info [ "rotate-generations" ] ~docv:"N"
          ~doc:
            "Rotate the $(b,--trace) file after every $(docv) \
             generations (combinable with $(b,--rotate-bytes); whichever \
             threshold trips first).")
  in
  let serve =
    Arg.(
      value
      & opt (some port) None
      & info [ "serve" ] ~docv:"PORT"
          ~doc:
            "Serve live observability over HTTP on 127.0.0.1:$(docv) \
             while the campaign runs: $(b,/healthz), $(b,/snapshot) \
             (JSON) and $(b,/metrics) (Prometheus text format). Port 0 \
             picks a free port (printed on stderr).")
  in
  let stats =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:
            "Fold telemetry in memory and print, after the outcome, the \
             $(b,sonar report) document of the campaign (summary, \
             checkpointing and throughput, coverage series, interval \
             histograms, coverage heatmap, profiling span tree, CCD \
             findings). With $(b,--trace) $(i,FILE) $(b,--timings) it is \
             byte-identical to $(b,sonar report) $(i,FILE). With \
             $(b,--format json), the metrics and observatory snapshots.")
  in
  let progress =
    Arg.(
      value
      & opt (some positive) None
      & info [ "progress" ] ~docv:"N"
          ~doc:"Report progress on stderr every $(docv) testcases.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ dut_arg $ iters $ seed $ strategy $ list $ dual $ jobs $ batch $ no_checkpoint $ trace $ timings
      $ rotate_bytes $ rotate_generations $ serve $ stats $ progress
      $ format_arg)

let report_cmd =
  let doc = "build an offline report from a JSONL telemetry trace" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a trace written by $(b,sonar fuzz --trace FILE) into a \
         self-contained document: campaign summary, coverage over \
         iterations, top contention points by minimum observed interval \
         (with sparkline histograms), per-component coverage heatmap, \
         profiling span tree (when the trace was written with \
         $(b,--timings)), and CCD finding summaries.";
      `P
        "A machine-readable JSON sidecar is written next to the trace \
         ($(i,TRACE).report.json) unless $(b,--no-sidecar) is given.";
    ]
  in
  let traces =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:
            "JSONL telemetry trace(s) to report on. Several files — \
             rotated segments (give them in segment order, e.g. via a \
             shell glob) or per-shard campaign traces — merge into one \
             report.")
  in
  let top =
    Arg.(
      value
      & opt positive 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Contention points shown in the histogram table.")
  in
  let format =
    Arg.(
      value
      & opt
          (enum [ ("md", `Markdown); ("markdown", `Markdown); ("html", `Html) ])
          `Markdown
      & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,md) or $(b,html).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let sidecar =
    Arg.(
      value
      & opt (some string) None
      & info [ "sidecar" ] ~docv:"FILE"
          ~doc:"JSON sidecar path (default: $(i,TRACE).report.json).")
  in
  let no_sidecar =
    Arg.(value & flag & info [ "no-sidecar" ] ~doc:"Do not write the JSON sidecar.")
  in
  let strict =
    Arg.(
      value
      & flag
      & info [ "strict" ]
          ~doc:
            "Exit with status 2 when any input line fails to parse \
             (after still writing the report and sidecar for whatever \
             did parse).")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"NAME"
          ~doc:
            "Override the trace label shown in the report (default: the \
             input paths). Pass the same label to compare a merged \
             multi-file report against a single-trace report \
             byte-for-byte.")
  in
  Cmd.v (Cmd.info "report" ~doc ~man)
    Term.(
      const report $ traces $ top $ format $ output $ sidecar $ no_sidecar
      $ strict $ label)

let serve_cmd =
  let doc = "serve HTTP observability endpoints over a telemetry trace" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays one or more JSONL traces into the campaign state \
         $(b,sonar report) reads — rotated segments reassemble and shards \
         merge, as in $(b,sonar report) — and serves \
         $(b,/healthz), $(b,/snapshot) (JSON) and $(b,/metrics) \
         (Prometheus text format) on 127.0.0.1 until interrupted.";
      `P
        "With $(b,--follow), the last trace keeps being tailed for \
         appended events — point it at the $(b,--trace) file of a \
         campaign that is still running. For in-process live serving, \
         see $(b,sonar fuzz --serve).";
    ]
  in
  let traces =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TRACE" ~doc:"JSONL telemetry trace(s) to serve.")
  in
  let port =
    Arg.(
      value
      & opt port 8642
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to listen on (0 picks a free port, printed on stderr).")
  in
  let follow =
    Arg.(
      value
      & flag
      & info [ "follow" ]
          ~doc:"Keep tailing the last trace file for appended events.")
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const serve $ traces $ port $ follow)

let channels_cmd =
  let doc = "measure the catalogued side channels (Table 3)" in
  let id =
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"Sx" ~doc:"Channel id.")
  in
  Cmd.v (Cmd.info "channels" ~doc) Term.(const channels $ id $ format_arg)

let attack_cmd =
  let doc = "run a Meltdown-style exploitability PoC (§8.5)" in
  let id = Arg.(value & opt string "S11" & info [ "id" ] ~docv:"Sx" ~doc:"Channel id.") in
  let trials = Arg.(value & opt positive 5 & info [ "t"; "trials" ] ~doc:"Trials.") in
  let bits = Arg.(value & opt positive 32 & info [ "bits" ] ~doc:"Key bits.") in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const attack $ id $ trials $ bits)

let () =
  let doc = "Sonar: hardware fuzzing for contention side channels" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "sonar" ~version:"1.0.0" ~doc)
          [ analyze_cmd; fuzz_cmd; report_cmd; serve_cmd; channels_cmd;
            attack_cmd ]))
