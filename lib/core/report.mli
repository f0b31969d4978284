(** Campaign reports: the one text renderer of campaign state.

    [sonar report] replays one or more JSONL telemetry traces (written by
    {!Telemetry.jsonl_file} or {!Telemetry.rotating_jsonl}) into a
    self-contained document: campaign summary, coverage-over-iterations
    series, top contention points by minimum observed interval (with
    sparkline histograms), per-component coverage heatmap, merged
    profiling span tree, and CCD finding summaries. [sonar fuzz --stats]
    prints the same document of its live state ({!of_state}), so a
    campaign traced with [--timings] prints exactly what [sonar report]
    prints for its trace. The summary shows a checkpointing row (cycles
    simulated and saved, checkpoint hits) only when the state holds
    [checkpoint_stats] events, and a throughput row only when it holds a
    footer wall-clock; default traces carry neither.

    {b Merging.} All inputs are read as one line stream by one
    {!Telemetry.reader} and folded into one {!Telemetry.State.t} — the
    fold the live [--stats] and [/metrics] views read too. Rotated
    segments of one campaign (recognised by the [{"resync":true}]
    state-replay lines {!Telemetry.rotating_jsonl} stamps on segment
    heads) reassemble into exactly the unrotated event stream, so their
    report is byte-identical to the single-trace report. Distinct
    campaigns — per-shard traces, or several [campaign_start] headers
    inside one concatenated file — combine in {!Telemetry.State.summary}:
    counters sum, interval histograms sum per (point, source-pair) key,
    heatmaps sum per component, span trees merge structurally. Reporting
    the files [a b] is byte-identical to reporting their concatenation.

    The report of a deterministic trace is itself deterministic.
    Unparseable or unknown lines are counted ({!skipped}) rather than
    fatal — a trace cut short by a crash still yields a report of
    everything before the cut. *)

type t

val of_events : ?source:string -> ?skipped:int -> Telemetry.event list -> t
(** Fold an event stream into a report. [source] labels the report
    header (defaults to ["<events>"]); [skipped] is carried into the
    summary. *)

val of_state : source:string -> skipped:int -> Telemetry.State.t -> t
(** The report of an already folded state, such as a live campaign's
    {!Telemetry.state}. *)

val of_lines : ?source:string -> string list -> t
(** Parse each non-blank line as one JSON event document; lines that fail
    to parse or decode count as skipped. Equivalent to {!of_traces} with a
    single input. *)

val of_traces : ?label:string -> (string * string list) list -> t
(** Parse and merge several (source, lines) inputs, in the order given:
    rotation segments reassemble, distinct campaigns merge (see above).
    [label] overrides the source shown in the report header (default: the
    sources joined with [", "]) — pass the same label when comparing a
    merged report against a single-trace report byte-for-byte. *)

val load : string -> (t, string) result
(** Read a JSONL trace file. [Error] only when the file cannot be opened;
    malformed content degrades to skipped lines. *)

val load_many : ?label:string -> string list -> (t, string) result
(** {!of_traces} over files: read every path (in the order given — pass
    rotation segments in segment order, e.g. via a shell glob) and merge.
    [Error] when any file cannot be opened. *)

val skipped : t -> int
(** Lines of the input that did not decode to a known event. *)

val events : t -> int
(** Events folded into the report (state-replay resync lines dropped
    during merging are not counted). *)

val outcome : t -> string option
(** The [campaign_end] outcome: [Some "completed"], [Some "crashed"]
    ([Some "mixed"] across merged shards that disagree), or [None] when
    at least one merged trace has no footer — i.e. the campaign is still
    running or was killed hard. *)

val campaigns : t -> int
(** Distinct campaigns merged into this report (1 for a plain trace or a
    set of rotation segments). *)

val to_markdown : ?top:int -> t -> string
(** GitHub-flavoured markdown; [top] (default 10) caps the contention-point
    table. The header under the title always states the event and
    skipped-line counts. *)

val to_html : ?top:int -> t -> string
(** Single-file HTML document (inline CSS, no external assets). *)

val span_tree_text : Telemetry.Observatory.span_node list -> string
(** The span tree as the report's "Profiling spans" block prints it: one
    line per node (name indented two spaces per level, calls, seconds).
    [sonar analyze --profile] prints its spans through it. *)

val to_json : t -> Json.t
(** Machine-readable sidecar: summary counters, the per-generation series,
    finding records, and the {!Telemetry.Observatory.to_json} snapshot. *)
