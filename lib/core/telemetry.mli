(** Structured campaign telemetry: typed events emitted by the fuzzing
    pipeline ({!Fuzzer}, {!Executor}, {!Corpus}), delivered to pluggable
    sinks.

    {b Determinism.} Every event except {!event.Phase_timing} is a pure
    function of (seed, strategy, iterations, batch): events from pool
    workers are never emitted concurrently — the executor materialises them
    when it assembles results in submission order, and the fuzzer folds
    feedback sequentially — so a trace is bit-identical for every [jobs]
    value. [Phase_timing] carries wall-clock seconds and is therefore
    excluded from the JSONL trace unless explicitly requested.

    {b Threading.} Sinks are invoked only from the domain that called
    {!Fuzzer.run}; they need not be thread-safe.

    {b Overhead.} The fuzzer skips event construction entirely when the
    sink list is empty, so a campaign with no telemetry pays nothing on the
    hot path. *)

module Histogram = Histogram
(** Re-exported so observatory consumers need only [Telemetry]. *)

type phase = Generate | Execute | Feedback

val phase_name : phase -> string
(** "generate" / "execute" / "feedback". *)

type generation_end = {
  generation : int;
  iterations_done : int;
  coverage : float;
  timing_diffs : int;
  corpus_size : int;
}
(** The campaign's standing after a generation: one point of its series. *)

type event =
  | Campaign_start of {
      strategy : string;  (** {!Feedback.t.name} driving the campaign *)
      seed : int64;
      iterations : int;
      batch : int;
      dual : bool;
    }
      (** Trace header: the campaign's outcome-determining inputs, emitted
          once before the first generation. Deliberately excludes
          jobs/checkpoint — those are wall-clock knobs, and traces
          must stay byte-identical across them. *)
  | Generation_start of { generation : int; first_iteration : int; size : int }
      (** A generation of [size] candidates begins. *)
  | Testcase_executed of { testcase_id : int; cycles0 : int; cycles1 : int }
      (** One testcase ran under both secrets; per-run simulated cycles. *)
  | Contention_triggered of { iteration : int; added : float; coverage : float }
      (** The testcase contributed new contention coverage. *)
  | Ccd_finding of { iteration : int; findings : int; total_delta : int }
      (** The detector reported secret-reflecting timing differences. *)
  | Corpus_retained of { testcase_id : int; corpus_size : int }
      (** The corpus kept a testcase (it improved some best interval). *)
  | Corpus_evicted of { testcase_id : int; corpus_size : int }
      (** The ring buffer overwrote its oldest entry. *)
  | Mutation_flip of { iteration : int; direction : string }
      (** Directed mutation reversed course ("grow" or "shrink"). *)
  | Generation_end of generation_end
      (** All candidates of a generation executed and folded. *)
  | Phase_timing of { generation : int; phase : phase; seconds : float }
      (** Wall-clock spent in one phase of a generation.
          {b Not deterministic}; excluded from traces by default. *)
  | Interval_histogram of {
      generation : int;
      point : string;  (** contention point name *)
      src_pair : int;  (** source-pair id within the point *)
      total : int;  (** observations so far (cumulative) *)
      min_interval : int;
      max_interval : int;
      buckets : (int * int) list;  (** {!Histogram.counts} form *)
    }
      (** Cumulative interval distribution of one (point, source-pair),
          emitted at each generation end for every key touched during that
          generation. Deterministic. *)
  | Coverage_heatmap of { generation : int; components : (string * float) list }
      (** Cumulative contention-coverage weight per netlist component,
          emitted at each generation end. Deterministic. *)
  | Span_begin of { span_id : int; parent : int option; name : string }
      (** A profiling span opened ([parent = None] at the root). In the
          timings opt-in class: excluded from traces by default. *)
  | Span_end of { span_id : int; name : string; seconds : float }
      (** A profiling span closed after [seconds] of wall-clock.
          {b Not deterministic}; excluded from traces by default. *)
  | Checkpoint_stats of {
      generation : int;
      testcases : int;  (** dual runs folded into this event *)
      hits : int;  (** dual runs that resumed from a captured checkpoint *)
      cycles_saved : int;  (** simulated cycles skipped by prefix reuse *)
      cycles_simulated : int;  (** cycles actually simulated (after reuse) *)
    }
      (** Per-generation checkpointing efficiency. Deterministic, but a
          function of the checkpoint {e option}, not of the fuzzing
          outcome — excluded from traces by default so checkpoint-on and
          checkpoint-off campaigns produce byte-identical traces. *)
  | Campaign_end of {
      outcome : string;  (** ["completed"] or ["crashed"] *)
      iterations_done : int;
      coverage : float;
      timing_diffs : int;
      corpus_size : int;
      wall_seconds : float option;
    }
      (** Trace footer: the campaign's final counters. Emitted exactly once,
          as the last event — also on the crash path, so a partial trace
          from a crashed campaign is machine-distinguishable (footer with
          [outcome = "crashed"]) from a completed one ([outcome =
          "completed"]) and from one killed hard (no footer at all).
          [wall_seconds] is wall-clock data: the JSONL writers drop the
          field unless [timings] is set, keeping default traces
          byte-identical across runs and [--jobs] values. *)

val is_timing_event : event -> bool
(** Whether the event belongs to the wall-clock (timings opt-in) class:
    {!event.Phase_timing}, {!event.Span_begin}, {!event.Span_end}. *)

type sink = {
  emit : event -> unit;
  close : unit -> unit;  (** flush and release resources; idempotent. *)
}

val null : sink
(** Discards everything. *)

val make : ?close:(unit -> unit) -> (event -> unit) -> sink

val close : sink -> unit

val emit_all : sink list -> event -> unit

(** {1 JSON encoding}

    One object per event: [{"event":"<name>", ...payload}]. The schema is
    documented in DESIGN.md §9 and is shared with the CLI's
    [--format json] output via {!Json}. *)

val json_of_event : event -> Json.t

val event_of_json : Json.t -> event option
(** Inverse of {!json_of_event}; [None] on unknown or malformed
    documents. Unknown extra fields (e.g. the rotation [resync] marker)
    are ignored. *)

val json_is_resync : Json.t -> bool
(** Whether an event document carries the [{"resync":true}] marker that
    {!rotating_jsonl} stamps on the state-replay events at the head of
    every segment after the first. Consumers merging segments drop marked
    events once they already hold the campaign's state; consumers reading
    a lone segment replay them to rebuild it. *)

(** {1 Reading traces} *)

type reader
(** The line decoder behind [sonar report] and [sonar serve], fed the
    lines of one or more traces in order. *)

val reader : unit -> reader

val read_line : reader -> string -> event option
(** Decode one trace line. [None] for a blank line, for a line that does
    not decode to a known event (counted in {!skipped}), and for a
    [resync] line once a real event has been read: rotated segments thus
    reassemble into the unrotated stream, while a lone later segment
    keeps its resync head. *)

val skipped : reader -> int
(** Lines so far that did not decode to a known event. *)

val jsonl : ?timings:bool -> (string -> unit) -> sink
(** A trace writer calling the function once per event with one compact
    JSON document (no trailing newline). [timings] (default [false])
    includes the wall-clock event class ({!is_timing_event}:
    [Phase_timing] and the profiling spans), {!event.Checkpoint_stats}
    and the [wall_seconds] field of {!event.Campaign_end} (all dropped
    otherwise, so default traces stay deterministic and independent of
    the checkpoint option). A [timings] trace thus carries every event,
    and its {!Report} equals that of the live {!state}. *)

val jsonl_file : ?timings:bool -> string -> sink
(** {!jsonl} over a freshly created file, one event per line; the sink's
    [close] closes the file. The channel is flushed after every
    [generation_end] and [campaign_end] line, so a campaign killed hard
    still leaves its completed generations on disk and a follower
    ([tail -f], [sonar serve --follow]) sees progress as it happens. *)

(** {1 Bounded trace lifecycle: rotation} *)

val segment_path : string -> int -> string
(** [segment_path base i] is the path of segment [i] of a rotating trace:
    [base.0000], [base.0001], … — zero-padded so a shell glob
    ([base.*]) lists segments in order. *)

val rotating_jsonl :
  ?timings:bool -> ?max_bytes:int -> ?max_generations:int -> string -> sink
(** A {!jsonl_file} whose output rolls over into numbered segments
    ({!segment_path}) so week-long campaigns never grow one unbounded
    file. Rollover happens only {e after} a [generation_end] line, once
    the current segment holds at least [max_bytes] bytes ([max_bytes] is
    therefore a soft threshold, overshot by at most one generation) or
    [max_generations] generations; at least one threshold is required
    ([Invalid_argument] otherwise, as is a threshold [< 1]). Like
    {!jsonl_file}, the current segment is flushed at every generation
    boundary and on the campaign footer.

    Every segment after the first is self-contained: it opens with a
    replay of the [campaign_start] header plus the latest cumulative
    [interval_histogram] (one per key, sorted) and [coverage_heatmap]
    events, each stamped with [{"resync":true}] ({!json_is_resync}).
    Replaying a lone segment therefore rebuilds the full observatory
    state, while a merger that drops the marked lines recovers exactly
    the unrotated event stream — byte-identical reports either way. *)

(** {1 In-memory aggregation}

    The counters of the fold, for the machine views ([fuzz --format json
    --stats], [/snapshot], [/metrics]); the text views render the same
    fold through {!Report}. *)

module Metrics : sig
  type snapshot = {
    events : int;  (** total events seen, all kinds *)
    generations : int;
    testcases : int;
    contention_testcases : int;
    ccd_findings : int;  (** findings summed over reports *)
    finding_testcases : int;  (** testcases with at least one finding *)
    retained : int;
    evicted : int;
    direction_flips : int;
    coverage : float;  (** latest cumulative contention coverage *)
    corpus_size : int;
    generate_seconds : float;
    execute_seconds : float;
    feedback_seconds : float;
    wall_seconds : float;  (** since the aggregator was created *)
    events_per_second : float;
    testcases_per_second : float;
    pool_utilization : float;
        (** share of campaign wall-clock spent in the execute phase (the
            part the worker pool parallelises) *)
    cycles_simulated : int;  (** cycles actually simulated (after reuse) *)
    cycles_saved : int;  (** cycles skipped via prefix checkpointing *)
    checkpoint_hits : int;  (** dual runs that resumed from a checkpoint *)
  }

  val to_json : snapshot -> Json.t
end

val aggregator : unit -> sink * (unit -> Metrics.snapshot)
(** {!state} read as {!State.metrics}, with rates over the time since the
    sink was created until a [campaign_end] footer gives the campaign's
    own. *)

(** {1 Profiling spans}

    A recorder turns lexical regions into hierarchical {!event.Span_begin} /
    {!event.Span_end} events: span ids are sequential, the parent is
    whatever span is open on the recorder's stack, and durations come from
    the recorder's clock (injectable for deterministic tests). Spans are
    wall-clock data and therefore live in the timings opt-in class. *)

module Span : sig
  type recorder

  val recorder : ?clock:(unit -> float) -> (event -> unit) -> recorder
  (** [clock] defaults to [Unix.gettimeofday]. *)

  val enter : recorder -> string -> unit -> unit
  (** Open a span; the returned closure ends it (idempotent). Partially
      applied to a recorder, it is the hook
      {!Sonar_ir.Analysis.set_profiler} takes. *)
end

val flush_histograms :
  Histogram.registry -> generation:int -> (event -> unit) -> unit
(** Emit one {!event.Interval_histogram} per dirty registry key (sorted, so
    emission order is deterministic) and clear the dirty set. *)

(** {1 Contention observatory} *)

module Observatory : sig
  type point_hist = {
    point : string;
    src_pair : int;
    hist : Histogram.t;  (** latest cumulative distribution *)
  }

  type span_node = {
    span_name : string;
    calls : int;  (** same-named spans merged under one node *)
    seconds : float;  (** summed over merged spans *)
    children : span_node list;
  }

  type snapshot = {
    points : point_hist list;
        (** ascending by (min interval, point, source pair) — the fuzzer's
            "closest to contention" order *)
    heatmap : (string * float) list;  (** latest per-component weights *)
    span_tree : span_node list;
  }

  val to_json : snapshot -> Json.t

  val build_span_tree : (int * int option * string * float) list -> span_node list
  (** Merge raw (id, parent, name, seconds) spans — in begin order — into a
      tree grouping same-named spans under the same parent path. A parent
      is the latest earlier span with that id; spans without one become
      roots (tolerates truncated and damaged traces). *)

  val merge : snapshot -> snapshot -> snapshot
  (** Cluster-level merge of two campaign snapshots (e.g. per-shard
      traces): interval histograms with the same (point, source-pair) key
      sum via {!Histogram.merge} and the points re-sort by the usual
      (min interval, point, pair) order; heatmap weights sum per
      component; span trees merge structurally (same-named nodes under the
      same parent path sum calls and seconds; first-tree name order is
      kept, new names append). *)
end

val observatory : unit -> sink * (unit -> Observatory.snapshot)
(** {!state} read as its summary's observatory. *)

(** {1 One campaign-state fold}

    Every reader of campaign state — [sonar fuzz --stats], the [/healthz],
    [/snapshot] and [/metrics] endpoints, [sonar serve] and [sonar report]
    — folds events into a {!State.t} and renders one of its views. This
    module renders them as JSON only ({!Metrics.to_json},
    {!Observatory.to_json}); {!Report} is the one text renderer, and
    [--stats] prints its document of the live state. *)

module State : sig
  (** A [campaign_start] event opens a new campaign; events before any
      header form a headless one. Within a campaign, counters sum and the
      cumulative values (coverage, corpus size, each key's interval
      histogram, the heatmap) are the latest an event carried. [merge a b]
      is [a]'s campaigns followed by [b]'s: associative, with {!empty} as
      identity, and [of_events (c1 @ c2) = merge (of_events c1) (of_events
      c2)] whenever [c2] opens with [campaign_start]. The views combine
      campaigns oldest first: counters and final values summed, series and
      findings concatenated, observatories merged with
      {!Observatory.merge}. *)

  type t

  val empty : t

  val add : t -> event -> t
  (** Fold one event. *)

  val of_events : event list -> t

  val merge : t -> t -> t

  type finding = { iteration : int; count : int; total_delta : int }
  (** One [ccd_finding]: [count] secret-reflecting differences. *)

  type summary = {
    campaigns : int;
    strategy : string option;  (** ["mixed"] when campaigns disagree *)
    outcome : string option;
        (** the [campaign_end] outcome; [Some "mixed"] across campaigns that
            disagree, [Some "crashed"] if any crashed, and [None] when some
            campaign has no footer (still running, or killed hard) *)
    wall_seconds : float option;  (** footer wall-clock, summed *)
    events : int;
    testcases : int;
    generations : int;
    iterations_done : int;
    coverage : float;
    timing_diffs : int;
    corpus_size : int;
    contention_testcases : int;
    retained : int;
    evicted : int;
    direction_flips : int;
    phase_seconds : (phase * float) list;  (** phases seen, in order *)
    cycles_simulated : int;
    cycles_saved : int;
    checkpoint_hits : int;
    series : generation_end list;
    findings : finding list;
    observatory : Observatory.snapshot;
  }

  val summary : t -> summary
  (** The campaigns seen as one cluster. *)

  val metrics : elapsed:float -> summary -> Metrics.snapshot
  (** The counters of a summary. [elapsed] is the wall-clock to charge the
      rates to while no [campaign_end] footer carries one. *)
end

val state : unit -> sink * (unit -> State.t)
(** The fold as a sink, and a reader of the state so far. The state is
    immutable and published atomically, so another domain (the {!Serve}
    HTTP domain) may read it mid-campaign without a lock. *)

val progress : ?out:out_channel -> every:int -> total:int -> unit -> sink
(** A human progress reporter (default on [stderr]): after each generation
    that completes at least [every] testcases since the last report, prints
    one line with testcases done / [total], coverage, timing differences,
    corpus size, and testcases/sec, plus a final line when the campaign
    ends. The channel is flushed after every report line (and again on
    [close]), so progress stays visible when the channel is a pipe — CI
    log capture, [sonar serve] supervision — where line buffering would
    otherwise sit on the output indefinitely. *)
