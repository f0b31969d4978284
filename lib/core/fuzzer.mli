(** The Sonar fuzzing loop (§6) and its campaign statistics.

    Each iteration generates or mutates a testcase, executes it under both
    secret values, feeds contention intervals back into the corpus, and
    accumulates:

    - {e contention coverage}: the netlist-weighted set of triggered
      contention sub-points (Figure 8 top);
    - {e timing differences}: CCD findings that reflect the secret
      (Figure 8 bottom);
    - the detector reports of the first three finding testcases.

    The outcome is counters plus that bounded list, so it does not grow
    with the campaign. Per-iteration and per-finding history is in the
    event stream: attach a sink ({!Telemetry.state}, a JSONL trace) to
    keep it.

    The feedback policy is a first-class {!Feedback.t} value: the loop
    dispatches seed selection, fresh-testcase generation, post-execution
    learning and retention through its hooks, so the paper's policy
    ({!Feedback.sonar}), the random baseline ({!Feedback.random}), the
    boolean breakdown of Figure 10 ({!Feedback.of_flags}), the
    SpecDoctor-style fuzzer of Figure 11 ({!Feedback.specdoctor}) and the
    other competitor strategies all run through one campaign loop.

    {b Parallel execution.} The loop is organised in {e generations}: each
    generation draws [batch] candidates sequentially (each from its own
    {!Rng.split} stream), executes them across a {!Domain_pool} of [jobs]
    workers in slices of {!Executor.auto_chunk} candidates per task (each
    worker reusing a domain-local {!Sonar_uarch.Machine.Ctx} scratch
    context),
    and folds coverage / corpus / detector / mutation-feedback updates
    sequentially in candidate order, each candidate as soon as its pair
    arrives, so no generation's results are held until its end.
    Selection and directed mutation react to feedback at generation
    granularity, and the outcome is a pure function of (seed, strategy,
    iterations, batch) — bit-identical for every [jobs] value.

    {b Telemetry.} When {!Options.t.sinks} is non-empty, the campaign
    streams {!Telemetry.event}s: a {!Telemetry.event.Campaign_start}
    header naming the strategy, generation boundaries, phase timings,
    per-(point, source-pair) interval histograms (fed by the fold from the
    intervals it computes anyway), per-component coverage heatmaps,
    profiling spans and per-testcase execution events from this module,
    retention/eviction events from {!Corpus}.
    The fold's events (coverage, CCD findings and the strategy hooks')
    are held until the generation's last
    {!Telemetry.event.Testcase_executed}, so they follow every execution
    of their generation. All
    events except the wall-clock class ({!Telemetry.is_timing_event}:
    phase timings and spans) are deterministic and independent of [jobs];
    with no sinks nothing is constructed at all. If the campaign raises
    (a failing DUT, a crashing sink), every sink is closed before the
    exception propagates, so an attached {!Telemetry.jsonl_file} trace is
    flushed and stays parseable up to the point of failure. *)

type strategy = Feedback.t
(** The feedback policy driving a campaign. Build one from the registry
    ({!Feedback.create}), a preset, or {!Feedback.of_flags}. *)

type outcome = {
  final_coverage : float;
  final_timing_diffs : int;
  testcases_with_diffs : int;
  contentions_triggered_testcases : int;
      (** testcases that triggered at least one contention *)
  single_valid_share_first20 : float;  (** Figure 9's dominance measure *)
  first_reports : (int * Detector.report) list;
      (** (iteration, report) for the first three testcases with CCD
          findings, in iteration order. A report holds the two runs'
          snapshots of each point that differs: plain data, so outcomes
          compare with [=]; {!Detector.pp_report} formats it. *)
  cycles_simulated : int;
      (** cycles actually simulated across all dual runs (after
          checkpoint prefix reuse) *)
  cycles_saved : int;
      (** simulated cycles skipped by prefix checkpointing (0 when
          [Options.checkpoint] is off) *)
  checkpoint_hits : int;
      (** dual runs that resumed from a captured checkpoint *)
}

val default_batch : int
(** Generation size used when [batch] is not given (64 — sized for the
    compiled engine, where single testcases are cheap and the parallel
    executor wants whole slices per worker). *)

(** Campaign configuration. Build one with a record update of
    {!Options.default} so adding fields stays source-compatible:
    [{ Options.default with seed = 7L; jobs = 4 }]. *)
module Options : sig
  type t = {
    seed : int64;  (** RNG seed (default [1L]) *)
    dual : bool;  (** dual-core testcases, Figure 4b (default [false]) *)
    jobs : int;
        (** worker-pool size; wall-clock only, never the outcome
            (default 1) *)
    batch : int;
        (** generation size; {e does} shape the campaign — feedback lands
            at generation boundaries — keep it fixed when comparing runs
            (default {!default_batch}) *)
    checkpoint : bool;
        (** prefix-checkpointed dual runs
            ({!Sonar_uarch.Machine.run_dual}): simulate the shared prefix
            before the first secret-dependent instruction once per
            testcase instead of twice. Simulated-cycle count only, never
            the fuzzing outcome — results are bit-identical either way
            (tested); only the [cycles_simulated] / [cycles_saved] /
            [checkpoint_hits] statistics differ (default [true]) *)
    sinks : Telemetry.sink list;
        (** telemetry destinations (default [[]]: zero overhead) *)
  }

  val default : t
end

val run :
  ?options:Options.t ->
  Sonar_uarch.Config.t ->
  strategy ->
  iterations:int ->
  outcome
(** Run a campaign. The outcome is a pure function of
    ([options.seed], [strategy], [iterations], [options.batch], and the
    DUT config) — [jobs] changes only the wall-clock; sinks observe the
    campaign but never influence it.
    @raise Invalid_argument when [options.batch] or [options.jobs] < 1. *)

val json_of_outcome : outcome -> Json.t
(** Stable JSON form of an outcome (the CLI's [--format json] document):
    the counters, and [first_reports] as [first_findings]. *)
