(** First-class feedback strategies: the policy layer of the fuzzing loop.

    The seed fuzzer hard-wired one policy — retain on min-[reqsIntvl]
    improvement, select the point nearest zero — behind three booleans.
    This module makes the policy a value: {!Fuzzer.run} drives any {!t}
    through four hooks, and ships the paper's policy ({!sonar}) alongside
    a blind baseline ({!random}) and four competitors drawn from related
    work (see {!all}).

    {b The contract.} Per candidate, the fuzzer calls:

    + [select campaign rng] at generation time — pick a corpus seed to
      mutate (and the mutation {!operator} to apply, plus an optional
      directed-mutation {!target}), or [None] for a fresh testcase;
    + [fresh rng ~id ~dual] at generation time, only when [select]
      returned [None] — build that fresh testcase from the same [rng];
    + [reward campaign observation] at fold time — learn from the executed
      candidate (directed-mutation feedback, bandit statistics, ...);
    + [consider campaign testcase observation] at fold time — decide
      retention; returns whether the testcase entered the corpus.

    Because the loop is organised in generations, every [select] of a
    generation sees the corpus and learner state as of the {e previous}
    generation boundary; [reward] and [consider] then run sequentially in
    candidate order. See DESIGN.md §"Feedback strategies".

    {b Determinism obligations for strategy authors.} The campaign outcome
    must stay a pure function of (seed, strategy, iterations, batch):

    - draw randomness only from the [rng] handed to [select] and [fresh]
      (a per-candidate {!Rng.split} stream), never from global state;
    - update internal learner state only inside the hooks (they run on the
      campaign's domain, in candidate order, for every [jobs]);
    - treat the [intervals]/[triggered]/[component_delta] lists of an
      {!observation} as {e sets} — retention decisions must not depend on
      their order (asserted by a qcheck property in the test suite);
    - stateful strategies must be fresh per campaign: build them through
      {!create} (one instance per call) rather than sharing a value across
      runs. *)

type target = Corpus.point * int option
(** A directed-mutation target: the contention point being chased and its
    best (smallest) interval at selection time — the baseline {!Fuzzer}
    compares against post-execution to decide [improved]. *)

(** Mutation operator applied to a selected seed ({!Mutation}'s four
    entry points). Strategies that learn over operators (the bandit) pick
    one per selection; the classic presets always use {!Composite}. *)
type operator =
  | Composite  (** {!Mutation.mutate}: directed + occasional random edit *)
  | Directed  (** {!Mutation.directed}: chain length along learned dir *)
  | Random_edit  (** {!Mutation.random_edit}: blind insert/delete/replace *)
  | Similarity  (** {!Mutation.enhance_similarity}: align mem offsets *)

type selection = {
  entry : Corpus.entry;  (** the corpus seed to mutate *)
  target : target option;  (** directed-mutation target, if chasing one *)
  op : operator;
}

type observation = {
  iteration : int;
  testcase : Testcase.t;  (** the executed candidate *)
  pair : Executor.pair;  (** both secret-runs, full results *)
  intervals : (Corpus.point * int) list;
      (** {!Executor.min_intervals}: min in-window interval per
          (point, source pair) — unordered set semantics *)
  triggered : ((string * Sonar_uarch.Cpoint.kind * int) * float) list;
      (** {!Executor.triggered}: weighted triggered sub-points *)
  coverage_added : float;  (** new campaign coverage this testcase added *)
  coverage_total : float;  (** cumulative campaign coverage after it *)
  component_delta : (string * float) list;
      (** per-component share of [coverage_added] (only components that
          gained weight; unordered set semantics) *)
  report : Detector.report;  (** CCD findings + state differentials *)
  target : target option;  (** echoed from the {!selection}, if any *)
  op : operator option;  (** [None] when the candidate was fresh *)
}
(** Everything one executed candidate produced, packaged for the hooks. *)

type campaign = {
  corpus : Corpus.t;
  mstate : Mutation.state;  (** shared directed-mutation direction *)
  emit : (Telemetry.event -> unit) option;
      (** [Some] iff telemetry sinks are attached; pass it to
          {!Corpus.consider} / {!Corpus.add} so retention events reach the
          trace. Events reach the sinks after the generation's last
          execution, with the rest of the fold's *)
  mutate_ratio : float;
      (** the strategy's mutate-vs-generate ratio, resolved once at
          campaign start (see {!t.mutate_ratio}) *)
}
(** Campaign-lifetime context handed to every hook. *)

type t = {
  name : string;  (** CLI / telemetry identifier, e.g. ["sonar"] *)
  description : string;  (** one line for [--list-strategies] *)
  mutate_ratio : float;
      (** probability of mutating a corpus seed instead of generating a
          fresh testcase, for strategies that draw that choice (the seed
          policy's hard-coded [0.8], now tunable per strategy) *)
  directed_mutation : bool;
      (** whether {!Composite} mutation may apply the directed operator *)
  select : campaign -> Rng.t -> selection option;
  consider : campaign -> Testcase.t -> observation -> bool;
  reward : campaign -> observation -> unit;
  fresh : Rng.t -> id:int -> dual:bool -> Testcase.t;
      (** the testcase to generate when [select] returns [None];
          {!Testcase.random} for every shipped strategy but {!specdoctor} *)
}

(** {1 Presets derived from the legacy strategy booleans} *)

type flags = {
  retention : bool;  (** corpus retention on min-interval improvement *)
  selection : bool;  (** interval-weighted point/seed selection (§6.2.1) *)
  directed_mutation : bool;  (** adaptive chain-length mutation (§6.2) *)
}

val of_flags : ?name:string -> ?description:string -> flags -> t
(** The seed policy family: [of_flags] reproduces the historical fuzzer
    behaviour for any boolean combination — the same RNG draw sequence,
    retention rule and directed-mutation feedback — so outcomes are
    bit-identical to the pre-interface fuzzer. [mutate_ratio] is the
    historical [0.8] (only drawn on the retention-without-selection path).
    Stateless: the returned value may be shared across campaigns. *)

val sonar : t
(** The paper's full policy (all flags on): interval-guided selection,
    min-interval retention, adaptive directed mutation. The reference the
    competitors are benchmarked against. *)

val random : t
(** All flags off: a fresh random testcase every iteration, nothing
    retained — the Figure 8 baseline. *)

val specdoctor : t
(** SpecDoctor-style, the Figure 11 comparison (§8.3.4). Every fresh
    testcase carries one gated transient (Meltdown-style) secret region and
    no dependency chains. A testcase is retained when it adds contention
    coverage: SpecDoctor keeps testcases that reach new RTL states and has
    no notion of inter-request timing. Selection mutates a uniformly
    random corpus seed with probability [0.6], without directed mutation.
    Stateless. *)

(** {1 Competitor strategies}

    Stateful: each call builds a fresh learner. Use one instance per
    campaign. *)

val timing_coverage : unit -> t
(** WhisperFuzz-style timing coverage: a testcase is retained when it
    lands a (point, source-pair) interval in a never-seen
    {!Histogram.bucket_of} cell, or adds per-component heatmap weight.
    Selection mutates a uniformly random corpus seed. *)

val state_transition : unit -> t
(** ProcessorFuzz-style state-transition coverage over the golden commit
    trace: retain on a never-seen consecutive pair of commit labels
    (instruction class x branch-taken x faulted x transient), uniform
    seed selection. *)

val bandit : unit -> t
(** ReFuzz-style contextual epsilon-greedy bandit over mutation operators:
    the context is the seed's secret flavor, the four arms are the
    {!operator}s, the payoff is coverage added plus a bonus per CCD
    finding. Deterministic given the campaign RNG. *)

(** {1 Registry} *)

val names : string list
(** The shipped strategy names, in benchmark order. *)

val all : (string * string) list
(** (name, one-line description) for each shipped strategy. *)

val create : string -> t option
(** Look up a shipped strategy by name; stateful strategies are built
    fresh on every call (one campaign per instance). [None] for unknown
    names. *)
