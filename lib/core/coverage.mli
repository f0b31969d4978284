(** Cumulative contention coverage with netlist-cluster weighting.

    The paper observes that "a single contention event may involve multiple
    data selections and thus map to several contention points" — the first
    trigger of a source pair lights up a cluster of netlist MUX points at
    once, after which further data classes (buckets) and storage sub-points
    add smaller increments. A point's fanout budget is therefore split:

    - 40% over its source pairs (paid once per newly triggered pair);
    - 30% over (pair × data-bucket) combinations;
    - 30% over persistent sub-points (when the point declares any;
      otherwise folded into the first two shares).

    One instance accumulates across a whole campaign; both the Sonar loop
    and the baseline fuzzers share this accounting, so Figure 8/10/11
    series are directly comparable. *)

type t

val create : unit -> t

val add_pair : t -> Executor.pair -> float
(** Absorb both runs of an executed testcase; returns the {e new} coverage
    weight this testcase contributed. *)

val add_pair_delta : t -> Executor.pair -> float * (string * float) list
(** {!add_pair} plus the per-component breakdown of the added weight (only
    components that gained; {!Sonar_ir.Component.all} order). The payload
    of {!Feedback.observation.component_delta}. *)

val total : t -> float

val single_valid_weight : t -> float
(** Share of {!total} located at single-valid points (Figure 9). *)

val per_component : t -> (Sonar_ir.Component.t * float) list
(** Cumulative weight credited to each netlist component, in
    {!Sonar_ir.Component.all} order (zero for untouched components). *)

val heatmap : t -> (string * float) list
(** {!per_component} with component names as strings — the payload of the
    {!Telemetry.event.Coverage_heatmap} trace event. Deterministic order
    and contents for a fixed campaign prefix. *)
