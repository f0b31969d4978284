(** End-to-end static analysis driver: identification, filtering, and
    per-component aggregation over a whole circuit (Figures 6 and 7). *)

type component_stats = {
  component : Component.t;
  identified : int;  (** contention points found by bottom-up tracing *)
  monitored : int;  (** points surviving the constant-state filter *)
}

type summary = {
  circuit_name : string;
  naive_mux_points : int;
      (** every 2:1 MUX counted as a point (Figure 6's baseline) *)
  identified_points : int;  (** bottom-up traced contention points *)
  monitored_points : int;  (** after filtering states without risk *)
  per_component : component_stats list;
  reduction_vs_naive : float;  (** fraction removed by bottom-up tracing *)
  reduction_by_filter : float;  (** fraction removed by the §5.2 filter *)
}

val set_profiler : (string -> unit -> unit) option -> unit
(** Install a profiling hook: [enter name] is called when an analysis phase
    begins and the closure it returns when the phase ends (even on raise).
    The telemetry layer bridges this to hierarchical [span_begin]/[span_end]
    events; the default ([None]) costs nothing. Span names:
    ["analysis"], ["analysis.naive_mux_count"], ["analysis.identify"],
    ["analysis.filter"]. *)

val summarize : Circuit.t -> summary
val pp_summary : Format.formatter -> summary -> unit
