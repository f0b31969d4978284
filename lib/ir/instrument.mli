(** Monitor instrumentation pass (§5, §8.3.1).

    For every monitored contention point the pass appends, inside the
    defining module:

    - one output [__mon<k>_v<i>] per request that carries a validity signal,
      driven by that request's validity expression (the AND of its validity
      signals) — these let a runtime monitor observe request arrivals;
    - a per-module cycle counter register;
    - per-request last-valid-cycle registers and a combinational minimum of
      pairwise |last_i - last_j| exposed as output [__mon<k>_intvl] — the
      hardware [reqsIntvl] monitor.

    The pass is a single traversal of the module plus constant work per
    instrumented point, i.e. O(n) in the number of statements — the paper
    contrasts this with SpecDoctor's O(n²) instrumentation (§8.3.4).

    Pair enumeration is capped at {!max_pairs} per point to bound the code
    size on very wide arbiters. *)

type point_monitor = {
  point_id : string;  (** the contention point's {!Mux_tree.point.id} *)
  valid_outputs : string list;  (** [__mon<k>_v<i>] output names, in order *)
  intvl_output : string option;
      (** [__mon<k>_intvl] output, present when ≥ 2 requests are monitorable *)
}

type result = {
  circuit : Circuit.t;
  monitors : point_monitor list;
  stmts_added : int;  (** instrumentation code size (Table 2's "#New") *)
  points_instrumented : int;
}

val max_pairs : int

val instrument_module :
  Fmodule.t -> Const_filter.classified list -> Fmodule.t * point_monitor list * int
(** Instrument one module given its classified points; returns the rewritten
    module, its monitors, and the number of statements added. *)

val instrument : Circuit.t -> result
(** Classify and instrument every module of a circuit. *)
