(** Runtime [reqsIntvl] collection over an instrumented module.

    Attach a monitor to a compiled {!Engine.t} and sample it once per cycle
    (after [Engine.step]). For every instrumented contention point and
    every lane of the engine it tracks, within an optional monitoring
    window:

    - the minimum interval between valid requests from distinct sources
      (pairwise [reqsIntvl]);
    - the minimum interval between consecutive valid requests from the same
      source;
    - whether a {e volatile contention} was triggered (two distinct sources
      valid in the same cycle, i.e. pairwise interval 0). *)

type point_state = {
  point_id : string;
  mutable min_pair_interval : int option;
  mutable min_self_interval : int option;
  mutable triggered : bool;
  mutable request_hits : int;  (** total valid-request observations *)
}

type t

val create : Engine.t -> Sonar_ir.Instrument.point_monitor list -> t
(** One {!point_state} per (point, lane) of the engine: {!Engine.lanes}
    of them per point — 63 on a bit-sliced engine, one on a scalar one. *)

val lanes : t -> int

val set_window : t -> start:int -> stop:int -> unit
(** Restrict sampling to cycles in [start, stop] (inclusive). *)

val sample : t -> unit
(** Read the engine's monitor outputs for the current cycle, every lane:
    a single {!Engine.read_slot_mask} read per valid output covers every
    lane's truthiness. *)

val states : t -> lane:int -> point_state list
(** One lane's per-point states, in instrumentation order.
    @raise Invalid_argument when [lane] is out of range. *)

val find : t -> lane:int -> string -> point_state option
(** Look up a point's state in one lane by id. *)
