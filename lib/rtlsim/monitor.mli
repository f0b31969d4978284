(** Runtime [reqsIntvl] collection over an instrumented module.

    Attach a monitor to a compiled {!Engine.t} and sample it once per cycle
    (after [Engine.step]). For every instrumented contention point it
    tracks, within an optional monitoring window:

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

val set_window : t -> start:int -> stop:int -> unit
(** Restrict sampling to cycles in [start, stop] (inclusive). *)

val sample : t -> unit
(** Read the engine's monitor outputs for the current cycle. *)

val states : t -> point_state list
val find : t -> string -> point_state option
(** Look up a point's state by id. *)

(** Batch sampling over a bit-sliced engine: one {!point_state} per
    (point, lane), updated with the same interval bookkeeping as the scalar
    monitor but for all of the engine's lanes in one {!Batch.sample} call
    (a single {!Engine.read_slot_mask} read per valid output covers every
    lane's truthiness). On a scalar engine it degrades to one lane and
    matches the scalar monitor exactly. *)
module Batch : sig
  type t

  val create : Engine.t -> Sonar_ir.Instrument.point_monitor list -> t
  val lanes : t -> int
  val set_window : t -> start:int -> stop:int -> unit

  val sample : t -> unit
  (** Read the engine's monitor outputs for the current cycle, every lane. *)

  val states : t -> lane:int -> point_state list
  (** One lane's per-point states, in the same order as the scalar
      {!val-states}. *)

  val find : t -> lane:int -> string -> point_state option
end
