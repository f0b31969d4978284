(** Branch direction and target prediction (BTB + 2-bit counters).

    Prediction ({!predict}, {!predict_jump}) is read-only: it reports
    whether the current predictor state would have predicted the branch
    correctly. State updates ({!update}, {!update_jump}) happen when the
    branch {e resolves} in the pipeline — squashed transient branches never
    update, so no oracle knowledge of transient outcomes can leak into
    later fetch behaviour. *)

type t

val create : Config.t -> t

val predict : t -> pc:int64 -> taken:bool -> target:int64 -> bool
(** Would the current state predict this (direction, target) correctly? *)

val predict_jump : t -> pc:int64 -> target:int64 -> bool
(** Unconditional jumps: correct iff the BTB already holds the target. *)

val update : t -> pc:int64 -> taken:bool -> target:int64 -> unit
(** Train with the resolved outcome. *)

val update_jump : t -> pc:int64 -> target:int64 -> unit

type save

val make_save : unit -> save
val capture : t -> save -> unit
val restore : t -> save -> unit
(** Checkpoint the BTB and counter tables; [restore] makes later
    predictions bit-identical to the captured state. *)
