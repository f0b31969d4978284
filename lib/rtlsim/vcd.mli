(** Minimal VCD (Value Change Dump) waveform writer.

    Attach to a compiled engine, call {!dump} once per cycle, and
    {!contents} yields a standard VCD document viewable in GTKWave. Only
    signals that changed since the previous dump are emitted. *)

type t

val create : ?signals:string list -> Engine.t -> t
(** Track the given signals (default: all of the engine's signals). *)

val dump : t -> unit
(** Record the current cycle's values. *)

val contents : t -> string
(** The complete VCD document accumulated so far. *)
