(** Hash tables from non-negative ints to ints, for the cycle loop.

    Open addressing over two flat arrays: a lookup allocates nothing,
    returns a caller-chosen default on a miss instead of an [option] or an
    exception, and hashes without a C call. Keys are native-int encodings
    of what the timing models track — uop ids, cache line numbers
    ([addr lsr offset_bits], lossless since the offset bits of a line
    address are zero), sub-point ids — so they are never negative.
    There is no [remove]: the models only add and overwrite entries within
    a run, and {!blit} rewinds a table to a saved copy (a checkpoint
    capture or restore, the cold-start rewind between runs included).

    A slot index lists where each binding lives, so {!blit} costs what
    the tables hold, not their capacity. *)

type t

val create : int -> t
(** [create n]: an empty table sized for about [n] entries; it grows as
    needed. *)

val hash : int -> int
(** The table's non-negative integer mix, for other monomorphic tables. *)

val find : t -> int -> default:int -> int
(** The value bound to the key, or [default]; [default] for any negative
    key. *)

val mem : t -> int -> bool
(** [false] for any negative key. *)

val replace : t -> int -> int -> unit
(** Bind the key, overwriting any previous binding.
    @raise Invalid_argument on a negative key. *)

val blit : src:t -> dst:t -> unit
(** Make [dst] hold exactly [src]'s bindings, reusing [dst]'s arrays
    when they are large enough. *)
