(** Sparse little-endian byte-addressable memory.

    Backed by a hash table of 8-byte-aligned words, so arbitrarily scattered
    addresses (testcase data regions, kernel secrets, attacker buffers) cost
    only what they touch. Unwritten memory reads as zero. *)

type t

val create : unit -> t
val copy : t -> t

val load : t -> addr:int64 -> size:int -> int64
(** [size] ∈ {1,2,4,8} bytes; zero-extends. @raise Invalid_argument *)

val load_signed : t -> addr:int64 -> size:int -> int64
val store : t -> addr:int64 -> size:int -> int64 -> unit
