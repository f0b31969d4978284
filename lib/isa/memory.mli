(** Sparse little-endian byte-addressable memory.

    An open-addressed table of 8-byte words keyed by the word index
    ([addr lsr 3], a native int), so arbitrarily scattered addresses
    (testcase data regions, kernel secrets, attacker buffers) cost only
    what they touch, and an aligned 8-byte access is one probe. Narrow,
    unaligned and word-crossing accesses read and write exactly their
    bytes; addresses wrap modulo 2{^64}. Unwritten memory reads as zero. *)

type t

val create : unit -> t
val copy : t -> t

val load : t -> addr:int64 -> size:int -> int64
(** [size] ∈ {1,2,4,8} bytes; zero-extends. @raise Invalid_argument *)

val load_signed : t -> addr:int64 -> size:int -> int64
val store : t -> addr:int64 -> size:int -> int64 -> unit
