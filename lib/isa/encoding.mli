(** Binary encoding and decoding of the RV64 subset.

    Standard 32-bit RISC-V formats (R/I/S/B/U/J plus SYSTEM and AMO).
    [decode (encode i)] round-trips for every well-formed instruction (the
    immediate must fit its field: 12-bit signed for I/S, 13-bit even for
    branches, 21-bit even for JAL, 20-bit for LUI/AUIPC, 6-bit shamt). *)

exception Encode_error of string

val encode : Instr.t -> int32
(** @raise Encode_error when an immediate does not fit its field. *)

val decode : int32 -> (Instr.t, string) result
