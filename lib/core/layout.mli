(** Memory layout shared by generated testcases and attack programs. *)

val buffer_base : int64
(** Read/write scratch buffer available to generated code (base held in
    register a1). *)

val secret_addr : int64
(** Address of the secret value (base held in a0). Normal memory for fuzzing
    testcases; inside {!kernel_range} for Meltdown attack programs. *)

val kernel_range : int64 * int64
(** Protected range for Meltdown-style programs ([lo, hi)). *)

val attacker_base : int64
(** Scratch buffer base for the attacker core in dual-core testcases. *)

val cold_base : int64
(** A region never touched by the prelude — guaranteed cache-cold lines. *)
