(** Executable programs: an instruction array at a base address plus initial
    data, privilege and protection configuration.

    Testcases generated by the fuzzer materialise to this type; the golden
    model and the micro-architectural timing models both consume it. *)

type t = {
  base : int64;  (** code base address (4-byte aligned) *)
  instrs : Instr.t array;
  data : (int64 * int64) list;  (** initial (address, 64-bit value) pairs *)
  start_priv : priv;
  protected_range : (int64 * int64) option;
      (** [lo, hi): accessible only in [Machine] mode (the "kernel" secret
          region of the Meltdown template) *)
}

and priv = User | Machine

val make :
  ?base:int64 ->
  ?data:(int64 * int64) list ->
  ?start_priv:priv ->
  ?protected_range:(int64 * int64) option ->
  Instr.t list ->
  t

val default_base : int64
val length : t -> int

val pc_to_index : t -> int64 -> int
(** Instruction index for a PC inside the program, [-1] outside. *)

val pp : Format.formatter -> t -> unit
