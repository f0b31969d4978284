(** Meltdown-style exploitability analysis (§7.3, §8.5, Listing 1).

    A proof-of-concept reads a protected (machine-mode-only) key bit by bit:
    the faulting access forwards the secret into the transient window
    (BOOM's lazy exception handling), where a channel-specific gadget turns
    the bit into a contention-induced timing difference of the whole run.
    A calibration pass with attacker-known bits fixes the decision
    threshold; per-trial noise (random alignment padding plus measurement
    jitter) models the interference a real attacker faces.

    On NutShell the fault squashes the pipeline at execute, the gadget
    never runs transiently, and the inference collapses to noise — the
    <2% key-recovery rate the paper reports for S13/S14. *)

type gadget =
  | Cache_probe  (** transient secret-indexed load; probe its line after *)
  | Channel_occupancy
      (** transient secret-gated far jump; its ICache refill occupies the
          interconnect while an attacker load is in flight *)
  | Mshr_block
      (** transient secret-indexed load whose set either collides with the
          attacker's probe in the MSHRs or not *)
  | Port_pressure  (** transient secret-gated divide occupies the divider *)

val gadget_for : string -> gadget option
(** The gadget family used to exploit a channel id; [None] when the paper
    built no PoC for it (S8–S10 were previously known). *)

type poc_result = {
  channel_id : string;
  dut : string;
  trials : int;
  key_bits : int;
  bit_accuracy : float;  (** correctly inferred bits / all bits *)
  key_success_rate : float;  (** trials recovering every bit of the key *)
  mean_margin : float;  (** avg |measurement - threshold|, in cycles *)
  avg_transient_window : float;  (** transient micro-ops actually executed *)
}

val run_poc :
  ?seed:int64 ->
  ?trials:int ->
  ?key_bits:int ->
  ?timer_granularity:int ->
  Sonar_uarch.Config.t ->
  channel_id:string ->
  gadget ->
  poc_result
(** [timer_granularity] models the §8.6 mitigation of restricting clock
    registers: the attacker's measurements (and calibration) are quantised
    to that many cycles. Granularities beyond the channel's timing margin
    collapse bit inference to chance. *)

val pp_result : Format.formatter -> poc_result -> unit

(** Exposed for tests: the raw attack program for a gadget/bit. *)
module For_tests : sig
  val program :
    gadget:gadget -> bit_index:int -> bit_value:int -> noise:int ->
    Sonar_isa.Program.t

  val measure :
    Sonar_uarch.Config.t ->
    gadget:gadget -> bit_index:int -> bit_value:int -> noise:int ->
    int * int
  (** (measured cycles, transient micro-ops issued). *)
end
