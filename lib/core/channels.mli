(** Catalogue of the 14 contention side channels of Table 3.

    Each channel carries a hand-built scenario: a program pair (secret 0/1)
    with identical or near-identical control flow in which the secret
    modulates whether the channel's contention occurs. Running a scenario
    measures the resulting commit-timing difference and checks that the
    dual-differential detector implicates the expected contention point —
    the reproduction of Table 3's "Time Difference" column and of the
    justification methodology (§7.2).

    Scenario construction notes (per channel) live in the implementation;
    the substitutions relative to the paper's RTL experiments are recorded
    in DESIGN.md. *)

type spec = {
  pre : Sonar_isa.Instr.t list;  (** setup: warming, base registers *)
  body : Sonar_isa.Instr.t list;  (** the secret-dependent region *)
  victim_off : int;
      (** index (into [body]) of the instruction whose commit-time shift
          measures the channel *)
}

type t = {
  id : string;  (** "S1" .. "S14" *)
  dut : string;  (** "boom" or "nutshell" *)
  resource : string;
  description : string;
  is_new : bool;  (** newly discovered by Sonar (Table 3's "New?") *)
  paper_band : int * int;  (** the paper's reported cycle difference range *)
  expected_points : string list;
      (** contention points the state differential must implicate *)
  volatile : bool;
  spec : spec;
}

val build : t -> secret:int -> Sonar_uarch.Machine.core_input array
val victim_index : t -> int
(** Static instruction index of the victim in the materialised program. *)

val baseline_index : t -> int

val all : t list
(** S1–S14 in order. *)

val find : string -> t option
val for_dut : string -> t list

type measurement = {
  channel : t;
  time_difference : int;  (** max |commit-cycle delta| over CCD findings *)
  in_band : bool;  (** within (or above the floor of) a tolerant band *)
  points_implicated : bool;
      (** the expected contention point appears in the state differential *)
  report : Detector.report;
}

val measure : t -> measurement
(** Run the scenario under both secrets and evaluate it. *)

val pp_measurement : Format.formatter -> measurement -> unit

val json_of_measurement : measurement -> Json.t
(** Stable JSON form (the CLI's [--format json] document; shares the
    {!Json} serialiser with the telemetry trace). *)
