(** Dual-differential side-channel detection (§7.1–7.2).

    Combines the CCD differential (which instructions are genuinely
    affected) with the contention-state differential (which contention
    points behaved differently under the two secrets). Together, a CCD
    finding plus the state discrepancies at the points it implicates
    identify and justify a contention side channel (Figure 5). *)

type finding = {
  core : int;
  position : int;  (** commit-order position *)
  instr : Sonar_isa.Instr.t;
  static_index : int;
  ccd0 : int;
  ccd1 : int;
  commit_delta : int;  (** cycle1 - cycle0 *)
}

type report = {
  findings : finding list;  (** CCD-affected instructions, all cores *)
  raw_timing_diffs : int;
      (** instructions whose absolute commit time differs (includes in-order
          propagation the CCD filter removes) *)
  state_diffs : Sonar_uarch.Cpoint.diff list;
      (** per contention point whose states differ across secrets, the two
          runs' snapshots of it *)
  diverged : bool;  (** commit traces diverged in the middle *)
  total_delta : int;  (** whole-run cycle-count difference *)
}
(** A testcase's report, as plain data. How each point's states differ
    becomes text only when {!pp_report} prints it, so the per-testcase
    fold formats nothing. *)

val detect : Executor.pair -> report

val pp_report : Format.formatter -> report -> unit
(** The findings, then each differing point's name and
    {!Sonar_uarch.Cpoint.diff_text}. *)
