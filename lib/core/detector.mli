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

type 'diff report_of = {
  findings : finding list;  (** CCD-affected instructions, all cores *)
  raw_timing_diffs : int;
      (** instructions whose absolute commit time differs (includes in-order
          propagation the CCD filter removes) *)
  state_diffs : 'diff list;
      (** per contention point whose states differ across secrets, the
          difference *)
  diverged : bool;  (** commit traces diverged in the middle *)
  total_delta : int;  (** whole-run cycle-count difference *)
}

type report = Sonar_uarch.Cpoint.diff report_of
(** A testcase's report. Its state diffs hold the two runs' snapshots of
    each differing point; how they differ is text only once {!to_text}
    formats it, so the per-testcase fold formats nothing. *)

type text_report = (string * string) report_of
(** A report whose state diffs are [(point name, human-readable
    difference)]: what a campaign keeps of its first findings, and what
    {!pp_report} prints. *)

val detect : Executor.pair -> report

val to_text : report -> text_report

val pp_report : Format.formatter -> text_report -> unit
