open Sonar_uarch

type finding = {
  core : int;
  position : int;
  instr : Sonar_isa.Instr.t;
  static_index : int;
  ccd0 : int;
  ccd1 : int;
  commit_delta : int;
}

type report = {
  findings : finding list;
  raw_timing_diffs : int;
  state_diffs : Cpoint.diff list;
  diverged : bool;
  total_delta : int;
}

let detect (pair : Executor.pair) =
  let n_cores = Array.length pair.run0.Machine.cores in
  let findings = ref [] in
  let raw = ref 0 in
  let diverged = ref false in
  for core = 0 to n_cores - 1 do
    let d =
      Ccd.align pair.run0.Machine.cores.(core).commits
        pair.run1.Machine.cores.(core).commits
        (fun position (c0 : Core_model.commit_record) c1 ~ccd0 ~ccd1 ->
          if c0.c_cycle <> c1.c_cycle then incr raw;
          if ccd0 <> ccd1 then
            findings :=
              {
                core;
                position;
                instr = c0.c_eff.Sonar_isa.Golden.instr;
                static_index = c0.c_eff.Sonar_isa.Golden.index;
                ccd0;
                ccd1;
                commit_delta = c1.c_cycle - c0.c_cycle;
              }
              :: !findings)
    in
    diverged := !diverged || d
  done;
  {
    findings = List.rev !findings;
    raw_timing_diffs = !raw;
    state_diffs =
      Cpoint.diff_snapshots pair.run0.Machine.snapshots pair.run1.Machine.snapshots;
    diverged = !diverged;
    total_delta = pair.run1.Machine.cycles - pair.run0.Machine.cycles;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>CCD-affected instructions: %d (raw timing diffs %d, run-length delta %d%s)@,"
    (List.length r.findings) r.raw_timing_diffs r.total_delta
    (if r.diverged then ", traces diverged" else "");
  List.iter
    (fun f ->
      Format.fprintf fmt "  core%d @%d %a: CCD %d -> %d (commit %+d)@," f.core
        f.position Sonar_isa.Instr.pp f.instr f.ccd0 f.ccd1 f.commit_delta)
    r.findings;
  Format.fprintf fmt "contention-state discrepancies: %d@,"
    (List.length r.state_diffs);
  List.iter
    (fun d ->
      Format.fprintf fmt "  %s: %s@," (Cpoint.diff_point d) (Cpoint.diff_text d))
    r.state_diffs;
  Format.fprintf fmt "@]"
