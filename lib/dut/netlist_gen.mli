(** Netlist generators for the two DUTs.

    The paper analyses the real BOOM and NutShell RTL; we do not have those
    designs (or FIRRTL) in this environment, so — per the substitution rule
    recorded in DESIGN.md — we generate structural netlist skeletons whose
    MUX populations are calibrated to the paper's published counts:

    - naive 2:1-MUX count: BOOM 31,484 / NutShell 23,618 (Figure 6 left);
    - bottom-up contention points: 8,975 / 4,631 (Figure 6 right);
    - monitored after filtering: 6,620 / 2,976 (Figure 7), distributed per
      pipeline component according to {!Binding};
    - filtered points split between constant-request and no-valid-signal
      forms so both §5.2 filter paths are exercised;
    - roughly 30% of monitored points have a single valid-bearing request
      (the Figure 9 class).

    Each contention point is emitted as a depth-d cascade of 2:1 MUXes whose
    leaf requests follow the [<prefix>_valid] convention of Algorithm 1, so
    the full {!Sonar_ir} pipeline (tracing → validity → filter →
    instrumentation → simulation) runs end to end on these circuits.

    [scale] shrinks every target linearly (e.g. 0.02 for a netlist small
    enough to simulate in benchmarks). [pad] appends plain combinational
    nodes so that instrumentation code-size overhead lands near the paper's
    Table 2 ratios (14% BOOM, 20% NutShell); disable it for analyses where
    total statement count does not matter. *)

val generate :
  ?scale:float -> ?pad:bool -> Sonar_uarch.Config.t -> Sonar_ir.Circuit.t

val example_module : unit -> Sonar_ir.Fmodule.t
(** The paper's Figure 3 example: the [ldq_stq_idx] contention point as a
    two-level MUX cascade (used in documentation and tests). *)
