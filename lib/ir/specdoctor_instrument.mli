(** SpecDoctor-style instrumentation baseline (§8.3.4).

    SpecDoctor instruments a module by analysing every pair of statements to
    decide which state elements feed its coverage monitors, which is O(n²) in
    the number of FIRRTL statements of a module. This module reproduces that
    cost model faithfully enough to compare scaling against Sonar's O(n)
    pass: for each statement it scans the whole module for def-use partners
    before deciding whether to tap the signal.

    The output taps every register through a parity-coverage output, which is
    what SpecDoctor's RTL-state hashing amounts to structurally. *)

type result = {
  circuit : Circuit.t;
  stmts_added : int;
  pair_checks : int;  (** number of statement pairs inspected — Θ(n²) *)
}

val instrument : Circuit.t -> result
