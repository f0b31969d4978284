(** Binding between runtime contention points and netlist components.

    Each runtime arbitration site of {!Sonar_uarch} maps to [fanout]
    netlist-level MUX contention points inside one pipeline component; this
    module is the single source of truth for that mapping, shared by the
    netlist generator and the reports. *)

val monitored_per_component :
  Sonar_uarch.Config.t -> (Sonar_ir.Component.t * int) list
(** Sum of fanouts per component — the number of monitored netlist points
    each component must contain (Figure 7, "after filtering"). *)

val bindings : Sonar_uarch.Config.t -> (string * Sonar_ir.Component.t * int) list
(** All (runtime point, component, fanout) triples of a configuration. *)
