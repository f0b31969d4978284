(** Bottom-up MUX-cascade tracing — contention-point identification (§5.1).

    A contention point is the root of a maximal tree of cascaded 2:1 MUXes.
    Starting from each MUX that is not itself consumed in the [tval]/[fval]
    position of another MUX, the trace descends through [tval]/[fval] operands
    (directly nested MUXes, or references to signals whose definition is a
    MUX), collecting:

    - the {e requests}: the leaf expressions of the cascade tree;
    - the {e select signals}: every [sel] expression's referenced names;
    - the {e output}: the signal the root MUX drives.

    MUXes appearing in a [sel] position are not part of the cascade — they
    root their own trees (select computation is control, not data routing).

    Counting every 2:1 MUX instead (the naive strategy of Figure 6) is
    provided by {!naive_mux_count}. *)

type point = {
  id : string;  (** unique: ["<module>.<output>"] (plus index if embedded) *)
  module_name : string;
  component : Component.t;
  output : string;  (** signal driven by the root MUX *)
  selects : string list;  (** names referenced by select expressions *)
  requests : Expr.t list;  (** leaf expressions of the cascade tree *)
  depth : int;  (** maximal cascade depth (1 for a lone 2:1 MUX) *)
  absorbed_muxes : int;  (** 2:1 MUXes merged into this point's tree *)
}

val points_of_module : Fmodule.t -> point list
(** All contention points of a module, in definition order. Tracing through
    named signals is cycle-safe (combinational loops terminate the trace). *)

val naive_mux_count : Fmodule.t -> int
(** Total number of 2:1 MUX nodes in the module (Figure 6's baseline). *)

val request_count : point -> int
