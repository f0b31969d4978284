(** Top-level circuits: a named collection of modules.

    Hierarchy is pre-flattened (as in lowered FIRRTL after the
    lower-to-ground-types and inline passes); the analyses therefore run
    module by module. *)

type t = { name : string; modules : Fmodule.t list }

val make : string -> Fmodule.t list -> t
val find_module : t -> string -> Fmodule.t option
val module_count : t -> int

val stmt_count : t -> int
(** Total statements over all modules — the "lines of IR" measure used to
    report instrumentation code-size overhead (paper Table 2). *)

val pp : Format.formatter -> t -> unit
