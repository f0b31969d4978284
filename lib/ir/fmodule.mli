(** Circuit modules.

    A module is a named, component-tagged sequence of statements. The name
    ["Fmodule"] avoids clashing with OCaml's [Module] keyword family. *)

type t = {
  name : string;
  component : Component.t;
  stmts : Stmt.t list;
}

val make : ?component:Component.t -> string -> Stmt.t list -> t

val signals : t -> (string * int) list
(** All declared signals with widths, in declaration order. [Node]s get
    width 0 (their width is that of the bound expression). *)

val inputs : t -> (string * int) list

val definitions : t -> (string, Expr.t) Hashtbl.t
(** Map from signal name to its defining expression: a [Node] binding or the
    (last) [Connect] driving a wire or output. Registers and inputs have no
    combinational definition and are absent. *)

val registers : t -> (string, Expr.t option) Hashtbl.t
(** Map from register name to its next-value expression (the last [Connect]
    driving it), or [None] if never driven. *)

val stmt_count : t -> int

val pp : Format.formatter -> t -> unit
