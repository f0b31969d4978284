(** Textual emission of circuits in the format accepted by {!Parser}. *)

val expr_to_string : Expr.t -> string
val circuit_to_string : Circuit.t -> string
