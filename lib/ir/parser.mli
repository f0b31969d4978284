(** Recursive-descent parser for the textual circuit format.

    Grammar (whitespace-insensitive; [;] comments):
    {v
    circuit  ::= "circuit" IDENT ":" module*
    module   ::= "module" IDENT "[" IDENT "]" ":" stmt*
    stmt     ::= "input" IDENT ":" type
               | "output" IDENT ":" type
               | "wire" IDENT ":" type
               | "reg" IDENT ":" type ("reset" INT)?
               | "node" IDENT "=" expr
               | "connect" IDENT "=" expr
    type     ::= "UInt" "<" INT ">"
    expr     ::= "mux" "(" expr "," expr "," expr ")"
               | "UInt" "<" INT ">" "(" INT ")"
               | PRIMOP ("<" INT ("," INT)? ">")? "(" expr ("," expr)* ")"
               | IDENT
    v}
    The printer ({!Circuit.pp}) emits exactly this grammar, so
    [parse (Format.asprintf "%a" Circuit.pp c)] round-trips. *)

exception Error of string

val parse : string -> Circuit.t
(** @raise Error on syntax errors, with a descriptive message. *)

val parse_expr : string -> Expr.t
(** Parse a standalone expression (used in tests). *)

val parse_module : string -> Fmodule.t
(** Parse a standalone module (without the enclosing circuit header). *)
