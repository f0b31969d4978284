(** Expressions of the FIRRTL-like circuit IR.

    The IR is the *lowered* structural subset of FIRRTL that Sonar's analyses
    operate on: flat signal names (hierarchical fields are flattened with
    underscores, e.g. [io_commit_valid]), unsigned literals, 2:1 multiplexers,
    and a fixed set of primitive combinational operators. All widths are in
    bits and limited to 63 so values fit an OCaml [int64] with headroom. *)

type primop =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Not
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | Shl of int  (** static left shift *)
  | Shr of int  (** static logical right shift *)
  | Bits of int * int  (** [Bits (hi, lo)]: bit-slice extraction *)
  | Cat  (** concatenation, first argument is the high part *)
  | Pad of int  (** zero-extend to the given width *)

type t =
  | Ref of string  (** reference to a named signal *)
  | Lit of { value : int64; width : int }  (** unsigned literal *)
  | Mux of { sel : t; tval : t; fval : t }  (** 2:1 multiplexer *)
  | Prim of { op : primop; args : t list }  (** primitive operator *)

val reference : string -> t
val lit : ?width:int -> int64 -> t

val mux : t -> t -> t -> t
(** [mux sel tval fval]. *)

val prim : primop -> t list -> t

val is_lit : t -> bool
(** [true] iff the expression is a literal constant. *)

val refs : t -> string list
(** All signal names referenced, left to right, without duplicates. *)

val fold_refs : (string -> 'a -> 'a) -> t -> 'a -> 'a

val count_muxes : t -> int
(** Number of [Mux] nodes contained in the expression (the "naive 2:1 MUX"
    count of the paper's Figure 6 counts every one of these). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val primop_name : primop -> string

val primop_arity : primop -> int
(** Expected number of arguments. *)
