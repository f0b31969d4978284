(** RISC-V integer register names (x0..x31).

    [x0] is hard-wired to zero; writes to it are discarded by the golden
    model and the timing models alike. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument outside 0..31. *)

val to_int : t -> int
val x0 : t
val zero : t
(** Alias for [x0]. *)

val name : t -> string
(** ABI name, e.g. [name (of_int 2) = "sp"]. *)

val of_name : string -> t option
(** Accepts both ABI names ("a0") and numeric names ("x10"). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val all : t list
(** x0..x31 in order. *)
