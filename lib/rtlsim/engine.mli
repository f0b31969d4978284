(** Cycle-accurate simulation engine for a single IR module.

    The engine levelizes the module once ({!compile}), resolves every signal
    name to an integer {e slot} into a flat native-int value store, then
    [step] evaluates every combinational signal in dependency order, computes
    the next value of every register from its drive expression, and latches —
    standard two-phase synchronous semantics, the same evaluation model
    Verilator gives the paper.

    Combinational evaluation is lazy. {!compile}, a poke, {!reset} and the
    register latch mark the combinational signals stale; {!step} and every
    read ({!peek}, {!peek_int}, {!read_slot}, {!read_slot_mask} and the
    lane reads) settle first if they are stale, and a settle with nothing
    stale returns at once. So a cycle of pokes, a step and any number of
    reads evaluates the logic once, and a read always sees values
    consistent with the latest pokes.

    Three backends share the compile/step API:

    - {!Compiled} (the default): every levelized expression is lowered once
      to an index-resolved closure with widths and masks resolved statically;
      [step] performs no name lookups, no [Bitvec] boxing, and no per-cycle
      heap allocation (the register latch reuses a preallocated scratch
      array).
    - {!Bitsliced}: a bit-plane–transposed store that steps up to
      {!max_lanes} (= 63) independent stimulus lanes per [step]. Each signal
      owns [width] native ints; plane [b] packs bit [b] of all lanes, so
      every lowered operation is a handful of bitwise ops advancing all 63
      lanes at once (add/sub ripple-carry over planes, comparisons via
      borrow-out). Stepping stays allocation-free. Scalar [poke] broadcasts
      to every lane and scalar reads ({!peek}, {!read_slot}) observe lane 0,
      so lane-oblivious consumers work unchanged; per-lane stimulus goes
      through the lane API below.
    - {!Tree}: the original tree-walking interpreter over the expression
      trees, kept as the reference oracle — the compiled paths are
      differential-tested against it bit for bit. *)

type t

type backend =
  | Tree  (** tree-walking interpreter (reference oracle) *)
  | Compiled  (** slot-resolved closures, allocation-free stepping *)
  | Bitsliced
      (** bit-plane transposed store, 63 stimulus lanes per step *)

exception Unknown_signal of string

val compile : ?backend:backend -> Sonar_ir.Fmodule.t -> t
(** Build an engine; [backend] defaults to {!Compiled}.
    @raise Levelize.Combinational_cycle on cyclic combinational logic.
    @raise Bitvec.Width_error on width-invalid expressions (e.g. a [cat]
    wider than 63 bits) — eagerly, at compile time, on every backend. *)

val backend : t -> backend

val poke : t -> string -> Bitvec.t -> unit
(** Drive an input. @raise Unknown_signal if not an input. *)

val poke_int : t -> string -> int -> unit
(** Drive an input with an int, masked to the input's width (a negative
    int drives its two's-complement bits). One lookup in a table of the
    module's inputs; allocation-free. @raise Unknown_signal if not an
    input. *)

val step : t -> unit
(** Advance one clock cycle: settle combinational logic if it is stale,
    then latch registers. The latch leaves the combinational logic stale;
    the next read or step settles it. On the {!Compiled} and {!Bitsliced}
    backends stepping and poking perform no heap allocation. *)

val settle : t -> unit
(** Evaluate combinational logic now, if anything changed since the last
    settle. Reads settle on their own, so this is never needed for
    correct values; call it to choose where the evaluation cost is paid
    (for example, before a timed region of reads). *)

val peek : t -> string -> Bitvec.t
(** Read any signal's current value. @raise Unknown_signal *)

val peek_int : t -> string -> int
val cycle : t -> int
(** Cycles elapsed since {!compile} or {!reset}. *)

val reset : t -> unit
(** Restore registers to their reset values (0 when unspecified), zero
    inputs, and rewind the cycle counter. *)

val signal_names : t -> string list
(** All signals, in declaration order. *)

(** {2 Slot API}

    Consumers on the per-cycle path (the runtime monitor) resolve names to
    slots once and then read slots directly — no string hashing per
    sample. *)

val slot : t -> string -> int
(** Resolve a signal name to its slot. @raise Unknown_signal *)

val read_slot : t -> int -> int
(** The slot's current value as its raw 63-bit pattern (allocation-free).
    Values of width-63 signals with the top bit set read as negative ints;
    use {!read_slot64} for the unsigned value. On the {!Bitsliced} backend
    this reads lane 0. *)

val read_slot64 : t -> int -> int64
(** The slot's current value, zero-extended to a non-negative [int64]. *)

(** {2 Lane API}

    The {!Bitsliced} backend simulates up to {!max_lanes} independent
    stimulus lanes at once; these entry points address a single lane, or
    transpose a whole batch in or out. On the scalar backends they degrade
    to the single lane 0, so batch-agnostic code can be written against
    them uniformly. *)

val max_lanes : int
(** 63 — one lane per bit of OCaml's native immediate integer. *)

val lanes : t -> int
(** {!max_lanes} on {!Bitsliced}, 1 otherwise. *)

val poke_lane : t -> string -> lane:int -> int -> unit
(** Drive an input for one lane only, leaving the other lanes' stimulus
    untouched (value masked to the input's width).
    @raise Unknown_signal if not an input.
    @raise Invalid_argument if [lane] is out of range. *)

val poke_lanes : t -> string -> int array -> unit
(** Bulk transpose-in: drive an input with one value per lane (values
    masked to the input's width). Lanes past the array's length are
    driven to 0. Allocation-free.
    @raise Unknown_signal if not an input.
    @raise Invalid_argument if the array holds more than {!lanes} values,
    or on a scalar backend anything but one value. *)

val read_slot_lane : t -> int -> lane:int -> int
(** One lane's value of a slot, with {!read_slot}'s signed width-63
    caveat. Allocation-free. *)

val read_slot_lanes_into : t -> int -> int array -> unit
(** Bulk transpose-out: fill [dst.(lane)] with each lane's value of the
    slot (reads [Array.length dst] lanes). Allocation-free. *)

val read_slot_lanes : t -> int -> int array
(** Allocating convenience wrapper over {!read_slot_lanes_into}, one cell
    per {!lanes}. *)

val read_slot_mask : t -> int -> int
(** Per-lane truthiness in one word: bit [lane] is set iff the slot's value
    in that lane is non-zero ([0] or [1] on scalar backends). This is the
    batch monitor's sampling primitive — one read covers all 63 lanes. *)
