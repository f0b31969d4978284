(** The shared memory hierarchy: per-core L1 I/D caches, MSHRs, line
    buffers, a shared L2, and the TileLink-style D-channel that carries
    refill data (8 beats per cache-line read) and writebacks (1 beat).

    This is where contention channels S1–S7 and S10–S14 live:

    - D-channel occupancy: a granted read holds the channel 8 cycles,
      blocking other ready responses (S1–S4). Grant priority is
      ICache read > DCache read > writeback, which makes a younger fetch
      block an older data response.
    - MSHR allocation: a miss whose set index matches an in-flight MSHR but
      whose tag differs is refused until that MSHR retires — the paper's
      "false sharing path blocking" (S5).
    - Read line buffer: when several loads wait on one refill, the youngest
      is served first and others slip a cycle (S6). Dirty-victim
      writebacks contend for the single write line buffer (S7).
    - DCache persistent effects: hit-on-younger-fill (S11), miss-on-
      recently-evicted (S12), dirty-marking by store-conditionals (S10).
    - ICache port: a refill write blocks the fetch read that cycle (S14,
      modelled on every configuration but exposed on NutShell's
      single-ported ICache). *)

type t

type access_result =
  | Ready of int  (** data/fill available at this cycle *)
  | Waiting  (** refill in flight; poll the matching [*_ready] function *)
  | Blocked of string  (** resource refusal (MSHR conflict/full, port); retry *)

val create : Config.t -> Cpoint.registry -> cores:int -> t

val clone : t -> t
(** A checkpoint of the hierarchy (caches, MSHRs, in-flight transfers,
    waiter and ready tables, port busy state, wake marks), with arrays,
    tables and caches ({!Cache.clone}) of its own; it shares the
    configuration, the registry and the contention points. *)

val copy : src:t -> dst:t -> unit
(** [copy ~src ~dst] makes [dst] behave bit-identically to [src],
    reusing [dst]'s arrays, cache lines and tables. Capture is
    [copy ~src:live ~dst:ckpt], restore [copy ~src:ckpt ~dst:live];
    pair it with {!Cpoint.copy} on the owning registry. Copying a clone
    of a fresh hierarchy rewinds it to cold start — the rewind behind
    {!Machine.Ctx} run-context reuse. *)

val ifetch :
  t -> core:int -> addr:int64 -> cycle:int -> tainted:bool -> access_result
(** [tainted] marks accesses on behalf of secret-dependent instructions;
    the flag rides every derived request (refill, channel transfer, fill,
    victim writeback) so the contention registry can tell risky contention
    apart (§6.1). *)

val ifetch_line_key : t -> core:int -> int64 -> int
(** The number of the core's ICache line holding the address
    ({!Cache.line_key}): the key the fetch tables use. *)

val ifetch_ready : t -> core:int -> addr:int64 -> int
(** Cycle the fetch line became available, once its refill completed;
    -1 before. Allocates nothing and never raises. *)

val dload :
  t ->
  core:int -> seq:int -> rob:int -> addr:int64 -> cycle:int -> tainted:bool ->
  access_result

val load_ready : t -> core:int -> rob:int -> int
(** Cycle the load's data is ready, once its refill completed; -1 before.
    Allocates nothing and never raises. *)

val dstore :
  t ->
  core:int -> seq:int -> rob:int -> addr:int64 -> is_sc:bool -> cycle:int ->
  tainted:bool ->
  access_result
(** Store-buffer drain into the DCache. Store-conditionals mark the line
    dirty regardless of their architectural success (S10). *)

val store_ready : t -> core:int -> rob:int -> int
(** As {!load_ready}, for a store-buffer drain waiting on a refill. *)

val tick : t -> cycle:int -> unit
(** Advance channel arbitration, transfers, refill completions. Call once
    per machine cycle after the cores have issued their accesses. A
    completed refill is the only write to a core's ready tables
    ({!ifetch_ready}, {!load_ready}, {!store_ready}), and it marks that
    core for {!take_woken}. *)

val take_woken : t -> core:int -> bool
(** Whether a refill for [core] completed since the last call, clearing
    the mark. The machine loop reads it after every tick to wake a core
    that sleeps on its ready tables. Allocates nothing. *)

val busy : t -> bool
(** Any transfer still in flight (used for drain loops at end of run). *)

val next_wake : t -> cycle:int -> int
(** A lower bound, greater than [cycle], on the next cycle in which
    {!tick} could act — complete a transfer or make a channel request —
    given the state after [cycle]'s tick; [max_int] with nothing in
    flight. A core reads its ready tables ({!ifetch_ready},
    {!load_ready}, {!store_ready}) in its own wake bound, and a refill
    that writes them wakes it through {!take_woken}. *)
