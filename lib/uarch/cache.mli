(** Set-associative write-back cache timing model with LRU replacement.

    Tracks tags, validity, dirtiness and filler identity per line. Values
    are not stored (the golden model supplies data); this model only answers
    hit/miss questions and produces victim information, which is what the
    contention channels need. Filler identity (which dynamic instruction
    brought a line in, and when) supports the persistent-channel detectors
    (S11: hit on a line filled by a younger instruction; S12: miss on a
    recently evicted line). *)

type fill_info = { filler_seq : int; fill_cycle : int; filler_tainted : bool }

type victim = { victim_addr : int64; was_dirty : bool }

type t

val create : Config.cache_cfg -> t
val n_sets : t -> int
val set_index : t -> int64 -> int
val line_addr : t -> int64 -> int64
(** Align an address down to its cache line. *)

val line_key : t -> int64 -> int
(** The line number [addr lsr offset_bits] as a native int: the same for
    every address in a line, distinct across lines, and never negative —
    the key the memory system's per-line tables use. *)

val probe : t -> int64 -> bool
(** Hit test without touching replacement state. *)

val lookup : t -> int64 -> fill_info option
(** Hit test that updates LRU; returns the line's fill info on hit. *)

val fill : t -> int64 -> seq:int -> cycle:int -> tainted:bool -> victim option
(** Install a line (clean); returns the evicted victim if one was valid. *)

val mark_dirty : t -> int64 -> bool
(** Mark the line holding this address dirty; [false] if not present. *)

val is_dirty : t -> int64 -> bool

val recently_evicted : t -> int64 -> (int * bool) option
(** If this address's line was evicted from its set recently, the dynamic
    sequence number of the instruction whose fill evicted it and that
    fill's taint (S12). *)

type save
(** Checkpoint buffer for one cache's valid lines, LRU clock and eviction
    history. Its line arrays grow at {!capture} to the lines saved, so a
    save of a cold cache holds no line. *)

val make_save : unit -> save
val capture : t -> save -> unit
(** Save the valid lines; O(valid lines). *)

val restore : t -> save -> unit
(** [restore t sv] returns [t] to the exact state [capture t sv] saw:
    observable behaviour after restore is bit-identical to the captured
    cache. A [save] may only be restored into a cache of the geometry it
    was captured from. Restoring a capture of a fresh cache rewinds to
    cold start (all lines invalid and clean, LRU clock rewound, eviction
    history cleared) — the rewind {!Machine.Ctx} run contexts use.
    O(valid lines now + lines saved): the cache indexes the slot of every
    valid line, so neither {!capture} nor [restore] walks its capacity. *)
