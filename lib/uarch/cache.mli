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

val clone : t -> t
(** A checkpoint of the cache: its valid lines, LRU clock and eviction
    history, sharing the geometry. A clone holds no line array until a
    {!copy} first writes a line into it, and its index of valid lines
    grows to what it holds, so the clone of a cold cache costs nothing.
    A clone is only ever copied to or from. *)

val copy : src:t -> dst:t -> unit
(** [copy ~src ~dst] makes [dst] bit-identical to [src] in observable
    behaviour. Capture is [copy ~src:live ~dst:ckpt]; restore is
    [copy ~src:ckpt ~dst:live]. Both must have one geometry. Copying
    a clone of a fresh cache rewinds to cold start (all lines invalid
    and clean, LRU clock rewound, eviction history cleared) — the rewind
    {!Machine.Ctx} run contexts use. O(valid lines in [dst] + valid
    lines in [src]): a cache indexes the slot of every valid line, so a
    copy never walks its capacity. *)
