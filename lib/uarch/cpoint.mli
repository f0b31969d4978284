(** Runtime contention points and their registry.

    Every arbitration site in the timing models (TileLink D-channel grant,
    writeback-port select, MSHR allocation, line-buffer port, ...) registers
    a contention point and reports request/grant activity each cycle. The
    registry tracks, inside the monitoring window (§6.1):

    - per-source valid-request counts;
    - minimum pairwise interval between valid requests from distinct
      sources ([reqsIntvl]) and minimum same-source consecutive interval;
    - triggered {e volatile} sub-points (a source pair that requested in the
      same cycle) and {e persistent} sub-points (reported explicitly by
      storage-like resources, keyed by e.g. cache set);
    - an order-sensitive digest of the event stream, used by the detector's
      contention-state differential comparison (§7.2).

    Each point carries a netlist [fanout] (how many netlist MUX points it
    maps to, see DESIGN.md); a triggered sub-point contributes
    [fanout / max_subs] netlist points to coverage, which reproduces the
    cluster-shaped growth of Figure 8.

    The registry is on the cycle path: {!request}, {!grant},
    {!persistent} and {!set_cycle} allocate nothing. The minima are ints
    with [max_int] for none until {!snapshot} reads them out. Request data is a native int, and a point's
    state is dense and preallocated: triggered sub-points are a bitset
    over sub-point ids, per-pair minima an [int array] indexed by pair
    id, each with a live count, and the window bounds are ints until
    {!window_bounds} reads them out. Every volatile id lies below
    [volatile_slots] and every persistent id at or above it, so reading
    the bitset in index order yields {!compare_sub} order with no sort. *)

type kind = Volatile | Persistent

val data_buckets : int
(** Data classes per source pair: a volatile sub-point id is
    [pair * data_buckets + bucket]. *)

type t = private {
  name : string;
  component : Sonar_ir.Component.t;
  fanout : int;
  max_subs : int;  (** volatile pairs + declared persistent subs *)
  single_valid : bool;
      (** the requests are themselves the valid signals (slot-style points) —
          the class Figure 9 reports as dominating early contentions *)
  sources : string array;
  last_valid : int array;  (** per source; -1 = never *)
  hits : int array;  (** in-window valid requests per source *)
  mutable min_pair : int;
      (** minimum risky pair interval in the window, [max_int] when none
          was seen; {!snapshot} reads it out as [s_min_pair], [None] for
          [max_int] *)
  mutable min_self : int;
      (** minimum same-source interval, [max_int] when none; read out as
          [s_min_self] *)
  mutable active_sources : int;
      (** sources with at least one in-window request, maintained
          incrementally (avoids an O(sources) rescan per request) *)
  mutable single_valid_dominated : bool;
      (** every in-window event so far came from one source (Figure 9) *)
  volatile_slots : int;
      (** volatile sub-point ids ([pair * data_buckets + bucket]) are below
          it; persistent ids are [volatile_slots + sub mod persistent
          slots], up to [max_subs] *)
  triggered : int array;
      (** bitset of triggered sub-point ids, [max_subs + 1] bits (a
          persistent event on a point with no persistent subs lands on id
          [max_subs]); a snapshot reads it out as [s_triggered] *)
  mutable n_triggered : int;  (** set bits of [triggered] *)
  pair_min : int array;
      (** per risky source pair id, the minimum interval observed, or
          [max_int] — the fuzzer's per-pair convergence targets *)
  mutable n_pairs : int;  (** entries of [pair_min] below [max_int] *)
  last_tainted : bool array;
      (** was each source's most recent request secret-dependent *)
  mutable n_tainted : int;
      (** entries of [last_tainted] that are [true]: with none but the
          requesting source's, an untainted request has no risky pair and
          {!request} skips its pair loop *)
  mutable digest : int;
  mutable event_count : int;
}

type registry

val create : Config.t -> registry

val point :
  registry ->
  name:string ->
  component:Sonar_ir.Component.t ->
  sources:string list ->
  ?persistent_subs:int ->
  ?single_valid:bool ->
  unit ->
  t
(** Get-or-create. [persistent_subs] declares how many persistent sub-points
    exist (e.g. cache sets); volatile sub-points are the source pairs. A
    single-source point triggers on its first in-window request (the
    "dominated by a single valid signal" class of Figure 9). *)

val request : registry -> t -> tainted:bool -> source:int -> data:int -> unit
(** Report a valid request this cycle from [source]. [tainted] marks a
    request derived from secret-dependent instructions; only contention
    involving at least one tainted request is {e risky} (secret-dependent,
    §6.1) — pair intervals and triggers are recorded for risky pairs only.
    Only the low 16 bits of [data] are read (the digest masks them, and
    the data bucket reads fewer), so a caller passes an address or an
    [int64] operand as [Int64.to_int] of it. *)

val grant : registry -> t -> source:int -> unit
(** Report the arbitration winner (folded into the digest). *)

val persistent :
  registry -> t -> tainted:bool -> source:int -> sub:int -> data:int -> unit
(** Report a persistent-contention event on sub-point [sub] (e.g. a cache
    set index). Only tainted events count as triggers (untainted ones
    still feed the digest).
    @raise Invalid_argument when [sub] is negative. *)

val set_cycle : registry -> int -> unit
(** Called every stepped machine cycle; allocates nothing. A machine that
    skips quiet cycles calls it once with the last skipped cycle, which
    leaves the window's last bound where stepping would. *)

val mark_active : registry -> unit
(** Note a model state change that makes no request, grant or persistent
    call (a completion, a store-buffer pop), so the machine loop sees the
    cycle as active. *)

val activity : registry -> int
(** Requests, grants, persistent events and {!mark_active} calls so far.
    The machine loop compares it across one cycle: unchanged means the
    cycle was probably quiet, and only then is a wake bound computed. *)

val open_window : registry -> unit
val close_window : registry -> unit
val window_open : registry -> bool
val window_bounds : registry -> (int * int) option
(** First and last cycle the window was open, once closed. *)

val points : registry -> t list

type save
(** Preallocated registry checkpoint: one buffer per registered point plus
    the window/cycle state. Make it {e after} all points are registered
    (registration is structural, so the point set is stable once the cores
    exist); capture/restore then run allocation-light. *)

val make_save : registry -> save
val capture : registry -> save -> unit

val restore : registry -> save -> unit
(** Rewind every saved point's observations (hits, intervals, triggered
    sub-points, digest) and the window/cycle state to what {!capture}
    saw; registered points stay registered. Restoring a capture taken
    before any run rewinds the registry to cold start, which is how
    {!Machine.Ctx} reuses a registry across runs. *)

val compare_sub : kind * int -> kind * int -> int
(** The order of a snapshot's [s_triggered] and of every list built from it:
    [Volatile] before [Persistent], then by sub-point id. It equals
    polymorphic [compare] on the pairs. *)

type snapshot = {
  point_name : string;
  s_component : Sonar_ir.Component.t;
  s_fanout : int;
  s_max_subs : int;
  s_single_valid : bool;
  s_n_sources : int;
  s_hits : int array;
  s_min_pair : int option;
  s_min_self : int option;
  s_triggered : (kind * int) list;
      (** triggered sub-points, sorted by {!compare_sub}; the sub-point of
          each is its id *)
  s_pair_intervals : (int * int) list;
      (** (pair id, minimum interval) for each risky source pair seen in
          the window, sorted by pair id *)
  s_digest : int;
}
(** A point as a run left it, as plain data: its shape (component,
    fanout, sub-point count, single-valid class, source count), which
    coverage reads, and its observations, which the detector compares
    and the fuzzer's feedback reads. *)

val snapshot : t -> snapshot

type diff = { d_run0 : snapshot; d_run1 : snapshot }
(** One point's differing snapshots under the two runs. *)

val diff_snapshots : snapshot list -> snapshot list -> diff list
(** Contention-state discrepancies between two runs, in the order of the
    first list — the lower table of the paper's Figure 5. The lists are
    two runs' snapshots on one registry, so they pair by position. A
    point differs when its request counts, minimum pair interval,
    triggered sub-points or digest do; its pair intervals are not
    compared. Only which points differ is decided here; {!diff_text}
    says how.
    @raise Invalid_argument when the lengths differ; the names must match
    position by position (asserted). *)

val diff_point : diff -> string
(** The point's name. *)

val diff_text : diff -> string
(** How the two snapshots differ, human-readable: request counts, minimum
    pair interval and triggered sub-point count, or else the event
    stream. *)
