(** Power-of-two bucketed integer histograms, the unit of the contention
    observatory's per-(point, source-pair) interval distributions.

    Bucket 0 holds the value 0; bucket [k >= 1] holds the range
    [[2^(k-1), 2^k - 1]]. Counts are exact and accumulation commutes, so a
    histogram — and every trace event derived from one — is a deterministic
    function of the multiset of observed values. *)

type t

val create : unit -> t
val copy : t -> t

val add : t -> int -> unit
(** Record one observation (negative values clamp to 0). *)

val total : t -> int
val min_value : t -> int option
val max_value : t -> int option

val bucket_of : int -> int
(** The bucket index a value falls into. *)

val bucket_range : int -> int * int
(** Inclusive value range of a bucket. *)

val counts : t -> (int * int) list
(** Non-empty buckets as (bucket index, count), ascending. *)

val of_counts : min_value:int -> max_value:int -> (int * int) list -> t
(** Rebuild a histogram from {!counts} output plus its recorded extrema
    (bucket boundaries are too coarse to recover exact min/max). *)

val merge : t -> t -> t
(** Pointwise sum; the arguments are not mutated. *)

val to_json : t -> Json.t
(** [{"total":n,"min":m,"max":M,"buckets":[[bucket,count],...]}]; [min] and
    [max] are [null] when empty. *)

(** {1 Registry}

    Keyed histograms (key = contention point name × source-pair id) with a
    dirty set, so a producer can accumulate per testcase and flush only the
    keys touched since the previous flush — the mechanism behind the
    per-generation [interval_histogram] trace events. *)

type key = string * int

type registry

val registry : unit -> registry

val observe : registry -> point:string -> src_pair:int -> int -> unit
(** Add one interval observation for (point, source pair), creating the
    histogram on first sight and marking the key dirty. *)

val to_list : registry -> (key * t) list
(** Every histogram, sorted by key. *)

val drain_dirty : registry -> (key * t) list
(** The histograms touched since the last drain, sorted by key; clears the
    dirty set. The returned histograms are live (not copies). *)
