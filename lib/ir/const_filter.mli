(** Filtering contention points without side-channel risk (§5.2).

    A contention point whose requests are all constants, or none of whose
    requests carries a validity signal, has an input-independent [reqsIntvl]
    (constantly 0 when every request is always valid). Instrumenting such
    points wastes simulation time without adding detection capability; the
    paper reports ~31% of traced points fall in this category. *)

type classified = {
  point : Mux_tree.point;
  validities : Validity.status list;  (** one per request, in order *)
  monitored : bool;  (** survives the filter: worth dynamic monitoring *)
  single_valid : bool;
      (** exactly one request carries a validity signal — the paper's
          Figure 9 "dominated by a single signal" class *)
}

val classify_module : Fmodule.t -> classified list
(** Every point of {!Mux_tree.points_of_module}, classified: each
    request's validity is determined under one per-module context (linear
    overall), then the filter applies. *)

val monitored : classified list -> classified list
