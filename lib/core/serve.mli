(** Live campaign observability over HTTP.

    A minimal HTTP/1.1 server (plain [Unix] sockets, no dependencies)
    run from its own domain so a running campaign can be scraped without
    touching the fuzzing loop. [sonar fuzz --serve PORT] serves
    {!campaign_routes} over a {!Telemetry.state} sink, and [sonar serve
    TRACE] serves {!replay}: both read the one campaign-state fold that
    [sonar report] reads. Each request renders one atomic read of the
    immutable {!Telemetry.State.t}, so scrapes see a consistent view
    without a lock.

    Endpoints built by {!routes}:
    - [GET /healthz] — liveness plus campaign state (small JSON doc);
    - [GET /snapshot] — the full {!Telemetry.Metrics.snapshot} and
      {!Telemetry.Observatory.snapshot} as one JSON document;
    - [GET /metrics] — Prometheus text exposition format ({!prometheus}).

    The server answers one request per connection ([Connection: close]),
    GET only; anything else gets 405. Requests are served sequentially —
    scraping traffic, not a web service. *)

type response = { status : int; content_type : string; body : string }

type handler = string -> response option
(** Maps a request path (query string already stripped) to a response;
    [None] means 404. *)

type t

val start : ?host:string -> port:int -> handler -> t
(** Bind [host] (default ["127.0.0.1"]) : [port] (0 picks a free port —
    read it back with {!port}) and serve from a freshly spawned domain.
    Raises [Unix.Unix_error] if the bind fails. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Stop accepting, join the server domain, close the socket.
    Idempotent. *)

val routes :
  healthz:(unit -> Json.t) ->
  snapshot:(unit -> Json.t) ->
  metrics:(unit -> string) ->
  handler
(** The standard three-endpoint handler described above. *)

val prometheus :
  Telemetry.Metrics.snapshot -> Telemetry.Observatory.snapshot -> string
(** Render both snapshots in the Prometheus text exposition format:
    campaign counters ([sonar_testcases_total], [sonar_ccd_findings_total],
    [sonar_cycles_saved_total], …), gauges ([sonar_coverage],
    [sonar_corpus_size], …), per-phase [sonar_phase_seconds_total{phase=…}],
    one [sonar_point_min_interval_cycles{point=…,pair=…}] gauge per
    observatory point, and the merged interval distribution as a native
    histogram [sonar_interval_cycles] whose [le] boundaries are the
    power-of-two bucket upper bounds of {!Histogram.bucket_range}. *)

val campaign_routes :
  status:string -> health:(string * Json.t) list -> (unit -> Telemetry.State.t) -> handler
(** {!routes} over a campaign state reader (the second half of
    {!Telemetry.state}); each request renders one read. [/healthz] gives
    the [campaign_end] outcome, or [status] before it, then the [health]
    fields and progress counters. Rates run over the time since the
    handler was built until a footer gives the campaign's own. *)

val replay : health:(string * Json.t) list -> (string -> unit) * handler
(** The [sonar serve] path: a consumer of trace lines, read in order by
    one {!Telemetry.reader} as {!Report.of_traces} does, and
    {!campaign_routes} (status ["replaying"]) over their fold. *)
