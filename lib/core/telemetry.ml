module Histogram = Histogram

type phase = Generate | Execute | Feedback

let phase_name = function
  | Generate -> "generate"
  | Execute -> "execute"
  | Feedback -> "feedback"

let phase_of_name = function
  | "generate" -> Some Generate
  | "execute" -> Some Execute
  | "feedback" -> Some Feedback
  | _ -> None

type generation_end = {
  generation : int;
  iterations_done : int;
  coverage : float;
  timing_diffs : int;
  corpus_size : int;
}

type event =
  | Campaign_start of {
      strategy : string;
      seed : int64;
      iterations : int;
      batch : int;
      dual : bool;
    }
  | Generation_start of { generation : int; first_iteration : int; size : int }
  | Testcase_executed of { testcase_id : int; cycles0 : int; cycles1 : int }
  | Contention_triggered of { iteration : int; added : float; coverage : float }
  | Ccd_finding of { iteration : int; findings : int; total_delta : int }
  | Corpus_retained of { testcase_id : int; corpus_size : int }
  | Corpus_evicted of { testcase_id : int; corpus_size : int }
  | Mutation_flip of { iteration : int; direction : string }
  | Generation_end of generation_end
  | Phase_timing of { generation : int; phase : phase; seconds : float }
  | Interval_histogram of {
      generation : int;
      point : string;
      src_pair : int;
      total : int;
      min_interval : int;
      max_interval : int;
      buckets : (int * int) list;
    }
  | Coverage_heatmap of { generation : int; components : (string * float) list }
  | Span_begin of { span_id : int; parent : int option; name : string }
  | Span_end of { span_id : int; name : string; seconds : float }
  | Checkpoint_stats of {
      generation : int;
      testcases : int;
      hits : int;  (** dual runs that resumed from a captured checkpoint *)
      cycles_saved : int;
      cycles_simulated : int;
    }
  | Campaign_end of {
      outcome : string;
      iterations_done : int;
      coverage : float;
      timing_diffs : int;
      corpus_size : int;
      wall_seconds : float option;
    }

(* Span events carry (or bracket) wall-clock measurements, so they join
   Phase_timing in the timings opt-in class excluded from traces by
   default. *)
let is_timing_event = function
  | Phase_timing _ | Span_begin _ | Span_end _ -> true
  | _ -> false

(* Checkpoint statistics are deterministic per testcase (independent of
   jobs) but differ by construction between checkpoint modes, so
   they form their own opt-in class excluded from default traces: a
   --no-checkpoint campaign's trace stays byte-identical to the
   checkpointed one. *)
let is_execution_event = function Checkpoint_stats _ -> true | _ -> false

type sink = {
  emit : event -> unit;
  close : unit -> unit;
}

let null = { emit = ignore; close = ignore }

let make ?(close = ignore) emit = { emit; close }

let close s = s.close ()

let emit_all sinks ev = List.iter (fun s -> s.emit ev) sinks

(* ------------------------------------------------------------------ *)
(* JSON encoding (schema in DESIGN.md §9).                             *)

let json_of_event ev : Json.t =
  let obj name fields = Json.Obj (("event", Json.String name) :: fields) in
  match ev with
  | Campaign_start e ->
      obj "campaign_start"
        [
          ("strategy", Json.String e.strategy);
          ("seed", Json.Int (Int64.to_int e.seed));
          ("iterations", Json.Int e.iterations);
          ("batch", Json.Int e.batch);
          ("dual", Json.Bool e.dual);
        ]
  | Generation_start e ->
      obj "generation_start"
        [
          ("generation", Json.Int e.generation);
          ("first_iteration", Json.Int e.first_iteration);
          ("size", Json.Int e.size);
        ]
  | Testcase_executed e ->
      obj "testcase_executed"
        [
          ("testcase_id", Json.Int e.testcase_id);
          ("cycles0", Json.Int e.cycles0);
          ("cycles1", Json.Int e.cycles1);
        ]
  | Contention_triggered e ->
      obj "contention_triggered"
        [
          ("iteration", Json.Int e.iteration);
          ("added", Json.Float e.added);
          ("coverage", Json.Float e.coverage);
        ]
  | Ccd_finding e ->
      obj "ccd_finding"
        [
          ("iteration", Json.Int e.iteration);
          ("findings", Json.Int e.findings);
          ("total_delta", Json.Int e.total_delta);
        ]
  | Corpus_retained e ->
      obj "corpus_retained"
        [
          ("testcase_id", Json.Int e.testcase_id);
          ("corpus_size", Json.Int e.corpus_size);
        ]
  | Corpus_evicted e ->
      obj "corpus_evicted"
        [
          ("testcase_id", Json.Int e.testcase_id);
          ("corpus_size", Json.Int e.corpus_size);
        ]
  | Mutation_flip e ->
      obj "mutation_flip"
        [
          ("iteration", Json.Int e.iteration);
          ("direction", Json.String e.direction);
        ]
  | Generation_end e ->
      obj "generation_end"
        [
          ("generation", Json.Int e.generation);
          ("iterations_done", Json.Int e.iterations_done);
          ("coverage", Json.Float e.coverage);
          ("timing_diffs", Json.Int e.timing_diffs);
          ("corpus_size", Json.Int e.corpus_size);
        ]
  | Phase_timing e ->
      obj "phase_timing"
        [
          ("generation", Json.Int e.generation);
          ("phase", Json.String (phase_name e.phase));
          ("seconds", Json.Float e.seconds);
        ]
  | Interval_histogram e ->
      obj "interval_histogram"
        [
          ("generation", Json.Int e.generation);
          ("point", Json.String e.point);
          ("src_pair", Json.Int e.src_pair);
          ("total", Json.Int e.total);
          ("min_interval", Json.Int e.min_interval);
          ("max_interval", Json.Int e.max_interval);
          ( "buckets",
            Json.List
              (List.map
                 (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ])
                 e.buckets) );
        ]
  | Coverage_heatmap e ->
      obj "coverage_heatmap"
        [
          ("generation", Json.Int e.generation);
          ( "components",
            Json.Obj (List.map (fun (name, w) -> (name, Json.Float w)) e.components)
          );
        ]
  | Span_begin e ->
      obj "span_begin"
        [
          ("span_id", Json.Int e.span_id);
          ( "parent",
            match e.parent with Some p -> Json.Int p | None -> Json.Null );
          ("name", Json.String e.name);
        ]
  | Span_end e ->
      obj "span_end"
        [
          ("span_id", Json.Int e.span_id);
          ("name", Json.String e.name);
          ("seconds", Json.Float e.seconds);
        ]
  | Checkpoint_stats e ->
      obj "checkpoint_stats"
        [
          ("generation", Json.Int e.generation);
          ("testcases", Json.Int e.testcases);
          ("hits", Json.Int e.hits);
          ("cycles_saved", Json.Int e.cycles_saved);
          ("cycles_simulated", Json.Int e.cycles_simulated);
        ]
  | Campaign_end e ->
      obj "campaign_end"
        ([
           ("outcome", Json.String e.outcome);
           ("iterations_done", Json.Int e.iterations_done);
           ("coverage", Json.Float e.coverage);
           ("timing_diffs", Json.Int e.timing_diffs);
           ("corpus_size", Json.Int e.corpus_size);
         ]
        @
        match e.wall_seconds with
        | Some w -> [ ("wall_seconds", Json.Float w) ]
        | None -> [])

let event_of_json doc =
  let open Json in
  try
    let i k = to_int (member k doc) in
    let f k = to_float (member k doc) in
    let s k = to_str (member k doc) in
    match to_str (member "event" doc) with
    | "campaign_start" ->
        let dual =
          match member "dual" doc with
          | Bool b -> b
          | _ -> raise (Parse_error "dual must be a bool")
        in
        Some
          (Campaign_start
             {
               strategy = s "strategy";
               seed = Int64.of_int (i "seed");
               iterations = i "iterations";
               batch = i "batch";
               dual;
             })
    | "generation_start" ->
        Some
          (Generation_start
             {
               generation = i "generation";
               first_iteration = i "first_iteration";
               size = i "size";
             })
    | "testcase_executed" ->
        Some
          (Testcase_executed
             {
               testcase_id = i "testcase_id";
               cycles0 = i "cycles0";
               cycles1 = i "cycles1";
             })
    | "contention_triggered" ->
        Some
          (Contention_triggered
             { iteration = i "iteration"; added = f "added"; coverage = f "coverage" })
    | "ccd_finding" ->
        Some
          (Ccd_finding
             {
               iteration = i "iteration";
               findings = i "findings";
               total_delta = i "total_delta";
             })
    | "corpus_retained" ->
        Some
          (Corpus_retained
             { testcase_id = i "testcase_id"; corpus_size = i "corpus_size" })
    | "corpus_evicted" ->
        Some
          (Corpus_evicted
             { testcase_id = i "testcase_id"; corpus_size = i "corpus_size" })
    | "mutation_flip" ->
        Some (Mutation_flip { iteration = i "iteration"; direction = s "direction" })
    | "generation_end" ->
        Some
          (Generation_end
             {
               generation = i "generation";
               iterations_done = i "iterations_done";
               coverage = f "coverage";
               timing_diffs = i "timing_diffs";
               corpus_size = i "corpus_size";
             })
    | "phase_timing" -> (
        match phase_of_name (s "phase") with
        | Some phase ->
            Some
              (Phase_timing
                 { generation = i "generation"; phase; seconds = f "seconds" })
        | None -> None)
    | "interval_histogram" ->
        let buckets =
          match member "buckets" doc with
          | List items ->
              List.map
                (function
                  | List [ Int b; Int c ] -> (b, c)
                  | _ -> raise (Parse_error "bad bucket"))
                items
          | _ -> raise (Parse_error "buckets must be a list")
        in
        Some
          (Interval_histogram
             {
               generation = i "generation";
               point = s "point";
               src_pair = i "src_pair";
               total = i "total";
               min_interval = i "min_interval";
               max_interval = i "max_interval";
               buckets;
             })
    | "coverage_heatmap" ->
        let components =
          match member "components" doc with
          | Obj fields -> List.map (fun (name, v) -> (name, to_float v)) fields
          | _ -> raise (Parse_error "components must be an object")
        in
        Some (Coverage_heatmap { generation = i "generation"; components })
    | "span_begin" ->
        let parent =
          match member "parent" doc with
          | Null -> None
          | Int p -> Some p
          | _ -> raise (Parse_error "parent must be int or null")
        in
        Some (Span_begin { span_id = i "span_id"; parent; name = s "name" })
    | "span_end" ->
        Some
          (Span_end { span_id = i "span_id"; name = s "name"; seconds = f "seconds" })
    | "checkpoint_stats" ->
        Some
          (Checkpoint_stats
             {
               generation = i "generation";
               testcases = i "testcases";
               hits = i "hits";
               cycles_saved = i "cycles_saved";
               cycles_simulated = i "cycles_simulated";
             })
    | "campaign_end" ->
        let wall_seconds =
          match member "wall_seconds" doc with
          | Null -> None
          | v -> Some (to_float v)
        in
        Some
          (Campaign_end
             {
               outcome = s "outcome";
               iterations_done = i "iterations_done";
               coverage = f "coverage";
               timing_diffs = i "timing_diffs";
               corpus_size = i "corpus_size";
               wall_seconds;
             })
    | _ -> None
  with Parse_error _ -> None

let json_is_resync doc = match Json.member "resync" doc with
  | Json.Bool b -> b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Trace reader: JSONL lines back to events.                           *)

type reader = { mutable seen_real : bool; mutable skipped : int }

let reader () = { seen_real = false; skipped = 0 }

let skipped r = r.skipped

(* Resync lines replay state the reader already holds once it has seen a
   real event, so they are dropped from then on; a stream that opens with
   them (a lone later segment) keeps them, which is what makes such a
   segment self-contained. *)
let read_line r line =
  let skip () =
    r.skipped <- r.skipped + 1;
    None
  in
  if String.trim line = "" then None
  else
    match Json.of_string line with
    | exception Json.Parse_error _ -> skip ()
    | doc -> (
        match event_of_json doc with
        | None -> skip ()
        | Some _ when json_is_resync doc && r.seen_real -> None
        | Some ev ->
            if not (json_is_resync doc) then r.seen_real <- true;
            Some ev)

(* ------------------------------------------------------------------ *)
(* JSONL trace writer.                                                 *)

(* What the trace writers keep, and in what form. Campaign_end belongs to
   the deterministic class, but its wall_seconds field is wall-clock, so a
   non-timings trace carries the event with the field stripped. *)
let trace_form ~timings ev =
  if timings then Some ev
  else if is_timing_event ev || is_execution_event ev then None
  else
    match ev with
    | Campaign_end e -> Some (Campaign_end { e with wall_seconds = None })
    | ev -> Some ev

let jsonl ?(timings = false) write_line =
  make (fun ev ->
      match trace_form ~timings ev with
      | Some ev -> write_line (Json.to_string (json_of_event ev))
      | None -> ())

(* The JSONL file writer: each kept event is one line of segment file
   [path 0].  The channel is flushed after every [generation_end] and
   [campaign_end] line — a campaign killed hard still leaves its
   completed generations on disk, and a follower (tail -f, `sonar serve
   --follow`) sees progress as it happens.  After a [generation_end]
   line, [rotate ~bytes ~gens] (the segment's size and generations so
   far) may return the documents that open the next segment, file
   [path (i + 1)]: segments roll over only at generation boundaries, so
   each holds whole generations.  [observe] sees every event first.
   [close] is idempotent. *)
let file_writer ~timings ~path ~observe ~rotate =
  let seg = ref 0 in
  let oc = ref (open_out (path 0)) in
  let bytes = ref 0 in
  let gens = ref 0 in
  let closed = ref false in
  let write_doc doc =
    let s = Json.to_string doc in
    output_string !oc s;
    output_char !oc '\n';
    bytes := !bytes + String.length s + 1
  in
  let emit ev =
    observe ev;
    match trace_form ~timings ev with
    | None -> ()
    | Some wev -> (
        write_doc (json_of_event wev);
        match ev with
        | Generation_end _ ->
            incr gens;
            (match rotate ~bytes:!bytes ~gens:!gens with
            | None -> ()
            | Some head ->
                close_out !oc;
                incr seg;
                oc := open_out (path !seg);
                bytes := 0;
                gens := 0;
                List.iter write_doc head);
            flush !oc
        | Campaign_end _ -> flush !oc
        | _ -> ())
  in
  {
    emit;
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          close_out !oc
        end);
  }

let jsonl_file ?(timings = false) path =
  file_writer ~timings
    ~path:(fun _ -> path)
    ~observe:ignore
    ~rotate:(fun ~bytes:_ ~gens:_ -> None)

(* ------------------------------------------------------------------ *)
(* Rotating JSONL trace writer: numbered segments, each self-contained. *)

let segment_path base i = Printf.sprintf "%s.%04d" base i

let rotating_jsonl ?(timings = false) ?max_bytes ?max_generations path =
  (match (max_bytes, max_generations) with
  | None, None ->
      invalid_arg
        "Telemetry.rotating_jsonl: set max_bytes and/or max_generations"
  | Some b, _ when b < 1 ->
      invalid_arg "Telemetry.rotating_jsonl: max_bytes must be >= 1"
  | _, Some g when g < 1 ->
      invalid_arg "Telemetry.rotating_jsonl: max_generations must be >= 1"
  | _ -> ());
  (* Cumulative campaign state replayed at the head of every later
     segment: the trace header, plus the latest interval_histogram per
     (point, source-pair) key and the latest coverage_heatmap — all three
     event kinds are cumulative by construction, so replaying the most
     recent one of each rebuilds the observatory exactly. *)
  let header = ref None in
  let heat = ref None in
  let hists : (Histogram.key, event) Hashtbl.t = Hashtbl.create 256 in
  let observe ev =
    match ev with
    | Campaign_start _ -> header := Some ev
    | Interval_histogram e -> Hashtbl.replace hists (e.point, e.src_pair) ev
    | Coverage_heatmap _ -> heat := Some ev
    | _ -> ()
  in
  let resync_doc ev =
    match json_of_event ev with
    | Json.Obj fields -> Json.Obj (fields @ [ ("resync", Json.Bool true) ])
    | doc -> doc
  in
  let rotate ~bytes ~gens =
    if
      (match max_bytes with Some b -> bytes >= b | None -> false)
      || match max_generations with Some g -> gens >= g | None -> false
    then
      Some
        (List.map resync_doc
           (Option.to_list !header
           @ (Hashtbl.fold (fun k ev acc -> (k, ev) :: acc) hists []
             |> List.sort (fun (a, _) (b, _) -> compare a b)
             |> List.map snd)
           @ Option.to_list !heat))
    else None
  in
  file_writer ~timings ~path:(segment_path path) ~observe ~rotate

(* ------------------------------------------------------------------ *)
(* In-memory aggregation.                                              *)

module Metrics = struct
  type snapshot = {
    events : int;
    generations : int;
    testcases : int;
    contention_testcases : int;
    ccd_findings : int;
    finding_testcases : int;
    retained : int;
    evicted : int;
    direction_flips : int;
    coverage : float;
    corpus_size : int;
    generate_seconds : float;
    execute_seconds : float;
    feedback_seconds : float;
    wall_seconds : float;
    events_per_second : float;
    testcases_per_second : float;
    pool_utilization : float;
    cycles_simulated : int;
    cycles_saved : int;
    checkpoint_hits : int;
  }

  let to_json s : Json.t =
    Json.Obj
      [
        ("events", Json.Int s.events);
        ("generations", Json.Int s.generations);
        ("testcases", Json.Int s.testcases);
        ("contention_testcases", Json.Int s.contention_testcases);
        ("ccd_findings", Json.Int s.ccd_findings);
        ("finding_testcases", Json.Int s.finding_testcases);
        ("retained", Json.Int s.retained);
        ("evicted", Json.Int s.evicted);
        ("direction_flips", Json.Int s.direction_flips);
        ("coverage", Json.Float s.coverage);
        ("corpus_size", Json.Int s.corpus_size);
        ("generate_seconds", Json.Float s.generate_seconds);
        ("execute_seconds", Json.Float s.execute_seconds);
        ("feedback_seconds", Json.Float s.feedback_seconds);
        ("wall_seconds", Json.Float s.wall_seconds);
        ("events_per_second", Json.Float s.events_per_second);
        ("testcases_per_second", Json.Float s.testcases_per_second);
        ("pool_utilization", Json.Float s.pool_utilization);
        ("cycles_simulated", Json.Int s.cycles_simulated);
        ("cycles_saved", Json.Int s.cycles_saved);
        ("checkpoint_hits", Json.Int s.checkpoint_hits);
      ]
end

(* ------------------------------------------------------------------ *)
(* Hierarchical profiling spans.                                       *)

module Span = struct
  type recorder = {
    emit : event -> unit;
    clock : unit -> float;
    mutable next_id : int;
    mutable stack : int list;
  }

  let recorder ?(clock = Unix.gettimeofday) emit =
    { emit; clock; next_id = 1; stack = [] }

  let enter r name =
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with [] -> None | p :: _ -> Some p in
    r.stack <- id :: r.stack;
    r.emit (Span_begin { span_id = id; parent; name });
    let t0 = r.clock () in
    let ended = ref false in
    fun () ->
      if not !ended then begin
        ended := true;
        let seconds = r.clock () -. t0 in
        (* Tolerate out-of-order ends: drop just this id from the stack. *)
        r.stack <-
          (match r.stack with
          | top :: tl when top = id -> tl
          | st -> List.filter (fun x -> x <> id) st);
        r.emit (Span_end { span_id = id; name; seconds })
      end
end

(* ------------------------------------------------------------------ *)
(* Observatory flush: per-generation histogram / heatmap events.       *)

let flush_histograms registry ~generation emit =
  List.iter
    (fun ((point, src_pair), h) ->
      emit
        (Interval_histogram
           {
             generation;
             point;
             src_pair;
             total = Histogram.total h;
             min_interval = Option.value ~default:0 (Histogram.min_value h);
             max_interval = Option.value ~default:0 (Histogram.max_value h);
             buckets = Histogram.counts h;
           }))
    (Histogram.drain_dirty registry)

(* ------------------------------------------------------------------ *)
(* Observatory view: latest histograms + heatmap + span tree.          *)

module Keys = Map.Make (struct
  type t = Histogram.key

  let compare = compare
end)

module Observatory = struct
  type point_hist = {
    point : string;
    src_pair : int;
    hist : Histogram.t;
  }

  type span_node = {
    span_name : string;
    calls : int;
    seconds : float;
    children : span_node list;
  }

  type snapshot = {
    points : point_hist list;
    heatmap : (string * float) list;
    span_tree : span_node list;
  }

  let rec merge_span_trees a b =
    let order = ref [] in
    let by_name = Hashtbl.create 8 in
    List.iter
      (fun n ->
        match Hashtbl.find_opt by_name n.span_name with
        | None ->
            order := n.span_name :: !order;
            Hashtbl.add by_name n.span_name n
        | Some m ->
            Hashtbl.replace by_name n.span_name
              {
                span_name = n.span_name;
                calls = m.calls + n.calls;
                seconds = m.seconds +. n.seconds;
                children = merge_span_trees m.children n.children;
              })
      (a @ b);
    List.rev_map (fun name -> Hashtbl.find by_name name) !order

  (* Raw (id, parent, name, seconds) spans, in begin order, as a tree
     whose nodes group same-named spans under the same parent path, so a
     thousand "generation" spans condense into one row with calls = 1000.
     A span's parent is the latest earlier span with that id, so the tree
     stays acyclic whatever ids a damaged trace carries. *)
  let build_span_tree spans =
    let spans = Array.of_list spans in
    let latest = Hashtbl.create 64 in
    let children = Array.make (Array.length spans) [] in
    let roots = ref [] in
    Array.iteri
      (fun i (id, parent, _, _) ->
        (match Option.bind parent (Hashtbl.find_opt latest) with
        | Some p -> children.(p) <- i :: children.(p)
        | None -> roots := i :: !roots);
        Hashtbl.replace latest id i)
      spans;
    let rec forest ids =
      List.fold_left (fun acc i -> merge_span_trees acc [ node i ]) [] (List.rev ids)
    and node i =
      let _, _, span_name, seconds = spans.(i) in
      { span_name; calls = 1; seconds; children = forest children.(i) }
    in
    forest !roots

  (* One point per key, in the fuzzer's "closest to contention" order. *)
  let points_of hists =
    Keys.fold (fun (point, src_pair) hist acc -> { point; src_pair; hist } :: acc) hists []
    |> List.stable_sort (fun (a : point_hist) b ->
           let mn p = Option.value ~default:max_int (Histogram.min_value p.hist) in
           compare (mn a, a.point, a.src_pair) (mn b, b.point, b.src_pair))

  let merge a b =
    let points =
      List.fold_left
        (fun acc p ->
          let sum = Option.fold ~none:p.hist ~some:(fun h -> Histogram.merge h p.hist) in
          Keys.update (p.point, p.src_pair) (fun h -> Some (sum h)) acc)
        Keys.empty (a.points @ b.points)
      |> points_of
    in
    let heatmap =
      List.fold_left
        (fun acc (name, w) ->
          if List.mem_assoc name acc then
            List.map (fun (n, x) -> (n, if n = name then x +. w else x)) acc
          else acc @ [ (name, w) ])
        [] (a.heatmap @ b.heatmap)
    in
    { points; heatmap; span_tree = merge_span_trees a.span_tree b.span_tree }

  let rec json_of_span n : Json.t =
    Json.Obj
      [
        ("name", Json.String n.span_name);
        ("calls", Json.Int n.calls);
        ("seconds", Json.Float n.seconds);
        ("children", Json.List (List.map json_of_span n.children));
      ]

  let to_json s : Json.t =
    Json.Obj
      [
        ( "points",
          Json.List
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("point", Json.String p.point);
                     ("src_pair", Json.Int p.src_pair);
                     ("histogram", Histogram.to_json p.hist);
                   ])
               s.points) );
        ( "heatmap",
          Json.Obj (List.map (fun (name, w) -> (name, Json.Float w)) s.heatmap)
        );
        ("span_tree", Json.List (List.map json_of_span s.span_tree))
      ]
end

(* ------------------------------------------------------------------ *)
(* One campaign-state fold behind every in-memory view.                *)

module State = struct
  type finding = { iteration : int; count : int; total_delta : int }

  type summary = {
    campaigns : int;
    strategy : string option;
    outcome : string option;
    wall_seconds : float option;
    events : int;
    testcases : int;
    generations : int;
    iterations_done : int;
    coverage : float;
    timing_diffs : int;
    corpus_size : int;
    contention_testcases : int;
    retained : int;
    evicted : int;
    direction_flips : int;
    phase_seconds : (phase * float) list;
    cycles_simulated : int;
    cycles_saved : int;
    checkpoint_hits : int;
    series : generation_end list;
    findings : finding list;
    observatory : Observatory.snapshot;
  }

  module Ints = Map.Make (Int)

  (* One campaign's accumulator: the summary's counters and latest values
     (series and findings newest first), its event count, and the
     observatory inputs as the events carried them. *)
  type campaign = {
    s : summary;
    events : int;
    hists : (int * int * (int * int) list) Keys.t;
        (* latest (min, max, buckets) per key *)
    heatmap : (string * float) list;  (* latest *)
    spans : (int * int option * string * float) Ints.t;
        (* (id, parent, name, seconds) keyed by the event's position *)
    open_spans : int Ints.t;  (* span id -> its position in [spans] *)
  }

  (* Newest campaign first. *)
  type t = campaign list

  let zero =
    {
      campaigns = 1;
      strategy = None;
      outcome = None;
      wall_seconds = None;
      events = 0;
      testcases = 0;
      generations = 0;
      iterations_done = 0;
      coverage = 0.;
      timing_diffs = 0;
      corpus_size = 0;
      contention_testcases = 0;
      retained = 0;
      evicted = 0;
      direction_flips = 0;
      phase_seconds = [];
      cycles_simulated = 0;
      cycles_saved = 0;
      checkpoint_hits = 0;
      series = [];
      findings = [];
      observatory = { points = []; heatmap = []; span_tree = [] };
    }

  let fresh =
    {
      s = zero;
      events = 0;
      hists = Keys.empty;
      heatmap = [];
      spans = Ints.empty;
      open_spans = Ints.empty;
    }

  let empty = []

  (* Seconds summed per phase, listed in phase order. *)
  let add_phase seen (phase, seconds) =
    List.filter_map
      (fun p ->
        match (List.assoc_opt p seen, p = phase) with
        | None, true -> Some (p, seconds)
        | Some x, true -> Some (p, x +. seconds)
        | Some x, false -> Some (p, x)
        | None, false -> None)
      [ Generate; Execute; Feedback ]

  let step c (ev : event) =
    let s = c.s and events = c.events + 1 in
    let set s = { c with s; events } in
    match ev with
    | Campaign_start e -> set { s with strategy = Some e.strategy }
    | Generation_start _ -> set s
    | Testcase_executed _ -> set { s with testcases = s.testcases + 1 }
    | Contention_triggered e ->
        set { s with contention_testcases = s.contention_testcases + 1; coverage = e.coverage }
    | Ccd_finding e ->
        let f = { iteration = e.iteration; count = e.findings; total_delta = e.total_delta } in
        set { s with findings = f :: s.findings }
    | Corpus_retained e ->
        set { s with retained = s.retained + 1; corpus_size = e.corpus_size }
    | Corpus_evicted _ -> set { s with evicted = s.evicted + 1 }
    | Mutation_flip _ -> set { s with direction_flips = s.direction_flips + 1 }
    | Generation_end e ->
        set
          {
            s with
            generations = s.generations + 1;
            iterations_done = e.iterations_done;
            coverage = e.coverage;
            timing_diffs = e.timing_diffs;
            corpus_size = e.corpus_size;
            series = e :: s.series;
          }
    | Phase_timing e ->
        set { s with phase_seconds = add_phase s.phase_seconds (e.phase, e.seconds) }
    | Checkpoint_stats e ->
        set
          {
            s with
            cycles_simulated = s.cycles_simulated + e.cycles_simulated;
            cycles_saved = s.cycles_saved + e.cycles_saved;
            checkpoint_hits = s.checkpoint_hits + e.hits;
          }
    | Campaign_end e ->
        set
          {
            s with
            outcome = Some e.outcome;
            wall_seconds = e.wall_seconds;
            iterations_done = e.iterations_done;
            coverage = e.coverage;
            timing_diffs = e.timing_diffs;
            corpus_size = e.corpus_size;
          }
    | Interval_histogram e ->
        let h = (e.min_interval, e.max_interval, e.buckets) in
        { c with events; hists = Keys.add (e.point, e.src_pair) h c.hists }
    | Coverage_heatmap e -> { c with events; heatmap = e.components }
    | Span_begin e ->
        {
          c with
          events;
          spans = Ints.add events (e.span_id, e.parent, e.name, 0.) c.spans;
          open_spans = Ints.add e.span_id events c.open_spans;
        }
    | Span_end e -> (
        match Ints.find_opt e.span_id c.open_spans with
        | Some at ->
            let close (id, parent, name, _) = (id, parent, name, e.seconds) in
            {
              c with
              events;
              spans = Ints.update at (Option.map close) c.spans;
              open_spans = Ints.remove e.span_id c.open_spans;
            }
        | None ->
            (* an end without a begin (a truncated trace) stands as a root *)
            { c with events; spans = Ints.add events (e.span_id, None, e.name, e.seconds) c.spans })

  let add t ev =
    match (ev, t) with
    | Campaign_start _, _ | _, [] -> step fresh ev :: t
    | _, c :: older -> step c ev :: older

  let of_events events = List.fold_left add empty events

  let merge a b = b @ a

  (* One campaign's summary. *)
  let view c =
    let hist (min_value, max_value, buckets) = Histogram.of_counts ~min_value ~max_value buckets in
    {
      c.s with
      events = c.events;
      series = List.rev c.s.series;
      findings = List.rev c.s.findings;
      observatory =
        {
          points = Observatory.points_of (Keys.map hist c.hists);
          heatmap = c.heatmap;
          span_tree = Observatory.build_span_tree (List.map snd (Ints.bindings c.spans));
        };
    }

  (* Two campaigns side by side (shards of one fleet): counters and final
     values sum, observatories merge. *)
  let combine a b =
    {
      campaigns = a.campaigns + b.campaigns;
      strategy =
        (match (a.strategy, b.strategy) with
        | Some x, Some y when x = y -> Some x
        | Some _, Some _ -> Some "mixed"
        | x, None -> x
        | None, y -> y);
      outcome =
        (* None (no footer) poisons: the cluster holds a campaign that never
           ended, so it is incomplete. *)
        (match (a.outcome, b.outcome) with
        | None, _ | _, None -> None
        | Some x, Some y when x = y -> Some x
        | Some "crashed", Some _ | Some _, Some "crashed" -> Some "crashed"
        | Some _, Some _ -> Some "mixed");
      wall_seconds =
        (match (a.wall_seconds, b.wall_seconds) with
        | Some x, Some y -> Some (x +. y)
        | x, None -> x
        | None, y -> y);
      events = a.events + b.events;
      testcases = a.testcases + b.testcases;
      generations = a.generations + b.generations;
      iterations_done = a.iterations_done + b.iterations_done;
      coverage = a.coverage +. b.coverage;
      timing_diffs = a.timing_diffs + b.timing_diffs;
      corpus_size = a.corpus_size + b.corpus_size;
      contention_testcases = a.contention_testcases + b.contention_testcases;
      retained = a.retained + b.retained;
      evicted = a.evicted + b.evicted;
      direction_flips = a.direction_flips + b.direction_flips;
      phase_seconds = List.fold_left add_phase a.phase_seconds b.phase_seconds;
      cycles_simulated = a.cycles_simulated + b.cycles_simulated;
      cycles_saved = a.cycles_saved + b.cycles_saved;
      checkpoint_hits = a.checkpoint_hits + b.checkpoint_hits;
      series = a.series @ b.series;
      findings = a.findings @ b.findings;
      observatory = Observatory.merge a.observatory b.observatory;
    }

  (* Oldest campaign first, so float sums run in stream order. *)
  let summary t =
    match List.rev_map view t with
    | s :: rest -> List.fold_left combine s rest
    | [] -> { zero with campaigns = 0 }

  let metrics ~elapsed (s : summary) : Metrics.snapshot =
    let wall = Float.max 1e-9 (Option.value ~default:elapsed s.wall_seconds) in
    let phase p = Option.value ~default:0. (List.assoc_opt p s.phase_seconds) in
    {
      events = s.events;
      generations = s.generations;
      testcases = s.testcases;
      contention_testcases = s.contention_testcases;
      ccd_findings = List.fold_left (fun n f -> n + f.count) 0 s.findings;
      finding_testcases = List.length s.findings;
      retained = s.retained;
      evicted = s.evicted;
      direction_flips = s.direction_flips;
      coverage = s.coverage;
      corpus_size = s.corpus_size;
      generate_seconds = phase Generate;
      execute_seconds = phase Execute;
      feedback_seconds = phase Feedback;
      wall_seconds = wall;
      events_per_second = float_of_int s.events /. wall;
      testcases_per_second = float_of_int s.testcases /. wall;
      pool_utilization = phase Execute /. wall;
      cycles_simulated = s.cycles_simulated;
      cycles_saved = s.cycles_saved;
      checkpoint_hits = s.checkpoint_hits;
    }
end

(* The state is immutable and published through an atomic, so another
   domain (the Serve HTTP domain) may read it while the campaign emits. *)
let state () =
  let st = Atomic.make State.empty in
  (make (fun ev -> Atomic.set st (State.add (Atomic.get st) ev)), fun () -> Atomic.get st)

let aggregator () =
  let t0 = Unix.gettimeofday () in
  let sink, read = state () in
  ( sink,
    fun () -> State.metrics ~elapsed:(Unix.gettimeofday () -. t0) (State.summary (read ())) )

let observatory () =
  let sink, read = state () in
  (sink, fun () -> (State.summary (read ())).observatory)

(* ------------------------------------------------------------------ *)
(* Periodic human progress reporter.                                   *)

let progress ?(out = stderr) ~every ~total () =
  if every < 1 then invalid_arg "Telemetry.progress: every must be >= 1";
  let t0 = Unix.gettimeofday () in
  let testcases = ref 0 in
  let timing_diffs = ref 0 in
  let last_report = ref 0 in
  (* Flush explicitly after every report line: when [out] is a pipe (CI log
     capture, `sonar serve` supervision) the channel is block-buffered, and
     an unflushed progress line is invisible exactly when someone is
     watching for it. *)
  let emit = function
    | Testcase_executed _ -> incr testcases
    | Generation_end e ->
        timing_diffs := e.timing_diffs;
        if !testcases - !last_report >= every || e.iterations_done >= total
        then begin
          last_report := !testcases;
          let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
          Printf.fprintf out
            "[sonar] %6d/%d testcases | coverage %8.0f | timing diffs %5d | \
             corpus %3d | %.1f tc/s\n"
            e.iterations_done total e.coverage !timing_diffs e.corpus_size
            (float_of_int !testcases /. dt);
          flush out
        end
    | Campaign_end e ->
        Printf.fprintf out
          "[sonar] campaign %s: %d/%d testcases | coverage %8.0f | timing \
           diffs %5d\n"
          e.outcome e.iterations_done total e.coverage e.timing_diffs;
        flush out
    | _ -> ()
  in
  make ~close:(fun () -> flush out) emit
