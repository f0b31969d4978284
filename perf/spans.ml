(* In-memory span recorder for traced runs. Each span is one call into a
   layer's public function, timed from outside: its name, the testcase (or
   module, or cycle) it served, monotonic start and end in nanoseconds, and
   the index of the enclosing span. Spans are appended to growable arrays
   and written out as JSONL only when the run ends, so recording costs two
   clock reads and a few stores. *)

type t = {
  mutable len : int;
  mutable names : string array;
  mutable ids : int array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parent : int;  (** index of the open enclosing span, or -1 *)
}

let create () =
  let n = 4096 in
  {
    len = 0;
    names = Array.make n "";
    ids = Array.make n 0;
    parents = Array.make n 0;
    starts = Array.make n 0;
    stops = Array.make n 0;
    parent = -1;
  }

let grow t =
  let n = 2 * Array.length t.ids in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.ids <- extend t.ids 0;
  t.parents <- extend t.parents 0;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0

let enter t name ~id =
  if t.len = Array.length t.ids then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.ids.(i) <- id;
  t.parents.(i) <- t.parent;
  t.len <- i + 1;
  t.starts.(i) <- Host.now_ns ();
  i

let leave t i = t.stops.(i) <- Host.now_ns ()

let span t name ~id f =
  let i = enter t name ~id in
  let r = f () in
  leave t i;
  r

(* A span that encloses the spans opened while [f] runs. *)
let group t name ~id f =
  let i = enter t name ~id in
  let saved = t.parent in
  t.parent <- i;
  let r = f () in
  t.parent <- saved;
  leave t i;
  r

let duration t i = t.stops.(i) - t.starts.(i)

(* Total duration in seconds of every span with this name. *)
let total t name =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if String.equal t.names.(i) name then s := !s + duration t i
  done;
  float_of_int !s *. 1e-9

(* Seconds spent inside spans named [name] but outside every child span:
   a layer's self time. *)
let self_time t name =
  let children = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then children.(p) <- children.(p) + duration t i
  done;
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if String.equal t.names.(i) name then s := !s + duration t i - children.(i)
  done;
  float_of_int !s *. 1e-9

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to t.len - 1 do
        let parent =
          if t.parents.(i) < 0 then Sonar.Json.Null
          else Sonar.Json.Int t.parents.(i)
        in
        output_string oc
          (Sonar.Json.to_string
             (Sonar.Json.Obj
                [
                  ("span", Sonar.Json.Int i);
                  ("name", Sonar.Json.String t.names.(i));
                  ("id", Sonar.Json.Int t.ids.(i));
                  ("parent", parent);
                  ("start_ns", Sonar.Json.Int t.starts.(i));
                  ("end_ns", Sonar.Json.Int t.stops.(i));
                ]));
        output_char oc '\n'
      done)
