(* Power-of-two bucketed integer histograms for contention intervals.

   Bucket 0 holds the value 0; bucket k (k >= 1) holds [2^(k-1), 2^k - 1].
   63 buckets cover every non-negative OCaml int, so [add] never clips.
   Counts are exact integers and accumulation is order-independent, which
   keeps every derived trace event deterministic. *)

let max_buckets = 64

type t = {
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  counts : int array;
}

let create () =
  { total = 0; min_v = max_int; max_v = min_int; counts = Array.make max_buckets 0 }

let copy h = { h with counts = Array.copy h.counts }

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* 1 + floor(log2 v): the number of significant bits of v. *)
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let bucket_range k =
  if k <= 0 then (0, 0) else (1 lsl (k - 1), (1 lsl k) - 1)

let add h v =
  let v = max 0 v in
  h.total <- h.total + 1;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1

let total h = h.total
let min_value h = if h.total = 0 then None else Some h.min_v
let max_value h = if h.total = 0 then None else Some h.max_v

let counts h =
  let acc = ref [] in
  for b = max_buckets - 1 downto 0 do
    if h.counts.(b) > 0 then acc := (b, h.counts.(b)) :: !acc
  done;
  !acc

let of_counts ~min_value ~max_value buckets =
  let h = create () in
  List.iter
    (fun (b, c) ->
      if b >= 0 && b < max_buckets && c > 0 then begin
        h.counts.(b) <- h.counts.(b) + c;
        h.total <- h.total + c
      end)
    buckets;
  if h.total > 0 then begin
    h.min_v <- min_value;
    h.max_v <- max_value
  end;
  h

let merge a b =
  let h = copy a in
  Array.iteri (fun i c -> h.counts.(i) <- h.counts.(i) + c) b.counts;
  h.total <- a.total + b.total;
  if b.total > 0 then begin
    if b.min_v < h.min_v then h.min_v <- b.min_v;
    if b.max_v > h.max_v then h.max_v <- b.max_v
  end;
  h

let to_json h : Json.t =
  Json.Obj
    [
      ("total", Json.Int h.total);
      ("min", if h.total = 0 then Json.Null else Json.Int h.min_v);
      ("max", if h.total = 0 then Json.Null else Json.Int h.max_v);
      ( "buckets",
        Json.List
          (List.map
             (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ])
             (counts h)) );
    ]

(* ------------------------------------------------------------------ *)
(* Registry: keyed histograms with incremental dirty tracking, so the
   fuzzer can flush only the (point, source-pair) distributions touched
   during the generation that just folded. *)

type key = string * int

type registry = {
  table : (key, t) Hashtbl.t;
  dirty : (key, unit) Hashtbl.t;
}

let registry () = { table = Hashtbl.create 256; dirty = Hashtbl.create 64 }

let observe r ~point ~src_pair v =
  let key = (point, src_pair) in
  let h =
    match Hashtbl.find_opt r.table key with
    | Some h -> h
    | None ->
        let h = create () in
        Hashtbl.add r.table key h;
        h
  in
  add h v;
  Hashtbl.replace r.dirty key ()

let compare_key (na, pa) (nb, pb) =
  match String.compare na nb with 0 -> Int.compare pa pb | c -> c

let sorted_of_table table =
  Hashtbl.fold (fun k h acc -> ((k, h) :: acc)) table []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let to_list r = sorted_of_table r.table

let drain_dirty r =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) r.dirty [] in
  Hashtbl.reset r.dirty;
  List.sort compare_key keys
  |> List.map (fun k -> (k, Hashtbl.find r.table k))
