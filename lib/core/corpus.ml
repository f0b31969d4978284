type point = string * int

type entry = {
  tc : Testcase.t;
  intervals : (point * int) list;
}

(* Monomorphic point keys: the fold looks points up per testcase, and the
   generic table's structural compare costs a C call per probe. *)
let equal_point ((na, pa) : point) ((nb, pb) : point) =
  Int.equal pa pb && String.equal na nb

module Points = Hashtbl.Make (struct
  type t = point

  let equal = equal_point
  let hash = Hashtbl.hash
end)

type t = {
  ring : entry option array;  (* capacity max_entries; oldest overwritten *)
  mutable next : int;  (* next write slot *)
  mutable count : int;
  best : int Points.t;
  attempts : int Points.t;
      (* selections of a target since its best last improved; stuck targets
         (e.g. structurally impossible pairs) lose selection weight *)
}

let create ?(max_entries = 256) () =
  if max_entries < 1 then invalid_arg "Corpus.create: max_entries must be >= 1";
  {
    ring = Array.make max_entries None;
    next = 0;
    count = 0;
    best = Points.create 64;
    attempts = Points.create 64;
  }

let size t = t.count

let capacity t = Array.length t.ring

let entries t =
  let cap = capacity t in
  List.init t.count (fun i -> Option.get t.ring.((t.next - 1 - i + (2 * cap)) mod cap))

let add_entry ?emit t e =
  (* Overwriting the slot evicts the oldest entry once the ring is full. *)
  (match (t.ring.(t.next), emit) with
  | Some old, Some emit ->
      emit
        (Telemetry.Corpus_evicted
           { testcase_id = old.tc.Testcase.id; corpus_size = t.count })
  | _ -> ());
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod capacity t;
  if t.count < capacity t then t.count <- t.count + 1

let add ?emit t tc ~intervals =
  List.iter
    (fun (point, v) ->
      match Points.find_opt t.best point with
      | Some best when best <= v -> ()
      | Some _ | None ->
          Points.replace t.best point v;
          Points.remove t.attempts point)
    intervals;
  add_entry ?emit t { tc; intervals };
  match emit with
  | Some emit ->
      emit
        (Telemetry.Corpus_retained
           { testcase_id = tc.Testcase.id; corpus_size = t.count })
  | None -> ()

let consider ?emit t tc ~intervals =
  let improves =
    List.exists
      (fun (point, v) ->
        match Points.find_opt t.best point with
        | Some best -> v < best
        | None -> true)
      intervals
  in
  if improves then begin
    add ?emit t tc ~intervals;
    true
  end
  else false

(* The order of polymorphic [compare] on the candidates: [best] has one
   binding per point, so the points alone order them. *)
let compare_candidate (((na, pa) : point), _) ((nb, pb), _) =
  match String.compare na nb with 0 -> Int.compare pa pb | c -> c

(* [List.assoc_opt] with the monomorphic key equality. *)
let rec interval_at point = function
  | [] -> None
  | (p, v) :: rest -> if equal_point p point then Some v else interval_at point rest

let select t rng =
  (* Points with smaller non-zero best intervals are more likely to be
     chosen (weighted sampling, §6.2.1 "more likely to be selected"). *)
  let candidates =
    Points.fold (fun point v acc -> if v > 0 then (point, v) :: acc else acc) t.best []
    |> List.sort compare_candidate
  in
  let target =
    match candidates with
    | [] -> None
    | _ ->
        let weighted =
          List.map
            (fun ((point, v) as c) ->
              let stuck =
                Option.value ~default:0 (Points.find_opt t.attempts point)
              in
              ( c,
                1.
                /. (float_of_int ((v * v) + 1)
                   *. (1. +. (float_of_int stuck /. 8.))) ))
            candidates
        in
        let total = List.fold_left (fun a (_, w) -> a +. w) 0. weighted in
        let roll = float_of_int (Rng.int rng 1_000_000) /. 1_000_000. *. total in
        let rec walk acc = function
          | [ (last, _) ] -> Some last
          | (c, w) :: rest -> if acc +. w >= roll then Some c else walk (acc +. w) rest
          | [] -> None
        in
        walk 0. weighted
  in
  match target with
  | None -> None
  | Some (point, v) -> (
      Points.replace t.attempts point
        (1 + Option.value ~default:0 (Points.find_opt t.attempts point));
      let all = entries t in
      let achievers =
        List.filter
          (fun e ->
            match interval_at point e.intervals with
            | Some ev -> ev = v
            | None -> false)
          all
      in
      match achievers with
      | [] -> (
          (* Fall back to any seed if bookkeeping and entries diverged
             (e.g. after eviction). *)
          match all with
          | [] -> None
          | es -> Some (Rng.pick rng es, point))
      | es -> Some (Rng.pick rng es, point))

let best_interval t point = Points.find_opt t.best point
