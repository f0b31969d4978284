(* [perf compare A.jsonl B.jsonl]: A is the baseline, B the change; each
   file holds the lines of at least ten [perf run] invocations made
   alternately with the other side's, on the same seeds. Runs pair up by
   seed; a seed that only one side has is dropped and counted. For every
   (workload, metric) it prints each side's median and quartiles, how many
   pairs B won, and a verdict:

   - improved: B wins at least 9 of every 10 pairs (ties count for
     neither) and the medians differ by more than A's interquartile range;
   - unresolved: A's own spread is wider than the metric's bound and not
     every run of B beats every run of A;
   - worse: B's median is worse than A's by more than the bound;
   - no worse: otherwise.

   Per-layer metrics have no bound. Those in [Spec.exact] read "identical"
   when both sides agree on every seed, which a speed-only change must, and
   "changed" otherwise; the others read "unbounded". Exits 1 when some
   metric is worse or changed. *)

module Json = Sonar.Json

let min_pairs = 10

let read path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match Json.of_string l with
         | Json.Obj _ as j when Json.member "metrics" j <> Json.Null -> Some j
         | _ | (exception Json.Parse_error _) -> None)

let runs lines ~workload ~traced =
  List.filter
    (fun j ->
      Json.member "workload" j = Json.String workload
      && Json.member "trace" j = Json.Int (Bool.to_int traced))
    lines

(* (seed, value) of one metric over one side's runs. *)
let values runs name =
  List.filter_map
    (fun j ->
      match Json.member "value" (Json.member name (Json.member "metrics" j)) with
      | (Json.Int _ | Json.Float _) as v ->
          Some (Json.to_int (Json.member "seed" j), Json.to_float v)
      | _ -> None)
    runs

(* The (A, B) values of the seeds both sides ran; a seed run twice on each
   side gives two pairs. *)
let rec join a b =
  match a with
  | [] -> []
  | (s, x) :: a -> (
      match List.assoc_opt s b with
      | Some y -> (x, y) :: join a (List.remove_assoc s b)
      | None -> join a b)

let judge (m : Spec.metric) pairs =
  let better x y = if m.higher_is_better then x > y else x < y in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let a = List.map fst pairs and b = List.map snd pairs in
  let med_a = Stats.median a and med_b = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let verdict =
    match m.bound with
    | None when List.mem m.name Spec.exact ->
        if List.for_all (fun (x, y) -> x = y) pairs then "identical" else "changed"
    | None -> "unbounded"
    | Some bound ->
        let worse_by =
          (if m.higher_is_better then med_a -. med_b else med_b -. med_a) /. Float.abs med_a
        in
        let all_better = List.for_all (fun y -> List.for_all (better y) a) b in
        if better med_b med_a && 10 * wins >= 9 * List.length pairs
           && Float.abs (med_b -. med_a) > q3 -. q1
        then "improved"
        else if (q3 -. q1) /. Float.abs med_a > bound && not all_better then "unresolved"
        else if worse_by > bound then "worse"
        else "no worse"
  in
  (wins, verdict)

let main spec path_a path_b =
  let a = read path_a and b = read path_b in
  let failed = ref false in
  let row ra rb workload (m : Spec.metric) =
    let va = values ra m.name and vb = values rb m.name in
    let pairs = join va vb in
    let n = List.length pairs in
    let dropped = List.length va + List.length vb - (2 * n) in
    if n < min_pairs then
      Printf.printf "%-24s %-38s %d pairs (%d runs dropped), fewer than %d: unresolved\n"
        workload m.name n dropped min_pairs
    else begin
      let wins, verdict = judge m pairs in
      if verdict = "worse" || verdict = "changed" then failed := true;
      let side v =
        let q1, q3 = Stats.quartiles v in
        Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median v) q1 q3
      in
      Printf.printf "%-24s %-38s A %s  B %s %s  wins %d/%d%s  %s\n" workload m.name
        (side (List.map fst pairs)) (side (List.map snd pairs)) m.unit wins n
        (if dropped > 0 then Printf.sprintf " (%d runs dropped)" dropped else "")
        verdict
    end
  in
  List.iter
    (fun traced ->
      List.iter
        (fun workload ->
          let ra = runs a ~workload ~traced and rb = runs b ~workload ~traced in
          if ra <> [] || rb <> [] then
            List.iter (row ra rb workload) (Spec.metrics spec ~traced))
        spec.Spec.workloads)
    [ false; true ];
  Bool.to_int !failed
