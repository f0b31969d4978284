open Sonar_uarch

type pair = {
  run0 : Machine.result;
  run1 : Machine.result;
  cp : Machine.dual_stats;
}

(* Worker-local scratch: one reusable [Machine.Ctx] per (domain, config).
   Contexts are reset to cold start at every acquisition inside
   [Machine.run], so results are bit-identical to fresh machines (tested);
   keeping them domain-local means the hot loop re-allocates neither cache
   line arrays nor contention-point tables per testcase, which is what
   stops stop-the-world minor collections from serialising the pool. *)
let scratch_key : (string, Machine.Ctx.t) Hashtbl.t Domain_pool.key =
  Domain_pool.create_key (fun () -> Hashtbl.create 4)

(* [fp] is the caller-precomputed [Config.fingerprint cfg]: batch entry
   points hash the config once and reuse the key across every lookup,
   instead of structurally comparing the whole config record per call.
   (A same-name fingerprint collision would surface as [Machine.run]'s
   own config guard raising, never as silent state sharing.) *)
let scratch_ctx (cfg : Config.t) ~fp =
  let tbl = Domain_pool.get scratch_key in
  match Hashtbl.find_opt tbl cfg.Config.name with
  | Some ctx when Machine.Ctx.fingerprint ctx = fp -> ctx
  | Some _ | None ->
      let ctx = Machine.Ctx.create cfg in
      Hashtbl.replace tbl cfg.Config.name ctx;
      ctx

let run_pair ?max_cycles ?ctx ?checkpoint cfg build =
  (* Even the sequential one-off path runs on the calling domain's scratch
     context (unless the caller supplies its own), so single-threaded
     campaigns get the same allocation reuse as pool workers. *)
  let ctx =
    match ctx with
    | Some ctx -> ctx
    | None -> scratch_ctx cfg ~fp:(Config.fingerprint cfg)
  in
  let run0, run1, cp =
    Machine.run_dual ?max_cycles ~ctx ?checkpoint cfg (build ~secret:0)
      (build ~secret:1)
  in
  { run0; run1; cp }

let executed_event tc pair =
  Telemetry.Testcase_executed
    {
      testcase_id = tc.Testcase.id;
      cycles0 = pair.run0.Machine.cycles;
      cycles1 = pair.run1.Machine.cycles;
    }

let execute ?max_cycles ?checkpoint ?emit cfg tc =
  let pair =
    run_pair ?max_cycles ?checkpoint cfg (fun ~secret ->
        Testcase.materialize tc ~secret)
  in
  (match emit with Some emit -> emit (executed_event tc pair) | None -> ());
  pair

(* Monomorphic comparator for the sorted [min_intervals] output below. The
   ordering is identical to polymorphic [compare] on the same tuples
   (byte-lexicographic strings), but dispatches directly; table keys are
   unique, so comparing the keys alone is a total order on the entries. *)
let compare_interval ((na, pa), _) ((nb, pb), _) =
  match String.compare na nb with 0 -> Int.compare pa pb | c -> c

let min_intervals pair =
  (* Keyed per (point, source pair); tuple keys avoid allocating a
     formatted string per interval per run on the fuzzer's hot path. The
     table is pre-sized to the interval count so absorption never rehashes. *)
  let size (r : Machine.result) =
    List.fold_left
      (fun a (ps : Machine.point_stat) -> a + List.length ps.ps_pair_intervals)
      0 r.point_stats
  in
  let table = Hashtbl.create (max 16 (size pair.run0 + size pair.run1)) in
  let absorb (r : Machine.result) =
    List.iter
      (fun (ps : Machine.point_stat) ->
        let name = ps.ps_name in
        List.iter
          (fun (pair_id, v) ->
            let key = (name, pair_id) in
            match Hashtbl.find_opt table key with
            | Some m when m <= v -> ()
            | Some _ | None -> Hashtbl.replace table key v)
          ps.ps_pair_intervals)
      r.point_stats
  in
  absorb pair.run0;
  absorb pair.run1;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort compare_interval

let observe_intervals hists pair =
  List.iter
    (fun ((point, src_pair), v) ->
      Telemetry.Histogram.observe hists ~point ~src_pair v)
    (min_intervals pair)

(* Both secret-runs of one testcase, on this domain's scratch context, in
   the same order as the sequential path (secret 0 then 1). *)
let run_pair_scratch ?max_cycles ?checkpoint ~fp cfg tc =
  let ctx = scratch_ctx cfg ~fp in
  let run0, run1, cp =
    Machine.run_dual ?max_cycles ~ctx ?checkpoint cfg
      (Testcase.materialize tc ~secret:0)
      (Testcase.materialize tc ~secret:1)
  in
  { run0; run1; cp }

let auto_chunk ~jobs n =
  (* Aim for ~2 slices per worker: coarse enough that per-task dispatch and
     future plumbing are amortised over many simulated runs, fine enough
     that an expensive straggler testcase does not idle the other workers
     at the generation barrier. *)
  max 1 ((n + (2 * jobs) - 1) / (2 * jobs))

let rec chunk_list k = function
  | [] -> []
  | xs ->
      let rec take acc i = function
        | rest when i = k -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (x :: acc) (i + 1) rest
      in
      let slice, rest = take [] 0 xs in
      slice :: chunk_list k rest

let execute_batch ?max_cycles ?pool ?chunk ?checkpoint ?emit ?hists cfg tcs =
  (match chunk with
  | Some c when c < 1 ->
      invalid_arg "Executor.execute_batch: chunk must be >= 1"
  | Some _ | None -> ());
  (* One config hash per batch; every scratch lookup below compares this
     precomputed key instead of the config record. *)
  let fp = Config.fingerprint cfg in
  let observe pair =
    match hists with Some h -> observe_intervals h pair | None -> ()
  in
  let finish tc pair =
    (match emit with Some emit -> emit (executed_event tc pair) | None -> ());
    observe pair;
    pair
  in
  match pool with
  | None ->
      (* Sequential path: same scratch reuse as the workers (the calling
         domain has its own worker-local context), so jobs=1 enjoys the
         allocation win too and the jobs comparison isolates parallelism. *)
      List.map
        (fun tc -> finish tc (run_pair_scratch ?max_cycles ?checkpoint ~fp cfg tc))
        tcs
  | Some pool ->
      (* Chunked fan-out: one pool task is a slice of the generation — both
         secret-runs of ~[chunk] candidates — not a single run, so the
         per-task submit/await cost is amortised over many simulated runs.
         Each task runs on some worker's scratch context. Results are
         assembled, and telemetry emitted, here on the awaiting domain, per
         candidate in submission order — never from a worker — so outcomes,
         histograms and traces are bit-identical for every (jobs, chunk). *)
      let chunk =
        match chunk with
        | Some c -> c
        | None -> auto_chunk ~jobs:(Domain_pool.jobs pool) (List.length tcs)
      in
      let futures =
        List.map
          (fun slice ->
            let slice_arr = Array.of_list slice in
            ( slice,
              Domain_pool.submit pool (fun () ->
                  Array.map
                    (run_pair_scratch ?max_cycles ?checkpoint ~fp cfg)
                    slice_arr) ))
          (chunk_list chunk tcs)
      in
      List.concat_map
        (fun (slice, future) ->
          let pairs = Domain_pool.await future in
          List.mapi (fun i tc -> finish tc pairs.(i)) slice)
        futures

(* Monomorphic comparator for [triggered]: identical ordering to polymorphic
   [compare] on the same tuples (byte-lexicographic strings, constructor
   order for [Cpoint.kind]), but dispatches directly; table keys are unique,
   so comparing the keys alone is a total order on the entries. *)
let kind_rank = function Cpoint.Volatile -> 0 | Cpoint.Persistent -> 1

let compare_triggered ((na, ka, sa), _) ((nb, kb, sb), _) =
  match String.compare na nb with
  | 0 -> (
      match Int.compare (kind_rank ka) (kind_rank kb) with
      | 0 -> Int.compare sa sb
      | c -> c)
  | c -> c

let triggered pair =
  let size (r : Machine.result) =
    List.fold_left
      (fun a (ps : Machine.point_stat) -> a + List.length ps.ps_triggered)
      0 r.point_stats
  in
  let table = Hashtbl.create (max 16 (size pair.run0 + size pair.run1)) in
  let absorb (r : Machine.result) =
    List.iter
      (fun (ps : Machine.point_stat) ->
        let name = ps.ps_name in
        let w = float_of_int ps.ps_fanout /. float_of_int ps.ps_max_subs in
        List.iter
          (fun (kind, sub) -> Hashtbl.replace table (name, kind, sub) w)
          ps.ps_triggered)
      r.point_stats
  in
  absorb pair.run0;
  absorb pair.run1;
  Hashtbl.fold (fun k w acc -> (k, w) :: acc) table []
  |> List.sort compare_triggered
