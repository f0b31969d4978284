open Sonar_uarch

type pair = {
  run0 : Machine.result;
  run1 : Machine.result;
  cp : Machine.dual_stats;
  by_name0 : Cpoint.snapshot array;
  by_name1 : Cpoint.snapshot array;
}

(* Worker-local scratch: one reusable [Machine.Ctx] per (domain, config),
   created lazily by whichever domain first runs a task for that config
   (the helping [Domain_pool.await] means the submitting domain gets its
   own). Keeping them domain-local means the hot loop re-allocates neither
   cache line arrays nor contention-point tables per testcase, which is
   what stops stop-the-world minor collections from serialising the pool.
   Determinism: a context persists across tasks, so it may change a task's
   speed, never its result; contexts are restored to cold start at every
   acquisition inside [Machine.run] and tested to be bit-identical to fresh
   machines. *)
let scratch_key : (string, Machine.Ctx.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

(* [fp] is the caller-precomputed [Config.fingerprint cfg]: batch entry
   points hash the config once and reuse the key across every lookup,
   instead of structurally comparing the whole config record per call.
   (A same-name fingerprint collision would surface as [Machine.run]'s
   own config guard raising, never as silent state sharing.) *)
let scratch_ctx (cfg : Config.t) ~fp =
  let tbl = Domain.DLS.get scratch_key in
  match Hashtbl.find_opt tbl cfg.Config.name with
  | Some ctx when Machine.Ctx.fingerprint ctx = fp -> ctx
  | Some _ | None ->
      let ctx = Machine.Ctx.create cfg in
      Hashtbl.replace tbl cfg.Config.name ctx;
      ctx

let run_pair ?ctx ?checkpoint cfg build =
  (* Without a context of its own, a caller runs on the calling domain's
     scratch context, with the same allocation reuse as pool workers. *)
  let ctx =
    match ctx with
    | Some ctx -> ctx
    | None -> scratch_ctx cfg ~fp:(Config.fingerprint cfg)
  in
  let run0, run1, cp =
    Machine.run_dual ~ctx ?checkpoint cfg (build ~secret:0) (build ~secret:1)
  in
  {
    run0;
    run1;
    cp;
    by_name0 = Machine.Ctx.snapshots_by_name ctx run0;
    by_name1 = Machine.Ctx.snapshots_by_name ctx run1;
  }

(* The per-testcase fold. Each point's snapshot lists its pair intervals
   and triggered sub-points sorted, so the two runs merge point by point;
   the points are walked in name order, which orders the output as a sort
   of every (point, key) entry would, since point names are unique. Both
   runs of a pair come from one registry, so their name-ordered snapshots
   pair up by index. *)

(* Each point's merge of ascending (pair id, interval) lists, keeping the
   smaller interval of a pair both have, tagged with the point's name and
   built in place in front of the next point's. *)
let min_intervals { by_name0 = a; by_name1 = b; _ } =
  let[@tail_mod_cons] rec point k =
    if k = Array.length a then []
    else begin
      let x = a.(k) and y = b.(k) in
      assert (String.equal x.point_name y.point_name);
      merge x.point_name x.s_pair_intervals y.s_pair_intervals (k + 1)
    end
  and[@tail_mod_cons] merge name l r k =
    match (l, r) with
    | [], [] -> point k
    | (p, v) :: l, [] | [], (p, v) :: l -> ((name, p), v) :: merge name l [] k
    | (pa, va) :: la, (pb, vb) :: lb ->
        if pa < pb then ((name, pa), va) :: merge name la r k
        else if pb < pa then ((name, pb), vb) :: merge name l lb k
        else ((name, pa), if vb < va then vb else va) :: merge name la lb k
  in
  point 0

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

let execute_batch ?pool ?checkpoint cfg tcs f =
  (* One config hash per batch; every scratch lookup below compares this
     precomputed key instead of the config record. *)
  let fp = Config.fingerprint cfg in
  (* Both secret-runs of one testcase, on this domain's scratch context. *)
  let run tc =
    run_pair ~ctx:(scratch_ctx cfg ~fp) ?checkpoint cfg (fun ~secret ->
        Testcase.materialize tc ~secret)
  in
  match pool with
  | None ->
      (* Sequential path: same scratch reuse as the workers (the calling
         domain has its own worker-local context), so jobs=1 enjoys the
         allocation win too and the jobs comparison isolates parallelism.
         Each pair goes to [f] as soon as it exists, so nothing holds it
         past its fold. *)
      List.iteri (fun i tc -> f i (run tc)) tcs
  | Some pool ->
      (* Sliced fan-out: one pool task is a slice of the generation — both
         secret-runs of ~[auto_chunk] candidates — not a single run, so the
         per-task submit/await cost is amortised over many simulated runs.
         Each task runs on some worker's scratch context. Pairs reach [f]
         here on the awaiting domain, per candidate in submission order —
         never from a worker — so the caller's fold sees the same sequence
         for every [jobs]. A slice is handed on as soon as it is awaited,
         so this domain folds while the workers run later slices. *)
      let chunk = auto_chunk ~jobs:(Domain_pool.jobs pool) (List.length tcs) in
      let futures =
        List.map
          (fun slice ->
            let slice_arr = Array.of_list slice in
            Domain_pool.submit pool (fun () -> Array.map run slice_arr))
          (chunk_list chunk tcs)
      in
      ignore
        (List.fold_left
           (fun base future ->
             let pairs = Domain_pool.await future in
             Array.iteri (fun i pair -> f (base + i) pair) pairs;
             base + Array.length pairs)
           0 futures)

let weight (s : Cpoint.snapshot) =
  float_of_int s.s_fanout /. float_of_int s.s_max_subs

(* Union of two runs' sorted triggered sub-points of one point, each with
   its run's weight; a sub-point both runs triggered takes run 1's. *)
let triggered { by_name0 = a; by_name1 = b; _ } =
  let[@tail_mod_cons] rec point k =
    if k = Array.length a then []
    else begin
      let x = a.(k) and y = b.(k) in
      assert (String.equal x.point_name y.point_name);
      match (x.s_triggered, y.s_triggered) with
      | [], [] -> point (k + 1)
      | l, r -> merge x.point_name (weight x) (weight y) l r (k + 1)
    end
  and[@tail_mod_cons] merge name wx wy l r k =
    match (l, r) with
    | [], [] -> point k
    | (kind, sub) :: l, [] -> ((name, kind, sub), wx) :: merge name wx wy l [] k
    | [], (kind, sub) :: r -> ((name, kind, sub), wy) :: merge name wx wy [] r k
    | ((ka, sa) as x) :: la, ((kb, sb) as y) :: lb ->
        let c = Cpoint.compare_sub x y in
        if c < 0 then ((name, ka, sa), wx) :: merge name wx wy la r k
        else if c > 0 then ((name, kb, sb), wy) :: merge name wx wy l lb k
        else ((name, kb, sb), wy) :: merge name wx wy la lb k
  in
  point 0
