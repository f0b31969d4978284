open Sonar_uarch

(* Per contention point: its shape, and which of its sub-points and source
   pairs the campaign has credited so far. *)
type meta = {
  fanout : int;
  pairs : int;
  persistent_slots : int;
  single_valid : bool;
  comp_slot : int;  (* the component's slot in [sums] *)
  subs : Itbl.t;  (* keyed by sub-point id *)
  pairs_seen : Itbl.t;
}

(* Keyed by point name with [String.equal], not structural compare. *)
module Names = Hashtbl.Make (String)

let components = Array.of_list Sonar_ir.Component.all

(* Running sums, in one float array so an update boxes nothing: what the
   run being absorbed added, the total, the single-valid share, then one
   per component in [Sonar_ir.Component.all] order. *)
let added_slot = 0
let total_slot = 1
let sv_slot = 2
let first_comp_slot = 3

type t = {
  metas : meta Names.t;
  sums : float array;
  before : float array;  (* [sums] before the testcase [add_pair_delta] adds *)
}

let create () =
  let n = first_comp_slot + Array.length components in
  { metas = Names.create 64; sums = Array.make n 0.; before = Array.make n 0. }

let comp_slot c =
  let rec find i =
    if Sonar_ir.Component.equal components.(i) c then first_comp_slot + i
    else find (i + 1)
  in
  find 0

let meta_of t (s : Cpoint.snapshot) =
  match Names.find t.metas s.point_name with
  | meta -> meta
  | exception Not_found ->
      let pairs = max 1 (s.s_n_sources * (s.s_n_sources - 1) / 2) in
      let meta =
        {
          fanout = s.s_fanout;
          pairs;
          persistent_slots = max 0 (s.s_max_subs - (pairs * Cpoint.data_buckets));
          single_valid = s.s_single_valid;
          comp_slot = comp_slot s.s_component;
          subs = Itbl.create 16;
          pairs_seen = Itbl.create 4;
        }
      in
      Names.replace t.metas s.point_name meta;
      meta

(* Fanout shares (see interface). *)
let shares meta =
  if meta.persistent_slots > 0 then (0.4, 0.3, 0.3) else (0.55, 0.45, 0.)

(* The weight a newly triggered sub-point adds; a volatile one first
   seen on its source pair also pays the pair's share. *)
let sub_weight meta kind sub =
  let pair_share, bucket_share, persist_share = shares meta in
  let fanout = float_of_int meta.fanout in
  match kind with
  | Cpoint.Volatile ->
      let pair = sub / Cpoint.data_buckets in
      let bucket_w =
        bucket_share *. fanout /. float_of_int (meta.pairs * Cpoint.data_buckets)
      in
      if Itbl.mem meta.pairs_seen pair then bucket_w
      else begin
        Itbl.replace meta.pairs_seen pair 0;
        bucket_w +. (pair_share *. fanout /. float_of_int meta.pairs)
      end
  | Cpoint.Persistent ->
      persist_share *. fanout /. float_of_int (max 1 meta.persistent_slots)

(* Sub-point ids of both kinds are disjoint ranges of one id space, so
   the id alone keys [subs]. *)
let absorb_sub t meta (kind, sub) =
  if not (Itbl.mem meta.subs sub) then begin
    Itbl.replace meta.subs sub 0;
    let w = sub_weight meta kind sub and sums = t.sums in
    sums.(total_slot) <- sums.(total_slot) +. w;
    if meta.single_valid then sums.(sv_slot) <- sums.(sv_slot) +. w;
    sums.(meta.comp_slot) <- sums.(meta.comp_slot) +. w;
    sums.(added_slot) <- sums.(added_slot) +. w
  end

let absorb_run t (r : Machine.result) =
  t.sums.(added_slot) <- 0.;
  List.iter
    (fun (s : Cpoint.snapshot) ->
      match s.s_triggered with
      | [] -> ()
      | subs -> List.iter (absorb_sub t (meta_of t s)) subs)
    r.snapshots;
  t.sums.(added_slot)

let add_pair t (pair : Executor.pair) =
  absorb_run t pair.run0 +. absorb_run t pair.run1

let total t = t.sums.(total_slot)

let single_valid_weight t =
  let total = total t in
  if total = 0. then 0. else t.sums.(sv_slot) /. total

let per_component t =
  List.mapi (fun i c -> (c, t.sums.(first_comp_slot + i))) Sonar_ir.Component.all

let add_pair_delta t (pair : Executor.pair) =
  Array.blit t.sums 0 t.before 0 (Array.length t.sums);
  let added = add_pair t pair in
  let delta = ref [] in
  for i = Array.length components - 1 downto 0 do
    let slot = first_comp_slot + i in
    let d = t.sums.(slot) -. t.before.(slot) in
    if d > 0. then
      delta := (Sonar_ir.Component.to_string components.(i), d) :: !delta
  done;
  (added, !delta)

let heatmap t =
  List.map
    (fun (c, w) -> (Sonar_ir.Component.to_string c, w))
    (per_component t)
