open Sonar_uarch

(* Per contention point: its shape, and which of its sub-points and source
   pairs the campaign has credited so far. *)
type meta = {
  fanout : int;
  pairs : int;
  persistent_slots : int;
  single_valid : bool;
  component : Sonar_ir.Component.t;
  subs : Itbl.t;  (* keyed by [Cpoint.sub_key] *)
  pairs_seen : Itbl.t;
}

(* Keyed by point name with [String.equal], not structural compare. *)
module Names = Hashtbl.Make (String)

type t = {
  metas : meta Names.t;
  mutable total : float;
  mutable sv_weight : float;
  comp_weight : (Sonar_ir.Component.t, float) Hashtbl.t;
}

let create () =
  {
    metas = Names.create 64;
    total = 0.;
    sv_weight = 0.;
    comp_weight = Hashtbl.create 8;
  }

let meta_of t (ps : Machine.point_stat) =
  match Names.find_opt t.metas ps.ps_name with
  | Some meta -> meta
  | None ->
      let pairs = max 1 (ps.ps_n_sources * (ps.ps_n_sources - 1) / 2) in
      let meta =
        {
          fanout = ps.ps_fanout;
          pairs;
          persistent_slots =
            max 0 (ps.ps_max_subs - (pairs * Cpoint.data_buckets));
          single_valid = ps.ps_single_valid;
          component = ps.ps_component;
          subs = Itbl.create 16;
          pairs_seen = Itbl.create 4;
        }
      in
      Names.replace t.metas ps.ps_name meta;
      meta

(* Fanout shares (see interface). *)
let shares meta =
  if meta.persistent_slots > 0 then (0.4, 0.3, 0.3) else (0.55, 0.45, 0.)

let credit t meta w =
  t.total <- t.total +. w;
  if meta.single_valid then t.sv_weight <- t.sv_weight +. w;
  let cur = Option.value ~default:0. (Hashtbl.find_opt t.comp_weight meta.component) in
  Hashtbl.replace t.comp_weight meta.component (cur +. w)

let absorb_run t (r : Machine.result) =
  let added = ref 0. in
  List.iter
    (fun (ps : Machine.point_stat) ->
      let meta = meta_of t ps in
      let pair_share, bucket_share, persist_share = shares meta in
      let fanout = float_of_int meta.fanout in
      List.iter
        (fun (kind, sub) ->
          let key = Cpoint.sub_key kind sub in
          if not (Itbl.mem meta.subs key) then begin
            Itbl.replace meta.subs key 0;
            let w =
              match kind with
              | Cpoint.Volatile ->
                  let pair = sub / Cpoint.data_buckets in
                  let bucket_w =
                    bucket_share *. fanout
                    /. float_of_int (meta.pairs * Cpoint.data_buckets)
                  in
                  if Itbl.mem meta.pairs_seen pair then bucket_w
                  else begin
                    Itbl.replace meta.pairs_seen pair 0;
                    bucket_w +. (pair_share *. fanout /. float_of_int meta.pairs)
                  end
              | Cpoint.Persistent ->
                  persist_share *. fanout
                  /. float_of_int (max 1 meta.persistent_slots)
            in
            credit t meta w;
            added := !added +. w
          end)
        ps.ps_triggered)
    r.point_stats;
  !added

let add_pair t (pair : Executor.pair) =
  absorb_run t pair.run0 +. absorb_run t pair.run1

let total t = t.total
let single_valid_weight t = if t.total = 0. then 0. else t.sv_weight /. t.total

let per_component t =
  List.map
    (fun c -> (c, Option.value ~default:0. (Hashtbl.find_opt t.comp_weight c)))
    Sonar_ir.Component.all

let add_pair_delta t (pair : Executor.pair) =
  let before = per_component t in
  let added = add_pair t pair in
  let delta =
    List.map2
      (fun (c, b) (_, a) -> (Sonar_ir.Component.to_string c, a -. b))
      before (per_component t)
    |> List.filter (fun (_, d) -> d > 0.)
  in
  (added, delta)

let heatmap t =
  List.map
    (fun (c, w) -> (Sonar_ir.Component.to_string c, w))
    (per_component t)
