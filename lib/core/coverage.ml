open Sonar_uarch

type meta = {
  fanout : int;
  pairs : int;
  persistent_slots : int;
  single_valid : bool;
  component : Sonar_ir.Component.t;
}

type t = {
  subs : (string * Cpoint.kind * int, unit) Hashtbl.t;
  pairs_seen : (string * int, unit) Hashtbl.t;
  metas : (string, meta) Hashtbl.t;
  mutable total : float;
  mutable sv_weight : float;
  comp_weight : (Sonar_ir.Component.t, float) Hashtbl.t;
}

let create () =
  {
    subs = Hashtbl.create 1024;
    pairs_seen = Hashtbl.create 256;
    metas = Hashtbl.create 64;
    total = 0.;
    sv_weight = 0.;
    comp_weight = Hashtbl.create 8;
  }

let note_meta t (ps : Machine.point_stat) =
  if not (Hashtbl.mem t.metas ps.ps_name) then begin
    let pairs = max 1 (ps.ps_n_sources * (ps.ps_n_sources - 1) / 2) in
    Hashtbl.replace t.metas ps.ps_name
      {
        fanout = ps.ps_fanout;
        pairs;
        persistent_slots = max 0 (ps.ps_max_subs - (pairs * Cpoint.data_buckets));
        single_valid = ps.ps_single_valid;
        component = ps.ps_component;
      }
  end

(* Fanout shares (see interface). *)
let shares meta =
  if meta.persistent_slots > 0 then (0.4, 0.3, 0.3) else (0.55, 0.45, 0.)

let credit t name meta w =
  t.total <- t.total +. w;
  if meta.single_valid then t.sv_weight <- t.sv_weight +. w;
  let cur = Option.value ~default:0. (Hashtbl.find_opt t.comp_weight meta.component) in
  Hashtbl.replace t.comp_weight meta.component (cur +. w);
  ignore name

let absorb_run t (r : Machine.result) =
  let added = ref 0. in
  List.iter
    (fun (ps : Machine.point_stat) ->
      note_meta t ps;
      let meta = Hashtbl.find t.metas ps.ps_name in
      let pair_share, bucket_share, persist_share = shares meta in
      let fanout = float_of_int meta.fanout in
      List.iter
        (fun (kind, sub) ->
          let key = (ps.ps_name, kind, sub) in
          if not (Hashtbl.mem t.subs key) then begin
            Hashtbl.replace t.subs key ();
            let w =
              match kind with
              | Cpoint.Volatile ->
                  let pair = sub / Cpoint.data_buckets in
                  let bucket_w =
                    bucket_share *. fanout
                    /. float_of_int (meta.pairs * Cpoint.data_buckets)
                  in
                  if Hashtbl.mem t.pairs_seen (ps.ps_name, pair) then bucket_w
                  else begin
                    Hashtbl.replace t.pairs_seen (ps.ps_name, pair) ();
                    bucket_w +. (pair_share *. fanout /. float_of_int meta.pairs)
                  end
              | Cpoint.Persistent ->
                  persist_share *. fanout
                  /. float_of_int (max 1 meta.persistent_slots)
            in
            credit t ps.ps_name meta w;
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
