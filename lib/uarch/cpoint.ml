type kind = Volatile | Persistent

type t = {
  name : string;
  component : Sonar_ir.Component.t;
  fanout : int;
  max_subs : int;
  single_valid : bool;
  sources : string array;
  last_valid : int array;
  hits : int array;
  mutable min_pair : int option;
  mutable min_self : int option;
  mutable active_sources : int;  (* sources with hits > 0, kept incrementally *)
  mutable single_valid_dominated : bool;
  triggered : (kind * int, unit) Hashtbl.t;
  pair_min : (int, int) Hashtbl.t;  (* per risky source pair: min interval *)
  last_tainted : bool array;  (* was each source's latest request tainted *)
  mutable digest : int;
  mutable event_count : int;
}

type registry = {
  config : Config.t;
  table : (string, t) Hashtbl.t;
  mutable order : t list;  (* reverse registration order *)
  mutable cycle : int;
  mutable open_ : bool;
  mutable first_open : int option;
  mutable last_open : int option;
}

let create config =
  {
    config;
    table = Hashtbl.create 64;
    order = [];
    cycle = 0;
    open_ = false;
    first_open = None;
    last_open = None;
  }

let reset_point p =
  Array.fill p.last_valid 0 (Array.length p.last_valid) (-1);
  Array.fill p.hits 0 (Array.length p.hits) 0;
  Array.fill p.last_tainted 0 (Array.length p.last_tainted) false;
  p.min_pair <- None;
  p.min_self <- None;
  p.active_sources <- 0;
  p.single_valid_dominated <- true;
  Hashtbl.reset p.triggered;
  Hashtbl.reset p.pair_min;
  p.digest <- Hashtbl.hash p.name;
  p.event_count <- 0

let reset reg =
  (* Registered points survive a reset (registration is structural: it
     depends only on the config and core count, never on the program), but
     every per-run observation is rewound to the state [create] + fresh
     [point] calls would produce — reuse must be bit-identical to a fresh
     registry. *)
  List.iter reset_point reg.order;
  reg.cycle <- 0;
  reg.open_ <- false;
  reg.first_open <- None;
  reg.last_open <- None

(* Sub-point granularity: each (source pair, data bucket) combination is a
   distinct netlist sub-point. Wide arbiters route many data fields through
   many MUX bits, so distinct data classes exercise distinct netlist MUXes;
   this is what makes contention coverage keep growing with testcase
   diversity (Figure 8) instead of saturating after a handful of runs. *)
let data_buckets = 64

let bucket_of data =
  Int64.to_int (Int64.unsigned_rem (Int64.mul data 0x9E3779B9L) (Int64.of_int data_buckets))

let point reg ~name ~component ~sources ?(persistent_subs = 0)
    ?(single_valid = false) () =
  match Hashtbl.find_opt reg.table name with
  | Some p -> p
  | None ->
      let n = List.length sources in
      let volatile_pairs = max 1 (n * (n - 1) / 2) in
      let p =
        {
          name;
          component;
          fanout = Config.fanout_of reg.config name;
          max_subs = (volatile_pairs * data_buckets) + persistent_subs;
          single_valid = single_valid || n = 1;
          sources = Array.of_list sources;
          last_valid = Array.make n (-1);
          hits = Array.make n 0;
          min_pair = None;
          min_self = None;
          active_sources = 0;
          single_valid_dominated = true;
          triggered = Hashtbl.create 8;
          pair_min = Hashtbl.create 8;
          last_tainted = Array.make n false;
          digest = Hashtbl.hash name;
          event_count = 0;
        }
      in
      Hashtbl.replace reg.table name p;
      reg.order <- p :: reg.order;
      p

let update_min current candidate =
  match current with Some m when m <= candidate -> current | _ -> Some candidate

let mix digest v = (digest * 0x01000193) lxor (v land 0xFFFFFF)

let pair_sub n i j =
  let i, j = if i < j then (i, j) else (j, i) in
  (* Index of pair (i, j) with i < j in the triangular enumeration. *)
  (i * (2 * n - i - 1) / 2) + (j - i - 1)

let request reg p ~tainted ~source ~data =
  let n = Array.length p.sources in
  if source < 0 || source >= n then invalid_arg "Cpoint.request: bad source";
  let cycle = reg.cycle in
  if reg.open_ then begin
    if p.hits.(source) = 0 then p.active_sources <- p.active_sources + 1;
    p.hits.(source) <- p.hits.(source) + 1;
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (source + (cycle land 0xFF))) (Int64.to_int data land 0xFFFF);
    (* Single-valid dominance: demoted once a second source shows activity.
       [active_sources] is maintained incrementally above, so this is O(1)
       per request instead of an O(sources) rescan. *)
    if p.single_valid_dominated && p.active_sources > 1 then
      p.single_valid_dominated <- false;
    (* A lone-source point triggers on its first risky in-window request:
       its valid signal is the request itself and is trivially asserted. *)
    if n = 1 && tainted then
      Hashtbl.replace p.triggered (Volatile, bucket_of data) ();
    (* Same-source consecutive interval. *)
    if p.last_valid.(source) >= 0 then
      p.min_self <- update_min p.min_self (cycle - p.last_valid.(source));
    (* Pairwise intervals against other sources' latest firing. Only risky
       pairs — those with a secret-dependent member — are recorded: they
       are the ones that can leak, and the only ones used for guidance
       (§6.1: secret-dependent contention). *)
    for other = 0 to n - 1 do
      if other <> source && p.last_valid.(other) >= 0 then begin
        let interval = cycle - p.last_valid.(other) in
        if tainted || p.last_tainted.(other) then begin
          p.min_pair <- update_min p.min_pair interval;
          let pair = pair_sub n source other in
          (match Hashtbl.find_opt p.pair_min pair with
          | Some m when m <= interval -> ()
          | Some _ | None -> Hashtbl.replace p.pair_min pair interval);
          if interval = 0 then
            Hashtbl.replace p.triggered
              (Volatile, (pair * data_buckets) + bucket_of data)
              ()
        end
      end
    done
  end;
  p.last_valid.(source) <- cycle;
  p.last_tainted.(source) <- tainted

let grant reg p ~source =
  if reg.open_ then p.digest <- mix p.digest (0x5A + source)

let persistent reg p ~tainted ~source ~sub ~data =
  if reg.open_ then begin
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (0xBEEF + source)) (Int64.to_int data land 0xFFFF);
    if tainted then begin
      let n = Array.length p.sources in
      let volatile_slots = max 1 (n * (n - 1) / 2) * data_buckets in
      let persistent_slots = max 1 (p.max_subs - volatile_slots) in
      Hashtbl.replace p.triggered
        (Persistent, volatile_slots + (sub mod persistent_slots))
        ()
    end
  end

let set_cycle reg c =
  reg.cycle <- c;
  if reg.open_ then reg.last_open <- Some c

let open_window reg =
  reg.open_ <- true;
  if reg.first_open = None then reg.first_open <- Some reg.cycle;
  reg.last_open <- Some reg.cycle

let close_window reg = reg.open_ <- false
let window_open reg = reg.open_

let window_bounds reg =
  match (reg.first_open, reg.last_open) with
  | Some a, Some b -> Some (a, b)
  | _ -> None

let points reg = List.rev reg.order

(* Monomorphic orders equal to polymorphic [compare] on these tuples
   ([Volatile] sorts before [Persistent], as constructor order does). *)
let compare_sub (k1, i1) (k2, i2) =
  match (k1, k2) with
  | Volatile, Persistent -> -1
  | Persistent, Volatile -> 1
  | _ -> Int.compare i1 i2

let compare_pair ((a1 : int), (b1 : int)) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let triggered_subs p =
  Hashtbl.fold (fun k () acc -> k :: acc) p.triggered []
  |> List.sort compare_sub

let pair_intervals p =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.pair_min []
  |> List.sort compare_pair

(* Invert the triangular pair enumeration of [pair_sub]. *)
let pair_name p pair =
  let n = Array.length p.sources in
  let rec find i =
    if i >= n - 1 then (0, 1)
    else begin
      let row = (n - 1 - i) in
      let start = pair_sub n i (i + 1) in
      if pair < start + row then (i, i + 1 + (pair - start)) else find (i + 1)
    end
  in
  let i, j = find 0 in
  if i < n && j < n then Printf.sprintf "%s-%s" p.sources.(i) p.sources.(j)
  else string_of_int pair

let triggered_weight p =
  float_of_int p.fanout *. float_of_int (Hashtbl.length p.triggered)
  /. float_of_int p.max_subs

(* Checkpoint support: a registry-level save holds one preallocated buffer
   per registered point (in [points] order — registration is structural,
   so the order is stable for a given config + core count) plus the
   window/cycle state.  Hashtables are captured as association lists and
   replayed with [Hashtbl.replace]; all readers use [find_opt] /
   [length] / [fold]+sort, so insertion order never shows through. *)

type point_save = {
  ps_last_valid : int array;
  ps_hits : int array;
  ps_last_tainted : bool array;
  mutable ps_min_pair : int option;
  mutable ps_min_self : int option;
  mutable ps_active_sources : int;
  mutable ps_single_valid_dominated : bool;
  mutable ps_triggered : (kind * int) list;
  mutable ps_pair_min : (int * int) list;
  mutable ps_digest : int;
  mutable ps_event_count : int;
}

type save = {
  sv_points : (t * point_save) array;
  mutable sv_cycle : int;
  mutable sv_open : bool;
  mutable sv_first_open : int option;
  mutable sv_last_open : int option;
}

let make_save reg =
  {
    sv_points =
      Array.of_list
        (List.map
           (fun p ->
             let n = Array.length p.sources in
             ( p,
               {
                 ps_last_valid = Array.make n (-1);
                 ps_hits = Array.make n 0;
                 ps_last_tainted = Array.make n false;
                 ps_min_pair = None;
                 ps_min_self = None;
                 ps_active_sources = 0;
                 ps_single_valid_dominated = true;
                 ps_triggered = [];
                 ps_pair_min = [];
                 ps_digest = 0;
                 ps_event_count = 0;
               } ))
           (points reg));
    sv_cycle = 0;
    sv_open = false;
    sv_first_open = None;
    sv_last_open = None;
  }

let capture reg sv =
  Array.iter
    (fun (p, ps) ->
      let n = Array.length p.sources in
      Array.blit p.last_valid 0 ps.ps_last_valid 0 n;
      Array.blit p.hits 0 ps.ps_hits 0 n;
      Array.blit p.last_tainted 0 ps.ps_last_tainted 0 n;
      ps.ps_min_pair <- p.min_pair;
      ps.ps_min_self <- p.min_self;
      ps.ps_active_sources <- p.active_sources;
      ps.ps_single_valid_dominated <- p.single_valid_dominated;
      ps.ps_triggered <- Hashtbl.fold (fun k () acc -> k :: acc) p.triggered [];
      ps.ps_pair_min <- Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.pair_min [];
      ps.ps_digest <- p.digest;
      ps.ps_event_count <- p.event_count)
    sv.sv_points;
  sv.sv_cycle <- reg.cycle;
  sv.sv_open <- reg.open_;
  sv.sv_first_open <- reg.first_open;
  sv.sv_last_open <- reg.last_open

let restore reg sv =
  Array.iter
    (fun (p, ps) ->
      let n = Array.length p.sources in
      Array.blit ps.ps_last_valid 0 p.last_valid 0 n;
      Array.blit ps.ps_hits 0 p.hits 0 n;
      Array.blit ps.ps_last_tainted 0 p.last_tainted 0 n;
      p.min_pair <- ps.ps_min_pair;
      p.min_self <- ps.ps_min_self;
      p.active_sources <- ps.ps_active_sources;
      p.single_valid_dominated <- ps.ps_single_valid_dominated;
      Hashtbl.reset p.triggered;
      List.iter (fun k -> Hashtbl.replace p.triggered k ()) ps.ps_triggered;
      Hashtbl.reset p.pair_min;
      List.iter (fun (k, v) -> Hashtbl.replace p.pair_min k v) ps.ps_pair_min;
      p.digest <- ps.ps_digest;
      p.event_count <- ps.ps_event_count)
    sv.sv_points;
  reg.cycle <- sv.sv_cycle;
  reg.open_ <- sv.sv_open;
  reg.first_open <- sv.sv_first_open;
  reg.last_open <- sv.sv_last_open

type snapshot = {
  point_name : string;
  s_hits : int array;
  s_min_pair : int option;
  s_min_self : int option;
  s_triggered : (kind * int) list;
  s_digest : int;
}

let snapshot_with p triggered =
  {
    point_name = p.name;
    s_hits = Array.copy p.hits;
    s_min_pair = p.min_pair;
    s_min_self = p.min_self;
    s_triggered = triggered;
    s_digest = p.digest;
  }

let snapshot p = snapshot_with p (triggered_subs p)

let opt_str = function None -> "-" | Some v -> string_of_int v

let diff_snapshots a b =
  let tb = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tb s.point_name s) b;
  List.filter_map
    (fun sa ->
      match Hashtbl.find_opt tb sa.point_name with
      | None -> Some (sa.point_name, "present only under secret=0")
      | Some sb ->
          let diffs = ref [] in
          if sa.s_hits <> sb.s_hits then
            diffs :=
              Printf.sprintf "request counts %s vs %s"
                (String.concat "," (Array.to_list (Array.map string_of_int sa.s_hits)))
                (String.concat "," (Array.to_list (Array.map string_of_int sb.s_hits)))
              :: !diffs;
          if sa.s_min_pair <> sb.s_min_pair then
            diffs :=
              Printf.sprintf "min reqsIntvl %s vs %s" (opt_str sa.s_min_pair)
                (opt_str sb.s_min_pair)
              :: !diffs;
          if sa.s_triggered <> sb.s_triggered then
            diffs :=
              Printf.sprintf "triggered sub-points %d vs %d"
                (List.length sa.s_triggered) (List.length sb.s_triggered)
              :: !diffs;
          if !diffs = [] && sa.s_digest <> sb.s_digest then
            diffs := [ "event stream differs" ];
          if !diffs = [] then None
          else Some (sa.point_name, String.concat "; " (List.rev !diffs)))
    a
