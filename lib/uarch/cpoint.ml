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
  triggered : Itbl.t;  (* keyed by [sub_key]; values unused *)
  pair_min : Itbl.t;  (* per risky source pair: min interval *)
  last_tainted : bool array;  (* was each source's latest request tainted *)
  mutable digest : int;
  mutable event_count : int;
}

type registry = {
  config : Config.t;
  table : (string, t) Hashtbl.t;
  mutable points : t list;  (* registration order *)
  mutable cycle : int;
  mutable open_ : bool;
  mutable first_open : int;  (* -1 until the window first opens *)
  mutable last_open : int;
  mutable activity : int;
      (* requests, grants, persistent events and [mark_active] calls so
         far; never rewound, only compared across one machine cycle *)
}

let create config =
  {
    config;
    table = Hashtbl.create 64;
    points = [];
    cycle = 0;
    open_ = false;
    first_open = -1;
    last_open = -1;
    activity = 0;
  }

(* Sub-point granularity: each (source pair, data bucket) combination is a
   distinct netlist sub-point. Wide arbiters route many data fields through
   many MUX bits, so distinct data classes exercise distinct netlist MUXes;
   this is what makes contention coverage keep growing with testcase
   diversity (Figure 8) instead of saturating after a handful of runs. *)
let data_buckets = 64

(* [data_buckets] is a power of two, so the bucket reads only the low bits
   of [data]: a native int carries exactly what an int64 would. *)
let bucket_of data = (data * 0x9E3779B9) land (data_buckets - 1)

let sub_key kind sub = (sub lsl 1) lor match kind with Volatile -> 0 | Persistent -> 1
let trigger p kind sub = Itbl.replace p.triggered (sub_key kind sub) 0

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
          triggered = Itbl.create 8;
          pair_min = Itbl.create 8;
          last_tainted = Array.make n false;
          digest = Hashtbl.hash name;
          event_count = 0;
        }
      in
      Hashtbl.replace reg.table name p;
      reg.points <- reg.points @ [ p ];
      p

let update_min current candidate =
  match current with Some m when m <= candidate -> current | _ -> Some candidate

let mix digest v = (digest * 0x01000193) lxor (v land 0xFFFFFF)

let pair_sub n i j =
  let i, j = if i < j then (i, j) else (j, i) in
  (* Index of pair (i, j) with i < j in the triangular enumeration. *)
  (i * (2 * n - i - 1) / 2) + (j - i - 1)

let mark_active reg = reg.activity <- reg.activity + 1
let activity reg = reg.activity

let request reg p ~tainted ~source ~data =
  mark_active reg;
  let n = Array.length p.sources in
  if source < 0 || source >= n then invalid_arg "Cpoint.request: bad source";
  let cycle = reg.cycle in
  if reg.open_ then begin
    if p.hits.(source) = 0 then p.active_sources <- p.active_sources + 1;
    p.hits.(source) <- p.hits.(source) + 1;
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (source + (cycle land 0xFF))) (data land 0xFFFF);
    (* Single-valid dominance: demoted once a second source shows activity.
       [active_sources] is maintained incrementally above, so this is O(1)
       per request instead of an O(sources) rescan. *)
    if p.single_valid_dominated && p.active_sources > 1 then
      p.single_valid_dominated <- false;
    (* A lone-source point triggers on its first risky in-window request:
       its valid signal is the request itself and is trivially asserted. *)
    if n = 1 && tainted then trigger p Volatile (bucket_of data);
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
          if Itbl.find p.pair_min pair ~default:max_int > interval then
            Itbl.replace p.pair_min pair interval;
          if interval = 0 then
            trigger p Volatile ((pair * data_buckets) + bucket_of data)
        end
      end
    done
  end;
  p.last_valid.(source) <- cycle;
  p.last_tainted.(source) <- tainted

let grant reg p ~source =
  mark_active reg;
  if reg.open_ then p.digest <- mix p.digest (0x5A + source)

let persistent reg p ~tainted ~source ~sub ~data =
  mark_active reg;
  if reg.open_ then begin
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (0xBEEF + source)) (data land 0xFFFF);
    if tainted then begin
      let n = Array.length p.sources in
      let volatile_slots = max 1 (n * (n - 1) / 2) * data_buckets in
      let persistent_slots = max 1 (p.max_subs - volatile_slots) in
      trigger p Persistent (volatile_slots + (sub mod persistent_slots))
    end
  end

let set_cycle reg c =
  reg.cycle <- c;
  if reg.open_ then reg.last_open <- c

let open_window reg =
  reg.open_ <- true;
  if reg.first_open < 0 then reg.first_open <- reg.cycle;
  reg.last_open <- reg.cycle

let close_window reg = reg.open_ <- false
let window_open reg = reg.open_

let window_bounds reg =
  if reg.first_open < 0 then None else Some (reg.first_open, reg.last_open)

let points reg = reg.points

(* The order of polymorphic [compare] on the decoded (kind, sub) pairs
   ([Volatile] sorts before [Persistent], as constructor order does): by
   kind bit, then by key, which for one kind orders by sub. *)
let compare_sub_key a b =
  let c = Int.compare (a land 1) (b land 1) in
  if c <> 0 then c else Int.compare a b

let compare_sub (ka, sa) (kb, sb) = compare_sub_key (sub_key ka sa) (sub_key kb sb)

(* Run results: sort a table's keys in an array, then build the list
   from its end, so only the array and the result are allocated. Most
   tables of a run are empty and the rest small, so small arrays take an
   insertion sort, which unlike [Array.sort] allocates nothing. *)
let sorted_list tbl cmp f =
  if Itbl.length tbl = 0 then []
  else begin
    let keys = Itbl.keys tbl in
    let n = Array.length keys in
    if n > 16 then Array.sort cmp keys
    else
      for i = 1 to n - 1 do
        let k = keys.(i) and j = ref (i - 1) in
        while !j >= 0 && cmp keys.(!j) k > 0 do
          keys.(!j + 1) <- keys.(!j);
          decr j
        done;
        keys.(!j + 1) <- k
      done;
    let l = ref [] in
    for i = n - 1 downto 0 do
      l := f keys.(i) :: !l
    done;
    !l
  end

let triggered_subs p =
  sorted_list p.triggered compare_sub_key (fun k ->
      ((if k land 1 = 0 then Volatile else Persistent), k lsr 1))

let pair_intervals p =
  sorted_list p.pair_min Int.compare (fun k ->
      (k, Itbl.find p.pair_min k ~default:max_int))

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

(* Checkpoint support: a registry-level save holds one preallocated buffer
   per registered point (in [points] order — registration is structural,
   so the order is stable for a given config + core count) plus the
   window/cycle state.  Tables are copied with [Itbl.blit]; all readers
   use [find] / [length] / sorted [keys], so slot order never shows
   through. *)

type point_save = {
  ps_last_valid : int array;
  ps_hits : int array;
  ps_last_tainted : bool array;
  mutable ps_min_pair : int option;
  mutable ps_min_self : int option;
  mutable ps_active_sources : int;
  mutable ps_single_valid_dominated : bool;
  ps_triggered : Itbl.t;
  ps_pair_min : Itbl.t;
  mutable ps_digest : int;
  mutable ps_event_count : int;
}

type save = {
  sv_points : (t * point_save) array;
  mutable sv_cycle : int;
  mutable sv_open : bool;
  mutable sv_first_open : int;
  mutable sv_last_open : int;
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
                 ps_triggered = Itbl.create 8;
                 ps_pair_min = Itbl.create 8;
                 ps_digest = 0;
                 ps_event_count = 0;
               } ))
           (points reg));
    sv_cycle = 0;
    sv_open = false;
    sv_first_open = -1;
    sv_last_open = -1;
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
      Itbl.blit ~src:p.triggered ~dst:ps.ps_triggered;
      Itbl.blit ~src:p.pair_min ~dst:ps.ps_pair_min;
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
      Itbl.blit ~src:ps.ps_triggered ~dst:p.triggered;
      Itbl.blit ~src:ps.ps_pair_min ~dst:p.pair_min;
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

let diff_snapshot sa sb =
  assert (String.equal sa.point_name sb.point_name);
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
  else Some (sa.point_name, String.concat "; " (List.rev !diffs))

(* Two runs on one registry snapshot the same points in the same order, so
   the lists pair by position. *)
let diff_snapshots a b = List.filter_map Fun.id (List.map2 diff_snapshot a b)
