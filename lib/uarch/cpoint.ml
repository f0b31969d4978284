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
  mutable min_pair : int;  (* [max_int] = none *)
  mutable min_self : int;
  mutable active_sources : int;  (* sources with hits > 0, kept incrementally *)
  mutable single_valid_dominated : bool;
  volatile_slots : int;
  triggered : int array;  (* bitset over sub-point ids *)
  mutable n_triggered : int;
  pair_min : int array;  (* per source pair: min interval, [max_int] = none *)
  mutable n_pairs : int;  (* entries of [pair_min] below [max_int] *)
  last_tainted : bool array;  (* was each source's latest request tainted *)
  mutable n_tainted : int;  (* entries of [last_tainted] that are true *)
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

(* Sub-point ids index a bitset of [word_bits]-bit words. Volatile ids,
   [pair * data_buckets + bucket], lie below [volatile_slots] and
   persistent ids at or above it, so ascending id order is the order of
   [compare_sub]. *)
let word_bits = 32
let word_shift = 5

let trigger p id =
  let w = id lsr word_shift and bit = 1 lsl (id land (word_bits - 1)) in
  let word = p.triggered.(w) in
  if word land bit = 0 then begin
    p.triggered.(w) <- word lor bit;
    p.n_triggered <- p.n_triggered + 1
  end

let point reg ~name ~component ~sources ?(persistent_subs = 0)
    ?(single_valid = false) () =
  match Hashtbl.find_opt reg.table name with
  | Some p -> p
  | None ->
      let n = List.length sources in
      let volatile_pairs = max 1 (n * (n - 1) / 2) in
      let volatile_slots = volatile_pairs * data_buckets in
      let max_subs = volatile_slots + persistent_subs in
      let p =
        {
          name;
          component;
          fanout = Config.fanout_of reg.config name;
          max_subs;
          single_valid = single_valid || n = 1;
          sources = Array.of_list sources;
          last_valid = Array.make n (-1);
          hits = Array.make n 0;
          min_pair = max_int;
          min_self = max_int;
          active_sources = 0;
          single_valid_dominated = true;
          volatile_slots;
          (* A point with no persistent subs still takes persistent
             events, on id [max_subs]: hence [max_subs + 1] bits. *)
          triggered = Array.make ((max_subs lsr word_shift) + 1) 0;
          n_triggered = 0;
          pair_min = Array.make volatile_pairs max_int;
          n_pairs = 0;
          last_tainted = Array.make n false;
          n_tainted = 0;
          digest = Hashtbl.hash name;
          event_count = 0;
        }
      in
      Hashtbl.replace reg.table name p;
      reg.points <- reg.points @ [ p ];
      p

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
    if n = 1 && tainted then trigger p (bucket_of data);
    (* Same-source consecutive interval. *)
    if p.last_valid.(source) >= 0 then
      p.min_self <- Int.min p.min_self (cycle - p.last_valid.(source));
    (* Pairwise intervals against other sources' latest firing. Only risky
       pairs — those with a secret-dependent member — are recorded: they
       are the ones that can leak, and the only ones used for guidance
       (§6.1: secret-dependent contention). With this request untainted
       and no other source's latest one tainted, no pair is risky. *)
    if tainted || p.n_tainted > Bool.to_int p.last_tainted.(source) then
      for other = 0 to n - 1 do
        if other <> source && p.last_valid.(other) >= 0 then begin
          let interval = cycle - p.last_valid.(other) in
          if tainted || p.last_tainted.(other) then begin
            p.min_pair <- Int.min p.min_pair interval;
            let pair = pair_sub n source other in
            let prev = p.pair_min.(pair) in
            if prev > interval then begin
              if prev = max_int then p.n_pairs <- p.n_pairs + 1;
              p.pair_min.(pair) <- interval
            end;
            if interval = 0 then trigger p ((pair * data_buckets) + bucket_of data)
          end
        end
      done
  end;
  p.last_valid.(source) <- cycle;
  if p.last_tainted.(source) <> tainted then begin
    p.last_tainted.(source) <- tainted;
    p.n_tainted <- p.n_tainted + if tainted then 1 else -1
  end

let grant reg p ~source =
  mark_active reg;
  if reg.open_ then p.digest <- mix p.digest (0x5A + source)

let persistent reg p ~tainted ~source ~sub ~data =
  mark_active reg;
  if sub < 0 then invalid_arg "Cpoint.persistent: negative sub";
  if reg.open_ then begin
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (0xBEEF + source)) (data land 0xFFFF);
    if tainted then begin
      let persistent_slots = max 1 (p.max_subs - p.volatile_slots) in
      trigger p (p.volatile_slots + (sub mod persistent_slots))
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

(* The order of polymorphic [compare] on (kind, sub) pairs: [Volatile]
   sorts before [Persistent], as constructor order does, then by sub. *)
let compare_sub (ka, sa) (kb, sb) =
  match (ka, kb) with
  | Volatile, Persistent -> -1
  | Persistent, Volatile -> 1
  | Volatile, Volatile | Persistent, Persistent -> Int.compare sa sb

(* Run results read the bitset from its top word down and cons, so the
   list comes out ascending with no sort; they stop once every set bit
   is read. *)
let triggered_subs p =
  let l = ref [] and left = ref p.n_triggered in
  let w = ref (Array.length p.triggered - 1) in
  while !left > 0 do
    let word = p.triggered.(!w) in
    if word <> 0 then
      for b = word_bits - 1 downto 0 do
        if word land (1 lsl b) <> 0 then begin
          let id = (!w lsl word_shift) lor b in
          let kind = if id < p.volatile_slots then Volatile else Persistent in
          l := (kind, id) :: !l;
          decr left
        end
      done;
    decr w
  done;
  !l

let pair_intervals p =
  let l = ref [] and left = ref p.n_pairs in
  let pair = ref (Array.length p.pair_min - 1) in
  while !left > 0 do
    let v = p.pair_min.(!pair) in
    if v <> max_int then begin
      l := (!pair, v) :: !l;
      decr left
    end;
    decr pair
  done;
  !l

(* Checkpoint support: a registry-level save holds one preallocated buffer
   per registered point (in [points] order — registration is structural,
   so the order is stable for a given config + core count) plus the
   window/cycle state. *)

type point_save = {
  ps_last_valid : int array;
  ps_hits : int array;
  ps_last_tainted : bool array;
  mutable ps_min_pair : int;
  mutable ps_min_self : int;
  mutable ps_active_sources : int;
  mutable ps_single_valid_dominated : bool;
  ps_triggered : int array;
  mutable ps_n_triggered : int;
  ps_pair_min : int array;
  mutable ps_n_pairs : int;
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
                 ps_min_pair = max_int;
                 ps_min_self = max_int;
                 ps_active_sources = 0;
                 ps_single_valid_dominated = true;
                 ps_triggered = Array.make (Array.length p.triggered) 0;
                 ps_n_triggered = 0;
                 ps_pair_min = Array.make (Array.length p.pair_min) max_int;
                 ps_n_pairs = 0;
                 ps_digest = 0;
                 ps_event_count = 0;
               } ))
           (points reg));
    sv_cycle = 0;
    sv_open = false;
    sv_first_open = -1;
    sv_last_open = -1;
  }

let copy_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let capture reg sv =
  Array.iter
    (fun (p, ps) ->
      copy_ints p.last_valid ps.ps_last_valid;
      copy_ints p.hits ps.ps_hits;
      Array.blit p.last_tainted 0 ps.ps_last_tainted 0 (Array.length p.sources);
      ps.ps_min_pair <- p.min_pair;
      ps.ps_min_self <- p.min_self;
      ps.ps_active_sources <- p.active_sources;
      ps.ps_single_valid_dominated <- p.single_valid_dominated;
      copy_ints p.triggered ps.ps_triggered;
      ps.ps_n_triggered <- p.n_triggered;
      copy_ints p.pair_min ps.ps_pair_min;
      ps.ps_n_pairs <- p.n_pairs;
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
      copy_ints ps.ps_last_valid p.last_valid;
      copy_ints ps.ps_hits p.hits;
      Array.blit ps.ps_last_tainted 0 p.last_tainted 0 (Array.length p.sources);
      p.n_tainted <-
        Array.fold_left (fun k b -> k + Bool.to_int b) 0 p.last_tainted;
      p.min_pair <- ps.ps_min_pair;
      p.min_self <- ps.ps_min_self;
      p.active_sources <- ps.ps_active_sources;
      p.single_valid_dominated <- ps.ps_single_valid_dominated;
      copy_ints ps.ps_triggered p.triggered;
      p.n_triggered <- ps.ps_n_triggered;
      copy_ints ps.ps_pair_min p.pair_min;
      p.n_pairs <- ps.ps_n_pairs;
      p.digest <- ps.ps_digest;
      p.event_count <- ps.ps_event_count)
    sv.sv_points;
  reg.cycle <- sv.sv_cycle;
  reg.open_ <- sv.sv_open;
  reg.first_open <- sv.sv_first_open;
  reg.last_open <- sv.sv_last_open

type snapshot = {
  point_name : string;
  s_component : Sonar_ir.Component.t;
  s_fanout : int;
  s_max_subs : int;
  s_single_valid : bool;
  s_n_sources : int;
  s_hits : int array;
  s_min_pair : int option;
  s_min_self : int option;
  s_triggered : (kind * int) list;
  s_pair_intervals : (int * int) list;
  s_digest : int;
}

(* A snapshot reads a minimum out as an option; the small intervals
   that nearly every minimum is share preallocated boxes. *)
let small_mins = Array.init 64 Option.some

let min_opt m =
  if m = max_int then None
  else if m >= 0 && m < Array.length small_mins then small_mins.(m)
  else Some m

let snapshot p =
  {
    point_name = p.name;
    s_component = p.component;
    s_fanout = p.fanout;
    s_max_subs = p.max_subs;
    s_single_valid = p.single_valid;
    s_n_sources = Array.length p.sources;
    s_hits = Array.copy p.hits;
    s_min_pair = min_opt p.min_pair;
    s_min_self = min_opt p.min_self;
    s_triggered = triggered_subs p;
    s_pair_intervals = pair_intervals p;
    s_digest = p.digest;
  }

(* Whether two runs' snapshots of one point differ, decided without the
   text: [diff_text] formats it only when a report is printed. The shape
   fields are equal on one registry, and the pair intervals, read only
   for guidance, are not compared. *)
let rec ints_equal_from (a : int array) b i =
  i < 0 || (a.(i) = b.(i) && ints_equal_from a b (i - 1))

let ints_equal (a : int array) b =
  Array.length a = Array.length b && ints_equal_from a b (Array.length a - 1)

let opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | Some _, None | None, Some _ -> false

let rec subs_equal a b =
  match (a, b) with
  | [], [] -> true
  | (ka, sa) :: ra, (kb, sb) :: rb -> ka = kb && sa = sb && subs_equal ra rb
  | _ :: _, [] | [], _ :: _ -> false

let differs sa sb =
  not
    (ints_equal sa.s_hits sb.s_hits
    && opt_equal sa.s_min_pair sb.s_min_pair
    && subs_equal sa.s_triggered sb.s_triggered
    && sa.s_digest = sb.s_digest)

type diff = { d_run0 : snapshot; d_run1 : snapshot }

(* Two runs on one registry snapshot the same points in the same order, so
   the lists pair by position. A point both runs left cold shares one
   snapshot, which [!=] skips. *)
let[@tail_mod_cons] rec diff_snapshots a b =
  match (a, b) with
  | [], [] -> []
  | sa :: a, sb :: b ->
      assert (String.equal sa.point_name sb.point_name);
      if sa != sb && differs sa sb then
        { d_run0 = sa; d_run1 = sb } :: diff_snapshots a b
      else diff_snapshots a b
  | _ :: _, [] | [], _ :: _ ->
      invalid_arg "Cpoint.diff_snapshots: runs of different registries"

let diff_point d = d.d_run0.point_name

let opt_str = function None -> "-" | Some v -> string_of_int v

let diff_text { d_run0 = sa; d_run1 = sb } =
  let diffs = ref [] in
  if not (ints_equal sa.s_hits sb.s_hits) then
    diffs :=
      Printf.sprintf "request counts %s vs %s"
        (String.concat "," (Array.to_list (Array.map string_of_int sa.s_hits)))
        (String.concat "," (Array.to_list (Array.map string_of_int sb.s_hits)))
      :: !diffs;
  if not (opt_equal sa.s_min_pair sb.s_min_pair) then
    diffs :=
      Printf.sprintf "min reqsIntvl %s vs %s" (opt_str sa.s_min_pair)
        (opt_str sb.s_min_pair)
      :: !diffs;
  if not (subs_equal sa.s_triggered sb.s_triggered) then
    diffs :=
      Printf.sprintf "triggered sub-points %d vs %d"
        (List.length sa.s_triggered) (List.length sb.s_triggered)
      :: !diffs;
  if !diffs = [] then "event stream differs"
  else String.concat "; " (List.rev !diffs)
