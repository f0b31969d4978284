type fill_info = { filler_seq : int; fill_cycle : int; filler_tainted : bool }

type line = {
  mutable tag : int;  (* [addr lsr (offset_bits + index_bits)], lossless *)
  mutable valid : bool;
  mutable dirty : bool;
  mutable lru : int;
  mutable info : fill_info;
}

type victim = { victim_addr : int64; was_dirty : bool }

type t = {
  lines : line array;  (* flat: set [s], way [w] at slot [s * ways + w] *)
  line_bytes : int;
  n_sets : int;
  ways : int;
  index_bits : int;
  offset_bits : int;
  mutable tick : int;
  (* Evicted lines by line number ([line_key]), with the evicting fill's
     seq and taint packed as [seq lsl 1 lor taint] (S12). *)
  evicted : Itbl.t;
  (* Touched-line index: the slot of every valid line, each exactly once.
     [fill] appends a slot when it installs into an invalid way, and a
     valid line is only ever invalidated by [restore], which rebuilds the
     index — so [restore] and [capture] visit the lines a run filled
     instead of the whole cache. *)
  touched : int array;
  mutable n_touched : int;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let create (cfg : Config.cache_cfg) =
  let total = cfg.size_kb * 1024 in
  let n_sets = max 1 (total / (cfg.ways * cfg.line_bytes)) in
  let n_lines = n_sets * cfg.ways in
  {
    lines =
      Array.init n_lines (fun _ ->
          {
            tag = 0;
            valid = false;
            dirty = false;
            lru = 0;
            info = { filler_seq = -1; fill_cycle = -1; filler_tainted = false };
          });
    line_bytes = cfg.line_bytes;
    n_sets;
    ways = cfg.ways;
    index_bits = log2 n_sets;
    offset_bits = log2 cfg.line_bytes;
    tick = 0;
    evicted = Itbl.create 64;
    touched = Array.make n_lines 0;
    n_touched = 0;
  }

let n_sets t = t.n_sets

let set_index t addr =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical addr t.offset_bits)
       (Int64.of_int (t.n_sets - 1)))

let tag_of t addr =
  Int64.to_int (Int64.shift_right_logical addr (t.offset_bits + t.index_bits))

let line_key t addr = Int64.to_int (Int64.shift_right_logical addr t.offset_bits)

let line_addr t addr =
  Int64.logand addr (Int64.lognot (Int64.of_int (t.line_bytes - 1)))

(* The slot of the valid line holding [addr], or -1. A loop rather than
   a local recursive function, which would allocate a closure per access. *)
let find_line t addr =
  let base = set_index t addr * t.ways in
  let tag = tag_of t addr in
  let found = ref (-1) and slot = ref base in
  while !found < 0 && !slot < base + t.ways do
    let l = t.lines.(!slot) in
    if l.valid && l.tag = tag then found := !slot;
    incr slot
  done;
  !found

let probe t addr = find_line t addr >= 0

let lookup t addr =
  let slot = find_line t addr in
  if slot < 0 then None
  else begin
    let line = t.lines.(slot) in
    t.tick <- t.tick + 1;
    line.lru <- t.tick;
    Some line.info
  end

let key_of_tag t set_idx tag = (tag lsl t.index_bits) lor set_idx

let reconstruct_addr t set_idx tag =
  Int64.shift_left (Int64.of_int (key_of_tag t set_idx tag)) t.offset_bits

let fill t addr ~seq ~cycle ~tainted =
  let set_idx = set_index t addr in
  let base = set_idx * t.ways in
  let tag = tag_of t addr in
  (* Reuse an existing line for the same tag, else the LRU way (the last
     invalid way if there is one). *)
  let line =
    match find_line t addr with
    | slot when slot >= 0 -> t.lines.(slot)
    | _ ->
        let v = ref base in
        for slot = base to base + t.ways - 1 do
          let l = t.lines.(slot) in
          if not l.valid then v := slot
          else if t.lines.(!v).valid && l.lru < t.lines.(!v).lru then v := slot
        done;
        let l = t.lines.(!v) in
        if not l.valid then begin
          t.touched.(t.n_touched) <- !v;
          t.n_touched <- t.n_touched + 1
        end;
        l
  in
  let evicted =
    if line.valid && line.tag <> tag then begin
      Itbl.replace t.evicted (key_of_tag t set_idx line.tag)
        ((seq lsl 1) lor Bool.to_int tainted);
      Some
        { victim_addr = reconstruct_addr t set_idx line.tag; was_dirty = line.dirty }
    end
    else None
  in
  t.tick <- t.tick + 1;
  line.tag <- tag;
  line.valid <- true;
  line.dirty <- false;
  line.lru <- t.tick;
  line.info <- { filler_seq = seq; fill_cycle = cycle; filler_tainted = tainted };
  evicted

let mark_dirty t addr =
  let slot = find_line t addr in
  if slot >= 0 then t.lines.(slot).dirty <- true;
  slot >= 0

let is_dirty t addr =
  let slot = find_line t addr in
  slot >= 0 && t.lines.(slot).dirty

let recently_evicted t addr =
  match Itbl.find t.evicted (line_key t addr) ~default:min_int with
  | packed when packed = min_int -> None
  | packed -> Some (packed asr 1, packed land 1 = 1)

(* Checkpoint support: capture the full observable cache state into a
   save, and restore it later.  Only the indexed lines are saved: stale
   [tag]/[lru]/[info] on invalid lines are never read before [fill]
   overwrites them (victim selection among invalid ways ignores them).
   Restore first invalidates the currently indexed lines, then reinstalls
   each saved line in place and makes the saved slots the index, so any
   line filled between capture and restore disappears and the LRU clock
   rewinds — restored state is bit-identical to the captured one.  A
   capture of a fresh cache saves no line, and restoring it is the
   rewind to cold start. *)

(* The line arrays grow at [capture] to the lines it saves, so a save
   costs what the cache held, not its capacity. *)
type save = {
  mutable n_saved : int;
  mutable s_slot : int array;
  mutable s_tag : int array;
  mutable s_dirty : bool array;
  mutable s_lru : int array;
  mutable s_info : fill_info array;
  mutable s_tick : int;
  s_evicted : Itbl.t;
}

let make_save () =
  {
    n_saved = 0;
    s_slot = [||];
    s_tag = [||];
    s_dirty = [||];
    s_lru = [||];
    s_info = [||];
    s_tick = 0;
    s_evicted = Itbl.create 8;
  }

(* Room for [n] saved lines, doubling so a reused save stops growing. *)
let reserve sv n =
  if n > Array.length sv.s_slot then begin
    let cap = Int.max n (2 * Array.length sv.s_slot) in
    sv.s_slot <- Array.make cap 0;
    sv.s_tag <- Array.make cap 0;
    sv.s_dirty <- Array.make cap false;
    sv.s_lru <- Array.make cap 0;
    sv.s_info <-
      Array.make cap { filler_seq = -1; fill_cycle = -1; filler_tainted = false }
  end

let capture t sv =
  reserve sv t.n_touched;
  for i = 0 to t.n_touched - 1 do
    let slot = t.touched.(i) in
    let l = t.lines.(slot) in
    sv.s_slot.(i) <- slot;
    sv.s_tag.(i) <- l.tag;
    sv.s_dirty.(i) <- l.dirty;
    sv.s_lru.(i) <- l.lru;
    sv.s_info.(i) <- l.info
  done;
  sv.n_saved <- t.n_touched;
  sv.s_tick <- t.tick;
  Itbl.blit ~src:t.evicted ~dst:sv.s_evicted

let restore t sv =
  for i = 0 to t.n_touched - 1 do
    t.lines.(t.touched.(i)).valid <- false
  done;
  for i = 0 to sv.n_saved - 1 do
    let slot = sv.s_slot.(i) in
    let l = t.lines.(slot) in
    l.tag <- sv.s_tag.(i);
    l.valid <- true;
    l.dirty <- sv.s_dirty.(i);
    l.lru <- sv.s_lru.(i);
    l.info <- sv.s_info.(i);
    t.touched.(i) <- slot
  done;
  t.n_touched <- sv.n_saved;
  t.tick <- sv.s_tick;
  Itbl.blit ~src:sv.s_evicted ~dst:t.evicted
