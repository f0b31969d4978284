(* An open-addressed table of 8-byte words. A key is a word index,
   [addr lsr 3] of the unsigned 64-bit address: 61 bits, so a native int
   that is never negative, which leaves -1 free to mark an empty slot.
   Slot [i]'s word is bytes [8i .. 8i+7] of [words], little-endian, and
   is zeroed when its key is inserted. Keys are never removed. *)
type t = {
  mutable keys : int array;
  mutable words : Bytes.t;
  mutable count : int;
}

let empty = -1
let initial_slots = 32

let create () =
  {
    keys = Array.make initial_slots empty;
    words = Bytes.create (8 * initial_slots);
    count = 0;
  }

let copy t =
  { keys = Array.copy t.keys; words = Bytes.copy t.words; count = t.count }

(* Word indices wrap like the addresses they come from. *)
let index_mask = (1 lsl 61) - 1
let[@inline] word_index addr = Int64.to_int (Int64.shift_right_logical addr 3)

let[@inline] hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* The slot holding [k], or the empty slot where it would go. *)
let rec probe keys mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = empty then i else probe keys mask k ((i + 1) land mask)

let[@inline] find_slot t k =
  let mask = Array.length t.keys - 1 in
  probe t.keys mask k (hash k land mask)

let[@inline] word_at t i = Bytes.get_int64_le t.words (i lsl 3)
let[@inline] set_word_at t i v = Bytes.set_int64_le t.words (i lsl 3) v

let[@inline] get t k =
  let i = find_slot t k in
  if Array.unsafe_get t.keys i = empty then 0L else word_at t i

let grow t =
  let keys = t.keys and words = t.words in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n empty;
  t.words <- Bytes.create (8 * n);
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = find_slot t k in
        t.keys.(j) <- k;
        Bytes.blit words (i lsl 3) t.words (j lsl 3) 8
      end)
    keys

(* The slot of [k], inserted with a zero word when absent. The table is
   kept at most half full, so a probe always ends. *)
let rec slot_for_write t k =
  let i = find_slot t k in
  if t.keys.(i) = k then i
  else if 2 * (t.count + 1) <= Array.length t.keys then begin
    t.keys.(i) <- k;
    t.count <- t.count + 1;
    set_word_at t i 0L;
    i
  end
  else begin
    grow t;
    slot_for_write t k
  end

let check_size size =
  match size with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg (Printf.sprintf "Memory: size %d" size)

(* The low [bytes] bytes set, for [bytes] < 8. *)
let[@inline] low_bytes bytes = Int64.sub (Int64.shift_left 1L (8 * bytes)) 1L

(* [w] with the bits of [mask] taken from [v]. *)
let[@inline] merge w v mask =
  Int64.logor (Int64.logand w (Int64.lognot mask)) (Int64.logand v mask)

(* An access of [size] bytes at byte offset [off] of word [k] reaches
   into word [k + 1] when [off + size > 8]. *)
let load t ~addr ~size =
  check_size size;
  let off = Int64.to_int addr land 7 and k = word_index addr in
  let lo = get t k in
  if off + size <= 8 then begin
    let v = Int64.shift_right_logical lo (8 * off) in
    if size = 8 then v else Int64.logand v (low_bytes size)
  end
  else begin
    let hi = get t ((k + 1) land index_mask) in
    let v =
      Int64.logor
        (Int64.shift_right_logical lo (8 * off))
        (Int64.shift_left hi (64 - (8 * off)))
    in
    if size = 8 then v else Int64.logand v (low_bytes size)
  end

let load_signed t ~addr ~size =
  let v = load t ~addr ~size in
  if size = 8 then v
  else
    let bits = 8 * size in
    let sign = Int64.shift_left 1L (bits - 1) in
    if Int64.logand v sign <> 0L then Int64.sub v (Int64.shift_left 1L bits) else v

let store t ~addr ~size v =
  check_size size;
  let off = Int64.to_int addr land 7 and k = word_index addr in
  let i = slot_for_write t k in
  if off + size <= 8 then begin
    if size = 8 then set_word_at t i v
    else
      set_word_at t i
        (merge (word_at t i) (Int64.shift_left v (8 * off))
           (Int64.shift_left (low_bytes size) (8 * off)))
  end
  else begin
    (* Bytes [off .. 7] of word [k], then the rest from word [k + 1]. *)
    set_word_at t i
      (merge (word_at t i) (Int64.shift_left v (8 * off))
         (Int64.shift_left (-1L) (8 * off)));
    let j = slot_for_write t ((k + 1) land index_mask) in
    set_word_at t j
      (merge (word_at t j)
         (Int64.shift_right_logical v (64 - (8 * off)))
         (low_bytes (off + size - 8)))
  end
