type t = {
  mutable keys : int array;  (* [empty] marks a free slot *)
  mutable vals : int array;
  (* Slot index: the slot of every binding, in insertion order, in
     [used.(0 .. size - 1)] — so [blit] visits the bindings instead of
     every slot. Bindings are never removed one by one, so the index only
     grows until [blit] rebuilds it. *)
  mutable used : int array;
  mutable size : int;
}

let empty = -1

(* The load factor stays at or below one half, so a table of [cap] slots
   holds at most [cap / 2 + 1] bindings (the last one momentarily, before
   [replace] grows the table). *)
let make cap =
  {
    keys = Array.make cap empty;
    vals = Array.make cap 0;
    used = Array.make ((cap / 2) + 1) 0;
    size = 0;
  }

let create n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  make !cap

(* Multiply to spread low bits upward, then fold the high half down: the
   slot mask keeps only low bits, and keys can be dense (ids) or share
   low bits (aligned addresses). *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let clear t =
  let keys = t.keys and used = t.used in
  for i = 0 to t.size - 1 do
    keys.(used.(i)) <- empty
  done;
  t.size <- 0

(* The slot holding [k], or the free slot that ends its probe sequence.
   The load factor stays at or below one half, so a free slot exists. *)
let slot keys k =
  let mask = Array.length keys - 1 in
  let i = ref (hash k land mask) in
  while
    let x = Array.unsafe_get keys !i in
    x <> k && x <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

(* A negative key is never bound; without the guard, [-1] would match
   the free-slot marker. *)
let find t k ~default =
  if k < 0 then default
  else
    let i = slot t.keys k in
    if t.keys.(i) = k then t.vals.(i) else default

let mem t k = k >= 0 && t.keys.(slot t.keys k) = k

(* Bind [k] at its free slot [i], in a table with room for it. *)
let bind t i k v =
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.used.(t.size) <- i;
  t.size <- t.size + 1

let insert t k v = bind t (slot t.keys k) k v

(* Rehash into twice the slots, in insertion order. *)
let grow t =
  let keys = t.keys and vals = t.vals and used = t.used and n = t.size in
  let bigger = make (2 * Array.length keys) in
  t.keys <- bigger.keys;
  t.vals <- bigger.vals;
  t.used <- bigger.used;
  t.size <- 0;
  for j = 0 to n - 1 do
    let s = used.(j) in
    insert t keys.(s) vals.(s)
  done

let replace t k v =
  if k < 0 then invalid_arg "Itbl.replace: negative key";
  let i = slot t.keys k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    bind t i k v;
    if 2 * t.size > Array.length t.keys then grow t
  end

(* Element-wise loops over [int array]s, not [Array.blit]: the tables
   are long-lived, and a blit into a major-heap array pays a write
   barrier per word, which typed int stores skip. *)
let copy_bindings ~src ~dst =
  clear dst;
  let cap = Array.length src.keys in
  if Array.length dst.keys > cap then
    (* Rehash into the larger table rather than shrink it. *)
    for j = 0 to src.size - 1 do
      let s = src.used.(j) in
      insert dst src.keys.(s) src.vals.(s)
    done
  else begin
    if Array.length dst.keys < cap then begin
      let fresh = make cap in
      dst.keys <- fresh.keys;
      dst.vals <- fresh.vals;
      dst.used <- fresh.used
    end;
    (* Same capacity: every binding keeps its slot, and so its probe
       sequence. *)
    let sk = src.keys and sv = src.vals and su = src.used in
    let dk = dst.keys and dv = dst.vals and du = dst.used in
    for j = 0 to src.size - 1 do
      let s = su.(j) in
      dk.(s) <- sk.(s);
      dv.(s) <- sv.(s);
      du.(j) <- s
    done;
    dst.size <- src.size
  end

(* A table already holds its own bindings; clearing it first would lose
   them. *)
let blit ~src ~dst = if src != dst then copy_bindings ~src ~dst
