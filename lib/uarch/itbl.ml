type t = {
  mutable keys : int array;  (* [empty] marks a free slot *)
  mutable vals : int array;
  mutable size : int;
}

let empty = -1

let create n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap empty; vals = Array.make !cap 0; size = 0 }

(* Multiply to spread low bits upward, then fold the high half down: the
   slot mask keeps only low bits, and keys can be dense (ids) or share
   low bits (aligned addresses). *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let length t = t.size

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.size <- 0
  end

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

let grow t =
  let keys = t.keys and vals = t.vals in
  t.keys <- Array.make (2 * Array.length keys) empty;
  t.vals <- Array.make (2 * Array.length keys) 0;
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot t.keys k in
        t.keys.(i) <- k;
        t.vals.(i) <- vals.(j)
      end)
    keys

let replace t k v =
  if k < 0 then invalid_arg "Itbl.replace: negative key";
  let i = slot t.keys k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

let keys t =
  let a = Array.make t.size 0 and n = ref 0 in
  Array.iter
    (fun k ->
      if k <> empty then begin
        a.(!n) <- k;
        incr n
      end)
    t.keys;
  a

let blit ~src ~dst =
  let cap = Array.length src.keys in
  if Array.length dst.keys > cap then begin
    (* Rehash into the larger table rather than shrink it. *)
    clear dst;
    Array.iteri
      (fun j k ->
        if k <> empty then begin
          let i = slot dst.keys k in
          dst.keys.(i) <- k;
          dst.vals.(i) <- src.vals.(j)
        end)
      src.keys
  end
  else begin
    if Array.length dst.keys < cap then begin
      dst.keys <- Array.make cap empty;
      dst.vals <- Array.make cap 0
    end;
    Array.blit src.keys 0 dst.keys 0 cap;
    Array.blit src.vals 0 dst.vals 0 cap
  end;
  dst.size <- src.size
