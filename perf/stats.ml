(* Order statistics with the same conventions as Python's [statistics]
   module, so numbers printed here match what a Python reader of the JSONL
   output computes. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(xs, n=4)] (the default "exclusive" method): the
   first and third quartile. Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)
