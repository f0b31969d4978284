open Sonar_uarch

let key (c : Core_model.commit_record) = c.c_eff.Sonar_isa.Golden.index

let align commits0 commits1 f =
  let a = Array.of_list commits0 in
  let b = Array.of_list commits1 in
  let na = Array.length a and nb = Array.length b in
  (* Common head. *)
  let head = ref 0 in
  while !head < na && !head < nb && key a.(!head) = key b.(!head) do
    incr head
  done;
  (* Common tail, not overlapping the head. *)
  let tail = ref 0 in
  while
    !tail < na - !head
    && !tail < nb - !head
    && key a.(na - 1 - !tail) = key b.(nb - 1 - !tail)
  do
    incr tail
  done;
  let prev (c : Core_model.commit_record array) i =
    if i = 0 then 0 else c.(i - 1).c_cycle
  in
  let visit i i' =
    f i a.(i) b.(i')
      ~ccd0:(a.(i).c_cycle - prev a i)
      ~ccd1:(b.(i').c_cycle - prev b i')
  in
  for i = 0 to !head - 1 do
    visit i i
  done;
  for j = 0 to !tail - 1 do
    visit (na - !tail + j) (nb - !tail + j)
  done;
  !head + !tail < max na nb
