type t = int

let of_int i =
  if i < 0 || i > 31 then invalid_arg (Printf.sprintf "Reg.of_int %d" i);
  i

let to_int t = t
let x0 = 0
let zero = 0

let abi_names =
  [|
    "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0"; "a1";
    "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
    "s8"; "s9"; "s10"; "s11"; "t3"; "t4"; "t5"; "t6";
  |]

let name t = abi_names.(t)

let of_name s =
  let numeric () =
    if String.length s > 1 && s.[0] = 'x' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some i when i >= 0 && i <= 31 -> Some i
      | Some _ | None -> None
    else None
  in
  let rec find i =
    if i > 31 then None
    else if String.equal abi_names.(i) s then Some i
    else find (i + 1)
  in
  match find 0 with Some r -> Some r | None -> numeric ()

let equal = Int.equal
let compare = Int.compare
let pp fmt t = Format.pp_print_string fmt (name t)
let all = List.init 32 (fun i -> i)
