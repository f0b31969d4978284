type primop =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Not
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | Shl of int
  | Shr of int
  | Bits of int * int
  | Cat
  | Pad of int

type t =
  | Ref of string
  | Lit of { value : int64; width : int }
  | Mux of { sel : t; tval : t; fval : t }
  | Prim of { op : primop; args : t list }

let reference name = Ref name
let lit ?(width = 64) value = Lit { value; width = min width 63 }
let mux sel tval fval = Mux { sel; tval; fval }
let prim op args = Prim { op; args }

let is_lit = function Lit _ -> true | Ref _ | Mux _ | Prim _ -> false

let fold_refs f expr init =
  let rec go acc = function
    | Ref name -> f name acc
    | Lit _ -> acc
    | Mux { sel; tval; fval } -> go (go (go acc sel) tval) fval
    | Prim { args; _ } -> List.fold_left go acc args
  in
  go init expr

let refs expr =
  let seen = Hashtbl.create 8 in
  fold_refs
    (fun n acc ->
      if Hashtbl.mem seen n then acc
      else begin
        Hashtbl.add seen n ();
        n :: acc
      end)
    expr []
  |> List.rev

let count_muxes expr =
  let rec go acc = function
    | Ref _ | Lit _ -> acc
    | Mux { sel; tval; fval } -> go (go (go (acc + 1) sel) tval) fval
    | Prim { args; _ } -> List.fold_left go acc args
  in
  go 0 expr

let rec equal a b =
  match (a, b) with
  | Ref x, Ref y -> String.equal x y
  | Lit x, Lit y -> Int64.equal x.value y.value && x.width = y.width
  | Mux x, Mux y -> equal x.sel y.sel && equal x.tval y.tval && equal x.fval y.fval
  | Prim x, Prim y ->
      x.op = y.op
      && List.length x.args = List.length y.args
      && List.for_all2 equal x.args y.args
  | (Ref _ | Lit _ | Mux _ | Prim _), _ -> false

let primop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Not -> "not"
  | Eq -> "eq"
  | Neq -> "neq"
  | Lt -> "lt"
  | Leq -> "leq"
  | Gt -> "gt"
  | Geq -> "geq"
  | Shl n -> Printf.sprintf "shl<%d>" n
  | Shr n -> Printf.sprintf "shr<%d>" n
  | Bits (hi, lo) -> Printf.sprintf "bits<%d,%d>" hi lo
  | Cat -> "cat"
  | Pad n -> Printf.sprintf "pad<%d>" n

let primop_arity = function
  | Not | Shl _ | Shr _ | Bits _ | Pad _ -> 1
  | Add | Sub | And | Or | Xor | Eq | Neq | Lt | Leq | Gt | Geq | Cat -> 2

let pp_primop fmt op = Format.pp_print_string fmt (primop_name op)

let rec pp fmt = function
  | Ref name -> Format.pp_print_string fmt name
  | Lit { value; width } -> Format.fprintf fmt "UInt<%d>(%Ld)" width value
  | Mux { sel; tval; fval } ->
      Format.fprintf fmt "mux(%a, %a, %a)" pp sel pp tval pp fval
  | Prim { op; args } ->
      Format.fprintf fmt "%a(%a)" pp_primop op
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp)
        args
