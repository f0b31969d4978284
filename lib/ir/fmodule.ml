type t = {
  name : string;
  component : Component.t;
  stmts : Stmt.t list;
}

let make ?(component = Component.Other) name stmts = { name; component; stmts }

let signals m =
  List.filter_map
    (fun s ->
      match Stmt.declared_name s with
      | Some n -> Some (n, Option.value ~default:0 (Stmt.declared_width s))
      | None -> None)
    m.stmts

let inputs m =
  List.filter_map
    (function Stmt.Input { name; width } -> Some (name, width) | _ -> None)
    m.stmts

let is_register m =
  let regs = Hashtbl.create 16 in
  List.iter
    (function Stmt.Reg { name; _ } -> Hashtbl.replace regs name () | _ -> ())
    m.stmts;
  fun name -> Hashtbl.mem regs name

let definitions m =
  let reg = is_register m in
  let defs = Hashtbl.create 64 in
  List.iter
    (function
      | Stmt.Node { name; expr } -> Hashtbl.replace defs name expr
      | Stmt.Connect { dst; src } when not (reg dst) -> Hashtbl.replace defs dst src
      | Stmt.Connect _ | Stmt.Input _ | Stmt.Output _ | Stmt.Wire _ | Stmt.Reg _
        ->
          ())
    m.stmts;
  defs

let registers m =
  let reg = is_register m in
  let regs = Hashtbl.create 16 in
  List.iter
    (function
      | Stmt.Reg { name; _ } -> Hashtbl.replace regs name None
      | Stmt.Connect { dst; src } when reg dst -> Hashtbl.replace regs dst (Some src)
      | Stmt.Connect _ | Stmt.Input _ | Stmt.Output _ | Stmt.Wire _ | Stmt.Node _
        ->
          ())
    m.stmts;
  regs

let stmt_count m = List.length m.stmts

let pp fmt m =
  Format.fprintf fmt "@[<v 2>module %s [%a] :@,%a@]" m.name Component.pp
    m.component
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Stmt.pp)
    m.stmts
