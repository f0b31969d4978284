type t = { name : string; modules : Fmodule.t list }

let make name modules = { name; modules }

let find_module c name =
  List.find_opt (fun (m : Fmodule.t) -> String.equal m.name name) c.modules

let module_count c = List.length c.modules

let stmt_count c =
  List.fold_left (fun acc m -> acc + Fmodule.stmt_count m) 0 c.modules

let pp fmt c =
  Format.fprintf fmt "@[<v 2>circuit %s :@,%a@]" c.name
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Fmodule.pp)
    c.modules
