type priv = User | Machine

type t = {
  base : int64;
  instrs : Instr.t array;
  data : (int64 * int64) list;
  start_priv : priv;
  protected_range : (int64 * int64) option;
}

let default_base = 0x8000_0000L

let make ?(base = default_base) ?(data = []) ?(start_priv = User)
    ?(protected_range = None) instrs =
  { base; instrs = Array.of_list instrs; data; start_priv; protected_range }

let length t = Array.length t.instrs

let pc_to_index t pc =
  let off = Int64.sub pc t.base in
  if Int64.rem off 4L <> 0L then -1
  else
    let i = Int64.to_int (Int64.div off 4L) in
    if i >= 0 && i < Array.length t.instrs then i else -1

let index_to_pc t i = Int64.add t.base (Int64.of_int (4 * i))

let pp fmt t =
  Array.iteri
    (fun i instr ->
      Format.fprintf fmt "%08Lx:  %a@." (index_to_pc t i) Instr.pp instr)
    t.instrs
