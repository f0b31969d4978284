(* Keyed by full pc, with monomorphic equality and hashing. *)
module Pcs = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash pc = Itbl.hash (Int64.to_int pc)
end)

type t = {
  btb : int64 Pcs.t;
  counters : int Pcs.t;  (* 2-bit saturating, 0-3 *)
}

let create (_cfg : Config.t) = { btb = Pcs.create 64; counters = Pcs.create 64 }
let counter t pc = Option.value ~default:1 (Pcs.find_opt t.counters pc)

let predict t ~pc ~taken ~target =
  let dir_pred = counter t pc >= 2 in
  let target_known =
    match Pcs.find_opt t.btb pc with
    | Some btb_target -> Int64.equal btb_target target
    | None -> false
  in
  if taken then dir_pred && target_known else not dir_pred

let predict_jump t ~pc ~target =
  match Pcs.find_opt t.btb pc with
  | Some btb_target -> Int64.equal btb_target target
  | None -> false

let update t ~pc ~taken ~target =
  let c = counter t pc in
  Pcs.replace t.counters pc (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  if taken then Pcs.replace t.btb pc target

let update_jump t ~pc ~target = Pcs.replace t.btb pc target

type save = {
  mutable s_btb : (int64 * int64) list;
  mutable s_counters : (int64 * int) list;
}

let make_save () = { s_btb = []; s_counters = [] }

let capture t sv =
  sv.s_btb <- Pcs.fold (fun k v acc -> (k, v) :: acc) t.btb [];
  sv.s_counters <- Pcs.fold (fun k v acc -> (k, v) :: acc) t.counters []

let restore t sv =
  Pcs.reset t.btb;
  List.iter (fun (k, v) -> Pcs.replace t.btb k v) sv.s_btb;
  Pcs.reset t.counters;
  List.iter (fun (k, v) -> Pcs.replace t.counters k v) sv.s_counters
