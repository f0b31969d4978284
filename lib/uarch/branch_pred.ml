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

(* Prediction only looks keys up, so a copy that rebinds every key
   predicts alike whatever its tables' bucket layout. *)
let copy_table ~src ~dst =
  Pcs.reset dst;
  Pcs.iter (Pcs.replace dst) src

let copy ~src ~dst =
  copy_table ~src:src.btb ~dst:dst.btb;
  copy_table ~src:src.counters ~dst:dst.counters

let clone t =
  let c = { btb = Pcs.create 1; counters = Pcs.create 1 } in
  copy ~src:t ~dst:c;
  c
