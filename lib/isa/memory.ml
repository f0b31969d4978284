type t = (int64, int64) Hashtbl.t

let create () : t = Hashtbl.create 256
let copy = Hashtbl.copy

let word_addr addr = Int64.logand addr (Int64.lognot 7L)
let byte_off addr = Int64.to_int (Int64.logand addr 7L)
let get_word t addr = Option.value ~default:0L (Hashtbl.find_opt t (word_addr addr))

let check_size size =
  match size with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg (Printf.sprintf "Memory: size %d" size)

let load_byte t addr =
  let w = get_word t addr in
  Int64.logand (Int64.shift_right_logical w (8 * byte_off addr)) 0xFFL

let store_byte t addr v =
  let wa = word_addr addr in
  let off = 8 * byte_off addr in
  let w = get_word t addr in
  let cleared = Int64.logand w (Int64.lognot (Int64.shift_left 0xFFL off)) in
  Hashtbl.replace t wa
    (Int64.logor cleared (Int64.shift_left (Int64.logand v 0xFFL) off))

let load t ~addr ~size =
  check_size size;
  let rec go acc i =
    if i >= size then acc
    else
      let byte = load_byte t (Int64.add addr (Int64.of_int i)) in
      go (Int64.logor acc (Int64.shift_left byte (8 * i))) (i + 1)
  in
  go 0L 0

let load_signed t ~addr ~size =
  let v = load t ~addr ~size in
  if size = 8 then v
  else
    let bits = 8 * size in
    let sign = Int64.shift_left 1L (bits - 1) in
    if Int64.logand v sign <> 0L then Int64.sub v (Int64.shift_left 1L bits) else v

let store t ~addr ~size v =
  check_size size;
  for i = 0 to size - 1 do
    store_byte t
      (Int64.add addr (Int64.of_int i))
      (Int64.shift_right_logical v (8 * i))
  done
