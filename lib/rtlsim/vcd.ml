type entry = {
  code : string;  (** VCD identifier code *)
  slot : int;
  width : int;
  mutable prev : int;  (** last dumped raw value *)
  mutable has_prev : bool;
}

type t = {
  engine : Engine.t;
  buf : Buffer.t;
  entries : entry array;
  mutable timestamp : int;
}

(* Short printable identifier codes starting at '!', then two-char codes. *)
let id_code i =
  let alphabet = 94 in
  let chr k = Char.chr (33 + k) in
  if i < alphabet then String.make 1 (chr i)
  else
    let hi = (i / alphabet) - 1 and lo = i mod alphabet in
    Printf.sprintf "%c%c" (chr hi) (chr lo)

let create ?signals engine =
  let names = Option.value ~default:(Engine.signal_names engine) signals in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$timescale 1ns $end\n$scope module dut $end\n";
  let entries =
    List.mapi
      (fun i name ->
        (* Resolve each signal to its engine slot once; dumping reads slots
           directly instead of hashing names every timestep. *)
        let slot = Engine.slot engine name in
        let code = id_code i in
        let width = Engine.slot_width engine slot in
        Buffer.add_string buf
          (Printf.sprintf "$var wire %d %s %s $end\n" width code name);
        { code; slot; width; prev = 0; has_prev = false })
      names
    |> Array.of_list
  in
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  { engine; buf; entries; timestamp = 0 }

let binary_of_value v width =
  let b = Bytes.make width '0' in
  for i = 0 to width - 1 do
    if Int64.logand (Int64.shift_right_logical v (width - 1 - i)) 1L = 1L then
      Bytes.set b i '1'
  done;
  Bytes.to_string b

let dump t =
  Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.timestamp);
  Array.iter
    (fun e ->
      let v = Engine.read_slot t.engine e.slot in
      if (not e.has_prev) || e.prev <> v then begin
        e.prev <- v;
        e.has_prev <- true;
        let v64 = Engine.read_slot64 t.engine e.slot in
        if e.width = 1 then
          Buffer.add_string t.buf (Printf.sprintf "%Ld%s\n" v64 e.code)
        else
          Buffer.add_string t.buf
            (Printf.sprintf "b%s %s\n" (binary_of_value v64 e.width) e.code)
      end)
    t.entries;
  t.timestamp <- t.timestamp + 1

let contents t = Buffer.contents t.buf
