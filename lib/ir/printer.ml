let with_buffer pp v =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  pp fmt v;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let expr_to_string = with_buffer Expr.pp
let circuit_to_string c = with_buffer Circuit.pp c ^ "\n"
