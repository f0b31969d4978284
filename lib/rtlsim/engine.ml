open Sonar_ir

exception Unknown_signal of string

type backend = Tree | Compiled | Bitsliced

let max_lanes = 63

(* Slot-resolved engine core.

   Every signal is resolved to an integer slot at compile time; the value
   store is a flat native-[int] array. Widths are limited to 63 bits
   (Bitvec's invariant), which is exactly the width of OCaml's native
   immediate integer — so a stored value is the untagged 63-bit pattern of
   the signal, and reading or writing a slot never allocates. (An
   [int64 array] store would be unboxed in memory but every read would box
   its result without flambda, putting an allocation on the per-cycle hot
   path; the native-int store is what makes [step] allocation-free.)

   Three backends share the store:

   - [Tree]: the original tree-walking interpreter over [Expr.t], boxing a
     [Bitvec.t] per intermediate value. Kept as the reference oracle for
     differential testing and as the "uncompiled" baseline the bench
     compares against.
   - [Compiled]: each levelized expression is lowered once to an
     index-resolved closure [unit -> int] over the store, with widths and
     masks resolved statically. [step] then runs one flat closure sweep
     plus a register latch through a preallocated scratch array — no
     hashtable lookups, no [Bitvec] boxing, no per-cycle allocation.
   - [Bitsliced]: the store is transposed into bit planes — each signal
     owns [width] native ints, and plane [b] packs bit [b] of up to 63
     independent stimulus lanes (one lane per bit of the 63-bit native
     int). Each levelized expression is lowered once to a plane-wise
     closure: mux/and/or/xor/not/eq are pure bitwise ops stepping all
     lanes at once, add/sub are ripple-carry over planes, comparisons
     come from the borrow-out of a plane-wise subtraction. The register
     latch is the same preallocated scratch-array swap, so [step] stays
     allocation-free while advancing 63 testcases per call. *)

(* Name -> slot tables. [equal] tries physical equality first: stimulus
   usually pokes with the very strings the module declared (the names
   [Fmodule.inputs] returns), so a hit rarely compares bytes. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal a b = a == b || String.equal a b
  let hash (s : string) = Hashtbl.hash s
end)

type t = {
  store : int array;  (** slot -> current value (63-bit pattern, masked) *)
  widths : int array;  (** slot -> width *)
  names : string array;  (** slot -> name, declaration order *)
  slots : int Names.t;
  inputs : int Names.t;  (** input names only: the poke path's table *)
  comb_slots : int array;  (** combinational signals, levelized order *)
  comb_exprs : Expr.t array;
  comb_fns : (unit -> int) array;  (** [Compiled] only; value pre-masked *)
  reg_slots : int array;
  reg_drives : Expr.t option array;
  reg_fns : (unit -> int) array;  (** [Compiled] only; next value *)
  reg_resets : int array;
  scratch : int array;  (** next-register buffer, reused every [step] *)
  planes : int array array;
      (** [Bitsliced] only: slot -> [width] planes, plane [b] = bit [b] of
          all 63 lanes; [[||]] on the scalar backends *)
  bs_comb_fns : (unit -> unit) array;  (** [Bitsliced]: write slot planes *)
  bs_reg_fns : (unit -> unit) array;  (** [Bitsliced]: write reg scratch *)
  bs_reg_scratch : int array array;  (** per-register plane scratch, reused *)
  backend : backend;
  mutable settled : bool;
      (** combinational signals agree with the current inputs and
          registers; false after [compile], pokes, [reset] and the
          register latch *)
  mutable cycles : int;
}

let backend t = t.backend

let slot t name =
  match Names.find t.slots name with
  | s -> s
  | exception Not_found -> raise (Unknown_signal name)

(* --- native-int bit operations (mirroring Bitvec) --- *)

let native_mask w = if w >= 63 then -1 else (1 lsl w) - 1
let mask64 w = Int64.sub (Int64.shift_left 1L w) 1L

(* Validate a width the way [Bitvec.make] does, so compile-time width errors
   raise the same exception the interpreter would. *)
let check_width w =
  ignore (Bitvec.make ~width:w 0L);
  w

let to_native (v : Bitvec.t) = Int64.to_int (Bitvec.value v)

(* --- width inference, mirroring Bitvec's result widths --- *)

let rec infer_width_of lookup expr =
  match expr with
  | Expr.Ref name -> lookup name
  | Expr.Lit { width; _ } -> width
  | Expr.Mux { tval; fval; _ } ->
      max (infer_width_of lookup tval) (infer_width_of lookup fval)
  | Expr.Prim { op; args } -> (
      let arg n =
        match List.nth_opt args n with
        | Some e -> infer_width_of lookup e
        | None -> invalid_arg "Engine.infer_width: arity mismatch"
      in
      match op with
      | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq -> 1
      | Expr.Not -> arg 0
      | Expr.Shl n -> min 63 (arg 0 + n)
      | Expr.Shr n -> max 1 (arg 0 - n)
      | Expr.Bits (hi, lo) -> hi - lo + 1
      | Expr.Pad n -> n
      | Expr.Cat -> min 63 (arg 0 + arg 1)
      | Expr.Add | Expr.Sub | Expr.And | Expr.Or | Expr.Xor -> max (arg 0) (arg 1))

(* --- tree-walking interpreter (the reference oracle) --- *)

(* Reads the store directly, not through the settling public reads: [eval]
   runs inside [settle]. *)
let rec eval t expr =
  match expr with
  | Expr.Ref name ->
      let s = slot t name in
      Bitvec.make ~width:t.widths.(s) (Int64.of_int t.store.(s))
  | Expr.Lit { value; width } -> Bitvec.make ~width value
  | Expr.Mux { sel; tval; fval } ->
      (* Both branches are padded to the mux's result width (the wider of
         the two), as in FIRRTL; this keeps intermediate widths static, so
         the compiled path can resolve every mask at compile time. *)
      let tv = eval t tval in
      let fv = eval t fval in
      let w = max (Bitvec.width tv) (Bitvec.width fv) in
      Bitvec.pad w (if Bitvec.is_true (eval t sel) then tv else fv)
  | Expr.Prim { op; args } -> (
      match (op, args) with
      | Expr.Not, [ a ] -> Bitvec.lognot (eval t a)
      | Expr.Shl n, [ a ] -> Bitvec.shl n (eval t a)
      | Expr.Shr n, [ a ] -> Bitvec.shr n (eval t a)
      | Expr.Bits (hi, lo), [ a ] -> Bitvec.bits ~hi ~lo (eval t a)
      | Expr.Pad n, [ a ] -> Bitvec.pad n (eval t a)
      | Expr.Add, [ a; b ] -> Bitvec.add (eval t a) (eval t b)
      | Expr.Sub, [ a; b ] -> Bitvec.sub (eval t a) (eval t b)
      | Expr.And, [ a; b ] -> Bitvec.logand (eval t a) (eval t b)
      | Expr.Or, [ a; b ] -> Bitvec.logor (eval t a) (eval t b)
      | Expr.Xor, [ a; b ] -> Bitvec.logxor (eval t a) (eval t b)
      | Expr.Eq, [ a; b ] -> Bitvec.eq (eval t a) (eval t b)
      | Expr.Neq, [ a; b ] -> Bitvec.neq (eval t a) (eval t b)
      | Expr.Lt, [ a; b ] -> Bitvec.lt (eval t a) (eval t b)
      | Expr.Leq, [ a; b ] -> Bitvec.leq (eval t a) (eval t b)
      | Expr.Gt, [ a; b ] -> Bitvec.gt (eval t a) (eval t b)
      | Expr.Geq, [ a; b ] -> Bitvec.geq (eval t a) (eval t b)
      | Expr.Cat, [ a; b ] -> Bitvec.cat (eval t a) (eval t b)
      | _ -> invalid_arg "Engine.eval: arity mismatch")

(* --- closure compilation --- *)

(* Lower an expression to a closure over the store. Returns the closure and
   the expression's static width; the closure's result is always masked to
   that width, mirroring Bitvec's result-width rules bit for bit. Width
   errors (invalid slices, cat overflow) surface at compile time with the
   same [Bitvec.Width_error] the interpreter raises at eval time. *)
let rec compile_expr t expr : (unit -> int) * int =
  let go e = compile_expr t e in
  match expr with
  | Expr.Ref name ->
      let s = slot t name in
      let st = t.store in
      ((fun () -> Array.unsafe_get st s), t.widths.(s))
  | Expr.Lit { value; width } ->
      let w = check_width width in
      let v = Int64.to_int (Int64.logand value (mask64 w)) in
      ((fun () -> v), w)
  | Expr.Mux { sel; tval; fval } ->
      let fs, _ = go sel in
      let ft, wt = go tval in
      let ff, wf = go fval in
      (* Branch values are masked to their own width <= max wt wf, so the
         pad to the result width is a no-op on the value. *)
      ((fun () -> if fs () <> 0 then ft () else ff ()), max wt wf)
  | Expr.Prim { op; args } -> (
      match (op, args) with
      | Expr.Not, [ a ] ->
          let fa, wa = go a in
          let m = native_mask wa in
          ((fun () -> lnot (fa ()) land m), wa)
      | Expr.Shl n, [ a ] ->
          let fa, wa = go a in
          let w = min 63 (wa + n) in
          let m = native_mask w in
          if n >= 63 then ((fun () -> 0), w)
          else ((fun () -> (fa () lsl n) land m), w)
      | Expr.Shr n, [ a ] ->
          let fa, wa = go a in
          let w = max 1 (wa - n) in
          let m = native_mask w in
          if n >= 63 then ((fun () -> 0), w)
          else ((fun () -> (fa () lsr n) land m), w)
      | Expr.Bits (hi, lo), [ a ] ->
          if hi < lo || lo < 0 then
            raise
              (Bitvec.Width_error (Printf.sprintf "invalid slice [%d:%d]" hi lo));
          let fa, _ = go a in
          let w = check_width (hi - lo + 1) in
          let m = native_mask w in
          if lo >= 63 then ((fun () -> 0), w)
          else ((fun () -> (fa () lsr lo) land m), w)
      | Expr.Pad n, [ a ] ->
          let fa, _ = go a in
          let w = check_width n in
          let m = native_mask w in
          ((fun () -> fa () land m), w)
      | Expr.Cat, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          if wa + wb > 63 then
            raise (Bitvec.Width_error "cat result exceeds 63 bits");
          ((fun () -> (fa () lsl wb) lor fb ()), wa + wb)
      | Expr.Add, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let m = native_mask (max wa wb) in
          ((fun () -> (fa () + fb ()) land m), max wa wb)
      | Expr.Sub, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let m = native_mask (max wa wb) in
          ((fun () -> (fa () - fb ()) land m), max wa wb)
      | Expr.And, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          ((fun () -> fa () land fb ()), max wa wb)
      | Expr.Or, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          ((fun () -> fa () lor fb ()), max wa wb)
      | Expr.Xor, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          ((fun () -> fa () lxor fb ()), max wa wb)
      | Expr.Eq, [ a; b ] ->
          let fa, _ = go a in
          let fb, _ = go b in
          ((fun () -> if fa () = fb () then 1 else 0), 1)
      | Expr.Neq, [ a; b ] ->
          let fa, _ = go a in
          let fb, _ = go b in
          ((fun () -> if fa () <> fb () then 1 else 0), 1)
      | Expr.Lt, [ a; b ] ->
          let fa, _ = go a in
          let fb, _ = go b in
          (* Unsigned comparison of 63-bit patterns: flipping the native
             sign bit turns signed [<] into unsigned [<]. *)
          ((fun () -> if fa () lxor min_int < fb () lxor min_int then 1 else 0), 1)
      | Expr.Leq, [ a; b ] ->
          let fa, _ = go a in
          let fb, _ = go b in
          ((fun () -> if fa () lxor min_int <= fb () lxor min_int then 1 else 0), 1)
      | Expr.Gt, [ a; b ] ->
          let fa, _ = go a in
          let fb, _ = go b in
          ((fun () -> if fa () lxor min_int > fb () lxor min_int then 1 else 0), 1)
      | Expr.Geq, [ a; b ] ->
          let fa, _ = go a in
          let fb, _ = go b in
          ((fun () -> if fa () lxor min_int >= fb () lxor min_int then 1 else 0), 1)
      | _ -> invalid_arg "Engine.compile: arity mismatch")

(* Combinational assignment: the expression value re-masked to the signal's
   declared width (outputs may be narrower than their drive). *)
let compile_assign t ~width expr =
  let f, w = compile_expr t expr in
  if w <= width then f
  else
    let m = native_mask width in
    fun () -> f () land m

(* --- bit-sliced (plane-wise) compilation --- *)

(* Lower an expression to a plane-wise closure. The closure returns a
   preallocated buffer of exactly [w] planes ([w] = the expression's static
   width, the same width [compile_expr] computes); plane [b] packs bit [b]
   of all 63 lanes, so one bitwise op on a plane advances every lane at
   once. Buffers are allocated at compile time and reused on every call —
   stepping never allocates. Consumers read only planes below an argument's
   static width and treat higher planes as zero, which is the plane-wise
   mirror of the scalar backend's width masks: masking to [w] bits {e is}
   having only [w] planes. Width errors surface at compile time with the
   same [Bitvec.Width_error] the other backends raise. *)
let rec compile_bs_expr t expr : (unit -> int array) * int =
  let go e = compile_bs_expr t e in
  (* Per-lane borrow-out of the plane-wise subtraction [a - b], i.e. the
     63-lane mask of unsigned [a < b]. *)
  let borrow fa wa fb wb =
    let w = max wa wb in
    fun () ->
      let av = fa () and bv = fb () in
      let bor = ref 0 in
      for b = 0 to w - 1 do
        let x = if b < wa then Array.unsafe_get av b else 0 in
        let y = if b < wb then Array.unsafe_get bv b else 0 in
        bor := (lnot x land y) lor (lnot (x lxor y) land !bor)
      done;
      !bor
  in
  (* 63-lane mask of plane-wise [a <> b]. *)
  let differs fa wa fb wb =
    let w = max wa wb in
    fun () ->
      let av = fa () and bv = fb () in
      let acc = ref 0 in
      for b = 0 to w - 1 do
        let x = if b < wa then Array.unsafe_get av b else 0 in
        let y = if b < wb then Array.unsafe_get bv b else 0 in
        acc := !acc lor (x lxor y)
      done;
      !acc
  in
  let bit1 f =
    let out = Array.make 1 0 in
    ( (fun () ->
        Array.unsafe_set out 0 (f ());
        out),
      1 )
  in
  match expr with
  | Expr.Ref name ->
      let s = slot t name in
      let p = t.planes.(s) in
      ((fun () -> p), t.widths.(s))
  | Expr.Lit { value; width } ->
      let w = check_width width in
      let v = Int64.logand value (mask64 w) in
      let buf =
        Array.init w (fun b ->
            if Int64.logand (Int64.shift_right_logical v b) 1L = 1L then -1
            else 0)
      in
      ((fun () -> buf), w)
  | Expr.Mux { sel; tval; fval } ->
      let fs, ws = go sel in
      let ft, wt = go tval in
      let ff, wf = go fval in
      let w = max wt wf in
      let out = Array.make w 0 in
      ( (fun () ->
          (* The scalar backends select on [sel <> 0]; plane-wise that is
             the OR over every sel plane, one select mask for all lanes. *)
          let sv = fs () in
          let m = ref 0 in
          for b = 0 to ws - 1 do
            m := !m lor Array.unsafe_get sv b
          done;
          let m = !m in
          let tv = ft () and fv = ff () in
          for b = 0 to w - 1 do
            let tb = if b < wt then Array.unsafe_get tv b else 0 in
            let fb = if b < wf then Array.unsafe_get fv b else 0 in
            Array.unsafe_set out b ((tb land m) lor (fb land lnot m))
          done;
          out),
        w )
  | Expr.Prim { op; args } -> (
      match (op, args) with
      | Expr.Not, [ a ] ->
          let fa, wa = go a in
          let out = Array.make wa 0 in
          ( (fun () ->
              let av = fa () in
              for b = 0 to wa - 1 do
                Array.unsafe_set out b (lnot (Array.unsafe_get av b))
              done;
              out),
            wa )
      | Expr.Shl n, [ a ] ->
          let fa, wa = go a in
          let w = min 63 (wa + n) in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () in
              for b = 0 to w - 1 do
                Array.unsafe_set out b
                  (if b >= n && b - n < wa then Array.unsafe_get av (b - n)
                   else 0)
              done;
              out),
            w )
      | Expr.Shr n, [ a ] ->
          let fa, wa = go a in
          let w = max 1 (wa - n) in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () in
              for b = 0 to w - 1 do
                Array.unsafe_set out b
                  (if b + n < wa then Array.unsafe_get av (b + n) else 0)
              done;
              out),
            w )
      | Expr.Bits (hi, lo), [ a ] ->
          if hi < lo || lo < 0 then
            raise
              (Bitvec.Width_error (Printf.sprintf "invalid slice [%d:%d]" hi lo));
          let fa, wa = go a in
          let w = check_width (hi - lo + 1) in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () in
              for b = 0 to w - 1 do
                Array.unsafe_set out b
                  (if lo + b < wa then Array.unsafe_get av (lo + b) else 0)
              done;
              out),
            w )
      | Expr.Pad n, [ a ] ->
          let fa, wa = go a in
          let w = check_width n in
          let out = Array.make w 0 in
          let k = min wa w in
          ( (fun () ->
              Array.blit (fa ()) 0 out 0 k;
              out),
            w )
      | Expr.Cat, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          if wa + wb > 63 then
            raise (Bitvec.Width_error "cat result exceeds 63 bits");
          let out = Array.make (wa + wb) 0 in
          ( (fun () ->
              Array.blit (fb ()) 0 out 0 wb;
              Array.blit (fa ()) 0 out wb wa;
              out),
            wa + wb )
      | Expr.Add, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let w = max wa wb in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () and bv = fb () in
              let carry = ref 0 in
              for b = 0 to w - 1 do
                let x = if b < wa then Array.unsafe_get av b else 0 in
                let y = if b < wb then Array.unsafe_get bv b else 0 in
                let c = !carry in
                Array.unsafe_set out b (x lxor y lxor c);
                carry := (x land y) lor (c land (x lxor y))
              done;
              out),
            w )
      | Expr.Sub, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let w = max wa wb in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () and bv = fb () in
              let bor = ref 0 in
              for b = 0 to w - 1 do
                let x = if b < wa then Array.unsafe_get av b else 0 in
                let y = if b < wb then Array.unsafe_get bv b else 0 in
                let bin = !bor in
                Array.unsafe_set out b (x lxor y lxor bin);
                bor := (lnot x land y) lor (lnot (x lxor y) land bin)
              done;
              out),
            w )
      | Expr.And, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let w = max wa wb in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () and bv = fb () in
              for b = 0 to w - 1 do
                let x = if b < wa then Array.unsafe_get av b else 0 in
                let y = if b < wb then Array.unsafe_get bv b else 0 in
                Array.unsafe_set out b (x land y)
              done;
              out),
            w )
      | Expr.Or, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let w = max wa wb in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () and bv = fb () in
              for b = 0 to w - 1 do
                let x = if b < wa then Array.unsafe_get av b else 0 in
                let y = if b < wb then Array.unsafe_get bv b else 0 in
                Array.unsafe_set out b (x lor y)
              done;
              out),
            w )
      | Expr.Xor, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let w = max wa wb in
          let out = Array.make w 0 in
          ( (fun () ->
              let av = fa () and bv = fb () in
              for b = 0 to w - 1 do
                let x = if b < wa then Array.unsafe_get av b else 0 in
                let y = if b < wb then Array.unsafe_get bv b else 0 in
                Array.unsafe_set out b (x lxor y)
              done;
              out),
            w )
      | Expr.Eq, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let d = differs fa wa fb wb in
          bit1 (fun () -> lnot (d ()))
      | Expr.Neq, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let d = differs fa wa fb wb in
          bit1 d
      | Expr.Lt, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          bit1 (borrow fa wa fb wb)
      | Expr.Gt, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          bit1 (borrow fb wb fa wa)
      | Expr.Leq, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let gt = borrow fb wb fa wa in
          bit1 (fun () -> lnot (gt ()))
      | Expr.Geq, [ a; b ] ->
          let fa, wa = go a in
          let fb, wb = go b in
          let lt = borrow fa wa fb wb in
          bit1 (fun () -> lnot (lt ()))
      | _ -> invalid_arg "Engine.compile: arity mismatch")

(* Plane-wise assignment into a slot's planes, truncating or zero-extending
   to the signal's declared width (outputs may be narrower than their
   drive), mirroring [compile_assign]'s re-mask. *)
let compile_bs_assign t ~slot:s expr =
  let fn, w = compile_bs_expr t expr in
  let dst = t.planes.(s) in
  let width = Array.length dst in
  let k = min w width in
  if width <= w then fun () -> Array.blit (fn ()) 0 dst 0 k
  else fun () ->
    Array.blit (fn ()) 0 dst 0 k;
    Array.fill dst k (width - k) 0

(* Next-value closure for register [idx], writing into its plane scratch
   (the slot's planes must not change until every drive has been read). *)
let compile_bs_reg t ~idx ~slot:s drive =
  let scratch = t.bs_reg_scratch.(idx) in
  let width = Array.length scratch in
  match drive with
  | None ->
      let src = t.planes.(s) in
      fun () -> Array.blit src 0 scratch 0 width
  | Some expr ->
      let fn, w = compile_bs_expr t expr in
      let k = min w width in
      if width <= w then fun () -> Array.blit (fn ()) 0 scratch 0 k
      else fun () ->
        Array.blit (fn ()) 0 scratch 0 k;
        Array.fill scratch k (width - k) 0

(* Broadcast a scalar 63-bit pattern to all 63 lanes of a plane array. *)
let broadcast_planes (dst : int array) v =
  for b = 0 to Array.length dst - 1 do
    dst.(b) <- -((v lsr b) land 1)
  done

(* --- settle / step --- *)

let settle_tree t =
  let n = Array.length t.comb_slots in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get t.comb_slots i in
    let v = eval t (Array.unsafe_get t.comb_exprs i) in
    Array.unsafe_set t.store s (to_native (Bitvec.pad t.widths.(s) v))
  done

let settle_compiled t =
  let fns = t.comb_fns and slots = t.comb_slots and st = t.store in
  for i = 0 to Array.length fns - 1 do
    Array.unsafe_set st (Array.unsafe_get slots i) ((Array.unsafe_get fns i) ())
  done

let settle_bitsliced t =
  let fns = t.bs_comb_fns in
  for i = 0 to Array.length fns - 1 do
    (Array.unsafe_get fns i) ()
  done

(* Evaluation is lazy: whatever changes an input or a register clears
   [settled], and [settle] — called by [step] and by every public read —
   re-evaluates only then. A cycle of pokes, a step and any number of
   reads therefore settles once. *)
let settle t =
  if not t.settled then begin
    (match t.backend with
    | Tree -> settle_tree t
    | Compiled -> settle_compiled t
    | Bitsliced -> settle_bitsliced t);
    t.settled <- true
  end

let latch_tree t =
  let n = Array.length t.reg_slots in
  for i = 0 to n - 1 do
    let s = t.reg_slots.(i) in
    t.scratch.(i) <-
      (match t.reg_drives.(i) with
      | Some expr -> to_native (Bitvec.pad t.widths.(s) (eval t expr))
      | None -> t.store.(s))
  done;
  for i = 0 to n - 1 do
    t.store.(t.reg_slots.(i)) <- t.scratch.(i)
  done

let latch_compiled t =
  let fns = t.reg_fns and slots = t.reg_slots in
  let scratch = t.scratch and st = t.store in
  let n = Array.length slots in
  for i = 0 to n - 1 do
    Array.unsafe_set scratch i ((Array.unsafe_get fns i) ())
  done;
  for i = 0 to n - 1 do
    Array.unsafe_set st (Array.unsafe_get slots i) (Array.unsafe_get scratch i)
  done

let latch_bitsliced t =
  let fns = t.bs_reg_fns in
  for i = 0 to Array.length fns - 1 do
    (Array.unsafe_get fns i) ()
  done;
  let slots = t.reg_slots and scratch = t.bs_reg_scratch in
  for i = 0 to Array.length slots - 1 do
    let src = Array.unsafe_get scratch i in
    Array.blit src 0 t.planes.(Array.unsafe_get slots i) 0 (Array.length src)
  done

let step t =
  settle t;
  (match t.backend with
  | Tree -> latch_tree t
  | Compiled -> latch_compiled t
  | Bitsliced -> latch_bitsliced t);
  t.settled <- false;
  t.cycles <- t.cycles + 1

(* --- slot reads (each settles first) --- *)

(* Re-assemble one lane's value from a signal's planes: bit [b] of the
   result is bit [lane] of plane [b]. Allocation-free; for width-63
   signals the top plane lands on the native sign bit, preserving
   [read_slot]'s signed-pattern semantics. *)
let plane_read_lane (planes : int array) ~lane =
  let v = ref 0 in
  for b = Array.length planes - 1 downto 0 do
    v := (!v lsl 1) lor ((Array.unsafe_get planes b lsr lane) land 1)
  done;
  !v

let read_slot t s =
  settle t;
  match t.backend with
  | Tree | Compiled -> t.store.(s)
  | Bitsliced -> plane_read_lane t.planes.(s) ~lane:0

let read_slot64 t s =
  (* Stored values are masked to <= 63 bits, so clearing the sign-extension
     bit of [of_int] recovers the unsigned value. *)
  Int64.logand (Int64.of_int (read_slot t s)) 0x7FFF_FFFF_FFFF_FFFFL

let lanes t = match t.backend with Bitsliced -> max_lanes | Tree | Compiled -> 1

let read_slot_lane t s ~lane =
  settle t;
  match t.backend with
  | Bitsliced ->
      if lane < 0 || lane >= max_lanes then
        invalid_arg "Engine.read_slot_lane: lane out of range";
      plane_read_lane t.planes.(s) ~lane
  | Tree | Compiled ->
      if lane <> 0 then
        invalid_arg "Engine.read_slot_lane: scalar backend has a single lane";
      t.store.(s)

let read_slot_mask t s =
  settle t;
  match t.backend with
  | Bitsliced ->
      let p = t.planes.(s) in
      let acc = ref 0 in
      for b = 0 to Array.length p - 1 do
        acc := !acc lor Array.unsafe_get p b
      done;
      !acc
  | Tree | Compiled -> if t.store.(s) <> 0 then 1 else 0

let read_slot_lanes_into t s (dst : int array) =
  settle t;
  let n = Array.length dst in
  match t.backend with
  | Bitsliced ->
      if n > max_lanes then
        invalid_arg "Engine.read_slot_lanes_into: more than 63 lanes";
      Array.fill dst 0 n 0;
      let p = t.planes.(s) in
      for b = 0 to Array.length p - 1 do
        let pb = Array.unsafe_get p b in
        for lane = 0 to n - 1 do
          Array.unsafe_set dst lane
            (Array.unsafe_get dst lane lor (((pb lsr lane) land 1) lsl b))
        done
      done
  | Tree | Compiled ->
      if n <> 1 then
        invalid_arg "Engine.read_slot_lanes_into: scalar backend has one lane";
      dst.(0) <- t.store.(s)

let read_slot_lanes t s =
  let dst = Array.make (lanes t) 0 in
  read_slot_lanes_into t s dst;
  dst

(* --- compilation --- *)

let compile ?(backend = Compiled) (m : Fmodule.t) =
  let slots = Names.create 128 in
  let inputs = Names.create 16 in
  let decls = Hashtbl.create 128 in
  List.iter
    (fun s ->
      match Stmt.declared_name s with
      | Some n -> if not (Hashtbl.mem decls n) then Hashtbl.replace decls n s
      | None -> ())
    m.Fmodule.stmts;
  let rev_names = ref [] in
  let n_slots = ref 0 in
  let widths_tbl = Hashtbl.create 128 in
  let declare name width is_input =
    if not (Names.mem slots name) then begin
      Names.replace slots name !n_slots;
      Hashtbl.replace widths_tbl name width;
      if is_input then Names.replace inputs name !n_slots;
      rev_names := name :: !rev_names;
      incr n_slots
    end
  in
  (* First declare everything with an explicit width. *)
  List.iter
    (fun s ->
      match s with
      | Stmt.Input { name; width } -> declare name width true
      | Stmt.Output { name; width } | Stmt.Wire { name; width } ->
          declare name width false
      | Stmt.Reg { name; width; _ } -> declare name width false
      | Stmt.Node _ | Stmt.Connect _ -> ())
    m.Fmodule.stmts;
  (* Nodes take their expression's inferred width; forward references inside
     node chains are resolved by a pre-pass declaring them at 63 bits then
     refining in evaluation order. *)
  let defs = Fmodule.definitions m in
  let order_names = Levelize.order m in
  List.iter (fun name -> declare name 63 false) order_names;
  List.iter
    (fun name ->
      match Hashtbl.find_opt decls name with
      | Some (Stmt.Node _) | None ->
          let w =
            infer_width_of
              (fun n -> Hashtbl.find widths_tbl n)
              (Hashtbl.find defs name)
          in
          Hashtbl.replace widths_tbl name w
      | Some _ -> ())
    order_names;
  let names = Array.of_list (List.rev !rev_names) in
  let widths = Array.map (fun n -> Hashtbl.find widths_tbl n) names in
  let comb_slots =
    Array.of_list (List.map (fun n -> Names.find slots n) order_names)
  in
  let comb_exprs =
    Array.of_list (List.map (fun n -> Hashtbl.find defs n) order_names)
  in
  let reg_table = Fmodule.registers m in
  let reg_list =
    List.filter_map
      (function
        | Stmt.Reg { name; reset; _ } ->
            let drive = Option.join (Hashtbl.find_opt reg_table name) in
            let reset = Option.value ~default:0L reset in
            Some (Names.find slots name, drive, reset)
        | _ -> None)
      m.Fmodule.stmts
  in
  let reg_slots = Array.of_list (List.map (fun (s, _, _) -> s) reg_list) in
  let reg_drives = Array.of_list (List.map (fun (_, d, _) -> d) reg_list) in
  let reg_resets =
    Array.of_list
      (List.map
         (fun (s, _, r) -> Int64.to_int (Int64.logand r (mask64 widths.(s))))
         reg_list)
  in
  let t =
    {
      store = Array.make (Array.length names) 0;
      widths;
      names;
      slots;
      inputs;
      comb_slots;
      comb_exprs;
      comb_fns = [||];
      reg_slots;
      reg_drives;
      reg_fns = [||];
      reg_resets;
      scratch = Array.make (Array.length reg_slots) 0;
      planes =
        (if backend = Bitsliced then Array.map (fun w -> Array.make w 0) widths
         else [||]);
      bs_comb_fns = [||];
      bs_reg_fns = [||];
      bs_reg_scratch =
        (if backend = Bitsliced then
           Array.map (fun s -> Array.make widths.(s) 0) reg_slots
         else [||]);
      backend;
      settled = false;
      cycles = 0;
    }
  in
  let t =
    match backend with
    | Tree ->
        (* Validate widths eagerly, exactly as the compiled backends do:
           lower every expression through the scalar compiler and discard
           the closures, so [compile] is the only place width errors can
           surface on any backend. *)
        Array.iter2
          (fun s expr ->
            let (_ : unit -> int) = compile_assign t ~width:widths.(s) expr in
            ())
          comb_slots comb_exprs;
        Array.iteri
          (fun i drive ->
            match drive with
            | Some expr ->
                let (_ : unit -> int) =
                  compile_assign t ~width:widths.(reg_slots.(i)) expr
                in
                ()
            | None -> ())
          reg_drives;
        t
    | Compiled ->
        let comb_fns =
          Array.map2
            (fun s expr -> compile_assign t ~width:widths.(s) expr)
            comb_slots comb_exprs
        in
        let reg_fns =
          Array.map2
            (fun s drive ->
              match drive with
              | Some expr -> compile_assign t ~width:widths.(s) expr
              | None ->
                  let st = t.store in
                  fun () -> Array.unsafe_get st s)
            reg_slots reg_drives
        in
        { t with comb_fns; reg_fns }
    | Bitsliced ->
        let bs_comb_fns =
          Array.map2
            (fun s expr -> compile_bs_assign t ~slot:s expr)
            comb_slots comb_exprs
        in
        let bs_reg_fns =
          Array.init (Array.length reg_slots) (fun i ->
              compile_bs_reg t ~idx:i ~slot:reg_slots.(i) reg_drives.(i))
        in
        { t with bs_comb_fns; bs_reg_fns }
  in
  (* Initialise registers to reset values; the first read or step
     settles. *)
  (match t.backend with
  | Tree | Compiled ->
      Array.iteri (fun i s -> t.store.(s) <- t.reg_resets.(i)) t.reg_slots
  | Bitsliced ->
      Array.iteri
        (fun i s -> broadcast_planes t.planes.(s) t.reg_resets.(i))
        t.reg_slots);
  t

(* --- peek / poke / reset --- *)

(* Resolve a poke target through the input-only table: one lookup, no
   allocation. A miss is either an unknown name or a non-input. *)
let input_slot t name =
  match Names.find t.inputs name with
  | s -> s
  | exception Not_found ->
      let (_ : int) = slot t name in
      raise (Unknown_signal (name ^ " is not an input"))

(* Drive input slot [s] with [v] masked to its width, on every lane. *)
let poke_slot t s v =
  let v = v land native_mask t.widths.(s) in
  (match t.backend with
  | Tree | Compiled -> t.store.(s) <- v
  | Bitsliced ->
      (* Scalar pokes broadcast to every lane, so lane-oblivious consumers
         (single-stimulus tests, the scalar monitor) keep working
         unchanged. *)
      broadcast_planes t.planes.(s) v);
  t.settled <- false

let poke_int t name v = poke_slot t (input_slot t name) v
let poke t name v = poke_int t name (to_native v)

let poke_lane t name ~lane v =
  let s = input_slot t name in
  match t.backend with
  | Bitsliced ->
      if lane < 0 || lane >= max_lanes then
        invalid_arg "Engine.poke_lane: lane out of range";
      let p = t.planes.(s) in
      let m = 1 lsl lane in
      let nm = lnot m in
      for b = 0 to Array.length p - 1 do
        if (v lsr b) land 1 = 1 then p.(b) <- p.(b) lor m
        else p.(b) <- p.(b) land nm
      done;
      t.settled <- false
  | Tree | Compiled ->
      if lane <> 0 then
        invalid_arg "Engine.poke_lane: scalar backend has a single lane";
      poke_slot t s v

(* Bit [b] of lane [lane]'s value. *)
let lane_bit (vals : int array) b lane = (Array.unsafe_get vals lane lsr b) land 1

(* Transpose a full batch of [max_lanes] values into [planes]. Each plane
   gathers its lanes in four quarters (lanes 0-15, 16-31, 32-47, 48-62),
   each into its own accumulator that shifts in one lane at a time from
   the top, so the four gathers overlap instead of chaining through one
   register and no lane needs a variable shift; [poke_lanes] checked the
   batch length. *)
let transpose_full (vals : int array) (planes : int array) =
  for b = 0 to Array.length planes - 1 do
    let q0 = ref (lane_bit vals b 15) and q1 = ref (lane_bit vals b 31) in
    let q2 = ref (lane_bit vals b 47) and q3 = ref 0 in
    for i = 14 downto 0 do
      q0 := (!q0 lsl 1) lor lane_bit vals b i;
      q1 := (!q1 lsl 1) lor lane_bit vals b (i + 16);
      q2 := (!q2 lsl 1) lor lane_bit vals b (i + 32);
      q3 := (!q3 lsl 1) lor lane_bit vals b (i + 48)
    done;
    Array.unsafe_set planes b (!q0 lor (!q1 lsl 16) lor (!q2 lsl 32) lor (!q3 lsl 48))
  done

let poke_lanes t name vals =
  let s = input_slot t name in
  match t.backend with
  | Bitsliced ->
      let n = Array.length vals in
      if n > max_lanes then invalid_arg "Engine.poke_lanes: more than 63 lanes";
      let p = t.planes.(s) in
      if n = max_lanes then transpose_full vals p
      else
        for b = 0 to Array.length p - 1 do
          let m = ref 0 in
          for lane = 0 to n - 1 do
            m := !m lor (((vals.(lane) lsr b) land 1) lsl lane)
          done;
          p.(b) <- !m
        done;
      t.settled <- false
  | Tree | Compiled ->
      if Array.length vals <> 1 then
        invalid_arg "Engine.poke_lanes: scalar backend has a single lane";
      poke_slot t s vals.(0)

let peek_int t name = read_slot t (slot t name)

let peek t name =
  let s = slot t name in
  Bitvec.make ~width:t.widths.(s) (Int64.of_int (read_slot t s))

let cycle t = t.cycles

let reset t =
  (match t.backend with
  | Tree | Compiled ->
      Array.iteri (fun i s -> t.store.(s) <- t.reg_resets.(i)) t.reg_slots;
      Names.iter (fun _ s -> t.store.(s) <- 0) t.inputs
  | Bitsliced ->
      Array.iteri
        (fun i s -> broadcast_planes t.planes.(s) t.reg_resets.(i))
        t.reg_slots;
      Names.iter
        (fun _ s ->
          let p = t.planes.(s) in
          Array.fill p 0 (Array.length p) 0)
        t.inputs);
  t.settled <- false;
  t.cycles <- 0

let signal_names t = Array.to_list t.names
