type wb_class = Wb_alu | Wb_mul | Wb_div | Wb_mem

(* Writeback requests queue in three parallel arrays. The queue's order
   is that of a list with the newest request at its head: slot [len - 1]
   is the head and slot 0 the tail, so a request is an append. *)
type wb_queue = {
  mutable ids : int array;
  mutable sources : int array;  (* [wb_source] of the class *)
  mutable tainted : bool array;
  mutable len : int;
}

let make_queue cap =
  {
    ids = Array.make cap 0;
    sources = Array.make cap 0;
    tainted = Array.make cap false;
    len = 0;
  }

type t = {
  cfg : Config.t;
  reg : Cpoint.registry;
  mutable alu_used : int;  (** ALU issue slots used this cycle *)
  mutable mem_used : int;
  mutable mul_issued : bool;  (** pipelined IMUL accepts one op per cycle *)
  mutable div_busy_until : int;
  mutable mdu_busy_until : int;
  wb : wb_queue;
  granted : int array;  (* ids granted this cycle, ascending *)
  p_wb : Cpoint.t;
  p_issue_alu : Cpoint.t;
  p_issue_mem : Cpoint.t;
  p_div : Cpoint.t;
  p_mdu : Cpoint.t option;
}

let create (cfg : Config.t) reg ~core =
  let open Sonar_ir.Component in
  let pt ?single_valid name component sources =
    Cpoint.point reg
      ~name:(Printf.sprintf "c%d.%s" core name)
      ~component ~sources ?single_valid ()
  in
  {
    cfg;
    reg;
    alu_used = 0;
    mem_used = 0;
    mul_issued = false;
    div_busy_until = -1;
    mdu_busy_until = -1;
    wb = make_queue (Int.max 8 cfg.rob_entries);
    granted = Array.make (Int.max 0 cfg.wb_ports) 0;
    p_wb = pt "exec.wb_port" Exec [ "alu"; "imul"; "div"; "mem" ];
    p_issue_alu =
      pt ~single_valid:true "exec.issue_alu" Exec
        (List.init cfg.int_alus (Printf.sprintf "slot%d"));
    p_issue_mem =
      pt ~single_valid:true "exec.issue_mem" Exec
        (List.init cfg.mem_units (Printf.sprintf "slot%d"));
    p_div = pt "exec.div_req" Exec [ "older"; "younger" ];
    p_mdu = (if cfg.unified_mdu then Some (pt "mdu.req" Exec [ "mul"; "div" ]) else None);
  }

let new_cycle t =
  t.alu_used <- 0;
  t.mem_used <- 0;
  t.mul_issued <- false

let try_issue_alu t ~cycle ~tainted =
  if t.alu_used < t.cfg.int_alus then begin
    Cpoint.request ~tainted t.reg t.p_issue_alu ~source:t.alu_used ~data:cycle;
    t.alu_used <- t.alu_used + 1;
    cycle + 1
  end
  else -1

(* Operand-dependent latencies. The divider iterates over the dividend's
   significant bits; the paper observes 57-70 cycle effects on BOOM (S9) and
   4-63 on NutShell's MDU (S13). *)
let bits64 v =
  let rec go acc v = if Int64.equal v 0L then acc else go (acc + 1) (Int64.shift_right_logical v 1) in
  go 0 v

let div_latency (cfg : Config.t) operand =
  if cfg.unified_mdu then 20 + (bits64 operand * 2 / 3) else 55 + (bits64 operand / 8)

let mul_latency (cfg : Config.t) = if cfg.unified_mdu then 8 else 3

let try_issue_mul t ~cycle ~operand ~tainted =
  if t.cfg.unified_mdu then begin
    let p = Option.get t.p_mdu in
    Cpoint.request ~tainted t.reg p ~source:0 ~data:(Int64.to_int operand);
    if t.mdu_busy_until >= cycle then -1
    else begin
      let lat = mul_latency t.cfg in
      t.mdu_busy_until <- cycle + lat - 1;
      Cpoint.grant t.reg p ~source:0;
      cycle + lat
    end
  end
  else if t.mul_issued then -1
  else begin
    t.mul_issued <- true;
    cycle + mul_latency t.cfg
  end

let try_issue_div t ~cycle ~operand ~tainted =
  if t.cfg.unified_mdu then begin
    let p = Option.get t.p_mdu in
    Cpoint.request ~tainted t.reg p ~source:1 ~data:(Int64.to_int operand);
    if t.mdu_busy_until >= cycle then -1
    else begin
      let lat = div_latency t.cfg operand in
      t.mdu_busy_until <- cycle + lat - 1;
      Cpoint.grant t.reg p ~source:1;
      cycle + lat
    end
  end
  else begin
    Cpoint.request ~tainted t.reg t.p_div
      ~source:(if t.div_busy_until >= cycle then 0 else 1)
      ~data:(Int64.to_int operand);
    if t.div_busy_until >= cycle then -1
    else begin
      let lat = div_latency t.cfg operand in
      t.div_busy_until <- cycle + lat - 1;
      cycle + lat
    end
  end

let try_issue_mem t ~cycle ~tainted =
  if t.mem_used < t.cfg.mem_units then begin
    Cpoint.request ~tainted t.reg t.p_issue_mem ~source:t.mem_used ~data:cycle;
    t.mem_used <- t.mem_used + 1;
    true
  end
  else false

let wb_source = function Wb_alu -> 0 | Wb_mul -> 1 | Wb_div -> 2 | Wb_mem -> 3

(* Grow [q] so it holds at least [n] requests. *)
let reserve q n =
  if n > Array.length q.ids then begin
    let cap = Int.max n (2 * Array.length q.ids) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 q.len;
      b
    in
    q.ids <- extend q.ids 0;
    q.sources <- extend q.sources 0;
    q.tainted <- extend q.tainted false
  end

(* Checkpoint support: a checkpoint is a clone, and [copy] is capture,
   restore and the cold rewind.  [granted] is written and read within
   one cycle, so it is not copied. *)
let copy ~src ~dst =
  dst.alu_used <- src.alu_used;
  dst.mem_used <- src.mem_used;
  dst.mul_issued <- src.mul_issued;
  dst.div_busy_until <- src.div_busy_until;
  dst.mdu_busy_until <- src.mdu_busy_until;
  let q = src.wb and d = dst.wb in
  reserve d q.len;
  Array.blit q.ids 0 d.ids 0 q.len;
  Array.blit q.sources 0 d.sources 0 q.len;
  Array.blit q.tainted 0 d.tainted 0 q.len;
  d.len <- q.len

let clone t =
  let c = { t with wb = make_queue 8; granted = Array.copy t.granted } in
  copy ~src:t ~dst:c;
  c

(* Compact the survivors in place, keeping their order. *)
let purge_writeback t ~keep =
  let q = t.wb in
  let n = ref 0 in
  for i = 0 to q.len - 1 do
    if keep q.ids.(i) then begin
      q.ids.(!n) <- q.ids.(i);
      q.sources.(!n) <- q.sources.(i);
      q.tainted.(!n) <- q.tainted.(i);
      incr n
    end
  done;
  q.len <- !n

let request_writeback t cls ~id ~tainted =
  let q = t.wb in
  reserve q (q.len + 1);
  q.ids.(q.len) <- id;
  q.sources.(q.len) <- wb_source cls;
  q.tainted.(q.len) <- tainted;
  q.len <- q.len + 1

let writeback_pending t = t.wb.len > 0

(* Every queued request asks for a port, head first (newest first). Then
   an insertion sort makes the queue ascend from head to tail by (source,
   id) — class priority, then oldest — keeping queue order among equal
   requests, as a stable list sort would: a request moves towards the
   tail only past requests strictly before it. The [wb_ports] requests
   nearest the head win, in ascending order; the losers stay queued in
   sorted order, and later requests queue ahead of them. The losers are
   sorted already, so the sort is about linear. *)
let arbitrate_writeback t =
  let q = t.wb in
  for i = q.len - 1 downto 0 do
    Cpoint.request ~tainted:q.tainted.(i) t.reg t.p_wb ~source:q.sources.(i)
      ~data:q.ids.(i)
  done;
  for i = 1 to q.len - 1 do
    let id = q.ids.(i) and src = q.sources.(i) and tainted = q.tainted.(i) in
    let j = ref (i - 1) in
    while
      !j >= 0
      && (q.sources.(!j) < src || (q.sources.(!j) = src && q.ids.(!j) < id))
    do
      q.ids.(!j + 1) <- q.ids.(!j);
      q.sources.(!j + 1) <- q.sources.(!j);
      q.tainted.(!j + 1) <- q.tainted.(!j);
      decr j
    done;
    q.ids.(!j + 1) <- id;
    q.sources.(!j + 1) <- src;
    q.tainted.(!j + 1) <- tainted
  done;
  let n = Int.min (Array.length t.granted) q.len in
  for k = 0 to n - 1 do
    let i = q.len - 1 - k in
    t.granted.(k) <- q.ids.(i);
    Cpoint.grant t.reg t.p_wb ~source:q.sources.(i)
  done;
  q.len <- q.len - n;
  n

let granted t k = t.granted.(k)
