type wb_class = Wb_alu | Wb_mul | Wb_div | Wb_mem

type pending_wb = { id : int; cls : wb_class; since : int; tainted : bool }

type t = {
  cfg : Config.t;
  reg : Cpoint.registry;
  mutable alu_used : int;  (** ALU issue slots used this cycle *)
  mutable mem_used : int;
  mutable mul_issued : bool;  (** pipelined IMUL accepts one op per cycle *)
  mutable div_busy_until : int;
  mutable mdu_busy_until : int;
  mutable pending_wb : pending_wb list;
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
    pending_wb = [];
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
    Cpoint.request ~tainted t.reg t.p_issue_alu ~source:t.alu_used ~data:(Int64.of_int cycle);
    t.alu_used <- t.alu_used + 1;
    Some (cycle + 1)
  end
  else None

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
    Cpoint.request ~tainted t.reg p ~source:0 ~data:operand;
    if t.mdu_busy_until >= cycle then None
    else begin
      let lat = mul_latency t.cfg in
      t.mdu_busy_until <- cycle + lat - 1;
      Cpoint.grant t.reg p ~source:0;
      Some (cycle + lat)
    end
  end
  else if t.mul_issued then None
  else begin
    t.mul_issued <- true;
    Some (cycle + mul_latency t.cfg)
  end

let try_issue_div t ~cycle ~operand ~tainted =
  if t.cfg.unified_mdu then begin
    let p = Option.get t.p_mdu in
    Cpoint.request ~tainted t.reg p ~source:1 ~data:operand;
    if t.mdu_busy_until >= cycle then None
    else begin
      let lat = div_latency t.cfg operand in
      t.mdu_busy_until <- cycle + lat - 1;
      Cpoint.grant t.reg p ~source:1;
      Some (cycle + lat)
    end
  end
  else begin
    Cpoint.request ~tainted t.reg t.p_div
      ~source:(if t.div_busy_until >= cycle then 0 else 1)
      ~data:operand;
    if t.div_busy_until >= cycle then None
    else begin
      let lat = div_latency t.cfg operand in
      t.div_busy_until <- cycle + lat - 1;
      Some (cycle + lat)
    end
  end

let try_issue_mem t ~cycle ~tainted =
  if t.mem_used < t.cfg.mem_units then begin
    Cpoint.request ~tainted t.reg t.p_issue_mem ~source:t.mem_used ~data:(Int64.of_int cycle);
    t.mem_used <- t.mem_used + 1;
    true
  end
  else false

let wb_source = function Wb_alu -> 0 | Wb_mul -> 1 | Wb_div -> 2 | Wb_mem -> 3

let reset t =
  t.alu_used <- 0;
  t.mem_used <- 0;
  t.mul_issued <- false;
  t.div_busy_until <- -1;
  t.mdu_busy_until <- -1;
  t.pending_wb <- []

type save = {
  mutable s_alu_used : int;
  mutable s_mem_used : int;
  mutable s_mul_issued : bool;
  mutable s_div_busy_until : int;
  mutable s_mdu_busy_until : int;
  mutable s_pending_wb : pending_wb list;
}

let make_save () =
  {
    s_alu_used = 0;
    s_mem_used = 0;
    s_mul_issued = false;
    s_div_busy_until = -1;
    s_mdu_busy_until = -1;
    s_pending_wb = [];
  }

let capture t sv =
  sv.s_alu_used <- t.alu_used;
  sv.s_mem_used <- t.mem_used;
  sv.s_mul_issued <- t.mul_issued;
  sv.s_div_busy_until <- t.div_busy_until;
  sv.s_mdu_busy_until <- t.mdu_busy_until;
  (* [pending_wb] holds immutable records; sharing the spine is safe. *)
  sv.s_pending_wb <- t.pending_wb

let restore t sv =
  t.alu_used <- sv.s_alu_used;
  t.mem_used <- sv.s_mem_used;
  t.mul_issued <- sv.s_mul_issued;
  t.div_busy_until <- sv.s_div_busy_until;
  t.mdu_busy_until <- sv.s_mdu_busy_until;
  t.pending_wb <- sv.s_pending_wb

let purge_writeback t ~keep =
  t.pending_wb <- List.filter (fun p -> keep p.id) t.pending_wb

let request_writeback t cls ~id ~cycle ~tainted =
  t.pending_wb <- { id; cls; since = cycle; tainted } :: t.pending_wb

let arbitrate_writeback t ~cycle =
  match t.pending_wb with
  | [] -> []
  | pending ->
      List.iter
        (fun p ->
          Cpoint.request ~tainted:p.tainted t.reg t.p_wb ~source:(wb_source p.cls)
            ~data:(Int64.of_int p.id))
        pending;
      let sorted =
        List.sort
          (fun a b ->
            match compare (wb_source a.cls) (wb_source b.cls) with
            | 0 -> compare a.id b.id
            | c -> c)
          pending
      in
      let rec split n acc = function
        | [] -> (List.rev acc, [])
        | rest when n = 0 -> (List.rev acc, rest)
        | x :: rest -> split (n - 1) (x :: acc) rest
      in
      let granted, losers = split t.cfg.wb_ports [] sorted in
      List.iter (fun p -> Cpoint.grant t.reg t.p_wb ~source:(wb_source p.cls)) granted;
      ignore cycle;
      t.pending_wb <- losers;
      List.map (fun p -> p.id) granted
