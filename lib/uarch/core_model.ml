open Sonar_isa

type commit_record = {
  c_eff : Golden.effect;
  c_cycle : int;
  c_dispatch : int;
}

type uop_state = Dispatched | Issued | Wait_mem | Exec_done | Done

type op_class = Class_alu | Class_mul | Class_div | Class_load | Class_store

let classify (i : Instr.t) =
  match i with
  | Instr.Rtype ((MUL | MULH | MULHSU | MULHU | MULW), _, _, _) -> Class_mul
  | Instr.Rtype ((DIV | DIVU | REM | REMU | DIVW | DIVUW | REMW | REMUW), _, _, _)
    ->
      Class_div
  | _ when Instr.is_load i -> Class_load
  | _ when Instr.is_store i -> Class_store
  | _ -> Class_alu

type uop = {
  eff : Golden.effect;
  trace_pos : int;  (* -1 for transient micro-ops *)
  transient : bool;
  secret_dep : bool;
  id : int;
  cls : op_class;
  dest : int;  (* destination register index, -1 for none *)
  src1 : int;  (* source register indices, -1 for none *)
  src2 : int;
  mutable prod1 : uop;
  mutable prod2 : uop;
      (* youngest older writer of [src1] / [src2], linked at dispatch;
         [no_uop] for x0, no source, or no writer in the ROB *)
  mutable state : uop_state;
  mutable complete_at : int;
  mutable dispatch_cycle : int;
  mutable mispredicted : bool;
  mutable resolved_target : int64;  (* actual target, for predictor training *)
  mutable tainted : bool;
      (* secret-dependent, directly (static region / transient) or through
         a register data dependency resolved at dispatch *)
}

(* Placeholder effect for "nothing left to fetch" and for [no_uop]. *)
let no_eff =
  {
    Golden.seq = -1;
    index = -1;
    pc = 0L;
    instr = Instr.Fence;
    wb = None;
    mem = None;
    taken = None;
    fault = None;
    transient = false;
  }

(* The shared "no producer" link and ring filler: [Done] since forever, so
   it reads as a ready value.  Shared by every core in every domain, it is
   never written — the stages mutate only uops inside a ring's length. *)
let rec no_uop =
  {
    eff = no_eff;
    trace_pos = -1;
    transient = false;
    secret_dep = false;
    id = -1;
    cls = Class_alu;
    dest = -1;
    src1 = -1;
    src2 = -1;
    prod1 = no_uop;
    prod2 = no_uop;
    state = Done;
    complete_at = min_int;
    dispatch_cycle = -1;
    mispredicted = false;
    resolved_target = 0L;
    tainted = false;
  }

type fetch_source = Arch | Trans of Golden.effect array * int

type stbuf_state = Drain_new | Drain_waiting

type stbuf_entry = {
  sb_uop : uop;
  mutable sb_state : stbuf_state;
}

let no_entry = { sb_uop = no_uop; sb_state = Drain_new }

(* Fixed-capacity FIFO over an array allocated once, oldest entry first.
   Slots outside [0, length) hold stale entries or the filler and are
   never read. *)
module Ring = struct
  type 'a t = { buf : 'a array; mutable head : int; mutable len : int }

  let create cap filler = { buf = Array.make (Int.max cap 1) filler; head = 0; len = 0 }
  let length r = r.len
  let is_empty r = r.len = 0

  let clear r =
    r.head <- 0;
    r.len <- 0

  (* Without flambda these are calls unless marked [@inline], and every
     ROB visit makes one. *)
  let[@inline] slot r i =
    let j = r.head + i in
    if j >= Array.length r.buf then j - Array.length r.buf else j

  let[@inline] get r i = r.buf.(slot r i)
  let[@inline] peek r = r.buf.(r.head)

  (* Capacities come from the configuration's admission checks (fetch
     buffer, ROB, store queue), so a full push is a model bug. *)
  let push r x =
    if r.len >= Array.length r.buf then invalid_arg "Core_model.Ring.push: full";
    r.buf.(slot r r.len) <- x;
    r.len <- r.len + 1

  let pop r =
    r.head <- slot r 1;
    r.len <- r.len - 1

  let truncate r n = r.len <- n
end

type t = {
  cfg : Config.t;
  reg : Cpoint.registry;
  ms : Memsys.t;
  core_id : int;
  mutable trace : Golden.effect array;
  transients : (int, Golden.effect array) Hashtbl.t;
  mutable secret_range : (int * int) option;
  drives_window : bool;
  mutable secret_total : int;
  mutable secret_committed : int;
  (* Fetch state *)
  mutable fetch_pos : int;
  mutable fetch_source : fetch_source;
  mutable fetch_stall_until : int;
  mutable fetch_halted : bool;
  mutable blocked_on_branch : int;  (* uop id, -1 for none *)
  lines : Itbl.t;
      (* per ICache line number ([Memsys.ifetch_line_key]): the cycle the line is
         available, or [line_pending] while its refill is in flight *)
  (* Pipeline structures, oldest first; ids increase from head to tail. *)
  fb : uop Ring.t;
  rob : uop Ring.t;
  stbuf : stbuf_entry Ring.t;
  taint_reg : bool array;  (* architectural-register taint, dispatch order *)
  last_writer : uop array;
      (* per register, the youngest dispatched writer still in the ROB (or
         since committed); [no_uop] when there is none *)
  mutable rob_dests : int;  (* ROB uops with a destination register *)
  mutable rob_loads : int;
  mutable rob_stores : int;
  mutable rob_dispatched : int;  (* ROB uops in [Dispatched] *)
  mutable rob_inflight : int;  (* ROB uops in [Issued] or [Wait_mem] *)
  mutable next_id : int;
  pool : Exec_unit.t;
  bp : Branch_pred.t;
  (* Results *)
  mutable commit_log : commit_record list;  (* reverse order *)
  mutable transient_issued : int;
  mutable pending_early_squash : uop;  (* [no_uop] for none *)
  (* Contention points owned by the core. *)
  p_fb_enq : Cpoint.t;
  p_pc_sel : Cpoint.t;
  p_icache_mshr : Cpoint.t;
  p_bpd_update : Cpoint.t;
  p_rob_enq : Cpoint.t;
  p_rob_commit : Cpoint.t;
  p_rob_exception : Cpoint.t;
  p_ldq_stq : Cpoint.t;
  p_stq_drain : Cpoint.t;
}

let count_secret trace range =
  match range with
  | None -> 0
  | Some (lo, hi) ->
      Array.fold_left
        (fun acc (e : Golden.effect) ->
          if e.index >= lo && e.index <= hi then acc + 1 else acc)
        0 trace

let create cfg reg ms ~core_id ~drives_window =
  let open Sonar_ir.Component in
  let pt ?single_valid ?persistent_subs name component sources =
    Cpoint.point reg
      ~name:(Printf.sprintf "c%d.%s" core_id name)
      ~component ~sources ?persistent_subs ?single_valid ()
  in
  {
    cfg;
    reg;
    ms;
    core_id;
    trace = [||];
    transients = Hashtbl.create 4;
    secret_range = None;
    drives_window;
    secret_total = 0;
    secret_committed = 0;
    fetch_pos = 0;
    fetch_source = Arch;
    fetch_stall_until = 0;
    fetch_halted = false;
    blocked_on_branch = -1;
    lines = Itbl.create 32;
    fb = Ring.create cfg.fetch_buffer no_uop;
    rob = Ring.create cfg.rob_entries no_uop;
    stbuf = Ring.create cfg.stq_entries no_entry;
    taint_reg = Array.make 32 false;
    last_writer = Array.make 32 no_uop;
    rob_dests = 0;
    rob_loads = 0;
    rob_stores = 0;
    rob_dispatched = 0;
    rob_inflight = 0;
    next_id = 0;
    pool = Exec_unit.create cfg reg ~core:core_id;
    bp = Branch_pred.create cfg;
    commit_log = [];
    transient_issued = 0;
    pending_early_squash = no_uop;
    p_fb_enq =
      pt ~single_valid:true "frontend.fb_enq" Frontend
        (List.init cfg.fetch_width (Printf.sprintf "slot%d"));
    p_pc_sel = pt "frontend.pc_sel" Frontend [ "seq"; "branch"; "exception" ];
    p_icache_mshr = pt "icache.mshr" Frontend [ "fetch_miss" ];
    p_bpd_update = pt "bpd.update" Frontend [ "update" ];
    p_rob_enq =
      pt ~single_valid:true "rob.enq" Rob
        (List.init cfg.decode_width (Printf.sprintf "slot%d"));
    p_rob_commit =
      pt ~single_valid:true "rob.commit" Rob
        (List.init cfg.commit_width (Printf.sprintf "slot%d"));
    p_rob_exception = pt "rob.exception" Rob [ "exception" ];
    p_ldq_stq = pt "lsu.ldq_stq_idx" Lsu [ "load"; "store" ];
    p_stq_drain = pt "stq.drain" Lsu [ "drain_valid" ];
  }

let prepare t ~outcome ~secret_range =
  (* Arm the core for a run: its golden trace, transient continuations
     and secret region.  Every other dynamic field is checkpoint state,
     which a restore rewinds (see [Machine.Ctx]). *)
  t.trace <- outcome.Golden.trace;
  Hashtbl.reset t.transients;
  List.iter
    (fun (pos, cont) -> Hashtbl.replace t.transients pos cont)
    outcome.Golden.transients;
  t.secret_range <- secret_range;
  t.secret_total <- count_secret outcome.Golden.trace secret_range;
  (* With no secret-dependent region the whole run is the window. *)
  if t.drives_window && secret_range = None then Cpoint.open_window t.reg

let line_of t pc =
  Int64.logand pc (Int64.lognot (Int64.of_int (t.cfg.icache.line_bytes - 1)))

let line_key t pc = Memsys.ifetch_line_key t.ms ~core:t.core_id pc

let line_pending = -2

(* --- Fetch --- *)

(* The effect fetch consumes next, or [no_eff] at the end of its source. *)
let peek_next t =
  match t.fetch_source with
  | Arch ->
      if t.fetch_pos < Array.length t.trace then t.trace.(t.fetch_pos) else no_eff
  | Trans (cont, idx) -> if idx < Array.length cont then cont.(idx) else no_eff

let consume_next t =
  match t.fetch_source with
  | Arch -> t.fetch_pos <- t.fetch_pos + 1
  | Trans (cont, idx) -> t.fetch_source <- Trans (cont, idx + 1)

let is_secret_dep t (eff : Golden.effect) =
  match t.secret_range with
  | Some (lo, hi) -> eff.index >= lo && eff.index <= hi
  | None -> false

let next_pc_after t pos (eff : Golden.effect) =
  (* Actual next PC, for jump-target prediction. *)
  match t.fetch_source with
  | Arch when pos >= 0 && pos + 1 < Array.length t.trace -> t.trace.(pos + 1).pc
  | Arch | Trans _ -> Int64.add eff.pc 4L

let line_ready t pc ~cycle ~tainted =
  let key = line_key t pc in
  let avail = Itbl.find t.lines key ~default:(-1) in
  if avail >= 0 then avail <= cycle
  else if avail = line_pending then begin
    let c = Memsys.ifetch_ready t.ms ~core:t.core_id ~addr:pc in
    if c >= 0 then Itbl.replace t.lines key c;
    c >= 0 && c <= cycle
  end
  else begin
    let line = line_of t pc in
    match Memsys.ifetch t.ms ~core:t.core_id ~addr:line ~cycle ~tainted with
    | Memsys.Ready c ->
        Itbl.replace t.lines key c;
        c <= cycle
    | Memsys.Waiting ->
        Cpoint.request ~tainted t.reg t.p_icache_mshr ~source:0
          ~data:(Int64.to_int line);
        Itbl.replace t.lines key line_pending;
        false
    | Memsys.Blocked _ -> false
  end

let make_uop t eff trace_pos transient ~cycle =
  let id = t.next_id in
  t.next_id <- id + 1;
  let instr = eff.Golden.instr in
  {
    eff;
    trace_pos;
    transient;
    secret_dep = is_secret_dep t eff;
    id;
    cls = classify instr;
    dest = (match Instr.dest instr with Some d -> Reg.to_int d | None -> -1);
    src1 = Instr.source instr 0;
    src2 = Instr.source instr 1;
    prod1 = no_uop;
    prod2 = no_uop;
    state = Dispatched;
    complete_at = max_int;
    dispatch_cycle = cycle;
    mispredicted = false;
    resolved_target = 0L;
    tainted = is_secret_dep t eff || transient;
  }

let step_fetch t ~cycle =
  if
    t.fetch_halted || cycle < t.fetch_stall_until
    || t.blocked_on_branch >= 0
  then ()
  else begin
    let budget = ref t.cfg.fetch_width in
    let fetched_any = ref false in
    let fetched_tainted = ref false in
    let stop = ref false in
    while (not !stop) && !budget > 0 && Ring.length t.fb < t.cfg.fetch_buffer do
      let eff = peek_next t in
      if eff == no_eff then stop := true
      else begin
        let transient =
          match t.fetch_source with Arch -> false | Trans _ -> true
        in
        let pos = if transient then -1 else t.fetch_pos in
        let static_taint = is_secret_dep t eff || transient in
        if not (line_ready t eff.pc ~cycle ~tainted:static_taint) then stop := true
        else begin
          consume_next t;
          let u = make_uop t eff pos transient ~cycle in
          let slot = t.cfg.fetch_width - !budget in
          Cpoint.request ~tainted:u.tainted t.reg t.p_fb_enq ~source:slot
            ~data:(Int64.to_int eff.pc);
          Ring.push t.fb u;
          decr budget;
          fetched_any := true;
          if u.tainted then fetched_tainted := true;
          (* Branch prediction. *)
          (match eff.instr with
          | Instr.Branch (_, _, _, off) ->
              Cpoint.request ~tainted:u.tainted t.reg t.p_bpd_update ~source:0
                ~data:(Int64.to_int eff.pc);
              let taken = Option.value ~default:false eff.taken in
              let target = Int64.add eff.pc (Int64.of_int off) in
              u.resolved_target <- target;
              let correct = Branch_pred.predict t.bp ~pc:eff.pc ~taken ~target in
              if not correct then begin
                u.mispredicted <- true;
                t.blocked_on_branch <- u.id;
                stop := true
              end
          | Instr.Jal (_, off) ->
              let target = Int64.add eff.pc (Int64.of_int off) in
              u.resolved_target <- target;
              if not (Branch_pred.predict_jump t.bp ~pc:eff.pc ~target) then begin
                u.mispredicted <- true;
                t.blocked_on_branch <- u.id;
                stop := true
              end
          | Instr.Jalr _ ->
              let target = next_pc_after t pos eff in
              u.resolved_target <- target;
              if not (Branch_pred.predict_jump t.bp ~pc:eff.pc ~target) then begin
                u.mispredicted <- true;
                t.blocked_on_branch <- u.id;
                stop := true
              end
          | _ -> ());
          (* Architectural faults fork the transient continuation. *)
          (if (not transient) && pos >= 0 then
             match eff.fault with
             | Some (Golden.Load_access_fault | Golden.Store_access_fault) -> (
                 match Hashtbl.find_opt t.transients pos with
                 | Some cont -> t.fetch_source <- Trans (cont, 0)
                 | None -> ())
             | Some _ | None -> ());
          match eff.instr with
          | Instr.Ebreak when not transient ->
              t.fetch_halted <- true;
              stop := true
          | _ -> ()
        end
      end
    done;
    if !fetched_any then
      Cpoint.request ~tainted:!fetched_tainted t.reg t.p_pc_sel ~source:0
        ~data:cycle
  end

(* --- Dispatch --- *)

(* Producer links.  Dispatch is in program order, so at dispatch the
   [last_writer] entry of each source is its youngest older writer.  A
   linked writer that has since committed is [Done] with [complete_at] at
   or before the cycle, so it reads as ready — exactly like having no
   writer in the ROB at all. *)
let producer t src = if src > 0 then t.last_writer.(src) else no_uop

let count_in t u d =
  if u.dest >= 0 then t.rob_dests <- t.rob_dests + d;
  (match u.cls with
  | Class_load -> t.rob_loads <- t.rob_loads + d
  | Class_store -> t.rob_stores <- t.rob_stores + d
  | Class_alu | Class_mul | Class_div -> ());
  match u.state with
  | Dispatched -> t.rob_dispatched <- t.rob_dispatched + d
  | Issued | Wait_mem -> t.rob_inflight <- t.rob_inflight + d
  | Exec_done | Done -> ()

(* Enter [u] into the ROB's dependency state: link its sources, then
   become its destination's youngest writer. *)
let link t u =
  u.prod1 <- producer t u.src1;
  u.prod2 <- producer t u.src2;
  if u.dest >= 0 then t.last_writer.(u.dest) <- u;
  count_in t u 1

(* Rebuild the writer table, the links and the occupancy counts from the
   ROB after a squash (the table may name squashed uops) or a checkpoint
   restore (re-pointed uops are fresh records, so old links are stale). *)
let relink t =
  Array.fill t.last_writer 0 (Array.length t.last_writer) no_uop;
  t.rob_dests <- 0;
  t.rob_loads <- 0;
  t.rob_stores <- 0;
  t.rob_dispatched <- 0;
  t.rob_inflight <- 0;
  for i = 0 to Ring.length t.rob - 1 do
    link t (Ring.get t.rob i)
  done

let src_tainted t src = src >= 0 && t.taint_reg.(src)

(* Whether a structure [u] needs is full: the ROB, the physical
   registers, the load queue or the store queue. Only commit and
   store-buffer drains free them. *)
let dispatch_blocked t u =
  Ring.length t.rob >= t.cfg.rob_entries
  || (u.dest >= 0 && t.rob_dests >= Int.max 8 (t.cfg.int_phys_regs - 32))
  || (u.cls = Class_load
     &&
     match t.cfg.ldq_entries with Some n -> t.rob_loads >= n | None -> false)
  || u.cls = Class_store
     && t.rob_stores + Ring.length t.stbuf >= t.cfg.stq_entries

let step_dispatch t ~cycle =
  let budget = ref t.cfg.decode_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 do
    if Ring.is_empty t.fb then stop := true
    else begin
      let u = Ring.peek t.fb in
      if dispatch_blocked t u then stop := true
      else begin
        Ring.pop t.fb;
        u.dispatch_cycle <- cycle;
        (* Forward dataflow taint: dispatch happens in program order. *)
        u.tainted <- u.tainted || src_tainted t u.src1 || src_tainted t u.src2;
        if u.dest >= 0 then t.taint_reg.(u.dest) <- u.tainted;
        link t u;
        Ring.push t.rob u;
        let slot = t.cfg.decode_width - !budget in
        Cpoint.request ~tainted:u.tainted t.reg t.p_rob_enq ~source:slot
          ~data:(Int64.to_int u.eff.Golden.pc);
        decr budget;
        if t.drives_window && u.secret_dep && not (Cpoint.window_open t.reg)
        then Cpoint.open_window t.reg
      end
    end
  done

(* --- Operand readiness --- *)

let value_ready v ~cycle =
  match v.state with
  | Exec_done | Done -> v.complete_at <= cycle
  | Dispatched | Issued | Wait_mem -> false

let operands_ready u ~cycle =
  value_ready u.prod1 ~cycle && value_ready u.prod2 ~cycle

let word a = Int64.logand a (-8L)

(* Youngest older store to the same 8-byte word as the load at ROB index
   [i] — forwarding source or hazard — or [no_uop]. *)
let older_store_same_addr t u i =
  match u.eff.Golden.mem with
  | None -> no_uop
  | Some m ->
      let found = ref no_uop in
      let j = ref (i - 1) in
      while !found == no_uop && !j >= 0 do
        let v = Ring.get t.rob !j in
        (if v.cls = Class_store then
           match v.eff.Golden.mem with
           | Some vm when Int64.equal (word vm.addr) (word m.addr) -> found := v
           | Some _ | None -> ());
        decr j
      done;
      !found

let in_store_buffer t addr =
  let hit = ref false in
  for i = 0 to Ring.length t.stbuf - 1 do
    match (Ring.get t.stbuf i).sb_uop.eff.Golden.mem with
    | Some m when Int64.equal (word m.addr) (word addr) -> hit := true
    | Some _ | None -> ()
  done;
  !hit

(* --- Issue --- *)

let magnitude_of (e : Golden.effect) =
  match e.Golden.wb with Some (_, v) -> v | None -> 1024L

let operand_magnitude (u : uop) = magnitude_of u.eff

let is_access_fault = function
  | Some (Golden.Load_access_fault | Golden.Store_access_fault) -> true
  | Some _ | None -> false

(* [u] leaves [Dispatched] for [Issued] or [Wait_mem]: a transient uop
   counts as executed. *)
let start t u state =
  u.state <- state;
  t.rob_dispatched <- t.rob_dispatched - 1;
  t.rob_inflight <- t.rob_inflight + 1;
  if u.transient then t.transient_issued <- t.transient_issued + 1

let issue_until t u c =
  u.complete_at <- c;
  start t u Issued

(* [c] is an [Exec_unit.try_issue_*] result: -1 when the unit refused. *)
let issue_at t u c = if c >= 0 then issue_until t u c

(* The uop at ROB index [i], [Dispatched] with its operands ready, asks
   its unit. *)
let try_issue t u i ~cycle =
  let early_fault =
    is_access_fault u.eff.Golden.fault
    && t.cfg.exception_policy = Config.Early_at_execute
    && not u.transient
  in
  match u.cls with
  | Class_alu ->
      issue_at t u (Exec_unit.try_issue_alu t.pool ~cycle ~tainted:u.tainted)
  | Class_mul ->
      issue_at t u
        (Exec_unit.try_issue_mul t.pool ~cycle ~operand:(operand_magnitude u)
           ~tainted:u.tainted)
  | Class_div ->
      issue_at t u
        (Exec_unit.try_issue_div t.pool ~cycle ~operand:(operand_magnitude u)
           ~tainted:u.tainted)
  | Class_store ->
      if Exec_unit.try_issue_mem t.pool ~cycle ~tainted:u.tainted then begin
        Cpoint.request ~tainted:u.tainted t.reg t.p_ldq_stq ~source:1
          ~data:(Int64.to_int u.eff.Golden.pc);
        issue_until t u (cycle + 1);
        if early_fault && t.pending_early_squash == no_uop then
          t.pending_early_squash <- u
      end
  | Class_load ->
      if Exec_unit.try_issue_mem t.pool ~cycle ~tainted:u.tainted then begin
        Cpoint.request ~tainted:u.tainted t.reg t.p_ldq_stq ~source:0
          ~data:(Int64.to_int u.eff.Golden.pc);
        if early_fault then begin
          issue_until t u (cycle + 1);
          if t.pending_early_squash == no_uop then
            t.pending_early_squash <- u
        end
        else begin
          let v = older_store_same_addr t u i in
          if v != no_uop then begin
            (* Store-to-load forwarding; otherwise a hazard: stay
               Dispatched, mem slot wasted this cycle. *)
            if value_ready v ~cycle then issue_until t u (cycle + 1)
          end
          else begin
            let addr =
              match u.eff.Golden.mem with Some m -> m.addr | None -> 0L
            in
            if in_store_buffer t addr then issue_until t u (cycle + 1)
            else
              match
                Memsys.dload t.ms ~core:t.core_id ~seq:u.id ~rob:u.id ~addr
                  ~cycle ~tainted:u.tainted
              with
              | Memsys.Ready c -> issue_until t u c
              | Memsys.Waiting -> start t u Wait_mem
              | Memsys.Blocked _ -> ()
          end
        end
      end

(* Oldest first over the ROB, stopping once every uop that was
   [Dispatched] at the start has been visited. *)
let step_issue t ~cycle =
  let left = ref t.rob_dispatched and i = ref 0 in
  while !left > 0 && !i < Ring.length t.rob do
    let u = Ring.get t.rob !i in
    if u.state = Dispatched then begin
      decr left;
      if operands_ready u ~cycle then try_issue t u !i ~cycle
    end;
    incr i
  done

(* --- Squash --- *)

(* Drop every entry younger than [than_id]: ids increase along a ring, so
   the survivors are a prefix. *)
let keep_through r ~than_id =
  let n = ref 0 in
  while !n < Ring.length r && (Ring.get r !n).id <= than_id do
    incr n
  done;
  Ring.truncate r !n

let squash_younger t ~than_id =
  keep_through t.rob ~than_id;
  keep_through t.fb ~than_id;
  relink t;
  Exec_unit.purge_writeback t.pool ~keep:(fun id -> id <= than_id);
  if t.blocked_on_branch > than_id then t.blocked_on_branch <- -1

let handle_fault_redirect t u ~cycle =
  let data = Int64.to_int u.eff.Golden.pc in
  Cpoint.request ~tainted:u.tainted t.reg t.p_rob_exception ~source:0 ~data;
  Cpoint.request ~tainted:u.tainted t.reg t.p_pc_sel ~source:2 ~data;
  squash_younger t ~than_id:u.id;
  t.fetch_source <- Arch;
  t.fetch_pos <- u.trace_pos + 1;
  t.fetch_halted <- false;
  t.fetch_stall_until <- cycle + t.cfg.mispredict_penalty

(* --- Complete / writeback --- *)

let wb_class_of u =
  match u.cls with
  | Class_alu -> Exec_unit.Wb_alu
  | Class_mul -> Exec_unit.Wb_mul
  | Class_div -> Exec_unit.Wb_div
  | Class_load | Class_store -> Exec_unit.Wb_mem

(* [u] leaves [Issued] or [Wait_mem] for [Exec_done] or [Done]. *)
let finish t u state =
  u.state <- state;
  t.rob_inflight <- t.rob_inflight - 1

(* Oldest first over the ROB, stopping once every uop that was in flight
   at the start has been visited. *)
let step_complete t ~cycle =
  let left = ref t.rob_inflight and i = ref 0 in
  while !left > 0 && !i < Ring.length t.rob do
    let u = Ring.get t.rob !i in
    (match u.state with
    | Issued ->
        decr left;
        if u.complete_at <= cycle then begin
          Cpoint.mark_active t.reg;
          (* Control resolves here: train the predictor, unblock fetch. *)
          (match u.eff.Golden.instr with
          | Instr.Branch _ ->
              Branch_pred.update t.bp ~pc:u.eff.Golden.pc
                ~taken:(Option.value ~default:false u.eff.Golden.taken)
                ~target:u.resolved_target
          | Instr.Jal _ | Instr.Jalr _ ->
              Branch_pred.update_jump t.bp ~pc:u.eff.Golden.pc
                ~target:u.resolved_target
          | _ -> ());
          if u.mispredicted then begin
            t.blocked_on_branch <- -1;
            t.fetch_stall_until <- Int.max t.fetch_stall_until (cycle + 2);
            Cpoint.request ~tainted:u.tainted t.reg t.p_pc_sel ~source:1
              ~data:(Int64.to_int u.eff.Golden.pc);
            u.mispredicted <- false
          end;
          if u.dest < 0 then finish t u Done
          else begin
            finish t u Exec_done;
            Exec_unit.request_writeback t.pool (wb_class_of u) ~id:u.id
              ~tainted:u.tainted
          end
        end
    | Wait_mem ->
        decr left;
        let c = Memsys.load_ready t.ms ~core:t.core_id ~rob:u.id in
        if c >= 0 && c <= cycle then begin
          Cpoint.mark_active t.reg;
          u.complete_at <- c;
          if u.mispredicted then begin
            t.blocked_on_branch <- -1;
            t.fetch_stall_until <- Int.max t.fetch_stall_until (cycle + 2);
            u.mispredicted <- false
          end;
          finish t u Exec_done;
          Exec_unit.request_writeback t.pool (wb_class_of u) ~id:u.id
            ~tainted:u.tainted
        end
    | Dispatched | Exec_done | Done -> ());
    incr i
  done

(* The ROB uop with id [id], or [no_uop]: binary search, since ids increase
   from head to tail.  Every uop awaiting writeback is in the ROB. *)
let rob_find t id =
  let lo = ref 0 and hi = ref (Ring.length t.rob) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if (Ring.get t.rob mid).id < id then lo := mid + 1 else hi := mid
  done;
  if !lo < Ring.length t.rob && (Ring.get t.rob !lo).id = id then
    Ring.get t.rob !lo
  else no_uop

let step_writeback t ~cycle =
  for k = 0 to Exec_unit.arbitrate_writeback t.pool - 1 do
    let u = rob_find t (Exec_unit.granted t.pool k) in
    if u.state = Exec_done then begin
      u.state <- Done;
      u.complete_at <- Int.min u.complete_at cycle
    end
  done

(* --- Commit --- *)

let step_commit t ~cycle =
  let budget = ref t.cfg.commit_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 do
    let u = if Ring.is_empty t.rob then no_uop else Ring.peek t.rob in
    if u != no_uop && u.state = Done && u.complete_at <= cycle then begin
      assert (not u.transient);
      Ring.pop t.rob;
      count_in t u (-1);
      let slot = t.cfg.commit_width - !budget in
      Cpoint.request ~tainted:u.tainted t.reg t.p_rob_commit ~source:slot
        ~data:(Int64.to_int u.eff.Golden.pc);
      decr budget;
      t.commit_log <-
        { c_eff = u.eff; c_cycle = cycle; c_dispatch = u.dispatch_cycle }
        :: t.commit_log;
      if u.cls = Class_store then
        Ring.push t.stbuf { sb_uop = u; sb_state = Drain_new };
      if u.secret_dep then begin
        t.secret_committed <- t.secret_committed + 1;
        if t.drives_window && t.secret_committed >= t.secret_total then
          Cpoint.close_window t.reg
      end;
      (* Lazy exception handling: the squash happens here. *)
      if
        is_access_fault u.eff.Golden.fault
        && t.cfg.exception_policy = Config.Lazy_at_commit
      then begin
        handle_fault_redirect t u ~cycle;
        stop := true
      end
    end
    else stop := true
  done

(* --- Store buffer drain --- *)

let step_stbuf t ~cycle =
  if not (Ring.is_empty t.stbuf) then begin
    let entry = Ring.peek t.stbuf in
    let u = entry.sb_uop in
    let addr = match u.eff.Golden.mem with Some m -> m.addr | None -> 0L in
    let is_sc = match u.eff.Golden.instr with Instr.Sc_d _ -> true | _ -> false in
    match entry.sb_state with
    | Drain_new -> (
        Cpoint.request ~tainted:u.tainted t.reg t.p_stq_drain ~source:0
          ~data:(Int64.to_int addr);
        match
          Memsys.dstore t.ms ~core:t.core_id ~seq:u.id ~rob:u.id ~addr ~is_sc
            ~cycle ~tainted:u.tainted
        with
        | Memsys.Ready _ -> Ring.pop t.stbuf
        | Memsys.Waiting -> entry.sb_state <- Drain_waiting
        | Memsys.Blocked _ -> ())
    | Drain_waiting ->
        let c = Memsys.store_ready t.ms ~core:t.core_id ~rob:u.id in
        if c >= 0 && c <= cycle then begin
          Cpoint.mark_active t.reg;
          Ring.pop t.stbuf
        end
  end

(* --- Top level --- *)

let step t ~cycle =
  Exec_unit.new_cycle t.pool;
  step_complete t ~cycle;
  step_writeback t ~cycle;
  step_commit t ~cycle;
  step_issue t ~cycle;
  (let u = t.pending_early_squash in
   if u != no_uop then begin
     t.pending_early_squash <- no_uop;
     handle_fault_redirect t u ~cycle
   end);
  step_stbuf t ~cycle;
  step_dispatch t ~cycle;
  step_fetch t ~cycle

let fetch_done t =
  match t.fetch_source with
  | Arch -> t.fetch_halted || t.fetch_pos >= Array.length t.trace
  | Trans _ -> false

let finished t =
  fetch_done t && Ring.is_empty t.fb && Ring.is_empty t.rob
  && Ring.is_empty t.stbuf
let commits t = List.rev t.commit_log
let transient_executed t = t.transient_issued

(* --- Wake bound --- *)

(* [w] pulled in to [c], but never below [soon]. *)
let earlier c ~soon w = if c < w then Int.max c soon else w

let stbuf_wake t ~soon w =
  if Ring.is_empty t.stbuf then w
  else
    let e = Ring.peek t.stbuf in
    match e.sb_state with
    | Drain_new -> soon
    | Drain_waiting ->
        let c = Memsys.store_ready t.ms ~core:t.core_id ~rob:e.sb_uop.id in
        if c >= 0 then earlier c ~soon w else w

let fetch_wake t ~soon w =
  if
    t.fetch_halted || t.blocked_on_branch >= 0
    || Ring.length t.fb >= t.cfg.fetch_buffer
  then w
  else begin
    let eff = peek_next t in
    if eff == no_eff then w
    else begin
      let from = Int.max soon t.fetch_stall_until in
      let avail = Itbl.find t.lines (line_key t eff.pc) ~default:(-1) in
      if avail >= 0 then earlier (Int.max from avail) ~soon w
      else if avail = line_pending then begin
        let c = Memsys.ifetch_ready t.ms ~core:t.core_id ~addr:eff.pc in
        if c >= 0 then earlier (Int.max from c) ~soon w else w
      end
      else earlier from ~soon w
    end
  end

let settled v =
  match v.state with
  | Exec_done | Done -> true
  | Dispatched | Issued | Wait_mem -> false

let rec rob_wake t ~soon w i =
  if w <= soon || i >= Ring.length t.rob then w
  else begin
    let u = Ring.get t.rob i in
    let w =
      match u.state with
      | Issued -> earlier u.complete_at ~soon w
      | Wait_mem ->
          let c = Memsys.load_ready t.ms ~core:t.core_id ~rob:u.id in
          if c >= 0 then earlier c ~soon w else w
      | Dispatched ->
          if settled u.prod1 && settled u.prod2 then
            earlier (Int.max u.prod1.complete_at u.prod2.complete_at) ~soon w
          else w
      | Done -> if i = 0 then earlier u.complete_at ~soon w else w
      | Exec_done -> w
    in
    rob_wake t ~soon w (i + 1)
  end

(* The earliest cycle after [cycle] in which some stage of the core could
   act, given the state after [cycle]: [max_int] when only [Memsys] can
   wake it.  The machine loop does not step the core before the bound
   (unless a refill lands for it, see [Memsys.take_woken]), so the bound
   must never pass a cycle in which a stage would change state or call
   the registry.  Each arm reads the test its stage makes, stage by
   stage in [step] order:
   - complete: an [Issued] uop at its [complete_at]; a [Wait_mem] load
     once [Memsys.load_ready] names its cycle (until then the refill is
     in flight, and [Memsys.next_wake] bounds it);
   - writeback: every queued request asks for a port each cycle;
   - commit: a [Done] head at its [complete_at];
   - issue: a [Dispatched] uop once both producers are [Exec_done] or
     [Done] and their [complete_at] has passed — it then asks a unit or a
     port each cycle until it issues.  A producer in any other state
     wakes the core itself first;
   - store buffer: a [Drain_new] head asks the DCache each cycle; a
     [Drain_waiting] one wakes at its [Memsys.store_ready] cycle;
   - dispatch: an unblocked fetch-buffer head ([dispatch_blocked] changes
     only when commit or a drain acts);
   - fetch: neither halted nor blocked on a branch, with buffer room and
     something to fetch: once [fetch_stall_until] has passed and the head
     line is available — a line not yet looked up asks the ICache port
     each cycle, a pending one wakes at its [Memsys.ifetch_ready] cycle.
   A step in a cycle before the bound would still do two things, and
   leaving it out changes nothing read: [line_ready] may record a
   pending line's known ready cycle in [lines], which [line_ready] and
   [line_known_unready] read exactly as the pending mark; and
   [Exec_unit.new_cycle] resets the issue counters, which only
   [step_issue] reads, after the next step has reset them. *)
let next_wake t ~cycle =
  let soon = cycle + 1 in
  if Exec_unit.writeback_pending t.pool then soon
  else if (not (Ring.is_empty t.fb)) && not (dispatch_blocked t (Ring.peek t.fb))
  then soon
  else rob_wake t ~soon (fetch_wake t ~soon (stbuf_wake t ~soon max_int)) 0

(* Exclusive upper bound on the architectural trace positions fetch can
   consume during the coming cycle, evaluated at the top of the cycle
   (before any stage steps).  Used by the dual-run checkpoint logic: as
   long as every core's bound stays at or below its fork position, the
   cycle is guaranteed to behave identically under both secrets.

   Soundness of each arm:
   - [Trans]: transient fetch consumes no architectural positions, and
     leaving [Trans] happens only through [handle_fault_redirect], which
     both stalls fetch past this cycle and moves [fetch_pos] backward.
   - halted / stalled / blocked-on-branch: no stage running this cycle
     can re-enable fetch for {e this} cycle — mispredict resolution and
     fault redirects always set [fetch_stall_until > cycle].
   - otherwise fetch consumes at most [fetch_width] positions, further
     limited by fetch-buffer backpressure: dispatch (which runs before
     fetch) frees at most [decode_width] buffer slots — and clamped at the
     first position whose instruction line is {e known} not to be ready
     this cycle ([line_known_unready] below): fetch consumes positions in
     order and [step_fetch] stops at the first [line_ready] failure.

   The line clamp is exact, not just sound, for lines the core has already
   touched: [ifetch_ready_tbl] entries are written only by [Memsys.tick],
   which runs after every core's [step] within a cycle, so the table this
   query sees at the top of the cycle is the table [step_fetch] sees.
   Untouched lines are conservatively assumed ready (a first-touch
   [Memsys.ifetch] could hit). *)
let line_known_unready t pc ~cycle =
  let avail = Itbl.find t.lines (line_key t pc) ~default:(-1) in
  if avail >= 0 then avail > cycle
  else
    avail = line_pending
    &&
    (* Pure variant of [line_ready]'s pending path: peek at the refill
       completion without recording it in the core's table. *)
    let c = Memsys.ifetch_ready t.ms ~core:t.core_id ~addr:pc in
    c < 0 || c > cycle

let fetch_bound t ~cycle =
  match t.fetch_source with
  | Trans _ -> t.fetch_pos
  | Arch ->
      if t.fetch_halted || cycle < t.fetch_stall_until || t.blocked_on_branch >= 0
      then t.fetch_pos
      else begin
        let fb = Ring.length t.fb in
        let headroom =
          Int.min t.cfg.fetch_width
            (t.cfg.fetch_buffer - fb + Int.min fb t.cfg.decode_width)
        in
        let last = Int.min (t.fetch_pos + headroom) (Array.length t.trace) in
        let bound = ref (t.fetch_pos + headroom) in
        (try
           for p = t.fetch_pos to last - 1 do
             if line_known_unready t t.trace.(p).Golden.pc ~cycle then begin
               bound := p;
               raise Exit
             end
           done
         with Exit -> ());
        !bound
      end

(* Whether the ROB holds a uop at or past the architectural position
   [fork] whose divergent backend-read fields could be read this cycle.
   Complements [fetch_bound] in the dual-run capture test.

   A divergent {e store}'s address can be read by any younger load's
   forwarding search the moment both sit in the ROB, so its mere presence
   trips the test.  A divergent load or mul/div is read only at its {e own}
   issue ([Memsys.dload] address / latency operand), which requires its
   operands ready — so the test defers until the cycle that could happen,
   riding out the operand-dependency chain in front of it (the testcase
   template's coupling chains delay exactly this readiness).

   [producer_possibly_ready] predicts [value_ready] as evaluated inside
   [step_issue], which runs {e after} complete/writeback within the cycle:
   an [Issued] producer with [complete_at <= cycle] completes first (an
   [Exec_done] or [Done] producer already has [complete_at <= cycle] — the
   only transitions into those states require it); a [Wait_mem] producer
   is released exactly when [Memsys.load_ready] says so, and the ready
   table is written only by [Memsys.tick], which runs after every core's
   [step] — so the top-of-cycle query sees the table [step_complete] sees.
   Only [Dispatched] producers (which issue at the earliest this cycle,
   completing later) and [Issued] ones with [complete_at > cycle] provably
   stay unready.  Transient uops carry position -1 and never trip the
   test.  Architectural positions increase along the ROB, so the scan runs
   from the tail and stops at the first architectural uop before [fork]:
   only the suffix at or past the fork can trip the test. *)
let producer_possibly_ready t v ~cycle =
  match v.state with
  | Exec_done | Done -> true
  | Wait_mem ->
      let c = Memsys.load_ready t.ms ~core:t.core_id ~rob:v.id in
      c >= 0 && c <= cycle
  | Issued -> v.complete_at <= cycle
  | Dispatched -> false

let could_issue t u ~cycle =
  producer_possibly_ready t u.prod1 ~cycle
  && producer_possibly_ready t u.prod2 ~cycle

let rob_issue_reaches t ~fork ~cycle =
  let reaches = ref false and i = ref (Ring.length t.rob - 1) in
  while
    (not !reaches) && !i >= 0
    &&
    let pos = (Ring.get t.rob !i).trace_pos in
    pos >= fork || pos < 0
  do
    let u = Ring.get t.rob !i in
    reaches :=
      u.trace_pos >= fork
      && (u.state <> Dispatched || u.cls = Class_store || could_issue t u ~cycle);
    decr i
  done;
  !reaches

(* --- Dual-run fork rule ---

   Which golden-effect fields each stage reads decides how far run 0 may
   run before the checkpoint that run 1 resumes from: a divergent field
   must not be read before the capture.  Below, [fetch_visible_equal] is
   what the front end reads and [exec_visible_equal] what the backend
   reads once a uop is in the ROB; issue reads everything. *)

(* Equality on every effect field the backend reads once a uop has entered
   the ROB: the memory address (load/store issue, store-forwarding search,
   store-buffer drain) and, where the configuration makes it observable,
   the writeback magnitude (the data-dependent latency operand).  The
   divider's latency is operand-dependent in both modelled designs, and
   NutShell's unified MDU additionally records the operand as
   contention-point data on every request — but BOOM's pipelined IMUL has
   a constant latency and its issue path never touches the operand, so
   multiply magnitudes are exec-visible only under a unified MDU.  Loaded
   / stored data and ALU results are never read by the timing model —
   they flow only into the commit log, which a checkpoint restore
   re-points.  With equal instructions, [mem] presence, size and
   direction are equal by construction, so only the address matters. *)
let exec_visible_equal (cfg : Config.t) (a : Golden.effect) (b : Golden.effect) =
  (match (a.Golden.mem, b.Golden.mem) with
  | Some ma, Some mb -> Int64.equal ma.Golden.addr mb.Golden.addr
  | None, None -> true
  | Some _, None | None, Some _ -> false)
  &&
  match classify a.Golden.instr with
  | Class_div -> Int64.equal (magnitude_of a) (magnitude_of b)
  | Class_mul when cfg.Config.unified_mdu ->
      Int64.equal (magnitude_of a) (magnitude_of b)
  | Class_mul | Class_alu | Class_load | Class_store -> true

(* Equality on every effect field the front end can read: [wb] and [mem]
   are the written-back / loaded-or-stored values, which no stage before
   issue inspects, so they are excluded. *)
let fetch_visible_equal (a : Golden.effect) (b : Golden.effect) =
  a.Golden.seq = b.Golden.seq
  && a.index = b.index && a.pc = b.pc && a.instr = b.instr
  && a.taken = b.taken && a.fault = b.fault && a.transient = b.transient

type fork = { value : int; fetch : int; exec : int }

let no_fork = { value = max_int; fetch = max_int; exec = max_int }

(* One scan of the two traces finds all three positions; fields equal
   below [value] are equal under every narrower equality, so [fetch] and
   [exec] are never below it.  Past the shorter trace's end, positions
   are constrained only when the lengths differ ([past_end]).

   - [value]: the longest common prefix under structural equality (pc,
     instruction, writeback value, memory effect, branch direction,
     fault).  A uop at or past it must not reach issue before the
     capture; it may be fetched and dispatched, where nothing reads
     values, and restore re-points it at the other run's trace.
   - [fetch]: the first fetch-visible difference.  An indirect jump
     ([Jalr]) fetched just below it predicts through its pc (or through
     its absence at trace end), so the bound pulls back to the jump.
   - [exec]: the first backend-read difference; uops below it diverge
     only in data the timing model never reads, so they may issue,
     complete and commit before the capture.

   All three are capped at the first position whose transient
   continuation differs between the outcomes or exists under only one
   secret: consuming a faulting position switches fetch to its transient
   continuation within the same cycle, and transient uops carry no trace
   position, so a checkpoint cannot re-point them afterwards.  The
   continuations compare structurally, values included (transient uops
   do reach issue), each at most once and only below the largest of the
   three positions, since no cap at or above it changes anything. *)
let forks cfg (o0 : Golden.outcome) (o1 : Golden.outcome) =
  if o0 == o1 then no_fork
  else begin
    let t0 = o0.trace and t1 = o1.trace in
    let n = Int.min (Array.length t0) (Array.length t1) in
    let past_end = if Array.length t0 = Array.length t1 then max_int else n in
    let value = ref n and fetch = ref past_end and exec = ref past_end in
    let i = ref 0 in
    while !i < n && (!fetch = past_end || !exec = past_end) do
      let a = t0.(!i) and b = t1.(!i) in
      if !value = n && not (a = b) then value := !i;
      if !value < n then begin
        if !fetch = past_end && not (fetch_visible_equal a b) then fetch := !i;
        if !exec = past_end && not (exec_visible_equal cfg a b) then exec := !i
      end;
      incr i
    done;
    let d = !fetch in
    let fetch =
      if d >= 1 && d <= n then
        match t0.(d - 1).Golden.instr with Instr.Jalr _ -> d - 1 | _ -> d
      else d
    in
    let cap = ref (Int.max !value (Int.max fetch !exec)) in
    List.iter
      (fun (pos, cont0) ->
        if pos < !cap then
          match List.assoc_opt pos o1.transients with
          | Some cont1 -> if not (cont0 = cont1) then cap := pos
          | None -> cap := pos)
      o0.transients;
    List.iter
      (fun ((pos : int), _) ->
        if pos < !cap && not (List.mem_assoc pos o0.transients) then cap := pos)
      o1.transients;
    {
      value = Int.min !value !cap;
      fetch = Int.min fetch !cap;
      exec = Int.min !exec !cap;
    }
  end

(* The capture test for one core at the top of [cycle]: fetch could pass
   the fetch fork, or a ROB uop at or past the execution fork could have
   a divergent field read.  Never true for [no_fork]. *)
let capture_due t fork ~cycle =
  fetch_bound t ~cycle > fork.fetch || rob_issue_reaches t ~fork:fork.exec ~cycle

(* Checkpoint support: a checkpoint is a clone, and [copy] writes each
   dynamic field once, for capture (live into clone) and restore (clone
   into live).  [uop] maps each fetch-buffer, ROB and store-buffer uop on
   its way: capture deep-copies it ([{ u with state = u.state }] — the
   immutable [eff] is shared), and restore adopts the checkpoint's
   records, re-pointing those past the fork.  A store-buffer entry
   whose uop [uop] keeps is adopted too, so a restore allocates only
   re-pointed records; a checkpoint is therefore restored at most once
   per capture.  The producer links, the writer table and the occupancy
   counts derive from the ROB, so [copy] leaves them and restore
   rebuilds them ([relink]).  [prepare]'s fields — trace, transient
   continuations, secret region — are not copied.  The commit log's
   records are immutable, so its spine is shared, and [fetch_source]'s
   [Trans] payload is replaced, never mutated, so sharing it is
   faithful. *)

let copy_ring ~src ~dst f =
  Ring.clear dst;
  for i = 0 to Ring.length src - 1 do
    Ring.push dst (f (Ring.get src i))
  done

let copy ~uop ~src ~dst =
  dst.secret_committed <- src.secret_committed;
  dst.fetch_pos <- src.fetch_pos;
  dst.fetch_source <- src.fetch_source;
  dst.fetch_stall_until <- src.fetch_stall_until;
  dst.fetch_halted <- src.fetch_halted;
  dst.blocked_on_branch <- src.blocked_on_branch;
  Itbl.blit ~src:src.lines ~dst:dst.lines;
  copy_ring ~src:src.fb ~dst:dst.fb uop;
  copy_ring ~src:src.rob ~dst:dst.rob uop;
  copy_ring ~src:src.stbuf ~dst:dst.stbuf (fun e ->
      let u = uop e.sb_uop in
      if u == e.sb_uop then e else { sb_uop = u; sb_state = e.sb_state });
  Array.blit src.taint_reg 0 dst.taint_reg 0 (Array.length src.taint_reg);
  dst.next_id <- src.next_id;
  Exec_unit.copy ~src:src.pool ~dst:dst.pool;
  Branch_pred.copy ~src:src.bp ~dst:dst.bp;
  dst.commit_log <- src.commit_log;
  dst.transient_issued <- src.transient_issued;
  dst.pending_early_squash <- src.pending_early_squash

let copy_uop u = { u with state = u.state }

let capture t ~into =
  (* [pending_early_squash] is set and consumed within one [step], so it
     is always [no_uop] at a cycle boundary. *)
  assert (t.pending_early_squash == no_uop);
  copy ~uop:copy_uop ~src:t ~dst:into

let clone t =
  let cfg = t.cfg in
  let c =
    {
      t with
      transients = Hashtbl.create 1;
      lines = Itbl.create 0;
      fb = Ring.create cfg.fetch_buffer no_uop;
      rob = Ring.create cfg.rob_entries no_uop;
      stbuf = Ring.create cfg.stq_entries no_entry;
      taint_reg = Array.make (Array.length t.taint_reg) false;
      last_writer = Array.make (Array.length t.last_writer) no_uop;
      pool = Exec_unit.clone t.pool;
      bp = Branch_pred.clone t.bp;
    }
  in
  capture t ~into:c;
  c

let restore ?(fork = max_int) t ~from =
  (* Uops at or past [fork] were captured with run 0's effect records.
     None of the fields the two runs disagree on was ever read — the
     capture fires before the first cycle in which issue could touch a
     uop whose {e backend-read} fields ([exec_visible_equal]) diverge,
     and uops diverging only in unread data may have issued, completed,
     even committed — so re-pointing every record at the current —
     [prepare]d — trace makes the restored state exactly what the other
     run would have built.  All dynamic uop fields (taint, prediction
     outcome, resolved target, dispatch cycle, issue timing) are
     equal across the runs up to that point, and so is the instruction
     (fetch stayed below the fetch-visible fork) with the class,
     destination and sources derived from it, so the shallow rebuild is
     faithful. *)
  let repoint u =
    if u.trace_pos >= fork then { u with eff = t.trace.(u.trace_pos) } else u
  in
  copy ~uop:repoint ~src:from ~dst:t;
  relink t;
  (* The [k]-th commit (commit order = architectural trace order; the log
     is most-recent-first) is trace position [k] — re-point committed
     records past [fork] too, so the commit trace reports the new run's
     data. *)
  if fork <> max_int then begin
    let len = List.length t.commit_log in
    t.commit_log <-
      List.mapi
        (fun j r ->
          let pos = len - 1 - j in
          if pos >= fork then { r with c_eff = t.trace.(pos) } else r)
        t.commit_log
  end
