type access_result = Ready of int | Waiting | Blocked of string

type transfer = {
  line : int64;
  kind : [ `I | `D ];
  core : int;
  requester_seq : int;
  writeback : bool;
  tainted : bool;
  mutable ready_at : int;
  mutable granted : bool;
  mutable complete_at : int;  (* -1 until granted *)
  mutable processed : bool;
  mshr_idx : int;  (* -1 for none *)
}

type mshr_entry = { m_line : int64; m_set : int; m_tainted : bool }

type waiter = { w_rob : int; w_tainted : bool }

(* Per-line waiter lists, keyed by [Cache.line_key]. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Itbl.hash
end)

type t = {
  cfg : Config.t;
  reg : Cpoint.registry;
  cores : int;
  l1i : Cache.t array;
  l1d : Cache.t array;
  l2 : Cache.t;
  mutable transfers : transfer list;
  mutable channel_busy_until : int;
  mshrs : mshr_entry option array array;  (** [core].(idx) *)
  (* Per-core tables below are indexed by core: DCache line -> waiters,
     rob -> ready cycle, ICache line -> ready cycle. *)
  load_waiters : waiter list ref Lines.t array;
  store_waiters : waiter list ref Lines.t array;
  load_ready_tbl : Itbl.t array;
  store_ready_tbl : Itbl.t array;
  ifetch_ready_tbl : Itbl.t array;
  icache_port_busy : int array;  (** per core: busy-until cycle *)
  write_lb_busy : int array;  (** per core: write line buffer busy-until *)
  woken : bool array;
      (* per core: a refill completed for it since [take_woken] last read
         the mark *)
  p_channel : Cpoint.t;
  p_l2 : Cpoint.t;
  p_mshr : Cpoint.t array;
  p_icache_port : Cpoint.t array;
  p_lb_read : Cpoint.t array;
  p_lb_write : Cpoint.t array;
  p_dfill : Cpoint.t array;
  p_dport : Cpoint.t array;
}

(* D-channel sources: per core iread/dread/wb. *)
let channel_source ~core ~kind ~writeback =
  (core * 3) + if writeback then 2 else match kind with `I -> 0 | `D -> 1

let create (cfg : Config.t) reg ~cores =
  let open Sonar_ir.Component in
  let channel_sources =
    List.concat_map
      (fun c ->
        [
          Printf.sprintf "c%d.iread" c;
          Printf.sprintf "c%d.dread" c;
          Printf.sprintf "c%d.wb" c;
        ])
      (List.init cores Fun.id)
  in
  let channel_name =
    if String.equal cfg.bus_protocol "TileLink" then "tilelink.d_channel"
    else "bus.req"
  in
  let per_core name component sources ?persistent_subs () =
    Array.init cores (fun c ->
        Cpoint.point reg
          ~name:(Printf.sprintf "c%d.%s" c name)
          ~component ~sources ?persistent_subs ())
  in
  let l1d_cache = Cache.create cfg.dcache in
  let dcache_sets = Cache.n_sets l1d_cache in
  {
    cfg;
    reg;
    cores;
    l1i = Array.init cores (fun _ -> Cache.create cfg.icache);
    l1d =
      Array.init cores (fun i ->
          if i = 0 then l1d_cache else Cache.create cfg.dcache);
    l2 = Cache.create cfg.l2;
    transfers = [];
    channel_busy_until = 0;
    mshrs = Array.init cores (fun _ -> Array.make (Int.max cfg.mshrs 1) None);
    load_waiters = Array.init cores (fun _ -> Lines.create 16);
    store_waiters = Array.init cores (fun _ -> Lines.create 16);
    load_ready_tbl = Array.init cores (fun _ -> Itbl.create 32);
    store_ready_tbl = Array.init cores (fun _ -> Itbl.create 32);
    ifetch_ready_tbl = Array.init cores (fun _ -> Itbl.create 32);
    icache_port_busy = Array.make cores (-1);
    write_lb_busy = Array.make cores (-1);
    woken = Array.make cores false;
    p_channel =
      Cpoint.point reg ~name:channel_name ~component:Bus ~sources:channel_sources ();
    p_l2 =
      Cpoint.point reg ~name:"l2.req_port" ~component:Bus
        ~sources:
          (List.concat_map
             (fun c -> [ Printf.sprintf "c%d.i" c; Printf.sprintf "c%d.d" c ])
             (List.init cores Fun.id))
        ();
    p_mshr =
      per_core "mshr.alloc" Lsu [ "pri"; "sec"; "blocked" ]
        ~persistent_subs:dcache_sets ();
    p_icache_port =
      per_core "icache.port" Frontend [ "fetch_read"; "refill_write" ] ();
    p_lb_read = per_core "linebuffer.read" Lsu [ "older"; "younger" ] ();
    p_lb_write = per_core "linebuffer.write" Lsu [ "evict_wb"; "store_wb" ] ();
    p_dfill =
      per_core "dcache.fill" Lsu [ "load"; "store" ] ~persistent_subs:dcache_sets ();
    p_dport = per_core "lsu.dcache_port" Lsu [ "load"; "store" ] ();
  }

(* Checkpoint support: a checkpoint is a clone, and [copy] is capture,
   restore and the cold rewind.  Transfers are mutable records, so a copy
   deep-copies each one (preserving list order — grant arbitration folds
   over the list), and each waiter list gets a fresh ref (its order
   preserved).  The ready tables are read only via [Itbl.find] and the
   waiter tables via [Lines.find_opt], so copying their bindings is
   faithful. *)

let copy_waiters ~src ~dst =
  Array.iteri
    (fun i tbl ->
      Lines.reset dst.(i);
      Lines.iter (fun k r -> Lines.replace dst.(i) k (ref !r)) tbl)
    src

let copy_tables ~src ~dst =
  Array.iteri (fun i tbl -> Itbl.blit ~src:tbl ~dst:dst.(i)) src

let copy ~src ~dst =
  dst.transfers <-
    List.map (fun tr -> { tr with ready_at = tr.ready_at }) src.transfers;
  dst.channel_busy_until <- src.channel_busy_until;
  Array.iteri (fun i m -> Array.blit m 0 dst.mshrs.(i) 0 (Array.length m)) src.mshrs;
  copy_waiters ~src:src.load_waiters ~dst:dst.load_waiters;
  copy_waiters ~src:src.store_waiters ~dst:dst.store_waiters;
  copy_tables ~src:src.load_ready_tbl ~dst:dst.load_ready_tbl;
  copy_tables ~src:src.store_ready_tbl ~dst:dst.store_ready_tbl;
  copy_tables ~src:src.ifetch_ready_tbl ~dst:dst.ifetch_ready_tbl;
  Array.blit src.icache_port_busy 0 dst.icache_port_busy 0 src.cores;
  Array.blit src.write_lb_busy 0 dst.write_lb_busy 0 src.cores;
  Array.blit src.woken 0 dst.woken 0 src.cores;
  Array.iteri (fun i c -> Cache.copy ~src:c ~dst:dst.l1i.(i)) src.l1i;
  Array.iteri (fun i c -> Cache.copy ~src:c ~dst:dst.l1d.(i)) src.l1d;
  Cache.copy ~src:src.l2 ~dst:dst.l2

let clone t =
  let tables () = Array.init t.cores (fun _ -> Itbl.create 0) in
  let waiters () = Array.init t.cores (fun _ -> Lines.create 1) in
  let c =
    {
      t with
      l1i = Array.map Cache.clone t.l1i;
      l1d = Array.map Cache.clone t.l1d;
      l2 = Cache.clone t.l2;
      mshrs = Array.map Array.copy t.mshrs;
      load_waiters = waiters ();
      store_waiters = waiters ();
      load_ready_tbl = tables ();
      store_ready_tbl = tables ();
      ifetch_ready_tbl = tables ();
      icache_port_busy = Array.copy t.icache_port_busy;
      write_lb_busy = Array.copy t.write_lb_busy;
      woken = Array.copy t.woken;
    }
  in
  copy ~src:t ~dst:c;
  c

(* Blocked accesses retry every cycle, so the scans below that a retry
   runs are closure-free recursions. *)
let rec refill_in_flight ~core ~kind ~line = function
  | [] -> false
  | tr :: rest ->
      (tr.core = core && tr.kind = kind && Int64.equal tr.line line
      && (not tr.writeback) && not tr.processed)
      || refill_in_flight ~core ~kind ~line rest

let l2_ready_time t ~cycle ~line ~seq ~tainted =
  (* L2 lookup; on L2 miss the data comes from memory and fills L2. *)
  match Cache.lookup t.l2 line with
  | Some _ -> cycle + t.cfg.l2_latency
  | None ->
      ignore (Cache.fill t.l2 line ~seq ~cycle ~tainted);
      cycle + t.cfg.mem_latency

let start_refill t ~core ~kind ~line ~seq ~cycle ~mshr_idx ~tainted =
  Cpoint.request t.reg t.p_l2 ~tainted
    ~source:((core * 2) + match kind with `I -> 0 | `D -> 1)
    ~data:(Int64.to_int line);
  let tr =
    {
      line;
      kind;
      core;
      requester_seq = seq;
      writeback = false;
      tainted;
      ready_at = l2_ready_time t ~cycle ~line ~seq ~tainted;
      granted = false;
      complete_at = -1;
      processed = false;
      mshr_idx;
    }
  in
  t.transfers <- tr :: t.transfers

(* Draining a 64-byte victim line through the write line buffer's 8-byte
   port takes 8 cycles; a second writeback arriving within that window is
   delayed until the buffer frees (S7). *)
let write_lb_occupancy = 8

let enqueue_writeback t ~core ~line ~cycle ~tainted =
  let p = t.p_lb_write.(core) in
  let data = Int64.to_int line in
  Cpoint.request t.reg p ~tainted ~source:0 ~data;
  let start = Int.max cycle (t.write_lb_busy.(core) + 1) in
  let delay = start - cycle in
  if delay > 0 then Cpoint.request t.reg p ~tainted ~source:1 ~data;
  t.write_lb_busy.(core) <- start + write_lb_occupancy - 1;
  let tr =
    {
      line;
      kind = `D;
      core;
      requester_seq = -1;
      writeback = true;
      tainted;
      ready_at = cycle + delay;
      granted = false;
      complete_at = -1;
      processed = false;
      mshr_idx = -1;
    }
  in
  t.transfers <- tr :: t.transfers

(* --- Instruction fetch --- *)

let ifetch t ~core ~addr ~cycle ~tainted =
  let line = Cache.line_addr t.l1i.(core) addr in
  let port = t.p_icache_port.(core) in
  Cpoint.request t.reg port ~tainted ~source:0 ~data:(Int64.to_int line);
  if t.icache_port_busy.(core) >= cycle then Blocked "icache port busy (refill)"
  else
    match Cache.lookup t.l1i.(core) addr with
    | Some _ -> Ready (cycle + t.cfg.icache.hit_latency)
    | None ->
        if not (refill_in_flight ~core ~kind:`I ~line t.transfers) then
          start_refill t ~core ~kind:`I ~line ~seq:(-1) ~cycle ~mshr_idx:(-1)
            ~tainted;
        Waiting

let ifetch_line_key t ~core addr = Cache.line_key t.l1i.(core) addr

let ifetch_ready t ~core ~addr =
  Itbl.find t.ifetch_ready_tbl.(core) (ifetch_line_key t ~core addr)
    ~default:(-1)

(* --- Data loads --- *)

let add_waiter tbl key rob tainted =
  let w = { w_rob = rob; w_tainted = tainted } in
  match Lines.find_opt tbl key with
  | Some l -> if not (List.exists (fun x -> x.w_rob = rob) !l) then l := w :: !l
  | None -> Lines.replace tbl key (ref [ w ])

(* The MSHR scan of a DCache miss on [line]: slots in order, stopping at
   one that holds [line] itself. It reports the first free slot before
   the stop and whether a slot before it holds another line of the same
   set (the first such slot's taint), packed into one int,
   [(free + 1) * 4 + conflict], with [free = -1] for none. *)
let no_conflict = 0
and same_line = 1
and same_set_clean = 2
and same_set_tainted = 3

let mshr_lookup t ~core ~line =
  let set = Cache.set_index t.l1d.(core) line in
  let entries = t.mshrs.(core) in
  let free = ref (-1) and conflict = ref no_conflict and i = ref 0 in
  while !conflict <> same_line && !i < Array.length entries do
    (match entries.(!i) with
    | None -> if !free < 0 then free := !i
    | Some e ->
        if Int64.equal e.m_line line then conflict := same_line
        else if e.m_set = set && !conflict = no_conflict then
          conflict := if e.m_tainted then same_set_tainted else same_set_clean);
    incr i
  done;
  ((!free + 1) * 4) + !conflict

let rec d_miss_in_flight core = function
  | [] -> false
  | tr :: rest ->
      (tr.core = core && tr.kind = `D && (not tr.writeback) && not tr.processed)
      || d_miss_in_flight core rest

let dmem_access t ~core ~seq ~rob ~addr ~cycle ~tainted ~is_store ~is_sc =
  let l1d = t.l1d.(core) in
  let line = Cache.line_addr l1d addr in
  let data = Int64.to_int line in
  let source = if is_store then 1 else 0 in
  Cpoint.request t.reg t.p_dport.(core) ~tainted ~source ~data;
  match Cache.lookup l1d addr with
  | Some info ->
      if is_store then begin
        (* S10: store-conditionals dirty the line regardless of success. *)
        ignore (Cache.mark_dirty l1d addr);
        if is_sc then
          Cpoint.persistent t.reg t.p_dfill.(core) ~tainted ~source:1
            ~sub:(Cache.set_index l1d line) ~data
      end
      else if info.filler_seq > seq then
        (* S11: hit on a line filled by a younger in-flight instruction. *)
        Cpoint.persistent t.reg t.p_dfill.(core)
          ~tainted:(tainted || info.filler_tainted)
          ~source:0 ~sub:(Cache.set_index l1d line) ~data;
      Ready (cycle + t.cfg.dcache.hit_latency)
  | None -> (
      (* S12: miss on a line another instruction's fill recently evicted. *)
      (if not is_store then
         match Cache.recently_evicted l1d addr with
         | Some (evictor, ev_tainted) when evictor <> seq ->
             Cpoint.persistent t.reg t.p_dfill.(core)
               ~tainted:(tainted || ev_tainted) ~source:0
               ~sub:(Cache.set_index l1d line) ~data
         | Some _ | None -> ());
      let waiters =
        (if is_store then t.store_waiters else t.load_waiters).(core)
      in
      let key = Cache.line_key l1d line in
      if refill_in_flight ~core ~kind:`D ~line t.transfers then begin
        (* sec-mode reuse of the in-flight MSHR. *)
        Cpoint.request t.reg t.p_mshr.(core) ~tainted ~source:1 ~data;
        add_waiter waiters key rob tainted;
        Waiting
      end
      else if t.cfg.mshrs = 0 then begin
        (* Blocking cache: one outstanding data miss. *)
        if d_miss_in_flight core t.transfers then
          Blocked "blocking cache: miss in flight"
        else begin
          start_refill t ~core ~kind:`D ~line ~seq ~cycle ~mshr_idx:(-1)
            ~tainted;
          add_waiter waiters key rob tainted;
          Waiting
        end
      end
      else begin
        let scan = mshr_lookup t ~core ~line in
        let free = (scan / 4) - 1 and conflict = scan land 3 in
        if conflict >= same_set_clean then begin
          (* S5: set-index match, tag mismatch — refused until the
             occupying MSHR retires ("false sharing path blocking"). *)
          Cpoint.request t.reg t.p_mshr.(core) ~tainted ~source:2 ~data;
          Cpoint.persistent t.reg t.p_mshr.(core)
            ~tainted:(tainted || conflict = same_set_tainted)
            ~source:2
            ~sub:(Cache.set_index t.l1d.(core) line)
            ~data;
          Blocked "mshr set conflict"
        end
        else if free < 0 then Blocked "mshrs full"
        else begin
          Cpoint.request t.reg t.p_mshr.(core) ~tainted ~source:0 ~data;
          t.mshrs.(core).(free) <-
            Some
              {
                m_line = line;
                m_set = Cache.set_index t.l1d.(core) line;
                m_tainted = tainted;
              };
          start_refill t ~core ~kind:`D ~line ~seq ~cycle ~mshr_idx:free
            ~tainted;
          add_waiter waiters key rob tainted;
          Waiting
        end
      end)

let dload t ~core ~seq ~rob ~addr ~cycle ~tainted =
  dmem_access t ~core ~seq ~rob ~addr ~cycle ~tainted ~is_store:false ~is_sc:false

let dstore t ~core ~seq ~rob ~addr ~is_sc ~cycle ~tainted =
  dmem_access t ~core ~seq ~rob ~addr ~cycle ~tainted ~is_store:true ~is_sc

let load_ready t ~core ~rob = Itbl.find t.load_ready_tbl.(core) rob ~default:(-1)
let store_ready t ~core ~rob = Itbl.find t.store_ready_tbl.(core) rob ~default:(-1)

(* --- Channel arbitration and completion --- *)

let read_beats = 8
let writeback_beats = 1

let grant_priority tr =
  (* ICache reads first, then DCache reads, then writebacks. *)
  if tr.writeback then 2 else match tr.kind with `I -> 0 | `D -> 1

(* The one writer of a core's ready tables, so the one way a sleeping
   core's inputs change: it marks the core woken. *)
let complete_transfer t tr ~cycle =
  tr.processed <- true;
  if tr.writeback then ()
  else begin
    t.woken.(tr.core) <- true;
    if tr.mshr_idx >= 0 then t.mshrs.(tr.core).(tr.mshr_idx) <- None;
    match tr.kind with
    | `I ->
        ignore
          (Cache.fill t.l1i.(tr.core) tr.line ~seq:tr.requester_seq ~cycle
             ~tainted:tr.tainted);
        (* The refill write occupies the ICache port, blocking fetch (S14). *)
        Cpoint.request t.reg t.p_icache_port.(tr.core) ~tainted:tr.tainted
          ~source:1 ~data:(Int64.to_int tr.line);
        t.icache_port_busy.(tr.core) <- cycle;
        Itbl.replace t.ifetch_ready_tbl.(tr.core)
          (Cache.line_key t.l1i.(tr.core) tr.line)
          (cycle + 1)
    | `D -> (
        let victim =
          Cache.fill t.l1d.(tr.core) tr.line ~seq:tr.requester_seq ~cycle
            ~tainted:tr.tainted
        in
        (* Evicting a dirty victim stalls the fill until the victim has a
           write-line-buffer slot (plus the handoff): the cost behind the
           store-conditional channel S10 and the write-buffer channel S7. *)
        let wb_penalty =
          match victim with
          | Some v when v.was_dirty ->
              let before = t.write_lb_busy.(tr.core) in
              enqueue_writeback t ~core:tr.core ~line:v.victim_addr ~cycle
                ~tainted:tr.tainted;
              6 + Int.max 0 (before + 1 - cycle)
          | Some _ | None -> 0
        in
        (* Wake loads through the read line buffer: youngest first, one per
           cycle (S6). *)
        let key = Cache.line_key t.l1d.(tr.core) tr.line in
        let load_waiters = t.load_waiters.(tr.core) in
        (match Lines.find_opt load_waiters key with
        | Some waiters ->
            let sorted =
              List.sort (fun a b -> Int.compare b.w_rob a.w_rob) !waiters
            in
            let n = List.length sorted in
            List.iteri
              (fun i w ->
                if n > 1 then
                  Cpoint.request t.reg t.p_lb_read.(tr.core) ~tainted:w.w_tainted
                    ~source:(if i = 0 then 1 else 0)
                    ~data:(Int64.to_int tr.line);
                Itbl.replace t.load_ready_tbl.(tr.core) w.w_rob
                  (cycle + 1 + (4 * i) + wb_penalty))
              sorted;
            Lines.remove load_waiters key
        | None -> ());
        let store_waiters = t.store_waiters.(tr.core) in
        match Lines.find_opt store_waiters key with
        | Some waiters ->
            ignore (Cache.mark_dirty t.l1d.(tr.core) tr.line);
            List.iter
              (fun w ->
                Itbl.replace t.store_ready_tbl.(tr.core) w.w_rob
                  (cycle + 1 + wb_penalty))
              !waiters;
            Lines.remove store_waiters key
        | None -> ())
  end

(* Complete the transfers due this cycle, in list order; whether any did. *)
let rec complete_due t ~cycle any = function
  | [] -> any
  | tr :: rest ->
      let due =
        tr.complete_at >= 0 && tr.complete_at <= cycle && not tr.processed
      in
      if due then complete_transfer t tr ~cycle;
      complete_due t ~cycle (any || due) rest

(* Every ready, ungranted transfer requests the channel, in list order;
   the first of the highest priority wins. *)
let rec request_channel t ~cycle winner = function
  | [] -> winner
  | tr :: rest ->
      let winner =
        if tr.granted || tr.ready_at > cycle then winner
        else begin
          Cpoint.request t.reg t.p_channel ~tainted:tr.tainted
            ~source:
              (channel_source ~core:tr.core ~kind:tr.kind ~writeback:tr.writeback)
            ~data:(Int64.to_int tr.line);
          match winner with
          | Some b when grant_priority b <= grant_priority tr -> winner
          | Some _ | None -> Some tr
        end
      in
      request_channel t ~cycle winner rest

let tick t ~cycle =
  (* Completions due this cycle; the list is rebuilt only when one
     happened. *)
  if complete_due t ~cycle false t.transfers then begin
    t.transfers <- List.filter (fun tr -> not tr.processed) t.transfers;
    Cpoint.mark_active t.reg
  end;
  (* Channel grant. *)
  if t.channel_busy_until <= cycle then
    match request_channel t ~cycle None t.transfers with
    | Some tr ->
        Cpoint.grant t.reg t.p_channel
          ~source:
            (channel_source ~core:tr.core ~kind:tr.kind ~writeback:tr.writeback);
        let beats = if tr.writeback then writeback_beats else read_beats in
        tr.granted <- true;
        tr.complete_at <- cycle + beats;
        t.channel_busy_until <- cycle + beats
    | None -> ()

let busy t = match t.transfers with [] -> false | _ :: _ -> true

let take_woken t ~core =
  let w = t.woken.(core) in
  t.woken.(core) <- false;
  w

(* The earliest cycle after [cycle] in which [tick] could act: a granted
   transfer completes at [complete_at]; an ungranted one requests the
   channel once it is ready and the channel is free. *)
let rec wake_of t ~soon wake = function
  | [] -> wake
  | tr :: rest ->
      let c =
        if tr.processed then max_int
        else if tr.granted then tr.complete_at
        else Int.max tr.ready_at t.channel_busy_until
      in
      wake_of t ~soon (Int.min wake (Int.max c soon)) rest

let next_wake t ~cycle = wake_of t ~soon:(cycle + 1) max_int t.transfers
