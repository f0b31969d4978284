type access_result = Ready of int | Waiting | Blocked of string

type transfer = {
  line : int64;
  kind : [ `I | `D ];
  core : int;
  requester_seq : int;
  writeback : bool;
  tainted : bool;
  mutable ready_at : int;
  mutable granted_at : int option;
  mutable complete_at : int option;
  mutable processed : bool;
  mshr_idx : int option;
}

type mshr_entry = { m_line : int64; m_set : int; m_tainted : bool }

type waiter = { w_rob : int; w_tainted : bool }

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
  load_waiters : (int * int64, waiter list ref) Hashtbl.t;
  store_waiters : (int * int64, waiter list ref) Hashtbl.t;
  load_ready_tbl : (int * int, int) Hashtbl.t;  (** (core, rob) -> cycle *)
  store_ready_tbl : (int * int, int) Hashtbl.t;
  ifetch_ready_tbl : (int * int64, int) Hashtbl.t;  (** (core, line) -> cycle *)
  icache_port_busy : int array;  (** per core: busy-until cycle *)
  write_lb_busy : int array;  (** per core: write line buffer busy-until *)
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
    mshrs = Array.init cores (fun _ -> Array.make (max cfg.mshrs 1) None);
    load_waiters = Hashtbl.create 32;
    store_waiters = Hashtbl.create 32;
    load_ready_tbl = Hashtbl.create 32;
    store_ready_tbl = Hashtbl.create 32;
    ifetch_ready_tbl = Hashtbl.create 32;
    icache_port_busy = Array.make cores (-1);
    write_lb_busy = Array.make cores (-1);
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

let reset t =
  (* Rewind all run state to what [create] builds, reusing every array,
     cache line and hashtable. The contention points themselves are reset
     through their registry ([Cpoint.reset]); this only clears the memory
     hierarchy. Paired with a registry reset, a reused memsys is
     bit-identical in behavior to a freshly created one. *)
  Array.iter Cache.reset t.l1i;
  Array.iter Cache.reset t.l1d;
  Cache.reset t.l2;
  t.transfers <- [];
  t.channel_busy_until <- 0;
  Array.iter (fun m -> Array.fill m 0 (Array.length m) None) t.mshrs;
  Hashtbl.reset t.load_waiters;
  Hashtbl.reset t.store_waiters;
  Hashtbl.reset t.load_ready_tbl;
  Hashtbl.reset t.store_ready_tbl;
  Hashtbl.reset t.ifetch_ready_tbl;
  Array.fill t.icache_port_busy 0 (Array.length t.icache_port_busy) (-1);
  Array.fill t.write_lb_busy 0 (Array.length t.write_lb_busy) (-1)

(* Checkpoint support.  Transfers are mutable records, so capture deep-
   copies each one (preserving list order — grant arbitration folds over
   the list).  Waiter lists are captured as [(key, contents)] and restored
   into fresh refs with their order preserved.  The remaining hashtables
   are read only via [find_opt], so assoc-list replay is faithful. *)

type save = {
  mutable s_transfers : transfer list;
  mutable s_channel_busy_until : int;
  s_mshrs : mshr_entry option array array;
  mutable s_load_waiters : ((int * int64) * waiter list) list;
  mutable s_store_waiters : ((int * int64) * waiter list) list;
  mutable s_load_ready : ((int * int) * int) list;
  mutable s_store_ready : ((int * int) * int) list;
  mutable s_ifetch_ready : ((int * int64) * int) list;
  s_icache_port_busy : int array;
  s_write_lb_busy : int array;
  s_l1i : Cache.save array;
  s_l1d : Cache.save array;
  s_l2 : Cache.save;
}

let make_save t =
  {
    s_transfers = [];
    s_channel_busy_until = 0;
    s_mshrs = Array.map (fun m -> Array.make (Array.length m) None) t.mshrs;
    s_load_waiters = [];
    s_store_waiters = [];
    s_load_ready = [];
    s_store_ready = [];
    s_ifetch_ready = [];
    s_icache_port_busy = Array.make t.cores (-1);
    s_write_lb_busy = Array.make t.cores (-1);
    s_l1i = Array.map Cache.make_save t.l1i;
    s_l1d = Array.map Cache.make_save t.l1d;
    s_l2 = Cache.make_save t.l2;
  }

let assoc_of_tbl tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let tbl_of_assoc tbl assoc =
  Hashtbl.reset tbl;
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) assoc

let capture t sv =
  sv.s_transfers <- List.map (fun tr -> { tr with ready_at = tr.ready_at }) t.transfers;
  sv.s_channel_busy_until <- t.channel_busy_until;
  Array.iteri (fun i m -> Array.blit m 0 sv.s_mshrs.(i) 0 (Array.length m)) t.mshrs;
  sv.s_load_waiters <-
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.load_waiters [];
  sv.s_store_waiters <-
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.store_waiters [];
  sv.s_load_ready <- assoc_of_tbl t.load_ready_tbl;
  sv.s_store_ready <- assoc_of_tbl t.store_ready_tbl;
  sv.s_ifetch_ready <- assoc_of_tbl t.ifetch_ready_tbl;
  Array.blit t.icache_port_busy 0 sv.s_icache_port_busy 0 t.cores;
  Array.blit t.write_lb_busy 0 sv.s_write_lb_busy 0 t.cores;
  Array.iteri (fun i c -> Cache.capture c sv.s_l1i.(i)) t.l1i;
  Array.iteri (fun i c -> Cache.capture c sv.s_l1d.(i)) t.l1d;
  Cache.capture t.l2 sv.s_l2

let restore t sv =
  t.transfers <- List.map (fun tr -> { tr with ready_at = tr.ready_at }) sv.s_transfers;
  t.channel_busy_until <- sv.s_channel_busy_until;
  Array.iteri (fun i m -> Array.blit sv.s_mshrs.(i) 0 m 0 (Array.length m)) t.mshrs;
  Hashtbl.reset t.load_waiters;
  List.iter (fun (k, l) -> Hashtbl.replace t.load_waiters k (ref l)) sv.s_load_waiters;
  Hashtbl.reset t.store_waiters;
  List.iter (fun (k, l) -> Hashtbl.replace t.store_waiters k (ref l)) sv.s_store_waiters;
  tbl_of_assoc t.load_ready_tbl sv.s_load_ready;
  tbl_of_assoc t.store_ready_tbl sv.s_store_ready;
  tbl_of_assoc t.ifetch_ready_tbl sv.s_ifetch_ready;
  Array.blit sv.s_icache_port_busy 0 t.icache_port_busy 0 t.cores;
  Array.blit sv.s_write_lb_busy 0 t.write_lb_busy 0 t.cores;
  Array.iteri (fun i c -> Cache.restore c sv.s_l1i.(i)) t.l1i;
  Array.iteri (fun i c -> Cache.restore c sv.s_l1d.(i)) t.l1d;
  Cache.restore t.l2 sv.s_l2

let find_transfer t ~core ~kind ~line =
  List.find_opt
    (fun tr ->
      tr.core = core && tr.kind = kind && Int64.equal tr.line line
      && not tr.writeback && not tr.processed)
    t.transfers

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
    ~data:line;
  let tr =
    {
      line;
      kind;
      core;
      requester_seq = seq;
      writeback = false;
      tainted;
      ready_at = l2_ready_time t ~cycle ~line ~seq ~tainted;
      granted_at = None;
      complete_at = None;
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
  Cpoint.request t.reg p ~tainted ~source:0 ~data:line;
  let start = max cycle (t.write_lb_busy.(core) + 1) in
  let delay = start - cycle in
  if delay > 0 then Cpoint.request t.reg p ~tainted ~source:1 ~data:line;
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
      granted_at = None;
      complete_at = None;
      processed = false;
      mshr_idx = None;
    }
  in
  t.transfers <- tr :: t.transfers

(* --- Instruction fetch --- *)

let ifetch t ~core ~addr ~cycle ~tainted =
  let line = Cache.line_addr t.l1i.(core) addr in
  let port = t.p_icache_port.(core) in
  Cpoint.request t.reg port ~tainted ~source:0 ~data:line;
  if t.icache_port_busy.(core) >= cycle then Blocked "icache port busy (refill)"
  else
    match Cache.lookup t.l1i.(core) addr with
    | Some _ -> Ready (cycle + t.cfg.icache.hit_latency)
    | None -> (
        match find_transfer t ~core ~kind:`I ~line with
        | Some _ -> Waiting
        | None ->
            start_refill t ~core ~kind:`I ~line ~seq:(-1) ~cycle ~mshr_idx:None
              ~tainted;
            Waiting)

let ifetch_ready t ~core ~addr =
  let line = Cache.line_addr t.l1i.(core) addr in
  Hashtbl.find_opt t.ifetch_ready_tbl (core, line)

(* --- Data loads --- *)

let add_waiter tbl key rob tainted =
  let w = { w_rob = rob; w_tainted = tainted } in
  match Hashtbl.find_opt tbl key with
  | Some l -> if not (List.exists (fun x -> x.w_rob = rob) !l) then l := w :: !l
  | None -> Hashtbl.replace tbl key (ref [ w ])

let mshr_lookup t ~core ~line =
  let set = Cache.set_index t.l1d.(core) line in
  let entries = t.mshrs.(core) in
  let n = Array.length entries in
  let rec go i free same_set =
    if i >= n then (free, same_set)
    else
      match entries.(i) with
      | None -> go (i + 1) (if free = None then Some i else free) same_set
      | Some e ->
          if Int64.equal e.m_line line then (free, `Same_line)
          else if e.m_set = set && same_set = `None then
            go (i + 1) free (`Same_set e.m_tainted)
          else go (i + 1) free same_set
  in
  go 0 None `None

let d_miss_in_flight t core =
  List.exists
    (fun tr -> tr.core = core && tr.kind = `D && not tr.writeback && not tr.processed)
    t.transfers

let dmem_access t ~core ~seq ~rob ~addr ~cycle ~tainted ~is_store ~is_sc =
  let l1d = t.l1d.(core) in
  let line = Cache.line_addr l1d addr in
  let source = if is_store then 1 else 0 in
  Cpoint.request t.reg t.p_dport.(core) ~tainted ~source ~data:line;
  match Cache.lookup l1d addr with
  | Some info ->
      if is_store then begin
        (* S10: store-conditionals dirty the line regardless of success. *)
        ignore (Cache.mark_dirty l1d addr);
        if is_sc then
          Cpoint.persistent t.reg t.p_dfill.(core) ~tainted ~source:1
            ~sub:(Cache.set_index l1d line) ~data:line
      end
      else if info.filler_seq > seq then
        (* S11: hit on a line filled by a younger in-flight instruction. *)
        Cpoint.persistent t.reg t.p_dfill.(core)
          ~tainted:(tainted || info.filler_tainted)
          ~source:0 ~sub:(Cache.set_index l1d line) ~data:line;
      Ready (cycle + t.cfg.dcache.hit_latency)
  | None -> (
      (* S12: miss on a line another instruction's fill recently evicted. *)
      (if not is_store then
         match Cache.recently_evicted l1d addr with
         | Some (evictor, ev_tainted) when evictor <> seq ->
             Cpoint.persistent t.reg t.p_dfill.(core)
               ~tainted:(tainted || ev_tainted) ~source:0
               ~sub:(Cache.set_index l1d line) ~data:line
         | Some _ | None -> ());
      let waiters = if is_store then t.store_waiters else t.load_waiters in
      match find_transfer t ~core ~kind:`D ~line with
      | Some _ ->
          (* sec-mode reuse of the in-flight MSHR. *)
          Cpoint.request t.reg t.p_mshr.(core) ~tainted ~source:1 ~data:line;
          add_waiter waiters (core, line) rob tainted;
          Waiting
      | None ->
          if t.cfg.mshrs = 0 then begin
            (* Blocking cache: one outstanding data miss. *)
            if d_miss_in_flight t core then Blocked "blocking cache: miss in flight"
            else begin
              start_refill t ~core ~kind:`D ~line ~seq ~cycle ~mshr_idx:None
                ~tainted;
              add_waiter waiters (core, line) rob tainted;
              Waiting
            end
          end
          else begin
            let free, conflict = mshr_lookup t ~core ~line in
            match conflict with
            | `Same_set occupant_tainted ->
                (* S5: set-index match, tag mismatch — refused until the
                   occupying MSHR retires ("false sharing path blocking"). *)
                Cpoint.request t.reg t.p_mshr.(core) ~tainted ~source:2 ~data:line;
                Cpoint.persistent t.reg t.p_mshr.(core)
                  ~tainted:(tainted || occupant_tainted) ~source:2
                  ~sub:(Cache.set_index t.l1d.(core) line)
                  ~data:line;
                Blocked "mshr set conflict"
            | `Same_line | `None -> (
                match free with
                | None -> Blocked "mshrs full"
                | Some idx ->
                    Cpoint.request t.reg t.p_mshr.(core) ~tainted ~source:0
                      ~data:line;
                    t.mshrs.(core).(idx) <-
                      Some
                        {
                          m_line = line;
                          m_set = Cache.set_index t.l1d.(core) line;
                          m_tainted = tainted;
                        };
                    start_refill t ~core ~kind:`D ~line ~seq ~cycle
                      ~mshr_idx:(Some idx) ~tainted;
                    add_waiter waiters (core, line) rob tainted;
                    Waiting)
          end)

let dload t ~core ~seq ~rob ~addr ~cycle ~tainted =
  dmem_access t ~core ~seq ~rob ~addr ~cycle ~tainted ~is_store:false ~is_sc:false

let dstore t ~core ~seq ~rob ~addr ~is_sc ~cycle ~tainted =
  dmem_access t ~core ~seq ~rob ~addr ~cycle ~tainted ~is_store:true ~is_sc

let load_ready t ~core ~rob = Hashtbl.find_opt t.load_ready_tbl (core, rob)
let store_ready t ~core ~rob = Hashtbl.find_opt t.store_ready_tbl (core, rob)

(* --- Channel arbitration and completion --- *)

let read_beats = 8
let writeback_beats = 1

let grant_priority tr =
  (* ICache reads first, then DCache reads, then writebacks. *)
  if tr.writeback then 2 else match tr.kind with `I -> 0 | `D -> 1

let complete_transfer t tr ~cycle =
  tr.processed <- true;
  if tr.writeback then ()
  else begin
    (match tr.mshr_idx with
    | Some idx -> t.mshrs.(tr.core).(idx) <- None
    | None -> ());
    match tr.kind with
    | `I ->
        ignore
          (Cache.fill t.l1i.(tr.core) tr.line ~seq:tr.requester_seq ~cycle
             ~tainted:tr.tainted);
        (* The refill write occupies the ICache port, blocking fetch (S14). *)
        Cpoint.request t.reg t.p_icache_port.(tr.core) ~tainted:tr.tainted
          ~source:1 ~data:tr.line;
        t.icache_port_busy.(tr.core) <- cycle;
        Hashtbl.replace t.ifetch_ready_tbl (tr.core, tr.line) (cycle + 1)
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
              6 + max 0 (before + 1 - cycle)
          | Some _ | None -> 0
        in
        (* Wake loads through the read line buffer: youngest first, one per
           cycle (S6). *)
        (match Hashtbl.find_opt t.load_waiters (tr.core, tr.line) with
        | Some waiters ->
            let sorted =
              List.sort (fun a b -> compare b.w_rob a.w_rob) !waiters
            in
            let n = List.length sorted in
            List.iteri
              (fun i w ->
                if n > 1 then
                  Cpoint.request t.reg t.p_lb_read.(tr.core) ~tainted:w.w_tainted
                    ~source:(if i = 0 then 1 else 0)
                    ~data:tr.line;
                Hashtbl.replace t.load_ready_tbl (tr.core, w.w_rob)
                  (cycle + 1 + (4 * i) + wb_penalty))
              sorted;
            Hashtbl.remove t.load_waiters (tr.core, tr.line)
        | None -> ());
        match Hashtbl.find_opt t.store_waiters (tr.core, tr.line) with
        | Some waiters ->
            ignore (Cache.mark_dirty t.l1d.(tr.core) tr.line);
            List.iter
              (fun w ->
                Hashtbl.replace t.store_ready_tbl (tr.core, w.w_rob)
                  (cycle + 1 + wb_penalty))
              !waiters;
            Hashtbl.remove t.store_waiters (tr.core, tr.line)
        | None -> ())
  end

(* Complete the transfers due this cycle, in list order; whether any did. *)
let rec complete_due t ~cycle any = function
  | [] -> any
  | tr :: rest ->
      let due =
        match tr.complete_at with
        | Some c -> c <= cycle && not tr.processed
        | None -> false
      in
      if due then complete_transfer t tr ~cycle;
      complete_due t ~cycle (any || due) rest

let rec any_grantable ~cycle = function
  | [] -> false
  | tr :: rest ->
      (Option.is_none tr.granted_at && tr.ready_at <= cycle) || any_grantable ~cycle rest

let tick t ~cycle =
  (* Completions due this cycle; the list is rebuilt only when one
     happened. *)
  if complete_due t ~cycle false t.transfers then
    t.transfers <- List.filter (fun tr -> not tr.processed) t.transfers;
  (* Channel grant. *)
  if t.channel_busy_until <= cycle && any_grantable ~cycle t.transfers then begin
    let ready =
      List.filter
        (fun tr -> Option.is_none tr.granted_at && tr.ready_at <= cycle)
        t.transfers
    in
    List.iter
      (fun tr ->
        Cpoint.request t.reg t.p_channel ~tainted:tr.tainted
          ~source:
            (channel_source ~core:tr.core ~kind:tr.kind ~writeback:tr.writeback)
          ~data:tr.line)
      ready;
    let winner =
      List.fold_left
        (fun best tr ->
          match best with
          | None -> Some tr
          | Some b ->
              if grant_priority tr < grant_priority b then Some tr else best)
        None ready
    in
    Option.iter
      (fun tr ->
        Cpoint.grant t.reg t.p_channel
          ~source:
            (channel_source ~core:tr.core ~kind:tr.kind ~writeback:tr.writeback);
        let beats = if tr.writeback then writeback_beats else read_beats in
        tr.granted_at <- Some cycle;
        tr.complete_at <- Some (cycle + beats);
        t.channel_busy_until <- cycle + beats)
      winner
  end

let busy t = t.transfers <> []
