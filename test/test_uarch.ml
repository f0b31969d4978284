(* Tests for the micro-architectural timing models: configurations, the
   contention-point registry, caches, execution units, and the machine. *)

open Sonar_isa
open Sonar_uarch

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let r = Reg.of_int

(* --- Config --- *)

let test_config_lookup () =
  checkb "boom" true (Config.by_name "boom" = Some Config.boom);
  checkb "nutshell" true (Config.by_name "nutshell" = Some Config.nutshell);
  checkb "unknown" true (Config.by_name "zen5" = None)

let test_config_table1 () =
  checki "boom rob" 96 Config.boom.rob_entries;
  checki "boom fetch width" 8 Config.boom.fetch_width;
  checki "boom mshrs" 2 Config.boom.mshrs;
  checki "nutshell rob" 32 Config.nutshell.rob_entries;
  checkb "nutshell mdu" true Config.nutshell.unified_mdu;
  checkb "exception policies differ" true
    (Config.boom.exception_policy = Config.Lazy_at_commit
    && Config.nutshell.exception_policy = Config.Early_at_execute)

let test_config_fanout_prefix () =
  checki "bare name" 420 (Config.fanout_of Config.boom "tilelink.d_channel");
  checki "core prefix stripped" 540 (Config.fanout_of Config.boom "c0.lsu.ldq_stq_idx");
  checki "unknown defaults to 1" 1 (Config.fanout_of Config.boom "made.up")

(* --- Cpoint --- *)

let registry () = Cpoint.create Config.boom

let test_cpoint_intervals_and_triggers () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.arb" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 10;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:1;
  Cpoint.set_cycle reg 13;
  Cpoint.request reg p ~tainted:true ~source:1 ~data:2;
  Alcotest.(check (option int))
    "pair interval 3" (Some 3) (Cpoint.snapshot p).s_min_pair;
  checkb "not yet triggered" true ((Cpoint.snapshot p).s_triggered = []);
  Cpoint.request reg p ~tainted:true ~source:0 ~data:3;
  checkb "same-cycle pair triggers" true ((Cpoint.snapshot p).s_triggered <> [])

let test_cpoint_taint_gating () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.arb2" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 5;
  Cpoint.request reg p ~tainted:false ~source:0 ~data:1;
  Cpoint.request reg p ~tainted:false ~source:1 ~data:2;
  checkb "untainted pair does not trigger" true ((Cpoint.snapshot p).s_triggered = []);
  Alcotest.(check (option int))
    "untainted pair not recorded" None (Cpoint.snapshot p).s_min_pair;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:3;
  checkb "tainted member triggers" true ((Cpoint.snapshot p).s_triggered <> [])

(* Regression for the incremental active-source counter: dominance must
   survive repeated one-source activity (in and out of the window) and be
   demoted exactly when a second source first requests in-window. *)
let test_cpoint_dominance_counter () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.dom" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b"; "c" ] () in
  Cpoint.set_cycle reg 1;
  (* Out-of-window requests do not count as activity. *)
  Cpoint.request reg p ~tainted:true ~source:1 ~data:1;
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 2;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:1;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:2;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:3;
  checkb "one active source: still dominated" true p.Cpoint.single_valid_dominated;
  checki "active sources" 1 p.Cpoint.active_sources;
  Cpoint.set_cycle reg 3;
  Cpoint.request reg p ~tainted:true ~source:2 ~data:4;
  checkb "second source demotes" false p.Cpoint.single_valid_dominated;
  checki "two active sources" 2 p.Cpoint.active_sources

let test_cpoint_window_gating () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.arb3" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b" ] () in
  Cpoint.set_cycle reg 5;
  (* window closed *)
  Cpoint.request reg p ~tainted:true ~source:0 ~data:1;
  Cpoint.request reg p ~tainted:true ~source:1 ~data:2;
  checkb "closed window: no triggers" true ((Cpoint.snapshot p).s_triggered = []);
  checki "closed window: no hits" 0 (p.Cpoint.hits.(0) + p.Cpoint.hits.(1))

let test_cpoint_single_source () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.lone" ~component:Sonar_ir.Component.Rob
      ~sources:[ "only" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 2;
  checkb "single-valid flagged" true p.Cpoint.single_valid;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:7;
  checkb "triggers on first risky request" true ((Cpoint.snapshot p).s_triggered <> [])

let test_cpoint_persistent () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.pers" ~component:Sonar_ir.Component.Lsu
      ~sources:[ "ld"; "st" ] ~persistent_subs:64 () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 1;
  Cpoint.persistent reg p ~tainted:false ~source:0 ~sub:5 ~data:1;
  checkb "untainted persistent ignored" true ((Cpoint.snapshot p).s_triggered = []);
  Cpoint.persistent reg p ~tainted:true ~source:0 ~sub:5 ~data:1;
  checkb "tainted persistent triggers" true
    (List.exists (fun (k, _) -> k = Cpoint.Persistent) (Cpoint.snapshot p).s_triggered)

let test_cpoint_snapshot_diff () =
  let mk hits =
    let reg = registry () in
    let p = Cpoint.point reg ~name:"t.snap" ~component:Sonar_ir.Component.Lsu
        ~sources:[ "a"; "b" ] () in
    Cpoint.open_window reg;
    for c = 1 to hits do
      Cpoint.set_cycle reg c;
      Cpoint.request reg p ~tainted:true ~source:0 ~data:c
    done;
    Cpoint.snapshot p
  in
  checkb "same activity: no diff" true
    (Cpoint.diff_snapshots [ mk 3 ] [ mk 3 ] = []);
  checkb "different activity: diff" true
    (Cpoint.diff_snapshots [ mk 3 ] [ mk 5 ] <> [])

(* --- Cache --- *)

let cache_cfg = { Config.size_kb = 32; ways = 8; line_bytes = 64; hit_latency = 3 }

let test_cache_hit_miss () =
  let c = Cache.create cache_cfg in
  checkb "cold miss" false (Cache.probe c 0x1000L);
  ignore (Cache.fill c 0x1000L ~seq:1 ~cycle:10 ~tainted:false);
  checkb "hit after fill" true (Cache.probe c 0x1000L);
  checkb "same line different word" true (Cache.probe c 0x1020L);
  checkb "different line" false (Cache.probe c 0x1040L)

let test_cache_eviction () =
  let c = Cache.create cache_cfg in
  (* 32KB/8w/64B = 64 sets; stride 4096 hits the same set. *)
  for k = 0 to 7 do
    ignore (Cache.fill c (Int64.of_int (4096 * k)) ~seq:k ~cycle:k ~tainted:false)
  done;
  checkb "all ways resident" true (Cache.probe c 0L);
  let victim = Cache.fill c (Int64.of_int (4096 * 8)) ~seq:9 ~cycle:9 ~tainted:true in
  checkb "eviction happened" true (victim <> None);
  checkb "LRU way evicted" false (Cache.probe c 0L);
  checkb "recently evicted recorded" true
    (match Cache.recently_evicted c 0L with
    | Some (9, true) -> true
    | _ -> false)

let test_cache_dirty () =
  let c = Cache.create cache_cfg in
  ignore (Cache.fill c 0x2000L ~seq:1 ~cycle:1 ~tainted:false);
  checkb "clean after fill" false (Cache.is_dirty c 0x2000L);
  checkb "mark dirty" true (Cache.mark_dirty c 0x2000L);
  checkb "dirty now" true (Cache.is_dirty c 0x2000L);
  checkb "mark missing line" false (Cache.mark_dirty c 0x9000L)

let test_cache_fill_info () =
  let c = Cache.create cache_cfg in
  ignore (Cache.fill c 0x3000L ~seq:42 ~cycle:7 ~tainted:true);
  match Cache.lookup c 0x3000L with
  | Some info ->
      checki "filler seq" 42 info.Cache.filler_seq;
      checkb "filler taint" true info.filler_tainted
  | None -> Alcotest.fail "expected hit"

(* Rewinds ([Capture] copies the cache into a clone, [Restore] copies
   it back) visit only the lines a run filled; whatever they touch, the
   rewound cache must be observably a fresh cache that replays the
   operations leading to the rewound state: everything up to the
   capture.  [Cold] copies a clone of a fresh cache back — the rewind to
   cold start every reused run context makes — so its replay is
   everything since.  [Transplant] copies the cache through a clone of
   its own into a freshly created one and carries on there with the log
   unchanged, so a clone must carry all of the cache's state by itself.
   A 4-set, 4-way cache over a pool of 6 tags per set forces conflicts
   and dirty evictions. *)

type cache_op =
  | Fill of int64 * int * bool  (* address, filler seq, tainted *)
  | Lookup of int64
  | Mark_dirty of int64
  | Cold
  | Capture
  | Restore
  | Transplant

let rewind_cfg = { Config.size_kb = 1; ways = 4; line_bytes = 64; hit_latency = 1 }
let rewind_pool = Array.init 24 (fun i -> Int64.of_int ((i * 64) + (i mod 3 * 8)))

(* Four tags outside the pool for every set: filling them evicts each
   set's whole contents in LRU order, exposing tags and dirtiness. *)
let rewind_followup = List.init 16 (fun k -> Int64.of_int ((24 + k) * 64))

let apply_cache_op c = function
  | Fill (a, seq, tainted) -> ignore (Cache.fill c a ~seq ~cycle:seq ~tainted)
  | Lookup a -> ignore (Cache.lookup c a)
  | Mark_dirty a -> ignore (Cache.mark_dirty c a)
  | Cold | Capture | Restore | Transplant -> ()

(* The observation mutates (lookups touch LRU, fills evict), so it is
   itself a fixed operation sequence the replay log must then include. *)
let observe_ops =
  List.map (fun a -> Lookup a) (Array.to_list rewind_pool)
  @ List.map (fun a -> Fill (a, 999, false)) rewind_followup

let observe c =
  let pool = Array.to_list rewind_pool in
  let passive =
    List.map
      (fun a -> (Cache.probe c a, Cache.is_dirty c a, Cache.recently_evicted c a))
      pool
  in
  let infos = List.map (Cache.lookup c) pool in
  let victims =
    List.map (fun a -> Cache.fill c a ~seq:999 ~cycle:999 ~tainted:false)
      rewind_followup
  in
  (passive, infos, victims)

let show_cache_op = function
  | Fill (a, seq, t) -> Printf.sprintf "fill %Ld seq=%d%s" a seq (if t then " t" else "")
  | Lookup a -> Printf.sprintf "lookup %Ld" a
  | Mark_dirty a -> Printf.sprintf "dirty %Ld" a
  | Cold -> "restore cold"
  | Capture -> "capture"
  | Restore -> "restore"
  | Transplant -> "transplant"

let prop_cache_rewind =
  let gen =
    let open QCheck2.Gen in
    let addr = map (fun i -> rewind_pool.(i)) (int_bound 23) in
    list_size (int_range 0 80)
      (frequency
         [
           (5, map3 (fun a seq t -> Fill (a, seq, t)) addr (int_bound 100) bool);
           (2, map (fun a -> Lookup a) addr);
           (2, map (fun a -> Mark_dirty a) addr);
           (1, pure Cold);
           (1, pure Capture);
           (1, pure Restore);
           (1, pure Transplant);
         ])
  in
  QCheck2.Test.make ~name:"cache rewind = fresh replay" ~count:300
    ~long_factor:25
    ~print:(fun ops -> String.concat "; " (List.map show_cache_op ops))
    gen
    (fun ops ->
      let c = ref (Cache.create rewind_cfg) in
      let cold = Cache.clone (Cache.create rewind_cfg) in
      let sv = Cache.clone cold in
      (* [log]: reversed ops that take a fresh cache to [!c]'s state. *)
      let log = ref [] and saved = ref None in
      let matches_replay () =
        let fresh = Cache.create rewind_cfg in
        List.iter (apply_cache_op fresh) (List.rev !log);
        let same = observe !c = observe fresh in
        log := List.rev_append observe_ops !log;
        same
      in
      List.for_all
        (fun op ->
          match (op, !saved) with
          | Cold, _ ->
              Cache.copy ~src:cold ~dst:!c;
              log := [];
              matches_replay ()
          | Capture, _ ->
              Cache.copy ~src:!c ~dst:sv;
              saved := Some !log;
              true
          | Restore, None -> true
          | Restore, Some l ->
              Cache.copy ~src:sv ~dst:!c;
              log := l;
              matches_replay ()
          | Transplant, _ ->
              let k = Cache.clone !c and fresh = Cache.create rewind_cfg in
              Cache.copy ~src:k ~dst:fresh;
              c := fresh;
              matches_replay ()
          | op, _ ->
              apply_cache_op !c op;
              log := op :: !log;
              true)
        ops)

(* --- Exec units --- *)

let test_exec_alu_slots () =
  let reg = registry () in
  let pool = Exec_unit.create Config.boom reg ~core:0 in
  Exec_unit.new_cycle pool;
  checkb "slot 1" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false >= 0);
  checkb "slot 2" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false >= 0);
  checkb "slot 3" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false >= 0);
  checkb "no slot 4" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false < 0);
  Exec_unit.new_cycle pool;
  checkb "fresh next cycle" true (Exec_unit.try_issue_alu pool ~cycle:2 ~tainted:false >= 0)

let test_exec_div_unpipelined () =
  let reg = registry () in
  let pool = Exec_unit.create Config.boom reg ~core:0 in
  Exec_unit.new_cycle pool;
  let first = Exec_unit.try_issue_div pool ~cycle:1 ~operand:1000L ~tainted:false in
  checkb "first div accepted" true (first >= 0);
  checkb "second div refused" true
    (Exec_unit.try_issue_div pool ~cycle:2 ~operand:1000L ~tainted:false < 0);
  let done_at = first in
  checkb "free after completion" true
    (Exec_unit.try_issue_div pool ~cycle:done_at ~operand:1000L ~tainted:false >= 0)

let test_exec_wb_priority () =
  let reg = registry () in
  let pool = Exec_unit.create Config.boom reg ~core:0 in
  (* boom has 2 writeback ports; a div, a mul and two alus contend. *)
  Exec_unit.request_writeback pool Exec_unit.Wb_div ~id:1 ~tainted:false;
  Exec_unit.request_writeback pool Exec_unit.Wb_alu ~id:2 ~tainted:false;
  Exec_unit.request_writeback pool Exec_unit.Wb_mul ~id:3 ~tainted:false;
  Exec_unit.request_writeback pool Exec_unit.Wb_alu ~id:4 ~tainted:false;
  let grants () =
    List.init (Exec_unit.arbitrate_writeback pool) (Exec_unit.granted pool)
  in
  Alcotest.(check (list int)) "alus win the ports" [ 2; 4 ] (grants ());
  Alcotest.(check (list int)) "mul then div next" [ 3; 1 ] (grants ())

let test_exec_mdu_shared () =
  let reg = Cpoint.create Config.nutshell in
  let pool = Exec_unit.create Config.nutshell reg ~core:0 in
  Exec_unit.new_cycle pool;
  checkb "mul takes mdu" true
    (Exec_unit.try_issue_mul pool ~cycle:1 ~operand:10L ~tainted:false >= 0);
  checkb "div blocked by mul" true
    (Exec_unit.try_issue_div pool ~cycle:2 ~operand:10L ~tainted:false < 0)

(* The writeback arbiter as a list, newest request at the head: the model
   the array arbiter in [Exec_unit] must reproduce grant for grant and
   request for request, since its contention point's digest and intervals
   observe the order. *)
module Wb_list = struct
  type req = { id : int; src : int; tainted : bool }

  type t = {
    reg : Cpoint.registry;
    p : Cpoint.t;
    ports : int;
    mutable pending : req list;
  }

  let create (cfg : Config.t) reg =
    {
      reg;
      p =
        Cpoint.point reg ~name:"c0.exec.wb_port"
          ~component:Sonar_ir.Component.Exec
          ~sources:[ "alu"; "imul"; "div"; "mem" ] ();
      ports = cfg.wb_ports;
      pending = [];
    }

  let request t ~id ~src ~tainted = t.pending <- { id; src; tainted } :: t.pending
  let purge t ~keep = t.pending <- List.filter (fun r -> keep r.id) t.pending

  let arbitrate t =
    List.iter
      (fun r -> Cpoint.request ~tainted:r.tainted t.reg t.p ~source:r.src ~data:r.id)
      t.pending;
    let sorted =
      List.sort
        (fun a b -> match compare a.src b.src with 0 -> compare a.id b.id | c -> c)
        t.pending
    in
    let granted = List.filteri (fun i _ -> i < t.ports) sorted in
    List.iter (fun r -> Cpoint.grant t.reg t.p ~source:r.src) granted;
    t.pending <- List.filteri (fun i _ -> i >= t.ports) sorted;
    List.map (fun r -> r.id) granted
end

type wb_op =
  | Wb_request of int * int * bool  (* class, id, tainted *)
  | Wb_arbitrate
  | Wb_purge of int  (* keep ids up to *)
  | Wb_capture
  | Wb_restore

let show_wb_op = function
  | Wb_request (c, id, t) -> Printf.sprintf "request(%d,%d,%b)" c id t
  | Wb_arbitrate -> "arbitrate"
  | Wb_purge k -> Printf.sprintf "purge(<=%d)" k
  | Wb_capture -> "capture"
  | Wb_restore -> "restore"

let wb_classes = [| Exec_unit.Wb_alu; Wb_mul; Wb_div; Wb_mem |]

(* Random request / arbitrate / purge / capture / restore sequences give
   the same grants in the same order, and leave the writeback point with
   the same digest, counts, intervals and triggers. Ids repeat, so queue
   order among equal (class, id) requests — told apart by their taint —
   is checked too. *)
let prop_wb_arbiter_matches_list =
  let gen =
    let open QCheck2.Gen in
    pair bool
      (list_size (int_range 0 120)
         (frequency
            [
              ( 6,
                map3 (fun c id t -> Wb_request (c, id, t)) (int_bound 3)
                  (int_bound 24) bool );
              (4, pure Wb_arbitrate);
              (1, map (fun k -> Wb_purge k) (int_bound 24));
              (1, pure Wb_capture);
              (1, pure Wb_restore);
            ]))
  in
  QCheck2.Test.make ~name:"wb arbiter = list model" ~count:300
    ~long_factor:25
    ~print:(fun (n, ops) ->
      Printf.sprintf "nutshell=%b: %s" n
        (String.concat "; " (List.map show_wb_op ops)))
    gen
    (fun (nutshell, ops) ->
      let cfg = if nutshell then Config.nutshell else Config.boom in
      let reg = Cpoint.create cfg and ref_reg = Cpoint.create cfg in
      let pool = Exec_unit.create cfg reg ~core:0 in
      let model = Wb_list.create cfg ref_reg in
      let sv = Exec_unit.clone pool and saved = ref None in
      Cpoint.open_window reg;
      Cpoint.open_window ref_reg;
      let cycle = ref 0 in
      let same_grants =
        List.for_all
          (fun op ->
            match op with
            | Wb_request (c, id, tainted) ->
                Exec_unit.request_writeback pool wb_classes.(c) ~id ~tainted;
                Wb_list.request model ~id ~src:c ~tainted;
                true
            | Wb_arbitrate ->
                incr cycle;
                Cpoint.set_cycle reg !cycle;
                Cpoint.set_cycle ref_reg !cycle;
                let n = Exec_unit.arbitrate_writeback pool in
                List.init n (Exec_unit.granted pool) = Wb_list.arbitrate model
            | Wb_purge k ->
                Exec_unit.purge_writeback pool ~keep:(fun id -> id <= k);
                Wb_list.purge model ~keep:(fun id -> id <= k);
                true
            | Wb_capture ->
                Exec_unit.copy ~src:pool ~dst:sv;
                saved := Some model.pending;
                true
            | Wb_restore ->
                (match !saved with
                | Some pending ->
                    Exec_unit.copy ~src:sv ~dst:pool;
                    model.pending <- pending
                | None -> ());
                true)
          ops
      in
      let observe p =
        (Cpoint.snapshot p, p.Cpoint.event_count)
      in
      let wb_point =
        List.find
          (fun p -> p.Cpoint.name = "c0.exec.wb_port")
          (Cpoint.points reg)
      in
      same_grants && observe wb_point = observe model.p)

(* The name-table snapshot diff that [Cpoint.diff_snapshots] replaced with
   a positional one (and whose text [Cpoint.diff_text] now formats on
   demand), kept as its reference. *)
let diff_by_name a b =
  let opt_str = function None -> "-" | Some v -> string_of_int v in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let tb = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tb s.Cpoint.point_name s) b;
  List.filter_map
    (fun (sa : Cpoint.snapshot) ->
      match Hashtbl.find_opt tb sa.point_name with
      | None -> Some (sa.point_name, "present only under secret=0")
      | Some sb ->
          let diffs = ref [] in
          if sa.s_hits <> sb.s_hits then
            diffs :=
              Printf.sprintf "request counts %s vs %s" (ints sa.s_hits)
                (ints sb.s_hits)
              :: !diffs;
          if sa.s_min_pair <> sb.s_min_pair then
            diffs :=
              Printf.sprintf "min reqsIntvl %s vs %s" (opt_str sa.s_min_pair)
                (opt_str sb.s_min_pair)
              :: !diffs;
          if sa.s_triggered <> sb.s_triggered then
            diffs :=
              Printf.sprintf "triggered sub-points %d vs %d"
                (List.length sa.s_triggered) (List.length sb.s_triggered)
              :: !diffs;
          if !diffs = [] && sa.s_digest <> sb.s_digest then
            diffs := [ "event stream differs" ];
          if !diffs = [] then None
          else Some (sa.point_name, String.concat "; " (List.rev !diffs)))
    a

(* Snapshot lists of two runs on one registry: the same names, each at
   most once, in the same order. *)
let prop_diff_snapshots_positional =
  let gen =
    let open QCheck2.Gen in
    let snapshot name =
      map3
        (fun hits (min_pair, subs) digest ->
          {
            Cpoint.point_name = name;
            s_component = Sonar_ir.Component.Lsu;
            s_fanout = 1;
            s_max_subs = Cpoint.data_buckets;
            s_single_valid = false;
            s_n_sources = 2;
            s_hits = Array.of_list hits;
            s_min_pair = min_pair;
            s_min_self = None;
            s_triggered = List.map (fun s -> (Cpoint.Volatile, s)) subs;
            s_pair_intervals = [];
            s_digest = digest;
          })
        (list_size (int_range 1 2) (int_bound 2))
        (pair (opt (int_bound 2)) (list_size (int_bound 2) (int_bound 3)))
        (int_bound 2)
    in
    let names =
      map2
        (fun keep names -> List.filteri (fun i _ -> List.nth keep i) names)
        (list_repeat 6 bool)
        (shuffle_l [ "a"; "b"; "c"; "d"; "e"; "f" ])
    in
    let snapshots l = flatten_l (List.map snapshot l) in
    bind names (fun l -> pair (snapshots l) (snapshots l))
  in
  QCheck2.Test.make ~name:"positional snapshot diff = name-table diff"
    ~count:500 gen (fun (a, b) ->
      List.map
        (fun d -> (Cpoint.diff_point d, Cpoint.diff_text d))
        (Cpoint.diff_snapshots a b)
      = diff_by_name a b)

(* Three [Itbl]s of different starting capacities against [Hashtbl]
   models under random replace/find/blit sequences on a small key range,
   so bindings collide, tables grow between blits, and blits copy into
   smaller, equal and larger tables (and onto themselves). Lookups also
   try negative keys, which are never bound. After every operation each
   table has exactly its model's bindings over the whole key range, so a
   stale binding left by [blit] shows at once. *)
let prop_itbl_matches_hashtbl =
  let gen =
    let open QCheck2.Gen in
    list_size (int_range 0 200)
      (frequency
         [
           ( 6,
             map3 (fun i k v -> `Replace (i, k, v)) (int_bound 2) (int_bound 400)
               (int_bound 9) );
           (3, map2 (fun i k -> `Find (i, k)) (int_bound 2) (int_range (-2) 400));
           (2, map2 (fun i j -> `Blit (i, j)) (int_bound 2) (int_bound 2));
         ])
  in
  QCheck2.Test.make ~name:"Itbl = Hashtbl" ~count:300 gen (fun ops ->
      let tables = [| Itbl.create 0; Itbl.create 8; Itbl.create 100 |] in
      let models = Array.init 3 (fun _ -> Hashtbl.create 8) in
      let agrees i =
        let t = tables.(i) and m = models.(i) in
        let rec from k =
          k > 400
          || Itbl.mem t k = Hashtbl.mem m k
             && Itbl.find t k ~default:(-1)
                = Option.value ~default:(-1) (Hashtbl.find_opt m k)
             && from (k + 1)
        in
        from (-2)
      in
      List.for_all
        (fun op ->
          (match op with
          | `Replace (i, k, v) ->
              Hashtbl.replace models.(i) k v;
              Itbl.replace tables.(i) k v
          | `Find _ -> ()
          | `Blit (i, j) ->
              let copy = Hashtbl.copy models.(i) in
              Hashtbl.reset models.(j);
              Hashtbl.iter (Hashtbl.replace models.(j)) copy;
              Itbl.blit ~src:tables.(i) ~dst:tables.(j));
          (match op with
          | `Find (i, k) ->
              Itbl.find tables.(i) k ~default:(-7)
              = Option.value ~default:(-7) (Hashtbl.find_opt models.(i) k)
              && Itbl.mem tables.(i) k = Hashtbl.mem models.(i) k
          | _ -> true)
          && agrees 0 && agrees 1 && agrees 2)
        ops)

(* The registry as it was when triggered sub-points and pair minima were
   hash tables read out by a sort: the reference for the dense bitset and
   interval arrays. One [Cpoint_ref.point] mirrors one [Cpoint.t]. *)
module Cpoint_ref = struct
  type point = {
    name : string;
    n : int;
    max_subs : int;
    last_valid : int array;
    hits : int array;
    last_tainted : bool array;
    mutable min_pair : int option;
    mutable min_self : int option;
    mutable active : int;
    mutable dominated : bool;
    triggered : (Cpoint.kind * int, unit) Hashtbl.t;
    pair_min : (int, int) Hashtbl.t;
    mutable digest : int;
    mutable events : int;
  }

  type t = {
    points : point array;
    mutable cycle : int;
    mutable open_ : bool;
    mutable first_open : int;
    mutable last_open : int;
  }

  let volatile_slots p = max 1 (p.n * (p.n - 1) / 2) * Cpoint.data_buckets

  let point ~name ~n ~persistent_subs =
    {
      name;
      n;
      max_subs = (max 1 (n * (n - 1) / 2) * Cpoint.data_buckets) + persistent_subs;
      last_valid = Array.make n (-1);
      hits = Array.make n 0;
      last_tainted = Array.make n false;
      min_pair = None;
      min_self = None;
      active = 0;
      dominated = true;
      triggered = Hashtbl.create 8;
      pair_min = Hashtbl.create 8;
      digest = Hashtbl.hash name;
      events = 0;
    }

  let copy_point p =
    {
      p with
      last_valid = Array.copy p.last_valid;
      hits = Array.copy p.hits;
      last_tainted = Array.copy p.last_tainted;
      triggered = Hashtbl.copy p.triggered;
      pair_min = Hashtbl.copy p.pair_min;
    }

  let copy t = { t with points = Array.map copy_point t.points }

  let mix digest v = (digest * 0x01000193) lxor (v land 0xFFFFFF)
  let bucket data = (data * 0x9E3779B9) land (Cpoint.data_buckets - 1)

  let pair_sub n i j =
    let i, j = if i < j then (i, j) else (j, i) in
    (i * (2 * n - i - 1) / 2) + (j - i - 1)

  let update_min cur v = match cur with Some m when m <= v -> cur | _ -> Some v

  let request t p ~tainted ~source ~data =
    let cycle = t.cycle in
    if t.open_ then begin
      if p.hits.(source) = 0 then p.active <- p.active + 1;
      p.hits.(source) <- p.hits.(source) + 1;
      p.events <- p.events + 1;
      p.digest <-
        mix (mix p.digest (source + (cycle land 0xFF))) (data land 0xFFFF);
      if p.dominated && p.active > 1 then p.dominated <- false;
      if p.n = 1 && tainted then
        Hashtbl.replace p.triggered (Cpoint.Volatile, bucket data) ();
      if p.last_valid.(source) >= 0 then
        p.min_self <- update_min p.min_self (cycle - p.last_valid.(source));
      for other = 0 to p.n - 1 do
        if other <> source && p.last_valid.(other) >= 0 then begin
          let interval = cycle - p.last_valid.(other) in
          if tainted || p.last_tainted.(other) then begin
            p.min_pair <- update_min p.min_pair interval;
            let pair = pair_sub p.n source other in
            (match Hashtbl.find_opt p.pair_min pair with
            | Some m when m <= interval -> ()
            | Some _ | None -> Hashtbl.replace p.pair_min pair interval);
            if interval = 0 then
              Hashtbl.replace p.triggered
                (Cpoint.Volatile, (pair * Cpoint.data_buckets) + bucket data)
                ()
          end
        end
      done
    end;
    p.last_valid.(source) <- cycle;
    p.last_tainted.(source) <- tainted

  let grant t p ~source = if t.open_ then p.digest <- mix p.digest (0x5A + source)

  let persistent t p ~tainted ~source ~sub ~data =
    if t.open_ then begin
      p.events <- p.events + 1;
      p.digest <- mix (mix p.digest (0xBEEF + source)) (data land 0xFFFF);
      if tainted then begin
        let slots = volatile_slots p in
        let persistent_slots = max 1 (p.max_subs - slots) in
        Hashtbl.replace p.triggered
          (Cpoint.Persistent, slots + (sub mod persistent_slots))
          ()
      end
    end

  let set_cycle t c =
    t.cycle <- c;
    if t.open_ then t.last_open <- c

  let open_window t =
    t.open_ <- true;
    if t.first_open < 0 then t.first_open <- t.cycle;
    t.last_open <- t.cycle

  let triggered_subs p =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) p.triggered [])

  let pair_intervals p =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.pair_min [])

  (* A point's snapshot; the shape it was registered with beyond name,
     sub-point count and source count comes from [shape]. *)
  let snapshot (shape : Cpoint.snapshot) p =
    {
      shape with
      Cpoint.point_name = p.name;
      s_max_subs = p.max_subs;
      s_n_sources = p.n;
      s_hits = Array.copy p.hits;
      s_min_pair = p.min_pair;
      s_min_self = p.min_self;
      s_triggered = triggered_subs p;
      s_pair_intervals = pair_intervals p;
      s_digest = p.digest;
    }
end

type cpoint_op =
  | Cp_request of int * int * bool * int  (* point, source, tainted, data *)
  | Cp_grant of int * int
  | Cp_persistent of int * int * bool * int * int  (* ..., sub, data *)
  | Cp_open
  | Cp_close
  | Cp_cycle of int  (* advance by *)
  | Cp_capture
  | Cp_restore
  | Cp_transplant

let show_cpoint_op = function
  | Cp_request (p, s, t, d) -> Printf.sprintf "request(p%d,s%d,%b,%d)" p s t d
  | Cp_grant (p, s) -> Printf.sprintf "grant(p%d,s%d)" p s
  | Cp_persistent (p, s, t, sub, d) ->
      Printf.sprintf "persistent(p%d,s%d,%b,sub %d,%d)" p s t sub d
  | Cp_open -> "open"
  | Cp_close -> "close"
  | Cp_cycle d -> Printf.sprintf "cycle+%d" d
  | Cp_capture -> "capture"
  | Cp_restore -> "restore"
  | Cp_transplant -> "transplant"

(* Point shapes: (sources, persistent subs). One source triggers on its
   own; a point with no persistent subs puts every persistent event on
   id [max_subs]. *)
let cpoint_shapes = [| (1, 0); (2, 0); (2, 5); (3, 64); (4, 0) |]

(* Random request / grant / persistent / window / cycle / capture /
   restore / transplant sequences over points of every shape: after every
   step, each point's triggered sub-points, pair intervals, minima and
   snapshot, and the window bounds, equal the hash-table reference's.
   Capture copies the registry into a clone and restore copies it back;
   transplant copies it through a clone of its own into a freshly built
   registry and carries on there, so a clone must carry all of the
   registry's state by itself. *)
let prop_cpoint_matches_reference =
  let gen =
    let open QCheck2.Gen in
    let point = int_bound (Array.length cpoint_shapes - 1) in
    let data = oneof [ int_range (-1000) 1000; int ] in
    list_size (int_range 0 150)
      (frequency
         [
           ( 8,
             map2
               (fun (p, s) (t, d) -> Cp_request (p, s, t, d))
               (pair point (int_bound 3)) (pair bool data) );
           (2, map2 (fun p s -> Cp_grant (p, s)) point (int_bound 3));
           ( 3,
             map3
               (fun (p, s) (t, sub) d -> Cp_persistent (p, s, t, sub, d))
               (pair point (int_bound 3)) (pair bool (int_bound 200)) data );
           (1, pure Cp_open);
           (1, pure Cp_close);
           (4, map (fun d -> Cp_cycle d) (int_bound 3));
           (1, pure Cp_capture);
           (1, pure Cp_restore);
           (1, pure Cp_transplant);
         ])
  in
  QCheck2.Test.make ~name:"dense cpoint state = hash-table reference" ~count:300
    ~long_factor:25
    ~print:(fun ops -> String.concat "; " (List.map show_cpoint_op ops))
    gen
    (fun ops ->
      let fresh () =
        let reg = Cpoint.create Config.boom in
        let points =
          Array.mapi
            (fun i (n, persistent_subs) ->
              Cpoint.point reg ~name:(Printf.sprintf "t.p%d" i)
                ~component:Sonar_ir.Component.Lsu
                ~sources:(List.init n (Printf.sprintf "s%d"))
                ~persistent_subs ())
            cpoint_shapes
        in
        (reg, points)
      in
      let reg, points = fresh () in
      let live = ref reg and live_points = ref points in
      let model =
        {
          Cpoint_ref.points =
            Array.mapi
              (fun i (n, persistent_subs) ->
                Cpoint_ref.point
                  ~name:(Printf.sprintf "t.p%d" i)
                  ~n ~persistent_subs)
              cpoint_shapes;
          cycle = 0;
          open_ = false;
          first_open = -1;
          last_open = -1;
        }
      in
      let sv = Cpoint.clone reg and saved = ref None in
      let agrees () =
        Cpoint.window_bounds !live
        = (if model.first_open < 0 then None
           else Some (model.first_open, model.last_open))
        && Array.for_all2
             (fun p (m : Cpoint_ref.point) ->
               let s = Cpoint.snapshot p in
               s = Cpoint_ref.snapshot s m
               && p.Cpoint.event_count = m.events
               && p.active_sources = m.active
               && p.single_valid_dominated = m.dominated)
             !live_points model.points
      in
      List.for_all
        (fun op ->
          let reg = !live and points = !live_points in
          (match op with
          | Cp_request (i, s, tainted, data) ->
              let source = s mod Array.length points.(i).Cpoint.sources in
              Cpoint.request reg points.(i) ~tainted ~source ~data;
              Cpoint_ref.request model model.points.(i) ~tainted ~source ~data
          | Cp_grant (i, s) ->
              let source = s mod Array.length points.(i).Cpoint.sources in
              Cpoint.grant reg points.(i) ~source;
              Cpoint_ref.grant model model.points.(i) ~source
          | Cp_persistent (i, s, tainted, sub, data) ->
              let source = s mod Array.length points.(i).Cpoint.sources in
              Cpoint.persistent reg points.(i) ~tainted ~source ~sub ~data;
              Cpoint_ref.persistent model model.points.(i) ~tainted ~source ~sub
                ~data
          | Cp_open ->
              Cpoint.open_window reg;
              Cpoint_ref.open_window model
          | Cp_close ->
              Cpoint.close_window reg;
              model.open_ <- false
          | Cp_cycle d ->
              Cpoint.set_cycle reg (model.cycle + d);
              Cpoint_ref.set_cycle model (model.cycle + d)
          | Cp_capture ->
              Cpoint.copy ~src:reg ~dst:sv;
              saved := Some (Cpoint_ref.copy model)
          | Cp_restore -> (
              match !saved with
              | Some m ->
                  Cpoint.copy ~src:sv ~dst:reg;
                  let m = Cpoint_ref.copy m in
                  Array.blit m.points 0 model.points 0 (Array.length m.points);
                  model.cycle <- m.cycle;
                  model.open_ <- m.open_;
                  model.first_open <- m.first_open;
                  model.last_open <- m.last_open
              | None -> ())
          | Cp_transplant ->
              let k = Cpoint.clone reg and fresh_reg, fresh_points = fresh () in
              Cpoint.copy ~src:k ~dst:fresh_reg;
              live := fresh_reg;
              live_points := fresh_points);
          agrees ())
        ops)

(* --- Machine --- *)

let straightline_program rng_seed =
  let rng = Sonar.Rng.create rng_seed in
  let instrs =
    Sonar.Testcase.random_instr rng
    @ Sonar.Testcase.random_instr rng
    @ Sonar.Testcase.random_instr rng
  in
  Program.make
    (Asm.li (r 11) 0x10000000L @ Asm.li (r 20) 0x10001000L
    @ Asm.li (r 21) 0x10002000L @ Asm.li (r 22) 0x10004000L
    @ instrs @ [ Asm.halt ])

let test_machine_commits_match_golden () =
  (* The timing model must commit exactly the golden architectural trace. *)
  for seed = 1 to 20 do
    let p = straightline_program (Int64.of_int seed) in
    let g = Golden.run p in
    let m = Machine.run_single Config.boom p in
    let commits = m.Machine.cores.(0).commits in
    checki
      (Printf.sprintf "commit count (seed %d)" seed)
      (Array.length g.Golden.trace)
      (List.length commits);
    List.iteri
      (fun i (c : Core_model.commit_record) ->
        checkb "same dynamic instruction" true
          (Instr.equal c.c_eff.Golden.instr g.Golden.trace.(i).Golden.instr))
      commits
  done

let test_machine_commit_order_monotonic () =
  let p = straightline_program 7L in
  let m = Machine.run_single Config.nutshell p in
  let cycles = List.map (fun (c : Core_model.commit_record) -> c.c_cycle)
      m.Machine.cores.(0).commits in
  checkb "commit cycles non-decreasing" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length cycles - 1) cycles)
       (List.tl cycles))

let test_machine_cycle_limit () =
  let p = straightline_program 3L in
  let m = Machine.run_single ~max_cycles:10 Config.boom p in
  checkb "hit the limit" true m.Machine.hit_cycle_limit

let test_machine_dual_core () =
  let p0 = straightline_program 4L and p1 = straightline_program 5L in
  let m =
    Machine.run Config.boom
      [|
        { Machine.program = p0; secret_range = None };
        { Machine.program = p1; secret_range = None };
      |]
  in
  checkb "both cores commit" true
    (m.Machine.cores.(0).commits <> [] && m.Machine.cores.(1).commits <> [])

let test_machine_warm_faster_than_cold () =
  (* Second access to the same line is faster: the memory system works. *)
  let prog warm =
    Program.make
      (Asm.li (r 11) 0x10000000L
      @ (if warm then [ Instr.Load (Instr.LD, r 5, r 11, 0) ] else [ Asm.nop ])
      @ [ Instr.Load (Instr.LD, r 6, r 11, 0); Asm.halt ])
  in
  let cold = Machine.run_single Config.boom (prog false) in
  let warm = Machine.run_single Config.boom (prog true) in
  checkb "warm run not slower" true (warm.Machine.cycles <= cold.Machine.cycles + 60);
  (* The cold run's lone load takes a miss; in the warm run the second load
     hits the line the first brought in, so total cycles are smaller or the
     same despite executing one more load. *)
  checkb "dcache provides reuse" true (warm.Machine.cycles < cold.Machine.cycles + 40)

let test_machine_window_bounds () =
  let p = straightline_program 9L in
  let m =
    Machine.run Config.boom [| { Machine.program = p; secret_range = Some (3, 5) } |]
  in
  match m.Machine.window with
  | Some (a, b) -> checkb "window well-formed" true (a <= b)
  | None -> Alcotest.fail "window never opened"

let test_machine_ctx_bit_identical () =
  (* A reused run context must behave exactly like a fresh machine, even
     when different programs interleave on the same context — no stale
     cache lines, MSHRs, or contention-point state may leak between runs. *)
  let ctx = Machine.Ctx.create Config.boom in
  for seed = 30 to 37 do
    let p = straightline_program (Int64.of_int seed) in
    let inputs = [| { Machine.program = p; secret_range = Some (2, 4) } |] in
    let fresh = Machine.run Config.boom inputs in
    let reused = Machine.run ~ctx Config.boom inputs in
    checkb (Printf.sprintf "ctx run identical (seed %d)" seed) true
      (fresh = reused)
  done

let test_machine_ctx_config_mismatch () =
  let ctx = Machine.Ctx.create Config.boom in
  let p = straightline_program 2L in
  checkb "ctx for another config rejected" true
    (match
       Machine.run ~ctx Config.nutshell
         [| { Machine.program = p; secret_range = None } |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_machine_ctx_allocates_less () =
  (* Reusing a context skips re-allocating the cache line arrays,
     contention-point tables, and the per-core pipeline structures, the
     bulk of a run's minor-heap traffic (measured ~0.12x of a fresh run
     on boom; 0.25 leaves slack). *)
  let p = straightline_program 41L in
  let inputs = [| { Machine.program = p; secret_range = None } |] in
  let ctx = Machine.Ctx.create Config.boom in
  ignore (Machine.run Config.boom inputs);
  ignore (Machine.run ~ctx Config.boom inputs);
  let minor_words_during f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let n = 5 in
  let fresh =
    minor_words_during (fun () ->
        for _ = 1 to n do
          ignore (Machine.run Config.boom inputs)
        done)
  in
  let reused =
    minor_words_during (fun () ->
        for _ = 1 to n do
          ignore (Machine.run ~ctx Config.boom inputs)
        done)
  in
  checkb
    (Printf.sprintf "reused ctx allocates less (fresh %.0f, reused %.0f)"
       fresh reused)
    true
    (reused < 0.25 *. fresh)

let test_machine_words_per_cycle () =
  (* Minor-heap words per simulated cycle of a ctx-reused checkpointed
     dual run.  The pipeline keeps its fetch buffer, ROB and store buffer
     in per-core rings and links operands at dispatch, so a cycle copies
     no lists; the cycle loop keys its tables by native ints, its polls
     return sentinel ints rather than options, the writeback arbiter
     works in preallocated arrays, and blocked memory accesses retry
     without allocating.  What a run still allocates is mostly what
     outlives it: uops, commit records, golden traces and results.
     Measured 60.0 words/cycle on this testcase, against 154.4 with
     tuple-keyed tables, option returns and a list arbiter, and 713 for
     the list-based pipeline; the bound, about 1.15x the measured value,
     rejects both. *)
  let tc = Sonar.Testcase.random (Sonar.Rng.create 7L) ~id:7 ~dual:true in
  let i0 = Sonar.Testcase.materialize tc ~secret:0 in
  let i1 = Sonar.Testcase.materialize tc ~secret:1 in
  let ctx = Machine.Ctx.create Config.boom in
  let run () = Machine.run_dual ~ctx Config.boom i0 i1 in
  ignore (run ());
  let cycles = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 5 do
    let r0, r1, st = run () in
    cycles :=
      !cycles + r0.Machine.cycles + r1.Machine.cycles - st.Machine.cycles_saved
  done;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int !cycles in
  checkb
    (Printf.sprintf "minor words per simulated cycle %.1f <= 69" per_cycle)
    true (per_cycle <= 69.)

(* The victim core of materialized testcase inputs, run in user mode with
   the secret page kernel-protected: its secret load faults, so the secret
   flows only through the transient continuation, which a squash then
   discards (at commit on BOOM, at execute on NutShell). *)
let meltdown (inputs : Machine.core_input array) =
  Array.mapi
    (fun k (c : Machine.core_input) ->
      if k > 0 then c
      else
        {
          c with
          Machine.program =
            {
              c.program with
              Program.start_priv = Program.User;
              protected_range = Some Sonar.Layout.kernel_range;
            };
        })
    inputs

(* The pin's view of a dual run, as plain values: every field of every
   commit record, the transient count, the cycle count, window and
   cycle-limit flag, each point's snapshot, and the dual-run statistics.
   Each snapshot is viewed twice, as the observation record and the point
   statistics record the results once kept apart, so the view is the one
   the constants were computed from. *)
let sub_view (kind, sub) =
  ((match kind with Cpoint.Volatile -> 0 | Cpoint.Persistent -> 1), sub)

let fault_name : Golden.fault -> string = function
  | Load_access_fault -> "load"
  | Store_access_fault -> "store"
  | Illegal_instruction -> "illegal"
  | Breakpoint -> "breakpoint"
  | Env_call -> "ecall"

let effect_view (e : Golden.effect) =
  ( (e.seq, e.index, e.pc, Instr.to_string e.instr),
    Option.map (fun (r, v) -> (Reg.to_int r, v)) e.wb,
    Option.map
      (fun (m : Golden.mem_access) ->
        (m.addr, m.size, m.is_store, m.value, m.sc_success))
      e.mem,
    (e.taken, Option.map fault_name e.fault, e.transient) )

let observation_view (s : Cpoint.snapshot) =
  ( s.point_name,
    Array.to_list s.s_hits,
    s.s_min_pair,
    s.s_min_self,
    List.map sub_view s.s_triggered,
    s.s_digest )

let shape_view (s : Cpoint.snapshot) =
  ( (s.point_name, Sonar_ir.Component.to_string s.s_component),
    (s.s_fanout, s.s_max_subs, s.s_single_valid, s.s_n_sources),
    s.s_min_pair,
    List.map sub_view s.s_triggered,
    s.s_pair_intervals )

let result_view (r : Machine.result) =
  ( Array.to_list
      (Array.map
         (fun (c : Machine.core_result) ->
           ( List.map
               (fun (c : Core_model.commit_record) ->
                 (effect_view c.c_eff, c.c_cycle, c.c_dispatch))
               c.commits,
             c.transient_executed ))
         r.cores),
    (r.cycles, r.window, r.hit_cycle_limit),
    List.map observation_view r.snapshots,
    List.map shape_view r.snapshots )

let dual_view (r0, r1, (st : Machine.dual_stats)) =
  (result_view r0, result_view r1, (st.fork_cycle, st.cycles_saved))

(* Digest of 32 seeded testcases for each of {boom, nutshell} x {single,
   dual}, run through a reused context with checkpointing on: the
   [dual_view] of each.  The constants go back to the list-based pipeline
   model that predates the ring buffers and producer links, so they pin
   the timing model cycle for cycle, not just to itself.  Until results
   kept one snapshot per point, the pin digested the [Marshal] form of
   whole results; the constants were then recomputed on the model before
   that change, as this view of its two per-point records, where the old
   digests still gave the old constants.  Random testcases never fault,
   so the same corpus runs again as [meltdown] variants to pin the squash
   paths. *)
let corpus_digest ~fault =
  let digests = Buffer.create 2048 in
  List.iter
    (fun cfg ->
      let ctx = Machine.Ctx.create cfg in
      List.iter
        (fun dual ->
          for seed = 1 to 32 do
            let rng = Sonar.Rng.create (Int64.of_int seed) in
            let tc = Sonar.Testcase.random rng ~id:seed ~dual in
            let inputs secret =
              let i = Sonar.Testcase.materialize tc ~secret in
              if fault then meltdown i else i
            in
            let res =
              Machine.run_dual ~ctx ~checkpoint:true cfg (inputs 0) (inputs 1)
            in
            Buffer.add_string digests
              (Digest.string
                 (Marshal.to_string (dual_view res) [ Marshal.No_sharing ]))
          done)
        [ false; true ])
    [ Config.boom; Config.nutshell ];
  Digest.to_hex (Digest.string (Buffer.contents digests))

let test_machine_cycle_exact_pin () =
  Alcotest.(check string)
    "random corpus" "2b8d20a67f267f532f24978db81f8501"
    (corpus_digest ~fault:false);
  Alcotest.(check string)
    "meltdown corpus" "d46816ca726ebcfb85fc095f888298be"
    (corpus_digest ~fault:true)

(* --- Prefix-checkpointed dual runs --- *)

let test_checkpoint_fork_at_first_instr () =
  (* The very first instruction loads the secret, so the shared prefix is
     empty — yet the divergence is confined to the loaded value and the
     dependent ALU result, which the timing model never reads.  The two
     runs are therefore cycle-identical end to end: the checkpoint is
     captured at the final cycle and run 1 simulates nothing at all, while
     both results stay bit-identical to independent full runs. *)
  let prog secret =
    Program.make
      ~data:[ (8L, Int64.of_int secret) ]
      [
        Instr.Load (Instr.LD, r 5, Reg.x0, 8);
        Instr.Rtype (Instr.ADD, r 6, r 5, r 5);
        Asm.halt;
      ]
  in
  let inputs secret =
    [| { Machine.program = prog secret; secret_range = Some (0, 0) } |]
  in
  let c0, c1, cp =
    Machine.run_dual ~checkpoint:true Config.boom (inputs 0) (inputs 1)
  in
  checki "run1 fully skipped despite fork at instruction 0" c1.Machine.cycles
    cp.Machine.cycles_saved;
  checkb "run0 identical to a full run" true
    (c0 = Machine.run Config.boom (inputs 0));
  checkb "run1 identical to a full run" true
    (c1 = Machine.run Config.boom (inputs 1))

(* Checkpointed dual runs are bit-identical to full dual runs and to two
   independent [Machine.run] calls — commits, snapshots, window, and
   cycle counts all included in the structural comparison —
   over random testcases at both core counts, on both designs, plain and
   as [meltdown] variants.  The variants squash transient work (at execute
   on NutShell), so they also cover the producer-link rebuild after a
   squash and after a restore inside a checkpointed run. *)
let prop_checkpoint_equivalent =
  QCheck2.Test.make
    ~name:"checkpointed dual run = full dual run (random testcases)" ~count:80
    ~long_factor:25
    QCheck2.Gen.(quad (int_range 1 10_000) bool bool bool)
    (fun (seed, dual, nutshell, fault) ->
      let cfg = if nutshell then Config.nutshell else Config.boom in
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual in
      let inputs secret =
        let i = Sonar.Testcase.materialize tc ~secret in
        if fault then meltdown i else i
      in
      let i0 = inputs 0 and i1 = inputs 1 in
      let c0, c1, _ = Machine.run_dual ~checkpoint:true cfg i0 i1 in
      let f0, f1, fcp = Machine.run_dual ~checkpoint:false cfg i0 i1 in
      fcp.Machine.cycles_saved = 0
      && c0 = f0 && c1 = f1
      && c0 = Machine.run cfg i0
      && c1 = Machine.run cfg i1)

(* The dual-run fork rule, as DESIGN.md §7.1 defines it: three bounds,
   each from its own scan of the two golden traces — the structural
   common prefix, the first fetch-visible difference (pulled back onto a
   [jalr] just below it) and the first backend-read difference — and each
   capped at the first position whose transient continuation differs or
   exists under one secret only.  Physically shared outcomes give
   [no_fork]. *)
let reference_forks (cfg : Config.t) (o0 : Golden.outcome)
    (o1 : Golden.outcome) =
  if o0 == o1 then Core_model.no_fork
  else begin
    let t0 = o0.trace and t1 = o1.trace in
    let n = min (Array.length t0) (Array.length t1) in
    let same_length = Array.length t0 = Array.length t1 in
    let first_difference equal ~default =
      let rec scan i =
        if i >= n then default
        else if equal t0.(i) t1.(i) then scan (i + 1)
        else i
      in
      scan 0
    in
    let diverging =
      List.filter_map
        (fun (pos, c0) ->
          match List.assoc_opt pos o1.transients with
          | Some c1 when c0 = c1 -> None
          | Some _ | None -> Some pos)
        o0.transients
      @ List.filter_map
          (fun (pos, _) ->
            if List.mem_assoc pos o0.transients then None else Some pos)
          o1.transients
    in
    let cap pos = List.fold_left min pos diverging in
    let value = first_difference ( = ) ~default:n in
    let fetch_fields (e : Golden.effect) =
      (e.seq, e.index, e.pc, e.instr, e.taken, e.fault, e.transient)
    in
    let fetch =
      first_difference
        (fun a b -> fetch_fields a = fetch_fields b)
        ~default:(if same_length then max_int else n)
    in
    let fetch =
      if fetch >= 1 && (fetch < n || not same_length) then
        match t0.(fetch - 1).instr with Instr.Jalr _ -> fetch - 1 | _ -> fetch
      else fetch
    in
    let magnitude (e : Golden.effect) =
      match e.wb with Some (_, v) -> v | None -> 1024L
    in
    (* The latency operand is read when run 0's instruction reads it:
       the divider's always, the multiplier's under a unified MDU only. *)
    let reads_operand (e : Golden.effect) =
      match e.instr with
      | Instr.Rtype ((DIV | DIVU | REM | REMU | DIVW | DIVUW | REMW | REMUW), _, _, _)
        ->
          true
      | Instr.Rtype ((MUL | MULH | MULHSU | MULHU | MULW), _, _, _) ->
          cfg.unified_mdu
      | _ -> false
    in
    let address (e : Golden.effect) =
      Option.map (fun (m : Golden.mem_access) -> m.addr) e.mem
    in
    let exec =
      first_difference
        (fun a b ->
          address a = address b
          && ((not (reads_operand a)) || magnitude a = magnitude b))
        ~default:(if same_length then max_int else n)
    in
    { Core_model.value = cap value; fetch = cap fetch; exec = cap exec }
  end

(* Edits that place each arm of the fork rule where random testcases
   rarely do, applied to copies of a core's two outcomes at trace
   position [p]: a pc, writeback or address change in run 1, a [jalr] or
   a divide in both runs, run 1's trace cut at [p], or a transient
   continuation at [p] that run 0 lacks or has with other contents. *)
let edit_outcomes (o0 : Golden.outcome) (o1 : Golden.outcome) edits =
  let o0 = { o0 with trace = Array.copy o0.trace }
  and o1 = ref { o1 with trace = Array.copy o1.trace } in
  List.iter
    (fun (kind, pos) ->
      let t0 = o0.trace and t1 = !o1.trace in
      let n = min (Array.length t0) (Array.length t1) in
      if n > 0 then begin
        let p = pos mod n in
        let both f =
          t0.(p) <- f t0.(p);
          t1.(p) <- f t1.(p)
        in
        let e = t1.(p) in
        match kind with
        | 0 -> t1.(p) <- { e with pc = Int64.add e.pc 4L }
        | 1 ->
            let v = match e.wb with Some (_, v) -> v | None -> 0L in
            t1.(p) <- { e with wb = Some (r 5, Int64.succ v) }
        | 2 ->
            t1.(p) <-
              {
                e with
                mem =
                  Option.map
                    (fun (m : Golden.mem_access) ->
                      { m with addr = Int64.add m.addr 8L })
                    e.mem;
              }
        | 3 -> both (fun e -> { e with instr = Instr.Jalr (r 0, r 1, 0) })
        | 4 -> both (fun e -> { e with instr = Instr.Rtype (DIV, r 1, r 2, r 3) })
        | 5 -> o1 := { !o1 with trace = Array.sub t1 0 p }
        | _ -> o1 := { !o1 with transients = (p, [| e |]) :: !o1.transients }
      end)
    edits;
  (o0, !o1)

(* [Core_model.forks] finds the three bounds in one scan; over random
   testcase pairs on both designs, single and dual core, plain and
   [meltdown] (whose faulting secret load forks a transient
   continuation), it must equal the reference for every core — sharing
   the attacker core's outcome physically, as [Machine.run_dual] does,
   which must give [no_fork] — and for edited copies of the victim
   core's outcomes. *)
let prop_forks_match_reference =
  QCheck2.Test.make ~name:"fork rule = three capped scans (random testcases)"
    ~count:200 ~long_factor:25
    QCheck2.Gen.(
      pair
        (quad (int_range 1 10_000) bool bool bool)
        (list_size (int_range 0 4) (pair (int_range 0 6) nat)))
    (fun ((seed, dual, nutshell, fault), edits) ->
      let cfg = if nutshell then Config.nutshell else Config.boom in
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual in
      let inputs secret =
        let i = Sonar.Testcase.materialize tc ~secret in
        if fault then meltdown i else i
      in
      let i0 = inputs 0 and i1 = inputs 1 in
      let agrees (o0, o1) =
        Core_model.forks cfg o0 o1 = reference_forks cfg o0 o1
      in
      let outcomes k =
        let p0 = i0.(k).Machine.program and p1 = i1.(k).Machine.program in
        let o0 = Golden.run p0 in
        (o0, if p1 = p0 then o0 else Golden.run p1)
      in
      let victim = outcomes 0 in
      agrees victim
      && agrees (edit_outcomes (fst victim) (snd victim) edits)
      && ((not dual)
         ||
         let o0, o1 = outcomes 1 in
         o0 == o1 && Core_model.forks cfg o0 o1 = Core_model.no_fork))

(* --- Quiet-cycle skipping --- *)

(* The cycle loop jumps from a quiet cycle to the wake bound of the cores
   and the hierarchy.  Every result must equal the stepping reference's,
   which steps each cycle: whole dual-run triples (both results, fork
   cycle, cycles saved) and single runs, on both designs, single and dual
   core, plain and [meltdown], with and without a cycle budget small
   enough to cut runs short. *)
let prop_skip_matches_stepping =
  QCheck2.Test.make ~name:"quiet-cycle skipping = stepping (random testcases)"
    ~count:40 ~long_factor:25
    QCheck2.Gen.(
      pair
        (quad (int_range 1 10_000) bool bool bool)
        (opt ~ratio:0.5 (int_range 1 600)))
    (fun ((seed, dual, nutshell, fault), max_cycles) ->
      let cfg = if nutshell then Config.nutshell else Config.boom in
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual in
      let inputs secret =
        let i = Sonar.Testcase.materialize tc ~secret in
        if fault then meltdown i else i
      in
      let i0 = inputs 0 and i1 = inputs 1 in
      Machine.run_dual ?max_cycles cfg i0 i1
      = Machine.Stepped.run_dual ?max_cycles cfg i0 i1
      && Machine.run ?max_cycles cfg i1 = Machine.Stepped.run ?max_cycles cfg i1)

(* A reused context rewinds its machine by restoring the capture it took
   of the machine as built.  Whatever a run leaves behind — a budget cut
   short leaves transfers, MSHRs, store-buffer entries and an open window
   in flight — the next run on the context must equal the same call on a
   fresh machine: random sequences of single and dual runs on one
   context, one core and two, plain and [meltdown], with and without a
   secret range, checkpointing on and off. *)
let prop_ctx_reuse_matches_fresh =
  let call =
    QCheck2.Gen.(
      pair
        (quad (int_range 1 10_000) bool bool bool)
        (triple (opt ~ratio:0.7 (int_range 1 600)) bool bool))
  in
  let show ((seed, dual, fault, ranged), (max_cycles, pair, checkpoint)) =
    Printf.sprintf "%s seed=%d dual=%b fault=%b ranged=%b max=%s cp=%b"
      (if pair then "run_dual" else "run")
      seed dual fault ranged
      (Option.fold ~none:"-" ~some:string_of_int max_cycles)
      checkpoint
  in
  QCheck2.Test.make ~name:"ctx reuse = fresh machine (random run sequences)"
    ~count:30 ~long_factor:25
    ~print:(fun (nutshell, calls) ->
      Printf.sprintf "%s: %s"
        (if nutshell then "nutshell" else "boom")
        (String.concat "; " (List.map show calls)))
    QCheck2.Gen.(pair bool (list_size (int_range 1 6) call))
    (fun (nutshell, calls) ->
      let cfg = if nutshell then Config.nutshell else Config.boom in
      let ctx = Machine.Ctx.create cfg in
      List.for_all
        (fun ((seed, dual, fault, ranged), (max_cycles, pair, checkpoint)) ->
          let rng = Sonar.Rng.create (Int64.of_int seed) in
          let tc = Sonar.Testcase.random rng ~id:seed ~dual in
          let inputs secret =
            let i = Sonar.Testcase.materialize tc ~secret in
            let i = if fault then meltdown i else i in
            if ranged then i
            else
              Array.map
                (fun (c : Machine.core_input) -> { c with secret_range = None })
                i
          in
          let i0 = inputs 0 and i1 = inputs 1 in
          if pair then
            Machine.run_dual ~ctx ?max_cycles ~checkpoint cfg i0 i1
            = Machine.run_dual ?max_cycles ~checkpoint cfg i0 i1
          else
            Machine.run ~ctx ?max_cycles cfg i1 = Machine.run ?max_cycles cfg i1)
        calls)

(* The same differential on the hand-built Table 3 scenarios, whose
   secret-dependent misses, divides and refills are the long quiet
   stretches the jump skips. *)
let test_skip_channels () =
  List.iter
    (fun (c : Sonar.Channels.t) ->
      let cfg = Option.get (Config.by_name c.dut) in
      let i0 = Sonar.Channels.build c ~secret:0
      and i1 = Sonar.Channels.build c ~secret:1 in
      checkb (c.id ^ " dual run") true
        (Machine.run_dual cfg i0 i1 = Machine.Stepped.run_dual cfg i0 i1);
      List.iter
        (fun (secret, i) ->
          checkb
            (Printf.sprintf "%s secret %d" c.id secret)
            true
            (Machine.run cfg i = Machine.Stepped.run cfg i))
        [ (0, i0); (1, i1) ])
    Sonar.Channels.all

(* Machine cycles stepped and core steps taken by one call under [ctx]. *)
let steps_by ctx f =
  let cycles = Machine.Ctx.cycles_stepped ctx
  and cores = Machine.Ctx.core_steps ctx in
  let r = f () in
  (r, Machine.Ctx.cycles_stepped ctx - cycles, Machine.Ctx.core_steps ctx - cores)

let stepped_by ctx f =
  let r, cycles, _ = steps_by ctx f in
  (r, cycles)

let test_skip_limit_in_quiet_stretch () =
  (* The first fetch misses a cold ICache and waits about 49 cycles for
     its refill, with the window open from cycle 0 (no secret range), so
     a budget of 30 cycles ends inside a skipped stretch.  The run must
     still report the budget as its cycle count, the limit flag, and the
     window's last bound at the last cycle of the budget. *)
  let p = Program.make [ Instr.Load (Instr.LD, r 5, Reg.x0, 8); Asm.halt ] in
  let inputs = [| { Machine.program = p; secret_range = None } |] in
  let ctx = Machine.Ctx.create Config.boom in
  let max_cycles = 30 in
  let m, stepped =
    stepped_by ctx (fun () -> Machine.run ~ctx ~max_cycles Config.boom inputs)
  in
  checkb (Printf.sprintf "stepped %d < %d" stepped max_cycles) true
    (stepped < max_cycles);
  checki "cycles = budget" max_cycles m.Machine.cycles;
  checkb "hit the limit" true m.Machine.hit_cycle_limit;
  checkb "window last bound at the budget's last cycle" true
    (m.Machine.window = Some (0, max_cycles - 1));
  checkb "= stepping" true
    (m = Machine.Stepped.run ~max_cycles Config.boom inputs)

let test_skip_open_window () =
  (* The window opens when the divide dispatches and closes when it
     commits; in between, the divider's 55-plus cycles pass with nothing
     else to do, and are skipped.  The window bounds must come out as if
     every cycle had been stepped. *)
  let p =
    Program.make
      (Asm.li (r 6) 0x7fff_ffffL
      @ [ Instr.Rtype (Instr.DIV, r 5, r 6, r 6); Asm.halt ])
  in
  let div_index = List.length (Asm.li (r 6) 0x7fff_ffffL) in
  let inputs =
    [| { Machine.program = p; secret_range = Some (div_index, div_index) } |]
  in
  let ctx = Machine.Ctx.create Config.boom in
  let m, stepped =
    stepped_by ctx (fun () -> Machine.run ~ctx Config.boom inputs)
  in
  let lo, hi = Option.get m.Machine.window in
  checkb (Printf.sprintf "window [%d, %d] spans the divide" lo hi) true
    (hi - lo >= 55);
  checkb
    (Printf.sprintf "stepped %d of %d cycles" stepped m.Machine.cycles)
    true
    (stepped + 50 < m.Machine.cycles);
  checkb "= stepping" true (m = Machine.Stepped.run Config.boom inputs)

let test_skip_store_drain () =
  (* Ten stores to lines 64 KiB apart share one DCache set on both
     designs, so the later refills evict dirty lines.  Such a drain waits
     out a write-back penalty after its refill completes, with nothing
     else left to do: the store buffer's ready cycle alone bounds the
     jump. *)
  let p =
    Program.make
      (List.concat
         (List.init 10 (fun k ->
              Asm.li (r 12) (Int64.add 0x1000_0000L (Int64.of_int (k lsl 16)))
              @ [ Instr.Store (Instr.SD, Reg.x0, r 12, 0) ]))
      @ [ Asm.halt ])
  in
  let inputs = [| { Machine.program = p; secret_range = None } |] in
  List.iter
    (fun cfg ->
      let ctx = Machine.Ctx.create cfg in
      let m, stepped = stepped_by ctx (fun () -> Machine.run ~ctx cfg inputs) in
      checkb
        (Printf.sprintf "%s: stepped %d of %d cycles" cfg.Config.name stepped
           m.Machine.cycles)
        true
        (2 * stepped < m.Machine.cycles);
      checkb (cfg.Config.name ^ " = stepping") true
        (m = Machine.Stepped.run cfg inputs))
    [ Config.boom; Config.nutshell ]

(* Stepped over model cycles on the cycle-exact pin's BOOM single-core
   corpus.  Stepping every cycle gives 1.0; the jump measured 0.327
   (2,994 of 9,168 cycles), and the bound is 1.15 times that. *)
let test_skip_stepped_share () =
  let ctx = Machine.Ctx.create Config.boom in
  let model = ref 0 and stepped = ref 0 in
  for seed = 1 to 32 do
    let rng = Sonar.Rng.create (Int64.of_int seed) in
    let tc = Sonar.Testcase.random rng ~id:seed ~dual:false in
    let (r0, r1, st), n =
      stepped_by ctx (fun () ->
          Machine.run_dual ~ctx Config.boom
            (Sonar.Testcase.materialize tc ~secret:0)
            (Sonar.Testcase.materialize tc ~secret:1))
    in
    model :=
      !model + r0.Machine.cycles + r1.Machine.cycles - st.Machine.cycles_saved;
    stepped := !stepped + n
  done;
  let share = float_of_int !stepped /. float_of_int !model in
  checkb
    (Printf.sprintf "stepped/model cycles %.3f (%d/%d) <= 0.376" share !stepped
       !model)
    true (share <= 0.376)

(* Core steps over cores x stepped cycles on the pin's BOOM dual-core
   corpus.  A core sleeps through a stepped cycle that only its
   neighbour or the hierarchy acts in; stepping every core every cycle
   gives 1.0.  Sleeping measured 0.525 (5,375 of 2 x 5,122), and the
   bound is 1.15 times that.  The machine cycles stepped are the 5,122
   the loop stepped before cores could sleep, so the quiet-cycle jump
   is untouched. *)
let test_skip_core_steps_share () =
  let ctx = Machine.Ctx.create Config.boom in
  let cycles = ref 0 and core_steps = ref 0 in
  for seed = 1 to 32 do
    let rng = Sonar.Rng.create (Int64.of_int seed) in
    let tc = Sonar.Testcase.random rng ~id:seed ~dual:true in
    let _, n, k =
      steps_by ctx (fun () ->
          Machine.run_dual ~ctx Config.boom
            (Sonar.Testcase.materialize tc ~secret:0)
            (Sonar.Testcase.materialize tc ~secret:1))
    in
    cycles := !cycles + n;
    core_steps := !core_steps + k
  done;
  checki "stepped machine cycles" 5122 !cycles;
  let share = float_of_int !core_steps /. float_of_int (2 * !cycles) in
  checkb
    (Printf.sprintf "core steps/(2 x stepped cycles) %.3f (%d/%d) <= 0.603"
       share !core_steps (2 * !cycles))
    true (share <= 0.603)

let test_skip_sleeping_core () =
  (* Core 1's load misses the DCache, and its refill lands about 50
     cycles later, while core 0 keeps the machine stepping with a
     dependent add chain around a divide.  Core 1 sleeps through those
     cycles, and only the refill's wake mark can wake it: without the
     mark it would sleep to the cycle limit. *)
  let chain = List.init 40 (fun _ -> Instr.Rtype (Instr.ADD, r 6, r 6, r 7)) in
  let p0 =
    Program.make
      (Asm.li (r 6) 0x7fff_ffffL @ Asm.li (r 7) 3L @ chain
      @ [ Instr.Rtype (Instr.DIV, r 5, r 6, r 7) ]
      @ chain @ [ Asm.halt ])
  in
  let p1 =
    Program.make
      (Asm.li (r 12) 0x1000_0000L
      @ [
          Instr.Load (Instr.LD, r 5, r 12, 0);
          Instr.Rtype (Instr.ADD, r 6, r 5, r 5);
          Asm.halt;
        ])
  in
  let inputs =
    [|
      { Machine.program = p0; secret_range = None };
      { Machine.program = p1; secret_range = None };
    |]
  in
  let ctx = Machine.Ctx.create Config.boom in
  let m, cycles, core_steps =
    steps_by ctx (fun () -> Machine.run ~ctx Config.boom inputs)
  in
  checkb "finished" false m.Machine.hit_cycle_limit;
  checkb
    (Printf.sprintf "%d core steps < 2 x %d stepped cycles" core_steps cycles)
    true
    (core_steps < 2 * cycles);
  checkb "= stepping" true (m = Machine.Stepped.run Config.boom inputs)

(* Golden/uarch architectural equivalence over random testcases. *)
let prop_machine_matches_golden =
  QCheck2.Test.make ~name:"uarch commits = golden trace (random testcases)"
    ~count:25
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual:false in
      let inputs = Sonar.Testcase.materialize tc ~secret:1 in
      let g = Golden.run inputs.(0).Machine.program in
      let m = Machine.run Config.boom inputs in
      List.length m.Machine.cores.(0).commits = Array.length g.Golden.trace)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sonar_uarch"
    [
      ( "config",
        [
          Alcotest.test_case "lookup" `Quick test_config_lookup;
          Alcotest.test_case "table 1 values" `Quick test_config_table1;
          Alcotest.test_case "fanout prefixes" `Quick test_config_fanout_prefix;
        ] );
      ( "cpoint",
        [
          Alcotest.test_case "intervals and triggers" `Quick test_cpoint_intervals_and_triggers;
          Alcotest.test_case "taint gating" `Quick test_cpoint_taint_gating;
          Alcotest.test_case "dominance counter" `Quick test_cpoint_dominance_counter;
          Alcotest.test_case "window gating" `Quick test_cpoint_window_gating;
          Alcotest.test_case "single source" `Quick test_cpoint_single_source;
          Alcotest.test_case "persistent subs" `Quick test_cpoint_persistent;
          Alcotest.test_case "snapshot diff" `Quick test_cpoint_snapshot_diff;
        ]
        @ qcheck
            [
              prop_diff_snapshots_positional;
              prop_itbl_matches_hashtbl;
              prop_cpoint_matches_reference;
            ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "eviction + LRU" `Quick test_cache_eviction;
          Alcotest.test_case "dirty bits" `Quick test_cache_dirty;
          Alcotest.test_case "fill info" `Quick test_cache_fill_info;
        ]
        @ qcheck [ prop_cache_rewind ] );
      ( "exec_unit",
        [
          Alcotest.test_case "alu slots" `Quick test_exec_alu_slots;
          Alcotest.test_case "div unpipelined" `Quick test_exec_div_unpipelined;
          Alcotest.test_case "writeback priority" `Quick test_exec_wb_priority;
          Alcotest.test_case "nutshell mdu" `Quick test_exec_mdu_shared;
        ]
        @ qcheck [ prop_wb_arbiter_matches_list ] );
      ( "machine",
        [
          Alcotest.test_case "commits match golden" `Quick test_machine_commits_match_golden;
          Alcotest.test_case "commit order" `Quick test_machine_commit_order_monotonic;
          Alcotest.test_case "cycle limit" `Quick test_machine_cycle_limit;
          Alcotest.test_case "dual core" `Quick test_machine_dual_core;
          Alcotest.test_case "cache reuse" `Quick test_machine_warm_faster_than_cold;
          Alcotest.test_case "monitoring window" `Quick test_machine_window_bounds;
          Alcotest.test_case "ctx reuse bit-identical" `Quick
            test_machine_ctx_bit_identical;
          Alcotest.test_case "ctx config mismatch" `Quick
            test_machine_ctx_config_mismatch;
          Alcotest.test_case "ctx allocates less" `Quick
            test_machine_ctx_allocates_less;
          Alcotest.test_case "minor words per simulated cycle" `Quick
            test_machine_words_per_cycle;
          Alcotest.test_case "cycle-exact pin" `Quick
            test_machine_cycle_exact_pin;
          Alcotest.test_case "checkpoint fork at instruction 0" `Quick
            test_checkpoint_fork_at_first_instr;
          Alcotest.test_case "skipping = stepping on the channels" `Quick
            test_skip_channels;
          Alcotest.test_case "skip: budget ends in a quiet stretch" `Quick
            test_skip_limit_in_quiet_stretch;
          Alcotest.test_case "skip: window open across a stretch" `Quick
            test_skip_open_window;
          Alcotest.test_case "skip: dirty-victim store drains" `Quick
            test_skip_store_drain;
          Alcotest.test_case "skip: stepped share of model cycles" `Quick
            test_skip_stepped_share;
          Alcotest.test_case "skip: core steps per stepped cycle" `Quick
            test_skip_core_steps_share;
          Alcotest.test_case "skip: a core sleeps on its refill" `Quick
            test_skip_sleeping_core;
        ]
        @ qcheck
            [
              prop_machine_matches_golden;
              prop_checkpoint_equivalent;
              prop_forks_match_reference;
              prop_skip_matches_stepping;
              prop_ctx_reuse_matches_fresh;
            ] );
    ]
