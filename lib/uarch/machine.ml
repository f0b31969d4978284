type core_input = {
  program : Sonar_isa.Program.t;
  secret_range : (int * int) option;
}

type core_result = {
  commits : Core_model.commit_record list;
  transient_executed : int;
}

type result = {
  cores : core_result array;
  cycles : int;
  snapshots : Cpoint.snapshot list;
  window : (int * int) option;
  hit_cycle_limit : bool;
}

type dual_stats = { fork_cycle : int option; cycles_saved : int }

let default_max_cycles = 200_000

module Ctx = struct
  (* One machine: the registry, the hierarchy and every core. A
     checkpoint is a clone of the live machine. *)
  type machine = {
    m_reg : Cpoint.registry;
    m_ms : Memsys.t;
    m_cores : Core_model.t array;
  }

  type slot = {
    s_reg : Cpoint.registry;
    s_ms : Memsys.t;
    s_cores : Core_model.t array;
    s_cold : machine;  (* the machine as built, before any run *)
    s_points : Cpoint.t array;  (* registration order *)
    s_cold_snaps : Cpoint.snapshot array;
        (* each point's snapshot when a run leaves it cold, shared *)
    s_wake : int array;  (* per core: the first cycle it may act in *)
    s_quiet : bool array;
        (* per core: its step this cycle left the activity count as it was *)
    mutable s_ckpt : machine option;
        (* the dual-run checkpoint, cloned on the first dual run *)
  }

  type t = {
    ctx_cfg : Config.t;
    ctx_fp : int;
    mutable slots : (int * slot) list;  (* keyed by core count (1 or 2) *)
    mutable stepped : int;
    mutable core_steps : int;
  }

  let create cfg =
    {
      ctx_cfg = cfg;
      ctx_fp = Config.fingerprint cfg;
      slots = [];
      stepped = 0;
      core_steps = 0;
    }

  let config t = t.ctx_cfg
  let fingerprint t = t.ctx_fp
  let cycles_stepped t = t.stepped
  let core_steps t = t.core_steps

  let clone reg ms cores =
    {
      m_reg = Cpoint.clone reg;
      m_ms = Memsys.clone ms;
      m_cores = Array.map Core_model.clone cores;
    }

  let capture sl k =
    Cpoint.copy ~src:sl.s_reg ~dst:k.m_reg;
    Memsys.copy ~src:sl.s_ms ~dst:k.m_ms;
    for i = 0 to Array.length sl.s_cores - 1 do
      Core_model.capture sl.s_cores.(i) ~into:k.m_cores.(i)
    done

  (* [forks.(i).value] is core [i]'s [Core_model.restore ~fork]. *)
  let restore ?forks sl k =
    Cpoint.copy ~src:k.m_reg ~dst:sl.s_reg;
    Memsys.copy ~src:k.m_ms ~dst:sl.s_ms;
    for i = 0 to Array.length sl.s_cores - 1 do
      let fork =
        match forks with Some f -> f.(i).Core_model.value | None -> max_int
      in
      Core_model.restore ~fork sl.s_cores.(i) ~from:k.m_cores.(i)
    done

  (* The slot for this core count, rewound to cold start. The first
     acquisition builds the machine — every contention point registers
     as the hierarchy and cores are made — and clones it before any
     window opens; later ones restore that clone. So the cache line
     arrays, point tables and pipeline structures are allocated once
     per (context, core count), and a reused machine is a fresh one. *)
  let slot t ~cores =
    match List.assoc_opt cores t.slots with
    | Some sl ->
        restore sl sl.s_cold;
        sl
    | None ->
        let cfg = t.ctx_cfg in
        let reg = Cpoint.create cfg in
        let ms = Memsys.create cfg reg ~cores in
        let cs =
          Array.init cores (fun i ->
              Core_model.create cfg reg ms ~core_id:i ~drives_window:(i = 0))
        in
        let points = Array.of_list (Cpoint.points reg) in
        let sl =
          {
            s_reg = reg;
            s_ms = ms;
            s_cores = cs;
            s_cold = clone reg ms cs;
            s_points = points;
            s_cold_snaps = Array.map Cpoint.snapshot points;
            s_wake = Array.make cores 0;
            s_quiet = Array.make cores false;
            s_ckpt = None;
          }
        in
        t.slots <- (cores, sl) :: t.slots;
        sl

  (* The dual-run checkpoint of a slot. *)
  let checkpoint sl =
    match sl.s_ckpt with
    | Some k -> k
    | None ->
        let k = clone sl.s_reg sl.s_ms sl.s_cores in
        sl.s_ckpt <- Some k;
        k
end

(* The context a run uses: the caller's, or a fresh one. *)
let resolve ?ctx cfg =
  match ctx with
  | None -> Ctx.create cfg
  | Some ctx ->
      if not (Ctx.config ctx == cfg || Ctx.config ctx = cfg) then
        invalid_arg "Machine.run: ctx was created for a different config";
      ctx

(* A cold machine for these inputs, armed with their precomputed golden
   outcomes. *)
let acquire ctx inputs outcomes =
  let sl = Ctx.slot ctx ~cores:(Array.length inputs) in
  Array.iteri
    (fun i c ->
      Core_model.prepare c ~outcome:outcomes.(i)
        ~secret_range:inputs.(i).secret_range)
    sl.Ctx.s_cores;
  sl

let all_done ms cores =
  Array.for_all Core_model.finished cores && not (Memsys.busy ms)

(* Step cycles from [from] until every core has finished or the budget
   runs out; return the cycle reached.  [top] runs at the top of every
   stepped cycle.  A stepped cycle steps each core whose wake bound has
   come, then ticks the shared hierarchy; every core is awake at [from].

   With [skip], a core whose step left the registry's activity count
   unchanged — probably no stage acted — sleeps until its own
   [Core_model.next_wake], read after the tick; any other stepped core
   wakes next cycle.  A sleeping core's inputs are its own state and its
   ready tables in the hierarchy, and only a completed refill writes
   those: its [Memsys.take_woken] mark wakes the core next cycle.
   Without [skip] every core wakes every cycle.

   With [skip], too, a cycle that leaves the activity count unchanged is
   followed by a jump to the earliest wake bound of the cores and the
   hierarchy, clamped at [max_cycles] and by [clamp].  The jump is sound
   whether or not the cycle was really quiet: the bounds hold for any
   state, and the skipped cycles would have changed nothing.  After a
   quiet cycle a sleeping core's cached bound is the one a fresh read
   would give, since its state has not changed.  Setting the registry's
   cycle to the last skipped one leaves the window's last bound where
   stepping would. *)
let run_cycles ~skip ~top ~clamp ctx (sl : Ctx.slot) ~from ~max_cycles =
  let { Ctx.s_reg = reg; s_ms = ms; s_cores = cores; s_wake = wake; s_quiet = quiet; _ }
      =
    sl
  in
  let n = Array.length cores in
  Array.fill wake 0 n from;
  let cycle = ref from in
  while (not (all_done ms cores)) && !cycle < max_cycles do
    let c = !cycle in
    top c;
    let activity = Cpoint.activity reg in
    Cpoint.set_cycle reg c;
    for i = 0 to n - 1 do
      if wake.(i) <= c then begin
        let before = Cpoint.activity reg in
        Core_model.step cores.(i) ~cycle:c;
        ctx.Ctx.core_steps <- ctx.Ctx.core_steps + 1;
        quiet.(i) <- skip && Cpoint.activity reg = before;
        wake.(i) <- c + 1
      end
      else quiet.(i) <- false
    done;
    Memsys.tick ms ~cycle:c;
    for i = 0 to n - 1 do
      if Memsys.take_woken ms ~core:i then wake.(i) <- c + 1
      else if quiet.(i) then wake.(i) <- Core_model.next_wake cores.(i) ~cycle:c
    done;
    ctx.Ctx.stepped <- ctx.Ctx.stepped + 1;
    cycle := c + 1;
    if skip && Cpoint.activity reg = activity && not (all_done ms cores) then begin
      let bound = ref (Int.min (Memsys.next_wake ms ~cycle:c) max_cycles) in
      for i = 0 to n - 1 do
        bound := Int.min !bound wake.(i)
      done;
      let next = clamp ~from:!cycle ~upto:!bound in
      if next > !cycle then begin
        Cpoint.set_cycle reg (next - 1);
        cycle := next
      end
    end
  done;
  !cycle

let sim_loop ~skip ctx sl ~from ~max_cycles =
  run_cycles ~skip
    ~top:(fun _ -> ())
    ~clamp:(fun ~from:_ ~upto -> upto)
    ctx sl ~from ~max_cycles

(* A point with no in-window request or persistent event, and a digest
   no grant has moved, is as it was built: it shares the slot's cold
   snapshot. The list is built from its end. *)
let collect (sl : Ctx.slot) ~cycles ~max_cycles =
  let reg = sl.s_reg and cores = sl.s_cores in
  let snapshots = ref [] in
  for i = Array.length sl.s_points - 1 downto 0 do
    let p = sl.s_points.(i) and cold = sl.s_cold_snaps.(i) in
    snapshots :=
      (if p.event_count = 0 && p.digest = cold.s_digest then cold
       else Cpoint.snapshot p)
      :: !snapshots
  done;
  {
    cores =
      Array.map
        (fun c ->
          {
            commits = Core_model.commits c;
            transient_executed = Core_model.transient_executed c;
          })
        cores;
    cycles;
    snapshots = !snapshots;
    window = Cpoint.window_bounds reg;
    hit_cycle_limit = cycles >= max_cycles;
  }

let check_core_count n name =
  if n < 1 || n > 2 then invalid_arg (name ^ ": 1 or 2 cores")

let run_with ~skip ?(max_cycles = default_max_cycles) ?ctx cfg inputs =
  check_core_count (Array.length inputs) "Machine.run";
  let outcomes =
    Array.map (fun input -> Sonar_isa.Golden.run input.program) inputs
  in
  let ctx = resolve ?ctx cfg in
  let sl = acquire ctx inputs outcomes in
  let cycles = sim_loop ~skip ctx sl ~from:0 ~max_cycles in
  collect sl ~cycles ~max_cycles

let run ?max_cycles ?ctx cfg inputs = run_with ~skip:true ?max_cycles ?ctx cfg inputs

let run_single ?max_cycles ?ctx ?(secret_range = None) cfg program =
  run ?max_cycles ?ctx cfg [| { program; secret_range } |]

(* --- Prefix-checkpointed dual runs --- *)

(* The dual-run capture test at the top of [cycle] over the forked cores,
   given as (core, fork) pairs: see [Core_model.capture_due]. *)
let rec must_capture forked ~cycle i =
  i < Array.length forked
  &&
  let core, fork = forked.(i) in
  Core_model.capture_due core fork ~cycle || must_capture forked ~cycle (i + 1)

(* Whether [must_capture] holds at the top of some cycle in [from, upto),
   over a stretch in which no stage acts.  On a fixed state the test only
   turns true as the cycle grows, so testing the stretch's last cycle
   settles all of it. *)
let capture_within forked ~from ~upto =
  upto > from && must_capture forked ~cycle:(upto - 1) 0

let run_dual_with ~skip ?(max_cycles = default_max_cycles) ?ctx
    ?(checkpoint = true) cfg inputs0 inputs1 =
  let n = Array.length inputs0 in
  check_core_count n "Machine.run_dual";
  if Array.length inputs1 <> n then
    invalid_arg "Machine.run_dual: core count mismatch";
  let outcomes0 =
    Array.map (fun (i : core_input) -> Sonar_isa.Golden.run i.program) inputs0
  in
  (* A core whose program is unchanged across secrets (the attacker in the
     Figure 4b template) reuses run 0's golden outcome physically — the
     golden half of the per-run reuse, and the marker [Core_model.forks]
     reads as [no_fork]. *)
  let outcomes1 =
    Array.mapi
      (fun i (input : core_input) ->
        if input.program = inputs0.(i).program then outcomes0.(i)
        else Sonar_isa.Golden.run input.program)
      inputs1
  in
  let ctx = resolve ?ctx cfg in
  let run_full inputs outcomes =
    let sl = acquire ctx inputs outcomes in
    let cycles = sim_loop ~skip ctx sl ~from:0 ~max_cycles in
    collect sl ~cycles ~max_cycles
  in
  (* Checkpointing forks the taint pipeline too, so it requires identical
     secret ranges per core; with differing ranges (never the case for
     materialized testcases) fall back to two full runs. *)
  let viable =
    checkpoint
    && Array.for_all2
         (fun (a : core_input) (b : core_input) ->
           a.secret_range = b.secret_range)
         inputs0 inputs1
  in
  if not viable then begin
    let r0 = run_full inputs0 outcomes0 in
    let r1 = run_full inputs1 outcomes1 in
    (r0, r1, { fork_cycle = None; cycles_saved = 0 })
  end
  else begin
    let forks =
      Array.init n (fun i -> Core_model.forks cfg outcomes0.(i) outcomes1.(i))
    in
    let sl = acquire ctx inputs0 outcomes0 in
    let cores = sl.Ctx.s_cores in
    (* Only a core whose traces fork can trip the capture test; the
       attacker core of the Figure 4b template never does. *)
    let forked =
      Array.combine cores forks |> Array.to_list
      |> List.filter (fun (_, fork) -> fork <> Core_model.no_fork)
      |> Array.of_list
    in
    let ckpt = Ctx.checkpoint sl in
    (* Run 0, capturing the machine state at the top of the first cycle
       in which a divergent position could reach a stage that reads its
       divergence: fetch must stay below the fetch-visible fork, and no
       ROB uop at or past the execution fork may become readable — a
       divergent store as soon as it dispatches (younger loads search
       store addresses), a divergent load or mul/div once its operands
       could be ready for its own issue.  Up to that cycle both runs
       are cycle-for-cycle identical except for the effect records of
       value-divergent uops (fetch buffer, ROB, store buffer, commit
       log), none of which has been read — restore re-points them at
       run 1's trace. *)
    let captured = ref (-1) in
    let capture cycle =
      Ctx.capture sl ckpt;
      captured := cycle
    in
    (* Before the capture, a jump that would pass a cycle where the
       capture test holds is refused: the loop steps on, cycle by cycle,
       and captures where stepping does.  The capture's thresholds are
       nearly always wake cycles, so this is rare. *)
    let cycles0 =
      run_cycles ~skip
        ~top:(fun cycle ->
          if !captured < 0 && must_capture forked ~cycle 0 then capture cycle)
        ~clamp:(fun ~from ~upto ->
          if !captured < 0 && capture_within forked ~from ~upto then from
          else upto)
        ctx sl ~from:0 ~max_cycles
    in
    let r0 = collect sl ~cycles:cycles0 ~max_cycles in
    (* If the capture test stayed false for the whole of run 0 — no
       divergent field was ever read (a secret whose dependent values are
       never address- or latency-forming), or the budget cut the run short
       of the fork — then run 1 is the same run cycle for cycle.  Capture
       the final state: the resume below has nothing left to simulate and
       run 1 costs only the restore. *)
    if !captured < 0 then capture cycles0;
    (* Re-arm each core for run 1's golden trace, then overwrite the
       dynamic state with the checkpoint (restore wins on everything it
       copies, including the registry's window state), re-pointing
       value-divergent uop and commit records at the new trace.  Resuming
       at the capture cycle replays exactly what a full run 1 would have
       done from that point. *)
    Array.iteri
      (fun i c ->
        Core_model.prepare c ~outcome:outcomes1.(i)
          ~secret_range:inputs1.(i).secret_range)
      cores;
    Ctx.restore ~forks sl ckpt;
    let cycles1 = sim_loop ~skip ctx sl ~from:!captured ~max_cycles in
    let r1 = collect sl ~cycles:cycles1 ~max_cycles in
    (r0, r1, { fork_cycle = Some !captured; cycles_saved = !captured })
  end

let run_dual ?max_cycles ?ctx ?checkpoint cfg inputs0 inputs1 =
  run_dual_with ~skip:true ?max_cycles ?ctx ?checkpoint cfg inputs0 inputs1

module Stepped = struct
  let run ?max_cycles ?ctx cfg inputs =
    run_with ~skip:false ?max_cycles ?ctx cfg inputs

  let run_dual ?max_cycles ?ctx ?checkpoint cfg inputs0 inputs1 =
    run_dual_with ~skip:false ?max_cycles ?ctx ?checkpoint cfg inputs0 inputs1
end
