open Sonar_isa
open Sonar_uarch

type gadget = Cache_probe | Channel_occupancy | Mshr_block | Port_pressure

let gadget_for = function
  | "S1" | "S2" | "S3" | "S4" -> Some Channel_occupancy
  | "S5" -> Some Mshr_block
  | "S6" | "S7" | "S11" | "S12" -> Some Cache_probe
  | "S13" -> Some Port_pressure
  | "S14" -> Some Channel_occupancy
  | _ -> None

type poc_result = {
  channel_id : string;
  dut : string;
  trials : int;
  key_bits : int;
  bit_accuracy : float;
  key_success_rate : float;
  mean_margin : float;
  avg_transient_window : float;
}

let default_trials = 20

(* Registers (attack programs are hand-rolled, free of the testcase
   conventions). *)
let a0 = Reg.of_int 10
let t0 = Reg.of_int 5
let t1 = Reg.of_int 6
let t2 = Reg.of_int 7
let t3 = Reg.of_int 28
let t4 = Reg.of_int 29
let t5 = Reg.of_int 30
let t6 = Reg.of_int 31
let s3 = Reg.of_int 19
let s7 = Reg.of_int 23

let ld rd base off = Instr.Load (Instr.LD, rd, base, off)
let add rd a b = Instr.Rtype (Instr.ADD, rd, a, b)
let addi rd a imm = Instr.Itype (Instr.ADDI, rd, a, imm)
let slli rd a sh = Instr.Itype (Instr.SLLI, rd, a, sh)
let div rd a b = Instr.Rtype (Instr.DIV, rd, a, b)
let andi rd a imm = Instr.Itype (Instr.ANDI, rd, a, imm)
let beqz r off = Instr.Branch (Instr.BEQ, r, Reg.x0, off)
let jal off = Instr.Jal (Reg.x0, off)
let nop = Asm.nop

let kernel_base = fst Layout.kernel_range

(* Listing 1, specialised per gadget.

   The program shape is identical for every bit (the bit offset comes from
   one [addi]) so one threshold calibrates all bits. The delay block
   (line 4 of Listing 1) is an older long-latency divide: the faulting load
   cannot retire past it, which holds the transient window open after the
   secret has been forwarded — without it the squash lands the same cycle
   the gadget becomes ready. [noise] varies the dependency depth of a
   fixed-size filler block, modelling alignment-preserving interference. *)
(* Returns the program plus the static index of the measured instruction
   (the attacker's rdcycle pair sits around it); [None] measures the whole
   run. *)
let attack_program ~gadget ~bit_index ~noise =
  let secret_word = Int64.add kernel_base (Int64.of_int (8 * bit_index)) in
  (* The gadget/probe lines are placed in a cache set far from the one the
     faulting load's own refill occupies, so the kernel line's MSHR cannot
     shadow the transient gadget (attackers likewise relocate their probe
     buffers per target offset). *)
  let kernel_set = bit_index / 8 mod 64 in
  let probe_off = (kernel_set + 32) mod 64 * 64 in
  let filler =
    List.init 3 (fun k ->
        if k < noise then addi s3 s3 1 else nop)
  in
  let delay_block =
    (* Two chained divides: the fault cannot retire for ~120 cycles, keeping
       the transient window open even when the faulting load's own refill is
       slowed by MSHR conflicts with the gadget lines. *)
    let s8 = Reg.of_int 24 and s9 = Reg.of_int 25 in
    Asm.li t1 0x7FFF000L
    @ [
        addi t3 Reg.x0 3;
        div s8 t1 t3;
        andi s9 s8 7;
        addi s9 s9 3;
        div s8 t1 s9;
      ]
  in
  let prelude =
    Asm.li a0 kernel_base
    @ [ addi a0 a0 (8 * bit_index) ]
    @ Asm.li t5 Layout.cold_base
    @ filler @ delay_block
  in
  let body, measure_off =
    match gadget with
    | Cache_probe ->
        (* Transient: load at cold_base + secret<<12; architectural re-run
           (suppressed fault leaves t0 = 0) touches cold_base + 0. The probe
           then reads cold_base + 4096: warm iff the transient secret was 1.
           The dependent guard chain keeps the probe itself out of the
           transient window — only the gadget load runs transiently. *)
        [
          ld t2 t5 192;  (* line 5: contender in flight (set 3) *)
          ld t0 a0 0;  (* line 6: faulting access *)
          slli t1 t0 12;
          addi t1 t1 probe_off;
          add t1 t1 t5;
          ld t3 t1 0;
        ]
        @ List.init 70 (fun _ -> addi s7 s7 1)
          (* probe guard: an independent chain long enough that the probe
             issues only after the fault has retired and squashed *)
        @ Asm.li t6 (Int64.add Layout.cold_base (Int64.of_int (4096 + probe_off)))
        @ [ andi t2 s7 0; add t6 t6 t2 ]
        |> fun head -> (head @ [ ld t4 t6 0; add t2 t4 t4 ], Some (List.length head))
    | Channel_occupancy ->
        (* Transient: a secret-gated far jump adds an ICache refill that
           contends with the contender load's response. *)
        (* The contender's address resolves through a short chain so its
           refill response becomes ready just after the transient jump's
           ICache refill — the grant then goes to the ICache read and the
           contender slips by the transfer beats. *)
        List.init 12 (fun _ -> addi s7 s7 1)
        @ [
            andi t2 s7 0;
            add t2 t2 t5;
            ld t2 t2 0;  (* contender: cold DCache read *)
            ld t0 a0 0;  (* faulting access *)
            beqz t0 (4 * 200);
            jal (4 * 100);
          ]
        @ List.init 200 (fun _ -> nop)
        @ [ add t4 t2 t2 ],
        None  (* whole-run time: the transient path's ICache refill both
                 contends with the in-flight contender and warms (or not)
                 the line the recovered path needs *)
    | Mshr_block ->
        (* Transient: load at cold_base + secret<<7 — set 0 (collides with
           the probe's set) or set 2. *)
        [
          ld t0 a0 0;
          slli t1 t0 7;
          addi t1 t1 probe_off;
          add t1 t1 t5;
          ld t3 t1 0;
        ]
        @ List.init 15 (fun _ -> addi s7 s7 1)
          (* probe guard: short, so the probe arrives while the transient
             refill still occupies its MSHR *)
        @ Asm.li t6
            (Int64.add Layout.cold_base (Int64.of_int (4096 + probe_off)))
        @ [ andi t2 s7 0; add t6 t6 t2 ]
        |> fun head -> (head @ [ ld t4 t6 0; add t2 t4 t4 ], Some (List.length head))
    | Port_pressure ->
        (* Transient: a secret-gated divide occupies the (M)DU; the
           architectural divide afterwards waits for it. *)
        ( [
            Instr.Lui (t1, 0x7FFF);
            addi s3 Reg.x0 3;
            ld t0 a0 0;
            beqz t0 8;
            div t3 t1 s3;
            div t4 t1 s3;
            add t2 t4 t4;
          ],
          Some 5 )
  in
  ( Program.make
      ~data:[ (secret_word, 0L) ]  (* overwritten by the key below *)
      ~start_priv:Program.User
      ~protected_range:(Some Layout.kernel_range)
      (prelude @ body @ [ Asm.halt ]),
    Option.map (fun off -> List.length prelude + off) measure_off )

let run_once ~ctx cfg ~gadget ~bit_index ~bit_value ~noise =
  let program, measure_index = attack_program ~gadget ~bit_index ~noise in
  let secret_word = Int64.add kernel_base (Int64.of_int (8 * bit_index)) in
  let program =
    { program with Program.data = [ (secret_word, Int64.of_int bit_value) ] }
  in
  let r = Machine.run_single ~ctx cfg program in
  let measured =
    match measure_index with
    | None -> r.cycles
    | Some idx -> (
        match
          List.find_opt
            (fun (c : Core_model.commit_record) ->
              c.c_eff.Sonar_isa.Golden.index = idx)
            r.cores.(0).commits
        with
        | Some c -> c.c_cycle
        | None -> r.cycles)
  in
  (measured, r.cores.(0).transient_executed)

(* Measurement noise: small jitter every run, plus rare large outliers
   (interrupts, contention from unrelated activity). *)
let jitter rng =
  let base = Rng.int rng 5 - 2 in
  if Rng.chance rng 0.02 then
    base + ((10 + Rng.int rng 30) * if Rng.bool rng then 1 else -1)
  else base

let run_poc ?(seed = 99L) ?(trials = default_trials) ?(key_bits = 128)
    ?(timer_granularity = 1) cfg ~channel_id gadget =
  (* Timer coarsening (§8.6): the attacker's clock reads are quantised to
     [timer_granularity] cycles, the mitigation of restricting clock
     registers. Granularities beyond the channel's margin collapse the
     inference to chance. *)
  let quantise v = v / timer_granularity * timer_granularity in
  (* Every trial runs on one reused machine, rewound to cold start. *)
  let run_once = run_once ~ctx:(Machine.Ctx.create cfg) in
  let rng = Rng.create seed in
  let key = Array.init key_bits (fun _ -> Rng.int rng 2) in
  (* Per-bit calibration with attacker-planted values: baseline timings
     depend on which kernel line the bit lives in, so the attacker
     calibrates each offset (as cache attackers calibrate each slot). *)
  let calib = Hashtbl.create 16 in
  let threshold_for i =
    match Hashtbl.find_opt calib i with
    | Some t -> t
    | None ->
        let cal0, _ = run_once cfg ~gadget ~bit_index:i ~bit_value:0 ~noise:1 in
        let cal1, _ = run_once cfg ~gadget ~bit_index:i ~bit_value:1 ~noise:1 in
        let cal0 = quantise cal0 and cal1 = quantise cal1 in
        let t = (float_of_int (cal0 + cal1) /. 2., cal1 >= cal0) in
        Hashtbl.replace calib i t;
        t
  in
  let correct_bits = ref 0 in
  let perfect_keys = ref 0 in
  let margin_sum = ref 0. in
  let window_sum = ref 0 in
  let runs = ref 0 in
  for _trial = 1 to trials do
    let all_ok = ref true in
    Array.iteri
      (fun i bit ->
        let threshold, one_is_slower = threshold_for i in
        let noise = Rng.int rng 4 in
        let cycles, window = run_once cfg ~gadget ~bit_index:i ~bit_value:bit ~noise in
        let measure = float_of_int (quantise (cycles + jitter rng)) in
        let inferred =
          if one_is_slower then if measure >= threshold then 1 else 0
          else if measure <= threshold then 1
          else 0
        in
        margin_sum := !margin_sum +. Float.abs (measure -. threshold);
        window_sum := !window_sum + window;
        incr runs;
        if inferred = bit then incr correct_bits else all_ok := false)
      key;
    if !all_ok then incr perfect_keys
  done;
  let total_bits = trials * key_bits in
  {
    channel_id;
    dut = cfg.Config.name;
    trials;
    key_bits;
    bit_accuracy = float_of_int !correct_bits /. float_of_int total_bits;
    key_success_rate = float_of_int !perfect_keys /. float_of_int trials;
    mean_margin = !margin_sum /. float_of_int !runs;
    avg_transient_window = float_of_int !window_sum /. float_of_int !runs;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "%-4s on %-8s: bit accuracy %5.1f%%, key success %5.1f%% (%d trials x \
     %d bits, margin %.1f cycles, transient window %.1f uops)"
    r.channel_id r.dut (100. *. r.bit_accuracy) (100. *. r.key_success_rate)
    r.trials r.key_bits r.mean_margin r.avg_transient_window

(* Exposed for tests and debugging. *)
module For_tests = struct
  let program ~gadget ~bit_index ~bit_value ~noise =
    let p, _ = attack_program ~gadget ~bit_index ~noise in
    let secret_word = Int64.add kernel_base (Int64.of_int (8 * bit_index)) in
    { p with Sonar_isa.Program.data = [ (secret_word, Int64.of_int bit_value) ] }

  let measure cfg = run_once ~ctx:(Machine.Ctx.create cfg) cfg
end
