type target = Corpus.point * int option

type operator = Composite | Directed | Random_edit | Similarity

type selection = {
  entry : Corpus.entry;
  target : target option;
  op : operator;
}

type observation = {
  iteration : int;
  testcase : Testcase.t;
  pair : Executor.pair;
  intervals : (Corpus.point * int) list;
  triggered : ((string * Sonar_uarch.Cpoint.kind * int) * float) list;
  coverage_added : float;
  coverage_total : float;
  component_delta : (string * float) list;
  report : Detector.report;
  target : target option;
  op : operator option;
}

type campaign = {
  corpus : Corpus.t;
  mstate : Mutation.state;
  emit : (Telemetry.event -> unit) option;
  mutate_ratio : float;
}

type t = {
  name : string;
  description : string;
  mutate_ratio : float;
  directed_mutation : bool;
  select : campaign -> Rng.t -> selection option;
  consider : campaign -> Testcase.t -> observation -> bool;
  reward : campaign -> observation -> unit;
  fresh : Rng.t -> id:int -> dual:bool -> Testcase.t;
}

(* ------------------------------------------------------------------ *)
(* The seed policy family (legacy strategy booleans).                  *)

type flags = {
  retention : bool;
  selection : bool;
  directed_mutation : bool;
}

(* Directed-mutation feedback: did the chased interval shrink? Shared by
   every strategy whose selections carry a target. *)
let directed_reward (c : campaign) (obs : observation) =
  match obs.target with
  | None -> ()
  | Some (point, before) ->
      let after = List.assoc_opt point obs.intervals in
      let improved =
        match (before, after) with
        | Some b, Some a -> a < b
        | None, Some _ -> true
        | _, None -> false
      in
      let dir_before = c.mstate.Mutation.dir in
      Mutation.feedback c.mstate ~improved;
      (match c.emit with
      | Some emit when c.mstate.Mutation.dir <> dir_before ->
          emit
            (Telemetry.Mutation_flip
               {
                 iteration = obs.iteration;
                 direction =
                   (match c.mstate.Mutation.dir with
                   | Mutation.Grow -> "grow"
                   | Mutation.Shrink -> "shrink");
               })
      | Some _ | None -> ())

let of_flags ?name ?description (f : flags) =
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "flags:%c%c%c"
          (if f.retention then 'r' else '-')
          (if f.selection then 's' else '-')
          (if f.directed_mutation then 'd' else '-')
  in
  let description =
    match description with
    | Some d -> d
    | None -> "seed policy family (legacy strategy booleans)"
  in
  (* The draw sequence below is the historical fuzzer's, verbatim: the
     seed-determinism tests assert bit-identical outcomes through it. *)
  let select (c : campaign) rng =
    if f.selection then
      match Corpus.select c.corpus rng with
      | Some (entry, point) when Rng.chance rng 0.75 ->
          Some
            {
              entry;
              target = Some (point, Corpus.best_interval c.corpus point);
              op = Composite;
            }
      | Some _ | None -> None
    else if
      f.retention && Corpus.size c.corpus > 0
      && Rng.chance rng c.mutate_ratio
    then
      (* Retention without selection: mutate a random seed. *)
      match Corpus.select c.corpus rng with
      | Some (entry, _) -> Some { entry; target = None; op = Composite }
      | None -> None
    else None
  in
  let consider (c : campaign) tc (obs : observation) =
    if f.retention then
      Corpus.consider ?emit:c.emit c.corpus tc ~intervals:obs.intervals
    else false
  in
  {
    name;
    description;
    mutate_ratio = 0.8;
    directed_mutation = f.directed_mutation;
    select;
    consider;
    reward = directed_reward;
    fresh = Testcase.random;
  }

let sonar =
  of_flags ~name:"sonar"
    ~description:
      "the paper's policy: min-interval retention, interval-weighted \
       selection, adaptive directed mutation (the reference)"
    { retention = true; selection = true; directed_mutation = true }

let random =
  of_flags ~name:"random"
    ~description:
      "blind baseline: a fresh random testcase every iteration, nothing \
       retained (Figure 8's comparison)"
    { retention = false; selection = false; directed_mutation = false }

(* ------------------------------------------------------------------ *)
(* Competitor strategies.                                              *)

(* Uniform seed selection shared by the coverage-guided competitors: with
   probability [mutate_ratio], mutate a uniformly random corpus entry. *)
let uniform_select op (c : campaign) rng =
  if Corpus.size c.corpus > 0 && Rng.chance rng c.mutate_ratio then
    Some { entry = Rng.pick rng (Corpus.entries c.corpus); target = None; op }
  else None

(* Retention for strategies whose novelty criterion is not interval
   improvement: add the testcase when [novel]; [novel] is the verdict. *)
let retain_if novel (c : campaign) tc (obs : observation) =
  if novel then Corpus.add ?emit:c.emit c.corpus tc ~intervals:obs.intervals;
  novel

let timing_coverage () =
  (* WhisperFuzz-style: the novelty domain is (point, source pair,
     power-of-two interval bucket) cells — "timing coverage" — plus
     per-component heatmap weight. *)
  let seen : (Corpus.point * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let consider (c : campaign) tc (obs : observation) =
    let cell (point, v) = (point, Histogram.bucket_of v) in
    (* Novelty is judged against the pre-observation set, then every cell
       is marked, so the verdict is insensitive to list order. *)
    let novel_cell =
      List.exists (fun iv -> not (Hashtbl.mem seen (cell iv))) obs.intervals
    in
    List.iter (fun iv -> Hashtbl.replace seen (cell iv) ()) obs.intervals;
    retain_if (novel_cell || obs.component_delta <> []) c tc obs
  in
  {
    name = "timing-coverage";
    description =
      "WhisperFuzz-style: retain on new (point, pair, interval-bucket) \
       timing-coverage cells or new heatmap weight; uniform selection";
    mutate_ratio = 0.8;
    directed_mutation = false;
    select = uniform_select Composite;
    consider;
    reward = (fun _ _ -> ());
    fresh = Testcase.random;
  }

let state_transition () =
  (* ProcessorFuzz-style: the novelty domain is consecutive commit-label
     transitions in the golden trace. A label is coarse on purpose —
     instruction class x (branch taken) x (faulted) x (transient) — so
     the transition space saturates at a rate the corpus can follow. *)
  let seen : ((int * bool * bool * bool) * (int * bool * bool * bool), unit)
      Hashtbl.t =
    Hashtbl.create 1024
  in
  let instr_class i =
    let open Sonar_isa in
    if Instr.uses_mul_div i then 0
    else if Instr.is_load i then 1
    else if Instr.is_store i then 2
    else if Instr.is_branch i then 3
    else 4
  in
  let label (e : Sonar_isa.Golden.effect) =
    (instr_class e.instr, e.taken = Some true, e.fault <> None, e.transient)
  in
  let consider (c : campaign) tc (obs : observation) =
    let novel = ref false in
    let walk_core (core : Sonar_uarch.Machine.core_result) =
      let rec pairs = function
        | (a : Sonar_uarch.Core_model.commit_record)
          :: ((b : Sonar_uarch.Core_model.commit_record) :: _ as rest) ->
            let key = (label a.c_eff, label b.c_eff) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              novel := true
            end;
            pairs rest
        | _ -> ()
      in
      pairs core.commits
    in
    Array.iter walk_core obs.pair.Executor.run0.Sonar_uarch.Machine.cores;
    Array.iter walk_core obs.pair.Executor.run1.Sonar_uarch.Machine.cores;
    retain_if !novel c tc obs
  in
  {
    name = "state-transition";
    description =
      "ProcessorFuzz-style: retain on novel consecutive commit-label \
       transitions in the golden trace; uniform selection";
    mutate_ratio = 0.8;
    directed_mutation = false;
    select = uniform_select Composite;
    consider;
    reward = (fun _ _ -> ());
    fresh = Testcase.random;
  }

let bandit () =
  (* ReFuzz-style contextual epsilon-greedy bandit: context = the seed's
     secret flavor, arms = the four mutation operators, payoff = coverage
     added plus a bonus per CCD finding. All randomness flows through the
     per-candidate rng, and statistics update in fold order, so campaigns
     stay bit-identical across jobs. *)
  let ops = [| Composite; Directed; Random_edit; Similarity |] in
  let n_arms = Array.length ops in
  let n_ctx = 4 in
  let counts = Array.make_matrix n_ctx n_arms 0 in
  let sums = Array.make_matrix n_ctx n_arms 0. in
  let flavor_class (tc : Testcase.t) =
    match tc.Testcase.flavor with
    | Testcase.Neutral -> 0
    | Testcase.Stride _ -> 1
    | Testcase.Latency _ -> 2
    | Testcase.Gated _ -> 3
  in
  let arm_of = function
    | Composite -> 0
    | Directed -> 1
    | Random_edit -> 2
    | Similarity -> 3
  in
  (* Unvisited arms score +inf (each gets explored once per context);
     ties break toward the lowest arm index, deterministically. *)
  let best_arm ctx =
    let best = ref 0 and best_v = ref neg_infinity in
    for a = 0 to n_arms - 1 do
      let v =
        if counts.(ctx).(a) = 0 then infinity
        else sums.(ctx).(a) /. float_of_int counts.(ctx).(a)
      in
      if v > !best_v then begin
        best := a;
        best_v := v
      end
    done;
    !best
  in
  let select (c : campaign) rng =
    if Corpus.size c.corpus > 0 && Rng.chance rng c.mutate_ratio then begin
      let entry = Rng.pick rng (Corpus.entries c.corpus) in
      let ctx = flavor_class entry.Corpus.tc in
      let arm =
        if Rng.chance rng 0.2 then Rng.int rng n_arms else best_arm ctx
      in
      Some { entry; target = None; op = ops.(arm) }
    end
    else None
  in
  let reward _c (obs : observation) =
    match obs.op with
    | None -> ()
    | Some op ->
        let ctx = flavor_class obs.testcase in
        let a = arm_of op in
        counts.(ctx).(a) <- counts.(ctx).(a) + 1;
        sums.(ctx).(a) <-
          sums.(ctx).(a) +. obs.coverage_added
          +. (5. *. float_of_int (List.length obs.report.Detector.findings))
  in
  let consider (c : campaign) tc (obs : observation) =
    Corpus.consider ?emit:c.emit c.corpus tc ~intervals:obs.intervals
    (* Coverage-bearing testcases feed the arm statistics even when they
       do not improve any interval. *)
    || retain_if (obs.coverage_added > 0.) c tc obs
  in
  {
    name = "bandit";
    description =
      "ReFuzz-style contextual bandit: epsilon-greedy over mutation \
       operators, context = seed flavor, payoff = coverage + findings";
    mutate_ratio = 0.8;
    directed_mutation = true;
    select;
    consider;
    reward;
    fresh = Testcase.random;
  }

let specdoctor =
  (* SpecDoctor-style (Figure 11's comparison): every fresh testcase
     carries the same gated transient secret region and no dependency
     chains, and a testcase is retained when it triggers new contention
     points — SpecDoctor keeps testcases that reach new RTL states and has
     no notion of inter-request timing. *)
  let transient =
    let open Sonar_isa in
    Testcase.Gated
      {
        body =
          [
            Instr.Itype (Instr.SLLI, Reg.of_int 6, Reg.of_int 5, 6);
            Instr.Rtype (Instr.ADD, Reg.of_int 6, Reg.of_int 6, Reg.of_int 11);
            Instr.Load (Instr.LD, Reg.of_int 7, Reg.of_int 6, 0);
          ];
      }
  in
  let consider c tc (obs : observation) =
    retain_if (obs.coverage_added > 0.) c tc obs
  in
  {
    name = "specdoctor";
    description =
      "SpecDoctor-style: gated transient secret region, no chains; retain \
       on new contention coverage; uniform undirected mutation (Figure 11)";
    mutate_ratio = 0.6;
    directed_mutation = false;
    select = uniform_select Composite;
    consider;
    reward = (fun _ _ -> ());
    fresh =
      (fun rng ~id ~dual ->
        { (Testcase.random rng ~id ~dual) with flavor = transient; chains = [] });
  }

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

let builders =
  [
    ("sonar", fun () -> sonar);
    ("random", fun () -> random);
    ("timing-coverage", timing_coverage);
    ("state-transition", state_transition);
    ("bandit", bandit);
    ("specdoctor", fun () -> specdoctor);
  ]

let names = List.map fst builders

let all = List.map (fun (name, build) -> (name, (build ()).description)) builders

let create name =
  match List.assoc_opt name builders with
  | Some build -> Some (build ())
  | None -> None
