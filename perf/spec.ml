(* BENCHMARK.json, the single list of workloads and metrics: names, units,
   directions and regression bounds. The runner prints exactly these
   metrics and [compare] applies these bounds. *)

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float option;  (** share of the baseline median; per-layer: none *)
}

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load path =
  let doc =
    Sonar.Json.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  let field k = Sonar.Json.member k doc in
  let list = function Sonar.Json.List l -> l | _ -> [] in
  let str k j = Sonar.Json.to_str (Sonar.Json.member k j) in
  let metric j =
    {
      name = str "name" j;
      unit = str "unit" j;
      higher_is_better = str "better" j = "higher";
      bound =
        (match Sonar.Json.member "bound" j with
        | Sonar.Json.Null -> None
        | b -> Some (Sonar.Json.to_float b));
    }
  in
  {
    run_seconds = Sonar.Json.to_float (field "run_seconds");
    workloads = List.map (str "name") (list (field "workloads"));
    end_to_end = List.map metric (list (field "end_to_end"));
    per_layer = List.map metric (list (field "per_layer"));
  }

let metrics t ~traced = if traced then t.per_layer else t.end_to_end

(* Per-layer counts that are a function of the seed alone: they read the
   same on every host and for any [--seconds], and a change that only makes
   the code faster keeps them identical. *)
let exact =
  [
    "machine.sim_cycles_per_tc";
    "machine.checkpoint_hit_rate";
    "machine.cycles_saved_share";
    "machine.cycle_limit_hits_per_ktc";
    "golden.trace_len_per_tc";
    "coverage.novel_tc_rate";
    "coverage.total";
    "detector.finding_tc_rate";
    "detector.timing_diffs_per_ktc";
    "feedback.retained_per_ktc";
    "corpus.size";
    "analysis.monitored_points";
    "instrument.stmts_added";
  ]
