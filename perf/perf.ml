(* Sonar's benchmark: fuzzing speed end to end, and every layer timed from
   outside. See perf/README.md.

     perf [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1]
     perf trace W [--seed S] [--seconds T]      same as --workload W --trace 1
     perf compare A.jsonl B.jsonl
     perf smoke

   Common flags: --scale full|smoke, --spec BENCHMARK.json, --out DIR.

   With --workload, one workload runs in this process and the last line of
   stdout is its result, {"correct","attempted","failed","metrics"}, after
   one line naming the workload, seed and host. Without it, every workload
   runs in a child process of its own, one at a time, and each prints one
   line that joins the two. *)

module Json = Sonar.Json

type workload = Campaign of Campaign.t | Rtl

(* A campaign run is a sequence of short campaigns on distinct seeds (see
   Campaign.run). A guided campaign of 8 generations lets its corpus build
   up, yet is short enough for a run to average over dozens of corpora. The
   random strategy keeps no corpus, so its campaigns can be longer. A traced
   run counts over the first 8 campaigns (1 at smoke scale). *)
let workloads ~smoke =
  let campaign cfg strategy ~dual ~testcases ~traced =
    Campaign
      {
        Campaign.cfg;
        strategy;
        dual;
        testcases = (if smoke then 256 else testcases);
        traced;
        counted = (if smoke then 1 else 8);
      }
  in
  [
    ("boom-guided", campaign Sonar_uarch.Config.boom "sonar" ~dual:false ~testcases:512 ~traced:false);
    ("boom-dual", campaign Sonar_uarch.Config.boom "sonar" ~dual:true ~testcases:512 ~traced:false);
    ( "nutshell-random-traced",
      campaign Sonar_uarch.Config.nutshell "random" ~dual:false ~testcases:2048 ~traced:true );
    ("rtl-static", Rtl);
  ]

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable traced : bool;
  mutable smoke : bool;
  mutable spec : string;
  mutable out : string;
  mutable args : string list;  (** positional arguments *)
}

let usage () =
  prerr_endline
    "usage: perf [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1]\n\
    \       perf trace W [--seed S] [--seconds T]\n\
    \       perf compare A.jsonl B.jsonl\n\
    \       perf smoke\n\
     common: [--scale full|smoke] [--spec BENCHMARK.json] [--out DIR]";
  exit 2

let parse argv =
  let o =
    {
      workload = None;
      seed = 42;
      seconds = None;
      traced = false;
      smoke = false;
      spec = "BENCHMARK.json";
      out = "perf/out";
      args = [];
    }
  in
  let number conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seed" :: s :: rest -> o.seed <- number int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> o.seconds <- Some (number float_of_string_opt s); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> o.traced <- t = "1"; go rest
    | "--scale" :: ("full" | "smoke" as s) :: rest -> o.smoke <- s = "smoke"; go rest
    | "--spec" :: s :: rest -> o.spec <- s; go rest
    | "--out" :: d :: rest -> o.out <- d; go rest
    | "trace" :: w :: rest when o.args = [] ->
        (* [trace W] is [--workload W --trace 1]. *)
        o.workload <- Some w; o.traced <- true; go rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' -> o.args <- o.args @ [ a ]; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  o

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- one workload, in this process ---- *)

let run_one spec o name =
  let w =
    match List.assoc_opt name (workloads ~smoke:o.smoke) with
    | Some w when List.mem name spec.Spec.workloads -> w
    | _ ->
        prerr_endline ("perf: unknown workload " ^ name);
        exit 2
  in
  let seed = o.seed and traced = o.traced in
  let seconds = Option.value o.seconds ~default:spec.Spec.run_seconds in
  let out = Filename.concat o.out (Printf.sprintf "%s-%d" name seed) in
  mkdir_p out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String name);
            ("seed", Json.Int seed);
            ("trace", Json.Int (Bool.to_int traced));
            ("scale", Json.String (if o.smoke then "smoke" else "full"));
            ("host", Host.tag ());
          ]));
  let scale = if o.smoke then 0.02 else 1.0 in
  let r =
    match (w, traced) with
    | Campaign w, false -> Campaign.run w ~seed ~seconds ~out
    | Campaign w, true -> Campaign.trace w ~seed ~seconds ~out
    | Rtl, false -> Rtl.run ~scale ~seed ~seconds
    | Rtl, true -> Rtl.trace ~scale ~seed ~seconds ~out
  in
  List.iter
    (fun (n, v) ->
      if Spec.metrics spec ~traced |> List.for_all (fun m -> m.Spec.name <> n) then
        failwith ("metric missing from " ^ o.spec ^ ": " ^ n);
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %g" n v))
    r.Measure.metrics;
  (* A layer this workload never calls reads 0; an end-to-end metric must
     always be measured. *)
  let value (m : Spec.metric) =
    match List.assoc_opt m.name r.metrics with
    | Some v -> v
    | None when traced -> 0.
    | None -> failwith ("workload did not measure " ^ m.name)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Spec.metric) ->
                     ( m.name,
                       Json.Obj [ ("value", Json.Float (value m)); ("unit", Json.String m.unit) ] ))
                   (Spec.metrics spec ~traced)) );
          ]));
  if not r.correct then exit 1

(* ---- every workload, each in a child process ---- *)

let child_args o name =
  [ "run"; "--workload"; name; "--seed"; string_of_int o.seed; "--trace";
    (if o.traced then "1" else "0"); "--scale"; (if o.smoke then "smoke" else "full");
    "--spec"; o.spec; "--out"; o.out ]
  @ match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%.17g" s ] | None -> []

(* Runs one workload in a child; returns its header and result objects. *)
let run_child o name =
  let args = Array.of_list (Sys.executable_name :: child_args o name) in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "")
  in
  let status = Unix.close_process_in ic in
  match (lines, status) with
  | header :: (_ :: _ as rest), Unix.WEXITED (0 | 1) -> (
      match (Json.of_string header, Json.of_string (List.nth rest (List.length rest - 1))) with
      | (Json.Obj h, (Json.Obj r as result)) -> Ok (h, r, result)
      | _ -> Error "malformed output"
      | exception Json.Parse_error e -> Error e)
  | _ -> Error "exited without a result"

let run_all spec o =
  let ok =
    List.fold_left
      (fun ok name ->
        match run_child o name with
        | Ok (h, r, result) ->
            print_endline (Json.to_string (Json.Obj (h @ r)));
            ok && Json.member "correct" result = Json.Bool true
        | Error e ->
            Printf.eprintf "perf: %s: %s\n%!" name e;
            false)
      true spec.Spec.workloads
  in
  if not ok then exit 1

(* Metrics that must be non-zero on a workload's traced run: one or more
   per layer it calls. *)
let probes = function
  | "boom-guided" -> [ "machine.us_per_tc"; "generate.us_per_tc"; "feedback.us_per_tc" ]
  | "boom-dual" -> [ "machine.us_per_tc"; "golden.us_per_tc"; "detector.us_per_tc" ]
  | "nutshell-random-traced" ->
      [ "machine.us_per_tc"; "telemetry.us_per_tc"; "report.load_ms_per_mb" ]
  | "rtl-static" -> [ "netlist_gen.ms_per_kstmt"; "engine.us_per_cycle"; "engine.us_per_lane_cycle" ]
  | _ -> []

(* Every workload at smoke scale, untraced and traced, checked against
   BENCHMARK.json: the result line has exactly the four keys, the run is
   correct (for a traced campaign that includes the replay reproducing
   Fuzzer.run), every declared metric is printed with its unit, the
   end-to-end ones are positive, and so are the probes. Then a longer
   traced run, which replays more campaigns, must report the same counts. *)
let smoke spec o =
  o.smoke <- true;
  o.seconds <- Some 0.;
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; prerr_endline ("perf smoke: " ^ s)) fmt in
  let traced_results = ref [] in
  List.iter
    (fun traced ->
      o.traced <- traced;
      List.iter
        (fun name ->
          match run_child o name with
          | Error e -> fail "%s: %s" name e
          | Ok (_, r, result) ->
              if traced then traced_results := (name, result) :: !traced_results;
              if List.map fst r <> [ "correct"; "attempted"; "failed"; "metrics" ] then
                fail "%s: result keys are %s" name (String.concat "," (List.map fst r));
              if Json.member "correct" result <> Json.Bool true then fail "%s: not correct" name;
              if Json.member "failed" result <> Json.Int 0 then fail "%s: failed operations" name;
              let metrics = Json.member "metrics" result in
              let declared = Spec.metrics spec ~traced in
              (match metrics with
              | Json.Obj l when List.length l = List.length declared -> ()
              | _ -> fail "%s: metrics other than the declared ones" name);
              let value n = Json.member "value" (Json.member n metrics) in
              List.iter
                (fun (m : Spec.metric) ->
                  match (value m.name, Json.member "unit" (Json.member m.name metrics)) with
                  | (Json.Float _ | Json.Int _) as v, Json.String u when u = m.unit ->
                      if (not traced) && Json.to_float v <= 0. then
                        fail "%s: %s is not positive" name m.name
                  | _ -> fail "%s: %s missing or without its unit" name m.name)
                declared;
              if traced then
                List.iter
                  (fun n ->
                    match value n with
                    | (Json.Float _ | Json.Int _) as v when Json.to_float v > 0. -> ()
                    | _ -> fail "%s: %s is not positive" name n)
                  (probes name))
        spec.Spec.workloads)
    [ false; true ];
  List.iter
    (fun n ->
      if not (List.exists (fun (m : Spec.metric) -> m.name = n) spec.Spec.per_layer) then
        fail "exact metric %s is not declared" n)
    Spec.exact;
  let name = "boom-guided" in
  (match (List.assoc_opt name !traced_results, run_child { o with seconds = Some 1. } name) with
  | Some short, Ok (_, _, long) ->
      let get k r = Json.member k r and value n r = Json.member n (Json.member "metrics" r) in
      if Json.to_int (get "attempted" long) <= Json.to_int (get "attempted" short) then
        fail "%s: a longer traced run replayed no more campaigns" name;
      List.iter
        (fun n -> if value n short <> value n long then fail "%s: %s depends on --seconds" name n)
        Spec.exact
  | _, Error e -> fail "%s: %s" name e
  | None, _ -> ());
  if !failures = 0 then print_endline "perf smoke: ok";
  Bool.to_int (!failures > 0)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let o = parse argv in
  let spec () = Spec.load o.spec in
  match o.args with
  | [] | [ "run" ] -> (
      let spec = spec () in
      match o.workload with Some w -> run_one spec o w | None -> run_all spec o)
  | [ "compare"; a; b ] -> exit (Compare.main (spec ()) a b)
  | [ "smoke" ] -> exit (smoke (spec ()) o)
  | _ -> usage ()
