(* Memory that stays flat over a campaign: with no sinks attached, what a
   campaign leaves alive does not grow with its length. This suite runs in
   its own executable, so the live heap holds its campaigns and nothing
   left over from other suites. *)

open Sonar

(* Live major-heap words after a full collection while the outcome of a
   [sonar] campaign is still held, and the words reachable from that
   outcome. *)
let live_after cfg ~iterations =
  let o =
    Fuzzer.run
      ~options:{ Fuzzer.Options.default with seed = 42L }
      cfg Feedback.sonar ~iterations
  in
  Gc.full_major ();
  let live = (Gc.stat ()).live_words in
  (live, Obj.reachable_words (Obj.repr o))

(* 8x the testcases may leave at most 1.1x the live words, and an outcome
   no larger. An outcome that kept a series point per testcase and every
   finding's report left 2.2x the live words on BOOM and 2.0x on NutShell
   in this test. *)
let test_flat cfg () =
  let live_short, outcome_short = live_after cfg ~iterations:256 in
  let live_long, outcome_long = live_after cfg ~iterations:2048 in
  Alcotest.(check bool)
    (Printf.sprintf "live words %d at 256 testcases, %d at 2048" live_short
       live_long)
    true
    (float_of_int live_long <= 1.1 *. float_of_int live_short);
  Alcotest.(check bool)
    (Printf.sprintf "outcome words %d at 256 testcases, %d at 2048"
       outcome_short outcome_long)
    true
    (outcome_long <= outcome_short)

(* Words promoted to the major heap per testcase of a 1,024-testcase
   [sonar] campaign at jobs 1, after a warm-up campaign has sized the
   domain's scratch context. A testcase's pair and the golden traces its
   results point at should die in the minor heap: the loop folds each
   pair as soon as it runs. Holding a generation's pairs until a
   whole-generation fold promoted 3,931 words per testcase on BOOM, 3,566
   on NutShell and 6,316 on dual-core BOOM in this test. *)
let promoted_per_testcase cfg ~dual =
  let campaign () =
    ignore
      (Fuzzer.run
         ~options:{ Fuzzer.Options.default with seed = 42L; dual }
         cfg Feedback.sonar ~iterations:1024)
  in
  campaign ();
  let before = (Gc.quick_stat ()).promoted_words in
  campaign ();
  ((Gc.quick_stat ()).promoted_words -. before) /. 1024.

let test_promotion cfg ~dual ~bound () =
  let per_tc = promoted_per_testcase cfg ~dual in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f promoted words per testcase (bound %.0f)" per_tc bound)
    true (per_tc <= bound)

(* Minor-heap words allocated per testcase of a 1,024-testcase [sonar]
   campaign at jobs 1, after a warm-up campaign has sized the domain's
   scratch context. Every minor collection stops all domains, so what a
   testcase allocates caps parallel speedup. The bounds are about 1.1x
   the 10,745, 10,280 and 16,233 words measured on BOOM, NutShell and
   dual-core BOOM once the golden model kept its memory in a flat word
   table, contention points kept dense state and the fold stopped
   re-sorting points and formatting state diffs; before, this test
   measured 17,945, 17,278 and 28,305. *)
let minor_words_per_testcase cfg ~dual =
  let campaign () =
    ignore
      (Fuzzer.run
         ~options:{ Fuzzer.Options.default with seed = 42L; dual }
         cfg Feedback.sonar ~iterations:1024)
  in
  campaign ();
  let before = Gc.minor_words () in
  campaign ();
  (Gc.minor_words () -. before) /. 1024.

let test_minor_words cfg ~dual ~bound () =
  let per_tc = minor_words_per_testcase cfg ~dual in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per testcase (bound %.0f)" per_tc bound)
    true (per_tc <= bound)

let () =
  Alcotest.run "sonar_memory"
    [
      ( "flat memory",
        List.map
          (fun (cfg : Sonar_uarch.Config.t) ->
            Alcotest.test_case (cfg.name ^ " campaign") `Quick (test_flat cfg))
          [ Sonar_uarch.Config.boom; Sonar_uarch.Config.nutshell ] );
      ( "promotion",
        List.map
          (fun ((cfg : Sonar_uarch.Config.t), dual, bound) ->
            Alcotest.test_case
              (cfg.name ^ if dual then " dual campaign" else " campaign")
              `Quick
              (test_promotion cfg ~dual ~bound))
          [
            (Sonar_uarch.Config.boom, false, 1500.);
            (Sonar_uarch.Config.nutshell, false, 1500.);
            (Sonar_uarch.Config.boom, true, 2500.);
          ] );
      ( "minor words per testcase",
        List.map
          (fun ((cfg : Sonar_uarch.Config.t), dual, bound) ->
            Alcotest.test_case
              (cfg.name ^ if dual then " dual campaign" else " campaign")
              `Quick
              (test_minor_words cfg ~dual ~bound))
          [
            (Sonar_uarch.Config.boom, false, 11_800.);
            (Sonar_uarch.Config.nutshell, false, 11_300.);
            (Sonar_uarch.Config.boom, true, 17_900.);
          ] );
    ]
