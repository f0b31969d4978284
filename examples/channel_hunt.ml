(* Channel hunt: measure any of the paper's fourteen side channels
   (Table 3) through its hand-built scenario, and show how the
   dual-differential comparison justifies it.

   Run with: dune exec examples/channel_hunt.exe [-- S9 ...]
   With no arguments, measures the divider channel S9 and the MSHR
   false-sharing channel S5. *)

let hunt id =
  match Sonar.Channels.find id with
  | None -> Format.printf "unknown channel %s (S1..S14)@." id
  | Some c ->
      Format.printf "== %s: %s on %s ==@.%s@.@." c.Sonar.Channels.id c.resource
        c.dut c.description;
      let m = Sonar.Channels.measure c in
      Format.printf "%a@.@." Sonar.Channels.pp_measurement m;
      Format.printf "dual-differential report:@.%a@." Sonar.Detector.pp_report
        m.report

let () =
  let ids =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> [ "S9"; "S5" ]
  in
  List.iter hunt ids
