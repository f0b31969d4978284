(* What one workload run reports: the correctness verdict, the operations
   attempted and failed, and its metrics by name (units come from
   BENCHMARK.json). *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Run [f] repeatedly until [seconds] of wall-clock have passed and it has
   run at least [min] times; returns the per-call results in call order. *)
let repeat ~seconds ~min f =
  let t0 = Host.now_ns () in
  let rec go n acc =
    if n >= min && Host.seconds_since t0 >= seconds then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

(* Wall-clock seconds of [f ()] in a freshly forked copy of this process,
   so every sample pays the cold-start costs (first-touch allocation, empty
   scratch contexts) that a new campaign pays.
   @raise Failure when [f] raises in the child. *)
let cold_seconds f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          let t0 = Host.now_ns () in
          f ();
          let msg = Printf.sprintf "%.17g" (Host.seconds_since t0) in
          ignore (Unix.write_substring w msg 0 (String.length msg));
          0
        with e ->
          prerr_endline ("perf: set-up raised " ^ Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let msg = In_channel.input_all ic in
      close_in ic;
      match (snd (Unix.waitpid [] pid), float_of_string_opt msg) with
      | Unix.WEXITED 0, Some s -> s
      | _ -> failwith "set-up failed")

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
