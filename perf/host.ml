(* The host a measurement was taken on, and per-process resource readings.
   Everything here reads /proc, so values degrade to defaults off Linux. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let lines path =
  match read_file path with
  | Some s -> String.split_on_char '\n' s
  | None -> []

(* "key<tabs>: value" lines of /proc/cpuinfo and /proc/self/status. *)
let field line =
  match String.index_opt line ':' with
  | Some i ->
      Some
        ( String.trim (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  | None -> None

let cpuinfo = lazy (List.filter_map field (lines "/proc/cpuinfo"))

let nproc () =
  match
    List.length (List.filter (fun (k, _) -> k = "processor") (Lazy.force cpuinfo))
  with
  | 0 -> Domain.recommended_domain_count ()
  | n -> n

let cpu_model () =
  Option.value ~default:"unknown"
    (List.assoc_opt "model name" (Lazy.force cpuinfo))

let load_average () =
  match read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | x :: _ -> Option.value ~default:0. (float_of_string_opt x)
      | [] -> 0.)
  | None -> 0.

(* Only a checkout with its own .git is asked; git would otherwise search the
   parent directories. *)
let git_head () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic =
        Unix.open_process_args_in "git"
          [| "git"; "--git-dir=.git"; "rev-parse"; "HEAD" |]
      in
      let head = try input_line ic with End_of_file -> "unknown" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> String.trim head
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

let tag () =
  Sonar.Json.Obj
    [
      ("nproc", Sonar.Json.Int (nproc ()));
      ("cpu", Sonar.Json.String (cpu_model ()));
      ("ocaml", Sonar.Json.String Sys.ocaml_version);
      ("git", Sonar.Json.String (git_head ()));
      ("loadavg", Sonar.Json.Float (load_average ()));
    ]

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match List.assoc_opt "VmHWM" (List.filter_map field (lines "/proc/self/status")) with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> (
          match float_of_string_opt kb with Some kb -> kb /. 1024. | None -> 0.)
      | [] -> 0.)
  | None -> 0.

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
