type point_state = {
  point_id : string;
  mutable min_pair_interval : int option;
  mutable min_self_interval : int option;
  mutable triggered : bool;
  mutable request_hits : int;
}

let update_min current candidate =
  match current with Some m when m <= candidate -> current | _ -> Some candidate

(* One [point_state] per (point, lane).  One [Engine.read_slot_mask] per
   valid output covers every lane's truthiness at once (on a scalar
   engine, the one lane's); the per-lane updates then run only for lanes
   whose source actually fired this cycle. *)
type tracked = {
  lane_states : point_state array;  (** lane -> state *)
  valid_slots : int array;
  fired : int array;  (** per source: fired-lane mask, reused *)
  last_valid : int array array;  (** source -> lane -> cycle, -1 = never *)
}

type t = {
  engine : Engine.t;
  lanes : int;
  tracked : tracked array;
  mutable window : (int * int) option;
}

let create engine monitors =
  let lanes = Engine.lanes engine in
  let tracked =
    List.map
      (fun (pm : Sonar_ir.Instrument.point_monitor) ->
        (* Resolve output names to slots once; sampling then reads the
           engine's store directly. *)
        let valid_slots =
          Array.of_list (List.map (Engine.slot engine) pm.valid_outputs)
        in
        let n = Array.length valid_slots in
        {
          lane_states =
            Array.init lanes (fun _ ->
                {
                  point_id = pm.point_id;
                  min_pair_interval = None;
                  min_self_interval = None;
                  triggered = false;
                  request_hits = 0;
                });
          valid_slots;
          fired = Array.make n 0;
          last_valid = Array.make_matrix n lanes (-1);
        })
      monitors
    |> Array.of_list
  in
  { engine; lanes; tracked; window = None }

let lanes t = t.lanes
let set_window t ~start ~stop = t.window <- Some (start, stop)

let sample t =
  let cycle = Engine.cycle t.engine in
  let in_window =
    match t.window with
    | None -> true
    | Some (start, stop) -> cycle >= start && cycle <= stop
  in
  Array.iter
    (fun tr ->
      let n = Array.length tr.valid_slots in
      let fired = tr.fired in
      for i = 0 to n - 1 do
        fired.(i) <- Engine.read_slot_mask t.engine tr.valid_slots.(i)
      done;
      if in_window then
        for i = 0 to n - 1 do
          let fi = fired.(i) in
          if fi <> 0 then
            for lane = 0 to t.lanes - 1 do
              if (fi lsr lane) land 1 = 1 then begin
                let st = tr.lane_states.(lane) in
                st.request_hits <- st.request_hits + 1;
                (* Same-source consecutive interval. *)
                let lvi = tr.last_valid.(i) in
                if lvi.(lane) >= 0 then
                  st.min_self_interval <-
                    update_min st.min_self_interval (cycle - lvi.(lane));
                (* Pairwise interval against every other source's last
                   firing (including simultaneous firings this cycle). *)
                for j = 0 to n - 1 do
                  if j <> i then begin
                    let last_j =
                      if (fired.(j) lsr lane) land 1 = 1 then cycle
                      else tr.last_valid.(j).(lane)
                    in
                    if last_j >= 0 then begin
                      let interval = cycle - last_j in
                      st.min_pair_interval <-
                        update_min st.min_pair_interval interval;
                      if interval = 0 then st.triggered <- true
                    end
                  end
                done
              end
            done
        done;
      (* Last-valid bookkeeping runs regardless of the window so
         intervals across the window edge are measured correctly. *)
      for i = 0 to n - 1 do
        let fi = fired.(i) in
        if fi <> 0 then begin
          let lvi = tr.last_valid.(i) in
          for lane = 0 to t.lanes - 1 do
            if (fi lsr lane) land 1 = 1 then lvi.(lane) <- cycle
          done
        end
      done)
    t.tracked

let states t ~lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg "Monitor.states: lane out of range";
  Array.to_list (Array.map (fun tr -> tr.lane_states.(lane)) t.tracked)

let find t ~lane id =
  List.find_opt
    (fun (s : point_state) -> String.equal s.point_id id)
    (states t ~lane)
