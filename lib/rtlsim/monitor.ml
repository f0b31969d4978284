type point_state = {
  point_id : string;
  mutable min_pair_interval : int option;
  mutable min_self_interval : int option;
  mutable triggered : bool;
  mutable request_hits : int;
}

type tracked = {
  state : point_state;
  valid_slots : int array;  (** engine slots of the valid outputs *)
  fired : bool array;  (** per-sample scratch, reused *)
  last_valid : int array;  (** -1 = never *)
}

type t = {
  engine : Engine.t;
  tracked : tracked array;
  mutable window : (int * int) option;
}

let create engine monitors =
  let tracked =
    List.map
      (fun (pm : Sonar_ir.Instrument.point_monitor) ->
        (* Resolve output names to slots once; sampling then reads the
           engine's store directly. *)
        let valid_slots =
          Array.of_list (List.map (Engine.slot engine) pm.valid_outputs)
        in
        {
          state =
            {
              point_id = pm.point_id;
              min_pair_interval = None;
              min_self_interval = None;
              triggered = false;
              request_hits = 0;
            };
          valid_slots;
          fired = Array.make (Array.length valid_slots) false;
          last_valid = Array.make (Array.length valid_slots) (-1);
        })
      monitors
    |> Array.of_list
  in
  { engine; tracked; window = None }

let set_window t ~start ~stop = t.window <- Some (start, stop)

let update_min current candidate =
  match current with Some m when m <= candidate -> current | _ -> Some candidate

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
        fired.(i) <- Engine.read_slot t.engine tr.valid_slots.(i) <> 0
      done;
      if in_window then begin
        for i = 0 to n - 1 do
          if fired.(i) then begin
            tr.state.request_hits <- tr.state.request_hits + 1;
            (* Same-source consecutive interval. *)
            if tr.last_valid.(i) >= 0 then
              tr.state.min_self_interval <-
                update_min tr.state.min_self_interval (cycle - tr.last_valid.(i));
            (* Pairwise interval against every other source's last firing
               (including simultaneous firings this cycle). *)
            for j = 0 to n - 1 do
              if j <> i then begin
                let last_j = if fired.(j) then cycle else tr.last_valid.(j) in
                if last_j >= 0 then begin
                  let interval = cycle - last_j in
                  tr.state.min_pair_interval <-
                    update_min tr.state.min_pair_interval interval;
                  if interval = 0 then tr.state.triggered <- true
                end
              end
            done
          end
        done
      end;
      (* Last-valid bookkeeping runs regardless of the window so intervals
         across the window edge are measured correctly. *)
      for i = 0 to n - 1 do
        if fired.(i) then tr.last_valid.(i) <- cycle
      done)
    t.tracked

let states t = Array.to_list (Array.map (fun tr -> tr.state) t.tracked)

let find t id =
  List.find_opt (fun (s : point_state) -> String.equal s.point_id id) (states t)

(* Batch sampling over a bit-sliced engine: the same interval bookkeeping
   as [sample], replicated per lane. One [Engine.read_slot_mask] per valid
   output covers all 63 lanes' truthiness at once; the per-lane updates
   then run only for lanes whose source actually fired this cycle. *)
module Batch = struct
  type lane_tracked = {
    b_states : point_state array;  (** lane -> state *)
    b_valid_slots : int array;
    b_fired : int array;  (** per source: 63-lane fired mask, reused *)
    b_last_valid : int array array;  (** source -> lane -> cycle, -1 = never *)
  }

  type t = {
    b_engine : Engine.t;
    b_lanes : int;
    b_tracked : lane_tracked array;
    mutable b_window : (int * int) option;
  }

  let create engine monitors =
    let lanes = Engine.lanes engine in
    let tracked =
      List.map
        (fun (pm : Sonar_ir.Instrument.point_monitor) ->
          let valid_slots =
            Array.of_list (List.map (Engine.slot engine) pm.valid_outputs)
          in
          let n = Array.length valid_slots in
          {
            b_states =
              Array.init lanes (fun _ ->
                  {
                    point_id = pm.point_id;
                    min_pair_interval = None;
                    min_self_interval = None;
                    triggered = false;
                    request_hits = 0;
                  });
            b_valid_slots = valid_slots;
            b_fired = Array.make n 0;
            b_last_valid = Array.make_matrix n lanes (-1);
          })
        monitors
      |> Array.of_list
    in
    { b_engine = engine; b_lanes = lanes; b_tracked = tracked; b_window = None }

  let lanes t = t.b_lanes
  let set_window t ~start ~stop = t.b_window <- Some (start, stop)

  let sample t =
    let cycle = Engine.cycle t.b_engine in
    let in_window =
      match t.b_window with
      | None -> true
      | Some (start, stop) -> cycle >= start && cycle <= stop
    in
    Array.iter
      (fun tr ->
        let n = Array.length tr.b_valid_slots in
        let fired = tr.b_fired in
        for i = 0 to n - 1 do
          fired.(i) <- Engine.read_slot_mask t.b_engine tr.b_valid_slots.(i)
        done;
        if in_window then
          for i = 0 to n - 1 do
            let fi = fired.(i) in
            if fi <> 0 then
              for lane = 0 to t.b_lanes - 1 do
                if (fi lsr lane) land 1 = 1 then begin
                  let st = tr.b_states.(lane) in
                  st.request_hits <- st.request_hits + 1;
                  let lvi = tr.b_last_valid.(i) in
                  if lvi.(lane) >= 0 then
                    st.min_self_interval <-
                      update_min st.min_self_interval (cycle - lvi.(lane));
                  for j = 0 to n - 1 do
                    if j <> i then begin
                      let last_j =
                        if (fired.(j) lsr lane) land 1 = 1 then cycle
                        else tr.b_last_valid.(j).(lane)
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
        (* As in [sample]: last-valid bookkeeping runs outside the window
           too, so intervals across the window edge are measured. *)
        for i = 0 to n - 1 do
          let fi = fired.(i) in
          if fi <> 0 then begin
            let lvi = tr.b_last_valid.(i) in
            for lane = 0 to t.b_lanes - 1 do
              if (fi lsr lane) land 1 = 1 then lvi.(lane) <- cycle
            done
          end
        done)
      t.b_tracked

  let states t ~lane =
    if lane < 0 || lane >= t.b_lanes then
      invalid_arg "Monitor.Batch.states: lane out of range";
    Array.to_list (Array.map (fun tr -> tr.b_states.(lane)) t.b_tracked)

  let find t ~lane id =
    List.find_opt
      (fun (s : point_state) -> String.equal s.point_id id)
      (states t ~lane)
end
