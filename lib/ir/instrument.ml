type point_monitor = {
  point_id : string;
  valid_outputs : string list;
  intvl_output : string option;
}

type result = {
  circuit : Circuit.t;
  monitors : point_monitor list;
  stmts_added : int;
  points_instrumented : int;
}

let max_pairs = 16
let counter_width = 32

(* Sentinel exposed on the interval output before two requests were seen. *)
let no_interval = 0xFFFFL

let and_fold = function
  | [] -> Expr.lit ~width:1 1L
  | [ v ] -> Expr.reference v
  | v :: rest ->
      List.fold_left
        (fun acc n -> Expr.prim Expr.And [ acc; Expr.reference n ])
        (Expr.reference v) rest

let absdiff a b =
  Expr.mux
    (Expr.prim Expr.Geq [ a; b ])
    (Expr.prim Expr.Sub [ a; b ])
    (Expr.prim Expr.Sub [ b; a ])

let min_fold = function
  | [] -> Expr.lit ~width:counter_width no_interval
  | [ e ] -> e
  | e :: rest ->
      List.fold_left (fun acc x -> Expr.mux (Expr.prim Expr.Lt [ x; acc ]) x acc) e rest

let rec pairs_upto cap = function
  | [] | [ _ ] -> []
  | x :: rest ->
      let with_x = List.map (fun y -> (x, y)) rest in
      let here = if List.length with_x > cap then [] else with_x in
      let remaining = cap - List.length here in
      if remaining <= 0 then here else here @ pairs_upto remaining rest

let instrument_module m classified =
  let monitored = Const_filter.monitored classified in
  if monitored = [] then (m, [], 0)
  else begin
    let added = ref [] in
    let emit s = added := s :: !added in
    let cycle = "__mon_cycle" in
    emit (Stmt.Reg { name = cycle; width = counter_width; reset = Some 0L });
    emit
      (Stmt.Connect
         {
           dst = cycle;
           src = Expr.prim Expr.Add [ Expr.reference cycle; Expr.lit ~width:counter_width 1L ];
         });
    let monitors =
      List.mapi
        (fun k (c : Const_filter.classified) ->
          let base = Printf.sprintf "__mon%d" k in
          (* Requests whose validity is observable, with their valid exprs. *)
          let observable =
            List.filteri
              (fun _ (v : Validity.status) -> Validity.has_valid v)
              c.validities
            |> List.map (fun v -> and_fold (Validity.valid_signals v))
          in
          let valid_outputs =
            List.mapi
              (fun i valid_expr ->
                let vname = Printf.sprintf "%s_v%d" base i in
                emit (Stmt.Output { name = vname; width = 1 });
                emit (Stmt.Connect { dst = vname; src = valid_expr });
                vname)
              observable
          in
          let intvl_output =
            if List.length observable < 2 then None
            else begin
              let lasts =
                List.mapi
                  (fun i valid_expr ->
                    let last = Printf.sprintf "%s_last%d" base i in
                    emit
                      (Stmt.Reg { name = last; width = counter_width; reset = Some 0L });
                    emit
                      (Stmt.Connect
                         {
                           dst = last;
                           src =
                             Expr.mux valid_expr (Expr.reference cycle)
                               (Expr.reference last);
                         });
                    let seen = Printf.sprintf "%s_seen%d" base i in
                    emit (Stmt.Reg { name = seen; width = 1; reset = Some 0L });
                    emit
                      (Stmt.Connect
                         {
                           dst = seen;
                           src = Expr.mux valid_expr (Expr.lit ~width:1 1L) (Expr.reference seen);
                         });
                    (* Combinational "current" last value: updates the same
                       cycle the request fires. *)
                    let current =
                      Expr.mux valid_expr (Expr.reference cycle) (Expr.reference last)
                    in
                    (current, Expr.reference seen))
                  observable
              in
              let pair_intvls =
                pairs_upto max_pairs lasts
                |> List.map (fun ((ci, si), (cj, sj)) ->
                       Expr.mux
                         (Expr.prim Expr.And [ si; sj ])
                         (absdiff ci cj)
                         (Expr.lit ~width:counter_width no_interval))
              in
              let iname = Printf.sprintf "%s_intvl" base in
              emit (Stmt.Node { name = iname ^ "_min"; expr = min_fold pair_intvls });
              emit (Stmt.Output { name = iname; width = counter_width });
              emit
                (Stmt.Connect { dst = iname; src = Expr.reference (iname ^ "_min") });
              Some iname
            end
          in
          { point_id = c.point.Mux_tree.id; valid_outputs; intvl_output })
        monitored
    in
    let stmts = List.rev !added in
    ( { m with Fmodule.stmts = m.Fmodule.stmts @ stmts },
      monitors,
      List.length stmts )
  end

let instrument circuit =
  let monitors = ref [] in
  let stmts_added = ref 0 in
  let points = ref 0 in
  let modules =
    List.map
      (fun m ->
        let classified = Const_filter.classify_module m in
        let m', mons, added = instrument_module m classified in
        monitors := !monitors @ mons;
        stmts_added := !stmts_added + added;
        points := !points + List.length mons;
        m')
      circuit.Circuit.modules
  in
  {
    circuit = { circuit with Circuit.modules };
    monitors = !monitors;
    stmts_added = !stmts_added;
    points_instrumented = !points;
  }
