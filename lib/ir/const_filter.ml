type classified = {
  point : Mux_tree.point;
  validities : Validity.status list;
  monitored : bool;
  single_valid : bool;
}

let classify_in ctx (point : Mux_tree.point) =
  let validities = List.map (Validity.determine_in ctx) point.requests in
  let with_valid = List.filter Validity.has_valid validities in
  let non_constant =
    List.exists (function Validity.Constant -> false | _ -> true) validities
  in
  {
    point;
    validities;
    monitored = non_constant && with_valid <> [];
    single_valid = List.length with_valid = 1;
  }

let classify_module m =
  let ctx = Validity.context m in
  List.map (classify_in ctx) (Mux_tree.points_of_module m)
let monitored = List.filter (fun c -> c.monitored)
