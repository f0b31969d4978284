type point = {
  id : string;
  module_name : string;
  component : Component.t;
  output : string;
  selects : string list;
  requests : Expr.t list;
  depth : int;
  absorbed_muxes : int;
}

(* Accumulator threaded through a single cascade trace. *)
type trace = {
  mutable sels : string list;
  mutable leaves : Expr.t list;
  mutable muxes : int;
  mutable max_depth : int;
}

let all_defined_exprs m =
  List.filter_map
    (function
      | Stmt.Node { name; expr } -> Some (name, expr)
      | Stmt.Connect { dst; src } -> Some (dst, src)
      | Stmt.Input _ | Stmt.Output _ | Stmt.Wire _ | Stmt.Reg _ -> None)
    m.Fmodule.stmts

let naive_mux_count m =
  List.fold_left (fun acc (_, e) -> acc + Expr.count_muxes e) 0 (all_defined_exprs m)

(* Names whose definition is a MUX at the top of its expression: cascades
   extend through these. *)
let mux_rooted_defs defs =
  let table = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name expr -> match expr with Expr.Mux _ -> Hashtbl.replace table name expr | _ -> ())
    defs;
  table

let points_of_module m =
  let defs = Hashtbl.create 64 in
  List.iter (fun (n, e) -> Hashtbl.replace defs n e) (all_defined_exprs m);
  let mux_defs = mux_rooted_defs defs in
  (* Trace one cascade rooted at [expr]. [visited] prevents loops through
     named signals. Depth counts nested 2:1 levels. *)
  (* MUXes inside select expressions are not part of the cascade: they root
     their own trees and are collected into [sel_roots]. *)
  let trace_root root_expr =
    let tr = { sels = []; leaves = []; muxes = 0; max_depth = 0 } in
    let sel_roots = ref [] in
    let visited = Hashtbl.create 8 in
    let rec sel_muxes expr =
      match expr with
      | Expr.Mux _ -> sel_roots := expr :: !sel_roots
      | Expr.Ref _ | Expr.Lit _ -> ()
      | Expr.Prim { args; _ } -> List.iter sel_muxes args
    in
    let rec descend depth expr =
      match expr with
      | Expr.Mux { sel; tval; fval } ->
          tr.muxes <- tr.muxes + 1;
          if depth > tr.max_depth then tr.max_depth <- depth;
          tr.sels <- List.rev_append (Expr.refs sel) tr.sels;
          sel_muxes sel;
          leaf (depth + 1) tval;
          leaf (depth + 1) fval
      | _ -> assert false
    and leaf depth expr =
      match expr with
      | Expr.Mux _ -> descend depth expr
      | Expr.Ref name when Hashtbl.mem mux_defs name && not (Hashtbl.mem visited name)
        ->
          Hashtbl.replace visited name ();
          descend depth (Hashtbl.find mux_defs name)
      | other ->
          (* The trace stops here: [other] is a request. MUXes nested under
             non-MUX operators inside it root their own points. *)
          (match other with
          | Expr.Prim { args; _ } -> List.iter sel_muxes args
          | Expr.Ref _ | Expr.Lit _ | Expr.Mux _ -> ());
          tr.leaves <- other :: tr.leaves
    in
    descend 1 root_expr;
    (tr, List.rev !sel_roots)
  in
  (* A named MUX definition is absorbed (not a separate point) when some
     other expression consumes it in a tval/fval position. *)
  let absorbed = Hashtbl.create 32 in
  let rec mark_absorbed in_data_pos expr =
    match expr with
    | Expr.Mux { sel; tval; fval } ->
        mark_absorbed false sel;
        mark_absorbed true tval;
        mark_absorbed true fval
    | Expr.Ref name when in_data_pos && Hashtbl.mem mux_defs name ->
        Hashtbl.replace absorbed name ()
    | Expr.Ref _ | Expr.Lit _ -> ()
    | Expr.Prim { args; _ } -> List.iter (mark_absorbed false) args
  in
  Hashtbl.iter (fun _ expr -> mark_absorbed false expr) defs;
  (* Roots: (a) named defs whose top expr is a MUX and which are not absorbed;
     (b) maximal MUX subexpressions embedded in non-MUX contexts. *)
  let dedup l =
    let seen = Hashtbl.create 8 in
    List.filter (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      l
  in
  let points = ref [] in
  let emit p = points := p :: !points in
  (* Tracing one root may reveal further roots inside its select
     expressions; those are traced too (recursively). *)
  let rec make_point ~output ~id root_expr =
    let tr, sel_roots = trace_root root_expr in
    emit
      {
        id;
        module_name = m.Fmodule.name;
        component = m.Fmodule.component;
        output;
        selects = dedup (List.rev tr.sels);
        requests = List.rev tr.leaves;
        depth = tr.max_depth;
        absorbed_muxes = tr.muxes;
      };
    List.iteri
      (fun i sub -> make_point ~output ~id:(Printf.sprintf "%s.sel%d" id i) sub)
      sel_roots
  in
  (* Embedded roots inside an arbitrary expression; [idx] disambiguates. *)
  let rec embedded_roots output idx expr =
    match expr with
    | Expr.Mux _ ->
        let id = Printf.sprintf "%s.%s.%d" m.Fmodule.name output !idx in
        incr idx;
        make_point ~output ~id expr
    | Expr.Ref _ | Expr.Lit _ -> ()
    | Expr.Prim { args; _ } -> List.iter (embedded_roots output idx) args
  in
  List.iter
    (fun (name, expr) ->
      match expr with
      | Expr.Mux _ ->
          if not (Hashtbl.mem absorbed name) then
            make_point ~output:name
              ~id:(Printf.sprintf "%s.%s" m.Fmodule.name name)
              expr
      | _ ->
          let idx = ref 0 in
          embedded_roots name idx expr)
    (all_defined_exprs m);
  List.rev !points

let request_count p = List.length p.requests
