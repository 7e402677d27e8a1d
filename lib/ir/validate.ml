(** Structural validation of grid-IR programs.

    The GPI enforces most of these invariants interactively; the
    builder API cannot, so every pipeline entry point validates first.
    Checks include: unique names, resolvable grid references, index
    arity matching grid rank, field access only on record grids,
    arguments matching declared params, symbolic extents resolvable,
    and the §3.3 constraint that externally-declared grids are never
    also initialized by GLAF. *)

type error = {
  where : string;  (** "module.function" or "global" *)
  what : string;
}

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.what

let error_to_string e = Format.asprintf "%a" pp_error e

let duplicates names =
  let tbl = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem tbl n then true
      else (
        Hashtbl.add tbl n ();
        false))
    names
  |> List.sort_uniq String.compare

let check_unique where what names =
  List.map (fun n -> err where "duplicate %s %S" what n) (duplicates names)

(* A scalar environment: grid names usable as symbolic extents or loop
   indices. Loop indices are implicitly-declared integer scalars. *)

let check_ref where lookup ~loop_indices (r : Expr.gref) =
  match lookup r.Expr.grid with
  | None ->
    if List.mem r.Expr.grid loop_indices then
      if r.Expr.indices <> [] || r.Expr.field <> None then
        [ err where "loop index %S used with indices/field" r.Expr.grid ]
      else []
    else [ err where "reference to unknown grid %S" r.Expr.grid ]
  | Some (g : Grid.t) ->
    let arity_errors =
      let want = Grid.num_dims g and got = List.length r.Expr.indices in
      (* Referencing a whole array (no indices) is allowed: it denotes
         the full grid, e.g. as a call argument or SUM(a). *)
      if got <> 0 && got <> want then
        [
          err where "grid %S has rank %d but is indexed with %d subscripts"
            r.Expr.grid want got;
        ]
      else []
    in
    let field_errors =
      match (r.Expr.field, g.Grid.kind) with
      | None, _ -> []
      | Some f, Grid.Record fields ->
        if List.mem_assoc f fields then []
        else [ err where "grid %S has no field %S" r.Expr.grid f ]
      | Some f, Grid.Dense _ ->
        [ err where "field access %S.%S on non-record grid" r.Expr.grid f ]
    in
    arity_errors @ field_errors

let rec check_expr where lookup ~loop_indices (e : Expr.t) =
  match e with
  | Expr.Int_lit _ | Expr.Real_lit _ | Expr.Bool_lit _ | Expr.Str_lit _ -> []
  | Expr.Ref r ->
    check_ref where lookup ~loop_indices r
    @ List.concat_map (check_expr where lookup ~loop_indices) r.Expr.indices
  | Expr.Unop (_, a) -> check_expr where lookup ~loop_indices a
  | Expr.Binop (_, a, b) ->
    check_expr where lookup ~loop_indices a
    @ check_expr where lookup ~loop_indices b
  | Expr.Call (_, args) ->
    List.concat_map (check_expr where lookup ~loop_indices) args

let rec check_stmts where lookup ~loop_indices stmts =
  let check_stmt (s : Stmt.t) =
    match s with
    | Stmt.Assign (r, e) | Stmt.Atomic (r, e) ->
      check_ref where lookup ~loop_indices r
      @ List.concat_map (check_expr where lookup ~loop_indices) r.Expr.indices
      @ check_expr where lookup ~loop_indices e
    | Stmt.If (branches, else_) ->
      List.concat_map
        (fun (c, body) ->
          check_expr where lookup ~loop_indices c
          @ check_stmts where lookup ~loop_indices body)
        branches
      @ check_stmts where lookup ~loop_indices else_
    | Stmt.For l ->
      let bound_errors =
        List.concat_map
          (check_expr where lookup ~loop_indices)
          [ l.Stmt.lo; l.Stmt.hi; l.Stmt.step ]
      in
      let shadow =
        if List.mem l.Stmt.index loop_indices then
          [ err where "loop index %S shadows an enclosing index" l.Stmt.index ]
        else []
      in
      bound_errors @ shadow
      @ check_stmts where lookup
          ~loop_indices:(l.Stmt.index :: loop_indices)
          l.Stmt.body
    | Stmt.While (c, body) ->
      check_expr where lookup ~loop_indices c
      @ check_stmts where lookup ~loop_indices body
    | Stmt.Call (_, args) ->
      List.concat_map (check_expr where lookup ~loop_indices) args
    | Stmt.Return (Some e) -> check_expr where lookup ~loop_indices e
    | Stmt.Return None | Stmt.Exit_loop | Stmt.Cycle_loop | Stmt.Comment _ ->
      []
    | Stmt.Critical body -> check_stmts where lookup ~loop_indices body
  in
  List.concat_map check_stmt stmts

let check_grid where (g : Grid.t) =
  let init_errors =
    if Grid.externally_declared g && g.Grid.init <> Grid.No_init then
      [
        err where
          "grid %S lives in an external module and must not be initialized \
           by GLAF"
          g.Grid.name;
      ]
    else []
  in
  let record_errors =
    match g.Grid.kind with
    | Grid.Record [] -> [ err where "record grid %S has no fields" g.Grid.name ]
    | Grid.Record fields ->
      check_unique where "record field" (List.map fst fields)
    | Grid.Dense _ -> []
  in
  let extent_errors =
    List.concat_map
      (fun d ->
        match d.Grid.extent with
        | Grid.Fixed n when n <= 0 ->
          [ err where "grid %S has non-positive extent %d" g.Grid.name n ]
        | Grid.Fixed _ | Grid.Sym _ -> [])
      g.Grid.dims
  in
  init_errors @ record_errors @ extent_errors

let check_function p (m : Ir_module.t) (f : Func.t) =
  let where = m.Ir_module.name ^ "." ^ f.Func.name in
  let lookup name = Ir_module.resolve_grid p m f name in
  let name_errors =
    check_unique where "grid" (List.map (fun g -> g.Grid.name) f.Func.grids)
  in
  let param_errors =
    List.concat_map
      (fun pname ->
        match Func.find_grid f pname with
        | None -> [ err where "parameter %S has no grid" pname ]
        | Some g ->
          if Grid.is_argument g then []
          else [ err where "parameter grid %S lacks Arg storage" pname ])
      f.Func.params
  in
  let arg_pos_errors =
    let args = Func.arg_grids f in
    List.concat_map
      (fun (g : Grid.t) ->
        match Grid.arg_position g with
        | Some n when n < 0 || n >= List.length f.Func.params ->
          [ err where "argument grid %S has out-of-range position %d"
              g.Grid.name n ]
        | _ -> [])
      args
  in
  let extent_errors =
    List.concat_map
      (fun (g : Grid.t) ->
        List.filter_map
          (fun dep ->
            match lookup dep with
            | Some dg when Grid.is_scalar dg -> None
            | Some _ ->
              Some (err where "extent %S of grid %S is not a scalar" dep
                      g.Grid.name)
            | None ->
              if List.mem dep f.Func.params then None
              else
                Some (err where "extent %S of grid %S is unresolvable" dep
                        g.Grid.name))
          (Grid.extent_deps g))
      f.Func.grids
  in
  let grid_errors = List.concat_map (check_grid where) f.Func.grids in
  let stmt_errors = check_stmts where lookup ~loop_indices:[] (Func.body f) in
  name_errors @ param_errors @ arg_pos_errors @ extent_errors @ grid_errors
  @ stmt_errors

let check_calls p =
  let known =
    List.map (fun (f : Func.t) -> f.Func.name) (Ir_module.all_functions p)
  in
  List.concat_map
    (fun (m : Ir_module.t) ->
      List.concat_map
        (fun (f : Func.t) ->
          let where = m.Ir_module.name ^ "." ^ f.Func.name in
          List.concat_map
            (fun s ->
              match (s : Stmt.t) with
              | Stmt.Call (callee, args) -> (
                if not (List.mem callee known) then
                  (* calls into legacy code are resolved at integration
                     time, not here *)
                  []
                else
                  match Ir_module.find_program_function p callee with
                  | Some callee_f
                    when List.length callee_f.Func.params <> List.length args
                    ->
                    [
                      err where
                        "call to %S passes %d arguments, expected %d" callee
                        (List.length args)
                        (List.length callee_f.Func.params);
                    ]
                  | _ -> [])
              | _ -> [])
            (Stmt.fold_stmts (fun acc s -> s :: acc) [] (Func.body f)))
        m.Ir_module.functions)
    p.Ir_module.modules

(** Validate a whole program; returns all errors found (empty = valid). *)
let program (p : Ir_module.program) =
  let global_errors =
    check_unique "global" "grid" (List.map (fun g -> g.Grid.name) p.Ir_module.globals)
    @ List.concat_map (check_grid "global") p.Ir_module.globals
  in
  let module_name_errors =
    check_unique "program" "module"
      (List.map (fun m -> m.Ir_module.name) p.Ir_module.modules)
  in
  let function_name_errors =
    check_unique "program" "function"
      (List.map (fun (f : Func.t) -> f.Func.name) (Ir_module.all_functions p))
  in
  let per_function =
    List.concat_map
      (fun m ->
        List.concat_map (check_function p m) m.Ir_module.functions)
      p.Ir_module.modules
  in
  global_errors @ module_name_errors @ function_name_errors @ per_function
  @ check_calls p
