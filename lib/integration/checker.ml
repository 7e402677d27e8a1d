(** Integration checker: verifies that a GLAF grid-IR program is
    consistent with a legacy code model before code generation.

    The paper identifies integration failures as the blocker for
    frameworks like GLAF; this checker turns them into diagnostics:
    - a grid marked [External_module m] must exist as a variable of
      module [m] with matching type and rank (§3.1);
    - a grid marked [Type_element (m, tv)] needs [tv] to be a TYPE
      variable of [m] whose type has a matching field (§3.5);
    - COMMON grids must agree with the block's legacy declaration
      (name present, type compatible) (§3.2);
    - calls to names outside the GLAF program must resolve to legacy
      subprograms with the right arity (§3.4). *)

open Glaf_ir

type issue = {
  where : string;
  what : string;
}

let issue where fmt = Format.kasprintf (fun what -> { where; what }) fmt

let pp_issue ppf i = Format.fprintf ppf "%s: %s" i.where i.what

let issue_to_string i = Format.asprintf "%a" pp_issue i

let base_compatible (elem : Types.elem_type) (base : Glaf_fortran.Ast.base_type) =
  match (elem, base) with
  | Types.T_int, Glaf_fortran.Ast.Integer -> true
  | Types.T_real, Glaf_fortran.Ast.Real -> true
  | Types.T_real8, (Glaf_fortran.Ast.Real8 | Glaf_fortran.Ast.Real) -> true
  | Types.T_logical, Glaf_fortran.Ast.Logical -> true
  | Types.T_string, Glaf_fortran.Ast.Character _ -> true
  | _ -> false

let check_grid legacy where (g : Grid.t) : issue list =
  let elem = Grid.elem_type g in
  let rank = Grid.num_dims g in
  match g.Grid.storage with
  | Grid.External_module m -> (
    match Legacy_model.find_module legacy m with
    | None -> [ issue where "grid %S: USEd module %S does not exist" g.Grid.name m ]
    | Some _ -> (
      match Legacy_model.find_module_var legacy ~module_name:m ~var:g.Grid.name with
      | None ->
        [ issue where "grid %S not found in legacy module %S" g.Grid.name m ]
      | Some v ->
        (if base_compatible elem v.Legacy_model.v_base then []
         else
           [
             issue where "grid %S: type mismatch with legacy module %S"
               g.Grid.name m;
           ])
        @
        if v.Legacy_model.v_rank = rank then []
        else
          [
            issue where "grid %S: rank %d but legacy declares rank %d"
              g.Grid.name rank v.Legacy_model.v_rank;
          ]))
  | Grid.Type_element (m, tv) -> (
    match Legacy_model.find_type_var legacy ~module_name:m ~type_var:tv with
    | None ->
      [
        issue where "grid %S: no TYPE variable %S in legacy module %S"
          g.Grid.name tv m;
      ]
    | Some tname -> (
      match
        Legacy_model.find_type_field legacy ~module_name:m ~type_name:tname
          ~field:g.Grid.name
      with
      | None ->
        [
          issue where "grid %S: TYPE %S has no such element" g.Grid.name tname;
        ]
      | Some v ->
        (if base_compatible elem v.Legacy_model.v_base then []
         else [ issue where "grid %S: TYPE element type mismatch" g.Grid.name ])
        @
        if v.Legacy_model.v_rank = rank then []
        else [ issue where "grid %S: TYPE element rank mismatch" g.Grid.name ]))
  | Grid.Common block -> (
    match Legacy_model.find_common legacy block with
    | None ->
      (* a brand-new COMMON block introduced by GLAF code is legal *)
      []
    | Some members -> (
      match
        List.find_opt (fun v -> v.Legacy_model.v_name = g.Grid.name) members
      with
      | None ->
        [
          issue where "grid %S is not a member of legacy COMMON /%s/"
            g.Grid.name block;
        ]
      | Some v ->
        if base_compatible elem v.Legacy_model.v_base then []
        else
          [
            issue where "grid %S: type mismatch with COMMON /%s/" g.Grid.name
              block;
          ]))
  | Grid.Local | Grid.Arg _ | Grid.Module_scope -> []

let check_calls legacy (p : Ir_module.program) : issue list =
  let own =
    List.map (fun (f : Func.t) -> f.Func.name) (Ir_module.all_functions p)
  in
  List.concat_map
    (fun (f : Func.t) ->
      let where = f.Func.name in
      Stmt.fold_stmts
        (fun acc s ->
          match s with
          | Stmt.Call (callee, args) when not (List.mem callee own) -> (
            match Legacy_model.find_subprogram legacy callee with
            | None ->
              issue where "CALL to %S: not in GLAF program nor legacy code"
                callee
              :: acc
            | Some si ->
              if si.Legacy_model.s_arity <> List.length args then
                issue where
                  "CALL to legacy %S with %d arguments, legacy expects %d"
                  callee (List.length args) si.Legacy_model.s_arity
                :: acc
              else acc)
          | _ -> acc)
        [] (Func.all_stmts f))
    (Ir_module.all_functions p)

(** Check a whole GLAF program against a legacy model. *)
let check legacy (p : Ir_module.program) : issue list =
  let grid_issues =
    List.concat_map
      (fun (f : Func.t) ->
        List.concat_map (check_grid legacy f.Func.name) f.Func.grids)
      (Ir_module.all_functions p)
    @ List.concat_map (check_grid legacy "global") p.Ir_module.globals
  in
  grid_issues @ check_calls legacy p
