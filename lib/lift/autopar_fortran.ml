(** Directives mode of [oglaf autopar]: annotate legacy Fortran in
    place.

    Each subprogram is lowered once, whole (via {!Lower.lower_all}):
    that gives the callee summaries, and a lowering context in which
    every grid of the body is already registered.  The walk lowers each
    DO loop again in that context, to the IR {!Glaf_analysis.Depend}
    analyzes, and analyzes all loops of a subprogram in one
    {!Glaf_analysis.Depend.env}, which resolves each name once.  A
    subprogram whose body does not lower (or a main program) is lowered
    as far as it goes and each loop analyzed over the grids registered
    by then.
    Outermost parallelizable loops get a [!$OMP PARALLEL DO] directive
    attached to the AST (private / reduction / collapse clauses derived
    from the analysis), everything else is reported with its obstacle.
    The annotated AST prints back to compilable source with
    {!Glaf_fortran.Pp_ast}.

    Interpreting the annotated unit is bit-identical to the original at
    [threads = 1] under every schedule: privatized scalars are
    write-before-read by construction, and the interpreter folds
    single-thread reductions in serial order (see
    [exec_do_parallel]). *)

open Glaf_ir
open Glaf_analysis
module Ast = Glaf_fortran.Ast
module Fortran_gen = Glaf_codegen.Fortran_gen

(** Outcome for one analyzed DO loop. *)
type status =
  | Annotated of Loop_info.t  (** directive attached *)
  | Serial of Loop_info.t  (** analyzed; obstacles reported *)
  | Nonunit_step  (** parallel runtime requires unit step *)
  | Preexisting  (** already carried a [!$OMP] directive *)
  | Unanalyzable of string  (** lowering failed: reason *)

type entry = {
  e_sub : string;
  e_var : string;  (** loop variable *)
  e_status : status;
}

type t = {
  annotated : Ast.compilation_unit;
  entries : entry list;
  skipped : (string * string) list;
      (** subprograms whose declarations would not lower *)
}

let pseudo_sub_of_main (m : Ast.main_unit) : Ast.subprogram =
  {
    Ast.sub_name = m.Ast.main_name;
    sub_kind = `Subroutine;
    sub_args = [];
    sub_decls = m.Ast.main_decls;
    sub_body = m.Ast.main_body;
  }

(* The lowering context a subprogram's loops are lowered in, and the
   analysis environment of each loop.  [lowered] is the subprogram's
   whole-body lowering from {!Lower.lower_all}: its grids are final, so
   one environment serves every loop.  Otherwise (the body did not
   lower, or [sp] is a main program) it is lowered here as far as it
   goes, and each loop is analyzed over the grids registered when it
   is reached. *)
let loop_envs ~ctx ~enclosing ~lowered cu (sp : Ast.subprogram) =
  match lowered with
  | Some (f, lctx) ->
    let env = Depend.env ctx enclosing f in
    (lctx, fun () -> env)
  | None ->
    let lctx = Lower.make_ctx cu sp in
    (* force-register every reachable grid (incl. lazy TYPE elements)
       so per-loop analysis sees a complete symbol table *)
    (try ignore (Lower.lower_body lctx sp.Ast.sub_body)
     with Lower.Unsupported _ -> ());
    (lctx, fun () -> Depend.env ctx enclosing (Lower.func_of_ctx lctx))

let annotate_subprogram ~ctx ~enclosing ~lowered cu (sp : Ast.subprogram) :
    Ast.stmt list * entry list =
  let entries = ref [] in
  let record var status =
    entries := { e_sub = sp.Ast.sub_name; e_var = var; e_status = status }
      :: !entries
  in
  match loop_envs ~ctx ~enclosing ~lowered cu sp with
  | exception Lower.Unsupported why ->
    record "-" (Unanalyzable why);
    (sp.Ast.sub_body, List.rev !entries)
  | lctx, loop_env ->
    let rec walk_stmts stmts = List.map walk_stmt stmts
    and walk_stmt (s : Ast.stmt) : Ast.stmt =
      match s with
      | Ast.Do l -> Ast.Do (walk_do l)
      | Ast.If_block (branches, else_) ->
        Ast.If_block
          ( List.map (fun (c, b) -> (c, walk_stmts b)) branches,
            walk_stmts else_ )
      | Ast.Do_while (c, body) -> Ast.Do_while (c, walk_stmts body)
      | Ast.Omp_critical body -> Ast.Omp_critical (walk_stmts body)
      | _ -> s
    and walk_do (l : Ast.do_loop) : Ast.do_loop =
      match l.Ast.do_omp with
      | Some _ ->
        (* hand-annotated already: trust it, leave the nest alone *)
        record l.Ast.do_var Preexisting;
        l
      | None -> (
        match Lower.lower_loop lctx l with
        | exception Lower.Unsupported why ->
          record l.Ast.do_var (Unanalyzable why);
          { l with Ast.do_body = walk_stmts l.Ast.do_body }
        | ir_loop ->
          if ir_loop.Stmt.step <> Expr.Int_lit 1 then begin
            (* the parallel runtime only executes unit-step DO *)
            record l.Ast.do_var Nonunit_step;
            { l with Ast.do_body = walk_stmts l.Ast.do_body }
          end
          else begin
            let info = Depend.analyze (loop_env ()) ir_loop in
            if info.Loop_info.parallel then begin
              record l.Ast.do_var (Annotated info);
              let d = Option.get (Loop_info.to_directive info) in
              (* inner loops of an annotated nest stay serial *)
              { l with Ast.do_omp = Some (Fortran_gen.gen_directive d) }
            end
            else begin
              record l.Ast.do_var (Serial info);
              { l with Ast.do_body = walk_stmts l.Ast.do_body }
            end
          end)
    in
    let body = walk_stmts sp.Ast.sub_body in
    (body, List.rev !entries)

(** Analyze and annotate a whole compilation unit. *)
let run ?(pure = []) (cu : Ast.compilation_unit) : t =
  (* whole-program best-effort lowering: callee summaries for the
     dependence analysis, and the contexts the walk re-lowers each loop
     in.  Subprograms that fail to lower are absent, so calls to them
     show up as Unsafe_call — conservative. *)
  let lowered, skipped = Lower.lower_all cu in
  let enclosing = Ir_module.make ~functions:(List.map fst lowered) "legacy" in
  let ctx =
    Depend.context ~pure (Ir_module.program ~modules:[ enclosing ] "legacy")
  in
  let entries_rev = ref [] in
  let do_sub sp =
    (* a main program's pseudo-subprogram is never among [lowered] *)
    let lowered =
      List.find_opt (fun (_, (lctx : Lower.ctx)) -> lctx.Lower.sub == sp) lowered
    in
    let body, es = annotate_subprogram ~ctx ~enclosing ~lowered cu sp in
    entries_rev := es :: !entries_rev;
    body
  in
  let annotated =
    List.map
      (fun (u : Ast.program_unit) ->
        match u with
        | Ast.Standalone sp ->
          Ast.Standalone { sp with Ast.sub_body = do_sub sp }
        | Ast.Module m ->
          Ast.Module
            {
              m with
              Ast.mod_contains =
                List.map
                  (fun sp -> { sp with Ast.sub_body = do_sub sp })
                  m.Ast.mod_contains;
            }
        | Ast.Main m ->
          let sp = pseudo_sub_of_main m in
          Ast.Main { m with Ast.main_body = do_sub sp })
      cu
  in
  { annotated; entries = List.concat (List.rev !entries_rev); skipped }

let annotated_count t =
  List.length
    (List.filter
       (fun e -> match e.e_status with Annotated _ -> true | _ -> false)
       t.entries)

let pp_report ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%s: loop over %s: " e.e_sub e.e_var;
      (match e.e_status with
      | Annotated info ->
        Format.fprintf ppf "PARALLEL";
        if info.Loop_info.collapsible then Format.fprintf ppf " collapse(2)";
        List.iter
          (fun (r : Loop_info.reduction) ->
            Format.fprintf ppf " reduction(%s)" r.Loop_info.red_var)
          info.Loop_info.reductions;
        if info.Loop_info.private_vars <> [] then
          Format.fprintf ppf " private(%s)"
            (String.concat "," info.Loop_info.private_vars);
        Format.fprintf ppf " {%s}"
          (Loop_info.show_loop_class info.Loop_info.classification)
      | Serial info ->
        Format.fprintf ppf "serial";
        List.iter
          (fun o -> Format.fprintf ppf " [%s]" (Loop_info.obstacle_to_string o))
          info.Loop_info.obstacles;
        Format.fprintf ppf " {%s}"
          (Loop_info.show_loop_class info.Loop_info.classification)
      | Nonunit_step -> Format.fprintf ppf "serial [non-unit step]"
      | Preexisting -> Format.fprintf ppf "kept existing directive"
      | Unanalyzable why -> Format.fprintf ppf "serial [not lowered: %s]" why);
      Format.pp_print_newline ppf ())
    t.entries;
  List.iter
    (fun (sub, why) ->
      Format.fprintf ppf "%s: skipped in whole-program analysis: %s@." sub why)
    t.skipped
