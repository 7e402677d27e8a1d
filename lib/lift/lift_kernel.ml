(** Lift mode of [oglaf autopar]: raise a legacy subprogram into the
    grid IR and regenerate it as a servable parallel kernel.

    The pipeline is the paper's reverse path end to end:

    parse ▸ {!Lower} ▸ {!Glaf_analysis.Autopar} ▸
    {!Glaf_codegen.Fortran_gen} ▸ re-parse ▸ interpret

    The lifted function is renamed [<name>_lifted] so the original and
    the generated kernel coexist in one compilation unit (the
    interpreter resolves subprogram names last-wins, so distinct names
    are required).  Directives whose loop step is not the literal 1 are
    stripped after analysis — {!Glaf_analysis.Depend} does not inspect
    the annotated loop's own step, but the parallel runtime executes
    unit-step loops only. *)

open Glaf_ir
module Ast = Glaf_fortran.Ast
module Pp_ast = Glaf_fortran.Pp_ast
module Parser = Glaf_fortran.Parser
module Autopar = Glaf_analysis.Autopar
module Depend = Glaf_analysis.Depend
module Fortran_gen = Glaf_codegen.Fortran_gen

exception Lift_error of string

let lift_error fmt = Format.kasprintf (fun s -> raise (Lift_error s)) fmt

type t = {
  kernel : string;  (** name of the lifted function, [<orig>_lifted] *)
  func : Func.t;  (** annotated IR of the lifted kernel *)
  report : Autopar.report;  (** per-loop analysis, lifted kernel only *)
  combined : Ast.compilation_unit;
      (** original unit + generated [glaf_lift] module, re-parsed from
          the printed source so execution exercises the printer *)
  source : string;  (** printed combined source *)
}

let rec strip_nonunit stmts =
  List.map
    (fun (s : Stmt.t) ->
      match s with
      | Stmt.For l ->
        let l = { l with Stmt.body = strip_nonunit l.Stmt.body } in
        if l.Stmt.step <> Expr.Int_lit 1 then
          Stmt.For { l with Stmt.directive = None }
        else Stmt.For l
      | Stmt.If (branches, else_) ->
        Stmt.If
          ( List.map (fun (c, b) -> (c, strip_nonunit b)) branches,
            strip_nonunit else_ )
      | Stmt.While (c, b) -> Stmt.While (c, strip_nonunit b)
      | Stmt.Critical b -> Stmt.Critical (strip_nonunit b)
      | _ -> s)
    stmts

let strip_nonunit_func (f : Func.t) : Func.t =
  {
    f with
    Func.steps =
      List.map
        (fun (s : Func.step) -> { s with Func.body = strip_nonunit s.Func.body })
        f.Func.steps;
  }

(** Lift subprogram [name] out of [cu].  Returns the annotated kernel
    and a combined compilation unit containing both versions. *)
let lift ?(pure = []) (cu : Ast.compilation_unit) (name : string) : t =
  let sp =
    match Ast.find_subprogram cu name with
    | Some sp -> sp
    | None -> lift_error "no subprogram named %s" name
  in
  let kernel = sp.Ast.sub_name ^ "_lifted" in
  let f_target =
    try Lower.lower_subprogram ~rename:kernel cu sp
    with Lower.Unsupported why ->
      lift_error "cannot lift %s: %s" sp.Ast.sub_name why
  in
  (* callee summaries: every other subprogram that lowers cleanly *)
  let others, _skipped = Lower.lower_all cu in
  let others =
    List.filter
      (fun (f : Func.t) ->
        not (String.equal f.Func.name sp.Ast.sub_name))
      others
  in
  (* annotate only the kernel; the others contribute their summaries *)
  let m = Ir_module.make ~functions:(others @ [ f_target ]) "glaf_lift" in
  let ctx = Depend.context ~pure (Ir_module.program ~modules:[ m ] "glaf_lift") in
  let f_ann, report = Autopar.annotate_function ctx m f_target in
  let f_ann = strip_nonunit_func f_ann in
  (* generate only the lifted kernel: the original subprograms stay as
     parsed, the kernel arrives via a fresh generated module *)
  let p_gen =
    Ir_module.program
      ~modules:[ Ir_module.make ~functions:[ f_ann ] "glaf_lift" ]
      "glaf_lift"
  in
  let gen_units = Fortran_gen.gen_program p_gen in
  let source = Pp_ast.to_string (cu @ gen_units) in
  (* re-parse the printed source: execution goes through the printer,
     so printer defects surface as lift failures, not silent drift *)
  let combined =
    try Parser.parse_string source
    with Parser.Parse_error (ln, msg) ->
      lift_error "generated source does not re-parse (line %d: %s)" ln msg
  in
  { kernel; func = f_ann; report; combined; source }
