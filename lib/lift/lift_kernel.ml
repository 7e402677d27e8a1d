(** Lift mode of [oglaf autopar]: raise a legacy subprogram into the
    grid IR and regenerate it as a servable parallel kernel.

    The pipeline is the paper's reverse path end to end:

    parse ▸ {!Lower} ▸ {!Glaf_analysis.Autopar} ▸
    {!Glaf_codegen.Fortran_gen} ▸ re-parse the generated module ▸
    interpret

    The kernel is lowered once, and besides it only its transitive
    callees: the dependence analysis reads callee summaries and
    nothing else of the unit, so subprograms the kernel never reaches
    are neither lowered nor summarized.  Of the printed [source] (the
    original unit, then the generated module) only the generated text
    is re-parsed: [combined] holds the caller's units as passed, and
    the generated kernel callers execute has been through the printer.
    Whether the printed caller's units parse back is not checked here;
    [oglaf autopar --mode lift] verifies the re-parsed [source].

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
      (** the caller's units as passed, then the generated [glaf_lift]
          module re-parsed from its printed text, so executing the
          kernel exercises the printer.  The same program as
          [Parser.parse_string source] when the printer round-trips
          the caller's units, which only the CLI's verify path
          checks *)
  source : string;  (** printed combined source *)
}

(* Lines of [source] before its first generated line, given the
   printed original unit: that unit's lines, then the blank line
   {!Pp_ast.to_string} puts between units. *)
let generated_line_offset printed =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 printed

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
  (* callee summaries: the kernel's transitive callees that lower
     cleanly, in unit order.  A summary reads only its function's own
     callees, so no other subprogram can change the analysis.  Every
     subprogram of a callee's name is tried (the summaries take the
     first that lowers); a callee that does not lower stays absent, so
     calls to it remain Unsafe_call. *)
  let subprograms = Ast.all_subprograms cu in
  let visited = Hashtbl.create 16 in
  let callees = ref [] in
  let rec visit (f : Func.t) =
    List.iter
      (fun name ->
        if not (Hashtbl.mem visited name) then begin
          Hashtbl.add visited name ();
          List.iter
            (fun (callee : Ast.subprogram) ->
              if
                String.equal callee.Ast.sub_name name
                && not (String.equal name sp.Ast.sub_name)
              then
                match Lower.lower_subprogram cu callee with
                | f ->
                  callees := (callee, f) :: !callees;
                  visit f
                | exception Lower.Unsupported _ -> ())
            subprograms
        end)
      (Func.callees f)
  in
  visit f_target;
  let others = List.filter_map (fun sp -> List.assq_opt sp !callees) subprograms in
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
  (* the same bytes as [Pp_ast.to_string (cu @ gen_units)], which
     joins units with a blank line *)
  let printed = Pp_ast.to_string cu and gen_text = Pp_ast.to_string gen_units in
  let source = printed ^ "\n" ^ gen_text in
  (* re-parse the generated text only: the kernel runs through the
     printer, so printer defects surface as lift failures, not silent
     drift; a failure's line number refers to [source] *)
  let combined =
    match Parser.parse_string gen_text with
    | gen -> cu @ gen
    | exception Parser.Parse_error (ln, msg) ->
      lift_error "generated source does not re-parse (line %d: %s)"
        (generated_line_offset printed + ln)
        msg
  in
  { kernel; func = f_ann; report; combined; source }
