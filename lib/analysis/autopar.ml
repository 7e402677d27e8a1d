(** The auto-parallelization pass: GLAF-parallel v0.

    Walks every function of a program and attaches an OpenMP-style
    directive to each {e outermost} parallelizable loop ("OpenMP
    directives in all applicable loops", Table 2).  A loop nested
    inside an already-annotated loop is left serial — except that a
    collapsible perfect nest is absorbed into a COLLAPSE(2) directive,
    exactly as GLAF emits for the SARB 2x60 double loops.  When an
    outer loop is not parallelizable, the pass descends and annotates
    inner loops instead (FUN3D's per-level parallelization options are
    driven from here). *)

open Glaf_ir

type report_entry = {
  re_function : string;
  re_index : string;
  re_info : Loop_info.t;
}

type report = report_entry list

(** Annotate [f] of module [enclosing]; [ctx] is the pass's
    {!Depend.context} over the program that holds both. *)
let annotate_function ctx enclosing (f : Func.t) : Func.t * report =
  let env = Depend.env ctx enclosing f in
  let report = ref [] in
  let rec annotate_stmts stmts = List.map annotate_stmt stmts
  and annotate_stmt (s : Stmt.t) =
    match s with
    | Stmt.For l -> Stmt.For (annotate_loop l)
    | Stmt.If (branches, else_) ->
      Stmt.If
        ( List.map (fun (c, b) -> (c, annotate_stmts b)) branches,
          annotate_stmts else_ )
    | Stmt.While (c, body) -> Stmt.While (c, annotate_stmts body)
    | Stmt.Critical body -> Stmt.Critical (annotate_stmts body)
    | Stmt.Assign _ | Stmt.Call _ | Stmt.Return _ | Stmt.Exit_loop
    | Stmt.Cycle_loop | Stmt.Atomic _ | Stmt.Comment _ ->
      s
  and annotate_loop (l : Stmt.loop) : Stmt.loop =
    let info = Depend.analyze env l in
    report :=
      { re_function = f.Func.name; re_index = l.Stmt.index; re_info = info }
      :: !report;
    if info.Loop_info.parallel then begin
      (* fold the user's GPI schedule hint into the emitted directive *)
      let directive =
        Option.map
          (fun (d : Stmt.directive) -> { d with Stmt.schedule = l.Stmt.schedule })
          (Loop_info.to_directive info)
      in
      (* inner loops of an annotated loop stay serial *)
      { l with Stmt.directive }
    end
    else { l with Stmt.body = annotate_stmts l.Stmt.body }
  in
  let steps =
    List.map
      (fun (st : Func.step) -> { st with Func.body = annotate_stmts st.Func.body })
      f.Func.steps
  in
  ({ f with Func.steps }, List.rev !report)

(** Annotate every function of the program; returns the annotated
    program and the per-loop analysis report. *)
let run ?(pure = []) (p : Ir_module.program) : Ir_module.program * report =
  let ctx = Depend.context ~pure p in
  let reports_rev = ref [] in
  let modules =
    List.map
      (fun (m : Ir_module.t) ->
        let functions =
          List.map
            (fun f ->
              let f', r = annotate_function ctx m f in
              reports_rev := r :: !reports_rev;
              f')
            m.Ir_module.functions
        in
        { m with Ir_module.functions })
      p.Ir_module.modules
  in
  ({ p with Ir_module.modules }, List.concat (List.rev !reports_rev))

let pp_report ppf (r : report) =
  List.iter
    (fun e ->
      Format.fprintf ppf "%s: loop over %s: %s" e.re_function e.re_index
        (if e.re_info.Loop_info.parallel then "PARALLEL" else "serial");
      if e.re_info.Loop_info.parallel then begin
        if e.re_info.Loop_info.collapsible then
          Format.fprintf ppf " collapse(2)";
        List.iter
          (fun (red : Loop_info.reduction) ->
            Format.fprintf ppf " reduction(%s)" red.Loop_info.red_var)
          e.re_info.Loop_info.reductions;
        if e.re_info.Loop_info.private_vars <> [] then
          Format.fprintf ppf " private(%s)"
            (String.concat "," e.re_info.Loop_info.private_vars)
      end
      else
        List.iter
          (fun o ->
            Format.fprintf ppf " [%s]" (Loop_info.obstacle_to_string o))
          e.re_info.Loop_info.obstacles;
      Format.fprintf ppf " {%s}"
        (Loop_info.show_loop_class e.re_info.Loop_info.classification);
      Format.pp_print_newline ppf ())
    r
