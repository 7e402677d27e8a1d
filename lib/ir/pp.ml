(** Human-readable pretty-printer for the grid IR (debugging aid and
    the GPI's textual echo of the program under construction). *)

open Format

let rec pp_expr ppf (e : Expr.t) =
  match e with
  | Expr.Int_lit n -> fprintf ppf "%d" n
  | Expr.Real_lit x -> fprintf ppf "%g" x
  | Expr.Bool_lit b -> fprintf ppf "%B" b
  | Expr.Str_lit s -> fprintf ppf "%S" s
  | Expr.Ref r -> pp_ref ppf r
  | Expr.Unop (Expr.Neg, a) -> fprintf ppf "(-%a)" pp_expr a
  | Expr.Unop (Expr.Not, a) -> fprintf ppf "(.not. %a)" pp_expr a
  | Expr.Binop (op, a, b) ->
    fprintf ppf "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b
  | Expr.Call (f, args) ->
    fprintf ppf "%s(%a)" f
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_expr)
      args

and pp_ref ppf (r : Expr.gref) =
  (match r.Expr.field with
  | Some f -> fprintf ppf "%s.%s" r.Expr.grid f
  | None -> fprintf ppf "%s" r.Expr.grid);
  match r.Expr.indices with
  | [] -> ()
  | idx ->
    fprintf ppf "[%a]"
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_expr)
      idx

and binop_symbol (op : Expr.binop) =
  match op with
  | Expr.Add -> "+"
  | Expr.Sub -> "-"
  | Expr.Mul -> "*"
  | Expr.Div -> "/"
  | Expr.Pow -> "**"
  | Expr.Mod -> "mod"
  | Expr.Eq -> "=="
  | Expr.Ne -> "/="
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="
  | Expr.And -> ".and."
  | Expr.Or -> ".or."

let pp_directive ppf (d : Stmt.directive) =
  fprintf ppf "@[<h>!parallel";
  if d.Stmt.collapse > 1 then fprintf ppf " collapse(%d)" d.Stmt.collapse;
  (match d.Stmt.num_threads with
  | Some n -> fprintf ppf " threads(%d)" n
  | None -> ());
  if d.Stmt.private_vars <> [] then
    fprintf ppf " private(%s)" (String.concat "," d.Stmt.private_vars);
  List.iter
    (fun (op, v) ->
      let s =
        match op with
        | Stmt.Rsum -> "+"
        | Stmt.Rprod -> "*"
        | Stmt.Rmax -> "max"
        | Stmt.Rmin -> "min"
      in
      fprintf ppf " reduction(%s:%s)" s v)
    d.Stmt.reductions;
  fprintf ppf "@]"

let rec pp_stmt ppf (s : Stmt.t) =
  match s with
  | Stmt.Assign (r, e) -> fprintf ppf "@[<h>%a = %a@]" pp_ref r pp_expr e
  | Stmt.Atomic (r, e) ->
    fprintf ppf "@[<h>atomic %a = %a@]" pp_ref r pp_expr e
  | Stmt.If (branches, else_) ->
    let pp_branch first ppf (c, body) =
      fprintf ppf "@[<v 2>%s %a then@,%a@]"
        (if first then "if" else "elseif")
        pp_expr c pp_body body
    in
    (match branches with
    | [] -> ()
    | first :: rest ->
      pp_branch true ppf first;
      List.iter (fun b -> fprintf ppf "@,%a" (pp_branch false) b) rest);
    if else_ <> [] then fprintf ppf "@,@[<v 2>else@,%a@]" pp_body else_;
    fprintf ppf "@,endif"
  | Stmt.For l ->
    (match l.Stmt.directive with
    | Some d -> fprintf ppf "%a@," pp_directive d
    | None -> ());
    fprintf ppf "@[<v 2>foreach %s = %a .. %a" l.Stmt.index pp_expr l.Stmt.lo
      pp_expr l.Stmt.hi;
    (match l.Stmt.step with
    | Expr.Int_lit 1 -> ()
    | st -> fprintf ppf " step %a" pp_expr st);
    fprintf ppf "@,%a@]@,end foreach" pp_body l.Stmt.body
  | Stmt.While (c, body) ->
    fprintf ppf "@[<v 2>while %a@,%a@]@,end while" pp_expr c pp_body body
  | Stmt.Call (f, args) ->
    fprintf ppf "@[<h>call %s(%a)@]" f
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_expr)
      args
  | Stmt.Return None -> fprintf ppf "return"
  | Stmt.Return (Some e) -> fprintf ppf "return %a" pp_expr e
  | Stmt.Exit_loop -> fprintf ppf "exit"
  | Stmt.Cycle_loop -> fprintf ppf "cycle"
  | Stmt.Critical body ->
    fprintf ppf "@[<v 2>critical@,%a@]@,end critical" pp_body body
  | Stmt.Comment c -> fprintf ppf "! %s" c

and pp_body ppf stmts =
  pp_print_list ~pp_sep:pp_print_cut pp_stmt ppf stmts

let pp_storage ppf (s : Grid.storage) =
  match s with
  | Grid.Local -> fprintf ppf "local"
  | Grid.Arg n -> fprintf ppf "arg(%d)" n
  | Grid.Module_scope -> fprintf ppf "module-scope"
  | Grid.External_module m -> fprintf ppf "use %s" m
  | Grid.Type_element (m, v) -> fprintf ppf "use %s, element of %s" m v
  | Grid.Common b -> fprintf ppf "common /%s/" b

let pp_extent ppf (e : Grid.extent) =
  match e with
  | Grid.Fixed n -> fprintf ppf "%d" n
  | Grid.Sym s -> fprintf ppf "%s" s

let pp_grid ppf (g : Grid.t) =
  let pp_kind ppf = function
    | Grid.Dense t -> fprintf ppf "%s" (Types.fortran_name t)
    | Grid.Record fields ->
      fprintf ppf "record{%s}"
        (String.concat "; "
           (List.map
              (fun (n, t) -> n ^ ":" ^ Types.fortran_name t)
              fields))
  in
  fprintf ppf "@[<h>grid %s : %a" g.Grid.name pp_kind g.Grid.kind;
  if g.Grid.dims <> [] then
    fprintf ppf "[%a]"
      (pp_print_list
         ~pp_sep:(fun ppf () -> fprintf ppf ", ")
         (fun ppf d -> pp_extent ppf d.Grid.extent))
      g.Grid.dims;
  fprintf ppf " (%a%s%s)@]" pp_storage g.Grid.storage
    (if g.Grid.allocatable then ", allocatable" else "")
    (if g.Grid.save then ", save" else "")

let pp_step ppf (s : Func.step) =
  fprintf ppf "@[<v 2>step %S:@,%a@]" s.Func.label pp_body s.Func.body

let pp_func ppf (f : Func.t) =
  let kind =
    match f.Func.return with
    | None -> "subroutine"
    | Some t -> "function:" ^ Types.fortran_name t
  in
  fprintf ppf "@[<v 2>%s %s(%s)@,%a@,%a@]" kind f.Func.name
    (String.concat ", " f.Func.params)
    (pp_print_list ~pp_sep:pp_print_cut pp_grid)
    f.Func.grids
    (pp_print_list ~pp_sep:pp_print_cut pp_step)
    f.Func.steps

let pp_module ppf (m : Ir_module.t) =
  fprintf ppf "@[<v 2>module %s@,%a@,%a@]" m.Ir_module.name
    (pp_print_list ~pp_sep:pp_print_cut pp_grid)
    m.Ir_module.module_grids
    (pp_print_list ~pp_sep:pp_print_cut pp_func)
    m.Ir_module.functions

let pp_program ppf (p : Ir_module.program) =
  fprintf ppf "@[<v>program %s@,@[<v 2>global scope:@,%a@]@,%a@]"
    p.Ir_module.prog_name
    (pp_print_list ~pp_sep:pp_print_cut pp_grid)
    p.Ir_module.globals
    (pp_print_list ~pp_sep:pp_print_cut pp_module)
    p.Ir_module.modules

let expr_to_string e = asprintf "%a" pp_expr e
let stmt_to_string s = asprintf "@[<v>%a@]" pp_stmt s
let program_to_string p = asprintf "%a" pp_program p
