(** Pretty-printer: Fortran AST → free-form source.

    Output is human-readable (the paper stresses GLAF generates
    "human-readable, compatible code") and reparseable by {!Parser}:
    [parse_string (to_string cu)] yields an equal AST, a property the
    test suite checks with qcheck. *)

open Ast

let buf_add = Buffer.add_string

let expr_prec = function
  | Binop (Or, _, _) -> 1
  | Binop (And, _, _) -> 2
  | Unop (Not, _) -> 3
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge), _, _) -> 4
  | Binop (Concat, _, _) -> 5
  | Binop ((Add | Sub), _, _) -> 6
  | Binop ((Mul | Div), _, _) -> 7
  | Unop ((Neg | Pos), _) -> 8
  | Binop (Pow, _, _) -> 9
  | Binop ((Eqv | Neqv), _, _) -> 0
  | Int_lit _ | Real_lit _ | Logical_lit _ | Str_lit _ | Desig _
  | Implied_do _ | Section _ ->
    10

and binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Concat -> "//"
  | Eq -> "=="
  | Ne -> "/="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> ".and."
  | Or -> ".or."
  | Eqv -> ".eqv."
  | Neqv -> ".neqv."

let float_literal x is_double =
  let s =
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.1f" x
    else Printf.sprintf "%.17g" x
  in
  if is_double then
    (* spell as d-exponent *)
    if String.contains s 'e' then
      String.map (fun c -> if c = 'e' then 'd' else c) s
    else s ^ "d0"
  else s

let rec expr_to_buf b e =
  match e with
  | Int_lit n ->
    if n < 0 then begin
      buf_add b "(";
      buf_add b (string_of_int n);
      buf_add b ")"
    end
    else buf_add b (string_of_int n)
  | Real_lit (x, d) -> buf_add b (float_literal x d)
  | Logical_lit true -> buf_add b ".true."
  | Logical_lit false -> buf_add b ".false."
  | Str_lit s ->
    buf_add b "'";
    String.iter
      (fun c -> if c = '\'' then buf_add b "''" else Buffer.add_char b c)
      s;
    buf_add b "'"
  | Desig parts -> desig_to_buf b parts
  | Unop (op, a) ->
    let s = match op with Neg -> "-" | Pos -> "+" | Not -> ".not. " in
    buf_add b s;
    paren_if b (expr_prec a <= expr_prec e) a
  | Binop (op, x, y) ->
    let p = expr_prec e in
    (* ** is right-associative: parenthesize an equal-precedence left
       operand there, and an equal-precedence right operand everywhere
       else (a - (b - c), a / (b / c), ...). *)
    let left_needs, right_needs =
      if op = Pow then (expr_prec x <= p, expr_prec y < p)
      else (expr_prec x < p, expr_prec y <= p)
    in
    paren_if b left_needs x;
    buf_add b " ";
    buf_add b (binop_str op);
    buf_add b " ";
    paren_if b right_needs y
  | Implied_do (e, v, lo, hi) ->
    buf_add b "(";
    expr_to_buf b e;
    buf_add b ", ";
    buf_add b v;
    buf_add b " = ";
    expr_to_buf b lo;
    buf_add b ", ";
    expr_to_buf b hi;
    buf_add b ")"
  | Section (lo, hi) ->
    (match lo with Some e -> expr_to_buf b e | None -> ());
    buf_add b ":";
    (match hi with Some e -> expr_to_buf b e | None -> ())

and paren_if b need e =
  if need then begin
    buf_add b "(";
    expr_to_buf b e;
    buf_add b ")"
  end
  else expr_to_buf b e

and desig_to_buf b parts =
  List.iteri
    (fun i (name, args) ->
      if i > 0 then buf_add b "%";
      buf_add b name;
      match args with
      | [] -> ()
      | args ->
        buf_add b "(";
        List.iteri
          (fun j a ->
            if j > 0 then buf_add b ", ";
            expr_to_buf b a)
          args;
        buf_add b ")")
    parts

let expr_to_string e =
  let b = Buffer.create 64 in
  expr_to_buf b e;
  Buffer.contents b

(* [items] printed by [f], separated by [", "] *)
let comma_list b f items =
  List.iteri
    (fun i x ->
      if i > 0 then buf_add b ", ";
      f b x)
    items

let names b names = comma_list b buf_add names
let int b n = buf_add b (string_of_int n)

(* [opening], then [x] printed by [f], then [")"] *)
let enclosed b opening f x =
  buf_add b opening;
  f b x;
  buf_add b ")"

(** {1 Statements}

    Every line is written straight into the writer's buffer: [start]
    indents it, the printers below append its pieces, [finish] ends
    it. *)

type writer = {
  buf : Buffer.t;
  mutable indent : int;
}

let start w =
  for _ = 1 to w.indent do
    buf_add w.buf "  "
  done

let finish w = Buffer.add_char w.buf '\n'

(* A line of [s] and [name], e.g. [end module m]. *)
let line ?(name = "") w s =
  start w;
  buf_add w.buf s;
  buf_add w.buf name;
  finish w

(* A line holding [x], printed by [f]. *)
let line_of w f x =
  start w;
  f w.buf x;
  finish w

let omp_clauses_to_buf b (d : omp_do) =
  let clause opening items = if items <> [] then enclosed b opening names items in
  clause " private(" d.omp_private;
  clause " firstprivate(" d.omp_firstprivate;
  clause " shared(" d.omp_shared;
  List.iter
    (fun (op, vars) ->
      buf_add b " reduction(";
      buf_add b (match op with Osum -> "+" | Oprod -> "*" | Omax -> "max" | Omin -> "min");
      enclosed b ":" names vars)
    d.omp_reduction;
  if d.omp_collapse > 1 then enclosed b " collapse(" int d.omp_collapse;
  Option.iter (enclosed b " num_threads(" expr_to_buf) d.omp_num_threads;
  (match d.omp_schedule with
  | Some Static -> buf_add b " schedule(static)"
  | Some (Static_chunk k) -> enclosed b " schedule(static, " int k
  | Some (Dynamic k) -> enclosed b " schedule(dynamic, " int k
  | Some (Guided 1) -> buf_add b " schedule(guided)"
  | Some (Guided k) -> enclosed b " schedule(guided, " int k
  | None -> ());
  clause " copyprivate(" d.omp_copyprivate

let do_header_to_buf b l =
  buf_add b "do ";
  buf_add b l.do_var;
  buf_add b " = ";
  expr_to_buf b l.do_lo;
  buf_add b ", ";
  expr_to_buf b l.do_hi;
  Option.iter
    (fun e ->
      buf_add b ", ";
      expr_to_buf b e)
    l.do_step

let allocation_to_buf b (d, exprs) =
  desig_to_buf b d;
  enclosed b "(" (fun b -> comma_list b expr_to_buf) exprs

let rec stmt_to_buf w s =
  match s with
  | Assign _ | Call _ | Return | Exit | Cycle | Stop _ -> line_of w simple_stmt_to_buf s
  | If_arith (c, s) ->
    start w;
    enclosed w.buf "if (" expr_to_buf c;
    buf_add w.buf " ";
    simple_stmt_to_buf w.buf s;
    finish w
  | If_block (branches, else_) ->
    List.iteri
      (fun i (c, body) ->
        start w;
        enclosed w.buf (if i = 0 then "if (" else "else if (") expr_to_buf c;
        buf_add w.buf " then";
        finish w;
        indented w body)
      branches;
    if else_ <> [] then begin
      line w "else";
      indented w else_
    end;
    line w "end if"
  | Do l ->
    Option.iter
      (line_of w (fun b d ->
           buf_add b "!$omp parallel do";
           omp_clauses_to_buf b d))
      l.do_omp;
    line_of w do_header_to_buf l;
    indented w l.do_body;
    line w "end do";
    if Option.is_some l.do_omp then line w "!$omp end parallel do"
  | Do_while (c, body) ->
    line_of w (fun b -> enclosed b "do while (" expr_to_buf) c;
    indented w body;
    line w "end do"
  | Continue -> line w "continue"
  | Allocate allocs ->
    line_of w (fun b -> enclosed b "allocate(" (fun b -> comma_list b allocation_to_buf)) allocs
  | Deallocate ds ->
    line_of w (fun b -> enclosed b "deallocate(" (fun b -> comma_list b desig_to_buf)) ds
  | Print [] -> line w "print *"
  | Print args ->
    line_of w
      (fun b args ->
        buf_add b "print *, ";
        comma_list b expr_to_buf args)
      args
  | Omp_atomic s ->
    line w "!$omp atomic";
    stmt_to_buf w s
  | Omp_critical body ->
    line w "!$omp critical";
    indented w body;
    line w "!$omp end critical"
  | Omp_barrier -> line w "!$omp barrier"
  | Comment c -> line w "! " ~name:c

(* A statement that fits after a logical IF. *)
and simple_stmt_to_buf b s =
  match s with
  | Assign (d, e) ->
    desig_to_buf b d;
    buf_add b " = ";
    expr_to_buf b e
  | Return -> buf_add b "return"
  | Exit -> buf_add b "exit"
  | Cycle -> buf_add b "cycle"
  | Stop None -> buf_add b "stop"
  | Stop (Some m) ->
    buf_add b "stop '";
    buf_add b m;
    buf_add b "'"
  | Call (name, args) ->
    buf_add b "call ";
    buf_add b name;
    enclosed b "(" (fun b -> comma_list b expr_to_buf) args
  | _ -> invalid_arg "inline_stmt: not a simple statement"

and indented w body =
  w.indent <- w.indent + 1;
  List.iter (stmt_to_buf w) body;
  w.indent <- w.indent - 1

(** {1 Declarations} *)

let base_type_to_buf b = function
  | Integer -> buf_add b "integer"
  | Real -> buf_add b "real"
  | Real8 -> buf_add b "real*8"
  | Logical -> buf_add b "logical"
  | Character None -> buf_add b "character(len=*)"
  | Character (Some n) -> enclosed b "character(len=" int n
  | Derived name -> enclosed b "type(" buf_add name

let dims_to_buf b dims =
  enclosed b "("
    (fun b ->
      comma_list b (fun b (lo, hi) ->
          Option.iter
            (fun lo ->
              expr_to_buf b lo;
              buf_add b ":")
            lo;
          expr_to_buf b hi))
    dims

let attr_to_buf b = function
  | Dimension dims ->
    buf_add b "dimension";
    dims_to_buf b dims
  | Allocatable -> buf_add b "allocatable"
  | Save -> buf_add b "save"
  | Parameter -> buf_add b "parameter"
  | Intent_in -> buf_add b "intent(in)"
  | Intent_out -> buf_add b "intent(out)"
  | Intent_inout -> buf_add b "intent(inout)"
  | Pointer -> buf_add b "pointer"
  | Target -> buf_add b "target"

let entity_to_buf b e =
  buf_add b e.ent_name;
  (match (e.ent_deferred, e.ent_dims) with
  | Some rank, _ ->
    buf_add b "(";
    for k = 1 to rank do
      buf_add b (if k > 1 then ", :" else ":")
    done;
    buf_add b ")"
  | None, Some dims -> dims_to_buf b dims
  | None, None -> ());
  Option.iter
    (fun init ->
      buf_add b " = ";
      expr_to_buf b init)
    e.ent_init

let rec decl_to_buf w d =
  let b = w.buf in
  match d with
  | Var_decl { base; attrs; entities } ->
    start w;
    base_type_to_buf b base;
    List.iter
      (fun a ->
        buf_add b ", ";
        attr_to_buf b a)
      attrs;
    buf_add b " :: ";
    comma_list b entity_to_buf entities;
    finish w
  | Type_def { type_name; fields } ->
    line w "type :: " ~name:type_name;
    w.indent <- w.indent + 1;
    List.iter (decl_to_buf w) fields;
    w.indent <- w.indent - 1;
    line w "end type " ~name:type_name
  | Common (block, members) ->
    start w;
    buf_add b "common /";
    buf_add b block;
    buf_add b "/ ";
    names b members;
    finish w
  | Use (m, only) ->
    start w;
    buf_add b "use ";
    buf_add b m;
    if only <> [] then begin
      buf_add b ", only: ";
      names b only
    end;
    finish w
  | Implicit_none -> line w "implicit none"
  | External procs ->
    line_of w
      (fun b procs ->
        buf_add b "external ";
        names b procs)
      procs
  | Decl_comment c -> line w "! " ~name:c

(** {1 Program units} *)

let subprogram_to_buf w (sp : subprogram) =
  let b = w.buf in
  start w;
  (match sp.sub_kind with
  | `Subroutine -> buf_add b "subroutine "
  | `Function (Some t) ->
    base_type_to_buf b t;
    buf_add b " function "
  | `Function None -> buf_add b "function ");
  buf_add b sp.sub_name;
  enclosed b "(" names sp.sub_args;
  finish w;
  w.indent <- w.indent + 1;
  List.iter (decl_to_buf w) sp.sub_decls;
  List.iter (stmt_to_buf w) sp.sub_body;
  w.indent <- w.indent - 1;
  line w ~name:sp.sub_name
    (match sp.sub_kind with `Subroutine -> "end subroutine " | `Function _ -> "end function ")

let unit_to_buf w u =
  match u with
  | Module { mod_name; mod_decls; mod_contains } ->
    line w "module " ~name:mod_name;
    w.indent <- w.indent + 1;
    List.iter (decl_to_buf w) mod_decls;
    w.indent <- w.indent - 1;
    if mod_contains <> [] then begin
      line w "contains";
      w.indent <- w.indent + 1;
      List.iteri
        (fun i sp ->
          if i > 0 then buf_add w.buf "\n";
          subprogram_to_buf w sp)
        mod_contains;
      w.indent <- w.indent - 1
    end;
    line w "end module " ~name:mod_name
  | Standalone sp -> subprogram_to_buf w sp
  | Main { main_name; main_decls; main_body } ->
    line w "program " ~name:main_name;
    w.indent <- w.indent + 1;
    List.iter (decl_to_buf w) main_decls;
    List.iter (stmt_to_buf w) main_body;
    w.indent <- w.indent - 1;
    line w "end program " ~name:main_name

(** Render a compilation unit to free-form Fortran source. *)
let to_string (cu : compilation_unit) =
  let w = { buf = Buffer.create 4096; indent = 0 } in
  List.iteri
    (fun i u ->
      if i > 0 then buf_add w.buf "\n";
      unit_to_buf w u)
    cu;
  Buffer.contents w.buf

let stmt_to_string s =
  let w = { buf = Buffer.create 256; indent = 0 } in
  stmt_to_buf w s;
  Buffer.contents w.buf
