(** Lowering legacy Fortran AST into the grid IR — the paper's reverse
    path.

    [lib/fortran] parses an existing [.f90] file; this module raises
    its subprograms into {!Glaf_ir} so they flow through the same
    Autopar → codegen → interpreter pipeline as kernels built with the
    GPI.  Every variable becomes a grid whose [storage] class records
    where it came from: dummy arguments ([Arg]), locals ([Local]),
    [USE]d module variables ([External_module]), COMMON members
    ([Common]) and elements of legacy derived-type variables
    ([Type_element]) — exactly the integration features of the paper's
    §3, recovered from source instead of declared in the GPI.

    Lowering is total on the subset the analyses understand and raises
    {!Unsupported} (with a one-line reason) on everything else; callers
    either skip the subprogram (whole-program best effort) or fall back
    to per-loop lowering (directives mode). *)

open Glaf_ir
module Ast = Glaf_fortran.Ast

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let elem_of_base : Ast.base_type -> Types.elem_type = function
  | Ast.Integer -> Types.T_int
  | Ast.Real -> Types.T_real
  | Ast.Real8 -> Types.T_real8
  | Ast.Logical -> Types.T_logical
  | Ast.Character _ -> Types.T_string
  | Ast.Derived t -> unsupported "derived type %s has no element type" t

let implicit_elem name =
  match name.[0] with
  | 'i' .. 'n' -> Types.T_int
  | _ -> Types.T_real8

(** What a source name means inside the subprogram being lowered. *)
type sym =
  | Sconst of Ast.expr  (** folded PARAMETER literal, inlined on use *)
  | Sgrid of Grid.t
  | Sstruct of string * string option
      (** derived-type variable: type name, owning module (if module
          scope — only those support [%]-element lowering) *)

type ctx = {
  cu : Ast.compilation_unit;
  sub : Ast.subprogram;
  types : (string, Ast.decl list) Hashtbl.t;  (** derived-type fields *)
  syms : (string, sym) Hashtbl.t;
  mutable grids_rev : Grid.t list;  (** registration order, reversed *)
  mutable result : (string * Grid.t) option;
      (** function name -> result-alias grid *)
  mutable loops : (Ast.do_loop * Stmt.loop) list;
      (** every DO lowered in this context with its IR, newest first
          (see {!lower_loop}) *)
}

(* ------------------------------------------------------------------ *)
(* Constant folding (PARAMETERs and dimension bounds)                  *)
(* ------------------------------------------------------------------ *)

let rec fold_const ctx (e : Ast.expr) : Ast.expr option =
  match e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ ->
    Some e
  | Ast.Desig [ (n, []) ] -> (
    match Hashtbl.find_opt ctx.syms (String.lowercase_ascii n) with
    | Some (Sconst lit) -> Some lit
    | _ -> None)
  | Ast.Unop (Ast.Pos, a) -> fold_const ctx a
  | Ast.Unop (Ast.Neg, a) -> (
    match fold_const ctx a with
    | Some (Ast.Int_lit n) -> Some (Ast.Int_lit (-n))
    | Some (Ast.Real_lit (x, d)) -> Some (Ast.Real_lit (-.x, d))
    | _ -> None)
  | Ast.Binop (op, a, b) -> (
    match (fold_const ctx a, fold_const ctx b) with
    | Some (Ast.Int_lit x), Some (Ast.Int_lit y) -> (
      match op with
      | Ast.Add -> Some (Ast.Int_lit (x + y))
      | Ast.Sub -> Some (Ast.Int_lit (x - y))
      | Ast.Mul -> Some (Ast.Int_lit (x * y))
      | Ast.Div when y <> 0 -> Some (Ast.Int_lit (x / y))
      | _ -> None)
    | _ -> None)
  | _ -> None

let fold_int ctx e =
  match fold_const ctx e with
  | Some (Ast.Int_lit n) -> Some n
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Symbol / grid registration                                          *)
(* ------------------------------------------------------------------ *)

let key = String.lowercase_ascii

let find_sym ctx name = Hashtbl.find_opt ctx.syms (key name)

let add_grid ctx (g : Grid.t) =
  match find_sym ctx g.Grid.name with
  | Some (Sgrid g') when Grid.equal g g' -> ()
  | Some _ -> unsupported "name collision on %s" g.Grid.name
  | None ->
    Hashtbl.replace ctx.syms (key g.Grid.name) (Sgrid g);
    ctx.grids_rev <- g :: ctx.grids_rev

(** Replace an already-registered grid (storage rebinding for args and
    COMMON members). *)
let rebind_grid ctx name (g' : Grid.t) =
  Hashtbl.replace ctx.syms (key name) (Sgrid g');
  ctx.grids_rev <-
    List.map
      (fun (g : Grid.t) -> if String.equal g.Grid.name g'.Grid.name then g' else g)
      ctx.grids_rev

(** Dimension list for an entity.  The IR convention (see
    {!Glaf_codegen.Fortran_gen}) is that [Fixed n] / [Sym s] give the
    {e upper bound}, with [lower] defaulting to 1. *)
let dims_of ctx ~ent_name (dims : (Ast.expr option * Ast.expr) list option)
    ~(deferred : int option) : Grid.dim list =
  match deferred with
  | Some rank ->
    (* deferred shape [(:,:)] — extents only known at ALLOCATE time;
       synthesize symbolic extents (never printed for externally
       declared grids, and local deferred arrays are only reachable
       through ALLOCATE, which lowering rejects). *)
    List.init rank (fun i ->
        Grid.dim (Grid.Sym (Printf.sprintf "%s_extent%d" ent_name (i + 1))))
  | None -> (
    match dims with
    | None -> []
    | Some ds ->
      List.map
        (fun (lo_opt, hi) ->
          let lower =
            match lo_opt with
            | None -> 1
            | Some e -> (
              match fold_int ctx e with
              | Some n -> n
              | None ->
                unsupported "non-constant lower bound of %s" ent_name)
          in
          match fold_int ctx hi with
          | Some n -> Grid.dim ~lower (Grid.Fixed n)
          | None -> (
            match hi with
            | Ast.Desig [ (s, []) ] when lower = 1 -> Grid.dim (Grid.Sym s)
            | _ -> unsupported "unsupported extent for %s" ent_name))
        ds)

(** Fields of a derived type as (name, elem) pairs; [None] when a field
    is itself an array or derived (record grids hold scalar fields). *)
let record_fields ctx tname =
  match Hashtbl.find_opt ctx.types (key tname) with
  | None -> unsupported "unknown derived type %s" tname
  | Some fields ->
    List.concat_map
      (function
        | Ast.Var_decl { base; attrs; entities } ->
          List.map
            (fun (e : Ast.entity) ->
              let dimmed =
                e.Ast.ent_dims <> None || e.Ast.ent_deferred <> None
                || List.exists
                     (function Ast.Dimension _ -> true | _ -> false)
                     attrs
              in
              if dimmed then
                unsupported "array field %s of type %s" e.Ast.ent_name tname
              else (e.Ast.ent_name, elem_of_base base))
            entities
        | _ -> [])
      fields

let is_function ctx =
  match ctx.sub.Ast.sub_kind with `Function _ -> true | `Subroutine -> false

(** Register one declared entity. *)
let register_entity ctx ~(base : Ast.base_type) ~(attrs : Ast.attr list)
    ~(storage : Grid.storage) (e : Ast.entity) =
  let name = e.Ast.ent_name in
  let attr_dims =
    List.find_map (function Ast.Dimension d -> Some d | _ -> None) attrs
  in
  let dims =
    match e.Ast.ent_dims with Some d -> Some d | None -> attr_dims
  in
  let is_param = List.mem Ast.Parameter attrs in
  let allocatable = List.mem Ast.Allocatable attrs in
  let save = List.mem Ast.Save attrs in
  if is_param then begin
    match e.Ast.ent_init with
    | Some init -> (
      match fold_const ctx init with
      | Some lit -> Hashtbl.replace ctx.syms (key name) (Sconst lit)
      | None -> unsupported "non-constant parameter %s" name)
    | None -> unsupported "parameter %s without value" name
  end
  else
    match base with
    | Ast.Derived tname -> (
      match dims with
      | None ->
        (* scalar derived-type variable: elements are lowered lazily as
           Type_element grids when referenced *)
        let owner =
          match storage with
          | Grid.External_module m -> Some m
          | _ -> None
        in
        Hashtbl.replace ctx.syms (key name) (Sstruct (tname, owner))
      | Some _ ->
        (* array of derived type: a record grid with scalar fields *)
        let fields = record_fields ctx tname in
        let g =
          Grid.make ~kind:(Grid.Record fields)
            ~dims:(dims_of ctx ~ent_name:name dims ~deferred:e.Ast.ent_deferred)
            ~storage ~allocatable ~save name
        in
        add_grid ctx g)
    | _ ->
      let elem = elem_of_base base in
      let grid_name, sym_key =
        (* a declaration of the function's own name declares its result;
           alias it to a fresh local so calls to the function and reads
           of the result variable stay distinguishable in the IR *)
        if is_function ctx && key name = key ctx.sub.Ast.sub_name then
          (name ^ "_r", name)
        else (name, name)
      in
      let g =
        Grid.make ~kind:(Grid.Dense elem)
          ~dims:(dims_of ctx ~ent_name:name dims ~deferred:e.Ast.ent_deferred)
          ~storage ~allocatable ~save grid_name
      in
      if String.equal grid_name name then add_grid ctx g
      else begin
        (match find_sym ctx sym_key with
        | Some _ -> unsupported "name collision on %s" sym_key
        | None -> ());
        Hashtbl.replace ctx.syms (key sym_key) (Sgrid g);
        ctx.grids_rev <- g :: ctx.grids_rev;
        ctx.result <- Some (ctx.sub.Ast.sub_name, g)
      end

(* ------------------------------------------------------------------ *)
(* Context construction                                                *)
(* ------------------------------------------------------------------ *)

let collect_types ctx decls =
  List.iter
    (function
      | Ast.Type_def { type_name; fields } ->
        Hashtbl.replace ctx.types (key type_name) fields
      | _ -> ())
    decls

(** Import a module's public names, honoring an ONLY list (parameters
    are always imported — dimension bounds need them). *)
let rec process_use ctx ~depth m_name only =
  if depth > 8 then unsupported "USE nesting too deep at %s" m_name
  else
    match Ast.find_module ctx.cu m_name with
    | None -> unsupported "unknown module %s" m_name
    | Some m ->
      collect_types ctx m.Ast.mod_decls;
      let allowed name =
        only = [] || List.exists (fun o -> key o = key name) only
      in
      List.iter
        (function
          | Ast.Use (inner, inner_only) ->
            process_use ctx ~depth:(depth + 1) inner inner_only
          | Ast.Var_decl { base; attrs; entities } ->
            let is_param = List.mem Ast.Parameter attrs in
            List.iter
              (fun (e : Ast.entity) ->
                if is_param || allowed e.Ast.ent_name then
                  match find_sym ctx e.Ast.ent_name with
                  | Some _ -> ()  (* first import wins *)
                  | None ->
                    register_entity ctx ~base ~attrs
                      ~storage:(Grid.External_module m.Ast.mod_name)
                      e)
              entities
          | _ -> ())
        m.Ast.mod_decls

let make_ctx (cu : Ast.compilation_unit) (sp : Ast.subprogram) : ctx =
  let ctx =
    {
      cu;
      sub = sp;
      types = Hashtbl.create 8;
      syms = Hashtbl.create 32;
      grids_rev = [];
      result = None;
      loops = [];
    }
  in
  (* derived types visible from anywhere (modules may be USEd) *)
  List.iter
    (function
      | Ast.Module m -> collect_types ctx m.Ast.mod_decls
      | _ -> ())
    cu;
  collect_types ctx sp.Ast.sub_decls;
  (* COMMON membership: block name per member, from any COMMON decl *)
  let common_of = Hashtbl.create 8 in
  List.iter
    (function
      | Ast.Common (block, members) ->
        List.iter (fun m -> Hashtbl.replace common_of (key m) block) members
      | _ -> ())
    sp.Ast.sub_decls;
  let storage_of_local name =
    match Hashtbl.find_opt common_of (key name) with
    | Some block -> Grid.Common block
    | None -> Grid.Local
  in
  (* declarations in order: USE imports then locals *)
  List.iter
    (function
      | Ast.Use (m, only) -> process_use ctx ~depth:0 m only
      | Ast.Var_decl { base; attrs; entities } ->
        List.iter
          (fun (e : Ast.entity) ->
            register_entity ctx ~base ~attrs
              ~storage:(storage_of_local e.Ast.ent_name)
              e)
          entities
      | Ast.Common _ | Ast.Implicit_none | Ast.External _
      | Ast.Decl_comment _ | Ast.Type_def _ ->
        ())
    sp.Ast.sub_decls;
  (* COMMON members never declared with a type: implicit typing *)
  Hashtbl.iter
    (fun member block ->
      match find_sym ctx member with
      | Some _ -> ()
      | None ->
        add_grid ctx
          (Grid.make
             ~kind:(Grid.Dense (implicit_elem member))
             ~storage:(Grid.Common block) member))
    common_of;
  (* dummy arguments: rebind declared grids to Arg storage, synthesize
     implicit scalars for undeclared ones *)
  List.iteri
    (fun i arg ->
      match find_sym ctx arg with
      | Some (Sgrid g) -> rebind_grid ctx arg { g with Grid.storage = Grid.Arg i }
      | Some (Sconst _) -> unsupported "argument %s is a PARAMETER" arg
      | Some (Sstruct _) -> unsupported "derived-type argument %s" arg
      | None ->
        add_grid ctx
          (Grid.make
             ~kind:(Grid.Dense (implicit_elem arg))
             ~storage:(Grid.Arg i) arg))
    sp.Ast.sub_args;
  (* function result: if no declaration named it, use the header type *)
  (match sp.Ast.sub_kind with
  | `Function rt when ctx.result = None ->
    let elem =
      match rt with
      | Some b -> elem_of_base b
      | None -> implicit_elem sp.Ast.sub_name
    in
    let g = Grid.make ~kind:(Grid.Dense elem) (sp.Ast.sub_name ^ "_r") in
    (match find_sym ctx sp.Ast.sub_name with
    | Some _ -> unsupported "name collision on %s" sp.Ast.sub_name
    | None -> ());
    Hashtbl.replace ctx.syms (key sp.Ast.sub_name) (Sgrid g);
    ctx.grids_rev <- g :: ctx.grids_rev;
    ctx.result <- Some (sp.Ast.sub_name, g)
  | _ -> ());
  ctx

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let lower_binop : Ast.binop -> Expr.binop = function
  | Ast.Add -> Expr.Add
  | Ast.Sub -> Expr.Sub
  | Ast.Mul -> Expr.Mul
  | Ast.Div -> Expr.Div
  | Ast.Pow -> Expr.Pow
  | Ast.Eq | Ast.Eqv -> Expr.Eq
  | Ast.Ne | Ast.Neqv -> Expr.Ne
  | Ast.Lt -> Expr.Lt
  | Ast.Le -> Expr.Le
  | Ast.Gt -> Expr.Gt
  | Ast.Ge -> Expr.Ge
  | Ast.And -> Expr.And
  | Ast.Or -> Expr.Or
  | Ast.Concat -> unsupported "string concatenation"

let lower_lit : Ast.expr -> Expr.t = function
  | Ast.Int_lit n -> Expr.Int_lit n
  | Ast.Real_lit (x, _) -> Expr.Real_lit x
  | Ast.Logical_lit b -> Expr.Bool_lit b
  | Ast.Str_lit s -> Expr.Str_lit s
  | _ -> unsupported "non-literal constant"

(** Lazily synthesize the Type_element grid for [v%field]. *)
let type_element_grid ctx ~tname ~owner ~var ~field : Grid.t =
  let owner =
    match owner with
    | Some m -> m
    | None -> unsupported "%%-access to non-module variable %s" var
  in
  let fields =
    match Hashtbl.find_opt ctx.types (key tname) with
    | Some fs -> fs
    | None -> unsupported "unknown derived type %s" tname
  in
  let decl =
    List.find_map
      (function
        | Ast.Var_decl { base; attrs; entities } ->
          List.find_map
            (fun (e : Ast.entity) ->
              if key e.Ast.ent_name = key field then Some (base, attrs, e)
              else None)
            entities
        | _ -> None)
      fields
  in
  match decl with
  | None -> unsupported "type %s has no element %s" tname field
  | Some (base, attrs, e) ->
    let attr_dims =
      List.find_map (function Ast.Dimension d -> Some d | _ -> None) attrs
    in
    let dims =
      match e.Ast.ent_dims with Some d -> Some d | None -> attr_dims
    in
    let g =
      Grid.make
        ~kind:(Grid.Dense (elem_of_base base))
        ~dims:(dims_of ctx ~ent_name:field dims ~deferred:e.Ast.ent_deferred)
        ~storage:(Grid.Type_element (owner, var))
        field
    in
    add_grid ctx g;
    g

let rec lower_expr ctx (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ ->
    lower_lit e
  | Ast.Unop (Ast.Pos, a) -> lower_expr ctx a
  | Ast.Unop (Ast.Neg, a) -> Expr.Unop (Expr.Neg, lower_expr ctx a)
  | Ast.Unop (Ast.Not, a) -> Expr.Unop (Expr.Not, lower_expr ctx a)
  | Ast.Binop (op, a, b) ->
    Expr.Binop (lower_binop op, lower_expr ctx a, lower_expr ctx b)
  | Ast.Desig d -> lower_desig ctx d
  | Ast.Implied_do _ -> unsupported "implied DO"
  | Ast.Section _ -> unsupported "array section"

and lower_args ctx args = List.map (lower_expr ctx) args

and lower_desig ctx (d : Ast.designator) : Expr.t =
  match d with
  | [ (name, args) ] -> (
    match find_sym ctx name with
    | Some (Sconst lit) ->
      if args = [] then lower_lit lit
      else unsupported "subscripted parameter %s" name
    | Some (Sgrid g) ->
      Expr.Ref
        { Expr.grid = g.Grid.name; field = None; indices = lower_args ctx args }
    | Some (Sstruct (t, _)) -> unsupported "derived variable %s of type %s" name t
    | None ->
      if args <> [] then
        (* undeclared name with arguments: a function reference *)
        Expr.Call (String.lowercase_ascii name, lower_args ctx args)
      else begin
        (* implicit scalar (loop index or implicitly typed local) *)
        add_grid ctx
          (Grid.make ~kind:(Grid.Dense (implicit_elem name)) name);
        Expr.Ref { Expr.grid = name; field = None; indices = [] }
      end)
  | [ (vname, vargs); (field, fargs) ] -> (
    match find_sym ctx vname with
    | Some (Sstruct (tname, owner)) ->
      if vargs <> [] then unsupported "subscripted derived variable %s" vname
      else begin
        let g = type_element_grid ctx ~tname ~owner ~var:vname ~field in
        ignore g;
        Expr.Ref
          { Expr.grid = field; field = None; indices = lower_args ctx fargs }
      end
    | Some (Sgrid g) -> (
      (* array-of-records element: v(i)%f *)
      match g.Grid.kind with
      | Grid.Record _ when fargs = [] ->
        Expr.Ref
          {
            Expr.grid = g.Grid.name;
            field = Some field;
            indices = lower_args ctx vargs;
          }
      | _ -> unsupported "%%-access to %s" vname)
    | _ -> unsupported "%%-access to %s" vname)
  | _ -> unsupported "deep part-ref chain %s" (Ast.desig_name d)

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let gref_of ctx (d : Ast.designator) : Expr.gref =
  match lower_desig ctx d with
  | Expr.Ref r -> r
  | Expr.Call _ ->
    unsupported "assignment to undeclared array %s" (Ast.desig_name d)
  | _ -> unsupported "assignment to constant %s" (Ast.desig_name d)

let rec lower_stmt ctx (s : Ast.stmt) : Stmt.t list =
  match s with
  | Ast.Assign (d, e) -> [ Stmt.Assign (gref_of ctx d, lower_expr ctx e) ]
  | Ast.If_block (branches, else_) ->
    [
      Stmt.If
        ( List.map
            (fun (c, body) -> (lower_expr ctx c, lower_body ctx body))
            branches,
          lower_body ctx else_ );
    ]
  | Ast.If_arith (c, s) ->
    [ Stmt.If ([ (lower_expr ctx c, lower_stmt ctx s) ], []) ]
  | Ast.Do l -> [ Stmt.For (lower_do ctx l) ]
  | Ast.Do_while (c, body) ->
    [ Stmt.While (lower_expr ctx c, lower_body ctx body) ]
  | Ast.Call (name, args) ->
    [ Stmt.Call (String.lowercase_ascii name, lower_args ctx args) ]
  | Ast.Return -> [ lower_return ctx ]
  | Ast.Exit -> [ Stmt.Exit_loop ]
  | Ast.Cycle -> [ Stmt.Cycle_loop ]
  | Ast.Continue -> []
  | Ast.Comment c -> [ Stmt.Comment c ]
  | Ast.Omp_atomic (Ast.Assign (d, e)) ->
    [ Stmt.Atomic (gref_of ctx d, lower_expr ctx e) ]
  | Ast.Omp_atomic _ -> unsupported "atomic non-assignment"
  | Ast.Omp_critical body -> [ Stmt.Critical (lower_body ctx body) ]
  | Ast.Omp_barrier -> unsupported "barrier"
  | Ast.Stop _ -> unsupported "STOP"
  | Ast.Allocate _ -> unsupported "ALLOCATE"
  | Ast.Deallocate _ -> unsupported "DEALLOCATE"
  | Ast.Print _ -> unsupported "PRINT"

and lower_return ctx : Stmt.t =
  match ctx.result with
  | Some (_, g) -> Stmt.Return (Some (Expr.var g.Grid.name))
  | None -> Stmt.Return None

and lower_body ctx body = List.concat_map (lower_stmt ctx) body

(** Lower one DO loop (the unit directives mode analyzes) and record
    it in [ctx.loops].  The original's own [!$OMP] annotation, if any,
    is dropped — analysis re-derives it. *)
and lower_do ctx (l : Ast.do_loop) : Stmt.loop =
  let step =
    match l.Ast.do_step with
    | None -> Expr.Int_lit 1
    | Some e -> (
      match fold_const ctx e with
      | Some (Ast.Int_lit n) -> Expr.Int_lit n
      | _ -> lower_expr ctx e)
  in
  (* make sure the index is registered as a scalar grid *)
  (match find_sym ctx l.Ast.do_var with
  | Some (Sgrid _) -> ()
  | Some _ -> unsupported "loop index %s is not a variable" l.Ast.do_var
  | None ->
    add_grid ctx
      (Grid.make
         ~kind:(Grid.Dense (implicit_elem l.Ast.do_var))
         l.Ast.do_var));
  let loop =
    {
      Stmt.index = l.Ast.do_var;
      lo = lower_expr ctx l.Ast.do_lo;
      hi = lower_expr ctx l.Ast.do_hi;
      step;
      body = lower_body ctx l.Ast.do_body;
      directive = None;
      schedule = None;
    }
  in
  ctx.loops <- (l, loop) :: ctx.loops;
  loop

(** The IR of DO loop [l] of [ctx]'s subprogram: the one already
    lowered in [ctx] (as part of its body or of an enclosing loop) if
    there is one, else [l] lowered now. *)
let lower_loop ctx (l : Ast.do_loop) : Stmt.loop =
  match List.assq_opt l ctx.loops with
  | Some loop -> loop
  | None -> lower_do ctx l

(* ------------------------------------------------------------------ *)
(* Subprogram / program lowering                                       *)
(* ------------------------------------------------------------------ *)

(** Snapshot the context as a {!Func.t} with the given steps. *)
let func_of_ctx ?(name = "") ?(steps = []) ctx : Func.t =
  let name = if name = "" then ctx.sub.Ast.sub_name else name in
  let return =
    match ctx.result with
    | Some (_, g) -> Some (Grid.elem_type g)
    | None -> None
  in
  Func.make ?return ~params:ctx.sub.Ast.sub_args
    ~grids:(List.rev ctx.grids_rev) ~steps name

(** Lower a whole subprogram into a function, and return the context
    it was lowered in: every grid of the body is registered there, so
    lowering any of its loops again adds none.  [rename] gives the IR
    function a fresh name so the original and the lifted version can
    coexist in one compilation unit. *)
let lower_with_ctx ?rename (cu : Ast.compilation_unit) (sp : Ast.subprogram) :
    Func.t * ctx =
  let ctx = make_ctx cu sp in
  let body = lower_body ctx sp.Ast.sub_body in
  let body =
    (* a function falling off the end still returns its result variable *)
    match ctx.result with
    | Some _ -> body @ [ lower_return ctx ]
    | None -> body
  in
  let name =
    match rename with Some n -> n | None -> sp.Ast.sub_name
  in
  (func_of_ctx ~name ~steps:[ Func.step "lifted body" body ] ctx, ctx)

let lower_subprogram ?rename cu sp = fst (lower_with_ctx ?rename cu sp)

(** Best-effort lowering of every subprogram in the unit; returns the
    lowered functions (original names) with their contexts, in
    {!Ast.all_subprograms} order, and per-subprogram failures.
    Subprograms that do not lower are {e excluded} — their callers see
    an [Unsafe_call] obstacle instead of an empty (pure-looking)
    summary. *)
let lower_all (cu : Ast.compilation_unit) :
    (Func.t * ctx) list * (string * string) list =
  let fs, errs =
    List.fold_left
      (fun (fs, errs) sp ->
        match lower_with_ctx cu sp with
        | lowered -> (lowered :: fs, errs)
        | exception Unsupported why -> (fs, (sp.Ast.sub_name, why) :: errs))
      ([], []) (Ast.all_subprograms cu)
  in
  (List.rev fs, List.rev errs)
