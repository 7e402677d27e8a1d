(** Automatic Fortran code generation from the grid IR.

    Implements the paper's §3 integration features:
    - §3.1 grids in existing modules → [USE <module>], no declaration;
    - §3.2 COMMON-block grids → grouped declarations plus
      [COMMON /<name>/ v1, v2, ...];
    - §3.3 module-scope grids → declared in the generated module;
    - §3.4 void return type → [SUBROUTINE] + [CALL] at call sites;
    - §3.5 elements of existing TYPE variables → [var%element];
    - §3.6 library functions map to Fortran intrinsics by name.

    Output is a {!Glaf_fortran.Ast.compilation_unit}; render it with
    {!Glaf_fortran.Pp_ast.to_string} for "human-readable, compatible
    code", or feed it straight to the interpreter. *)

open Glaf_ir
open Glaf_fortran

type options = {
  emit_omp : bool;  (** parallel (directives honoured) vs serial codegen *)
  globals_module : string;
      (** name of the generated module holding Global Scope grids *)
}

let default_options = { emit_omp = true; globals_module = "glaf_globals" }

let base_of_elem (t : Types.elem_type) : Ast.base_type =
  match t with
  | Types.T_int -> Ast.Integer
  | Types.T_real -> Ast.Real
  | Types.T_real8 -> Ast.Real8
  | Types.T_logical -> Ast.Logical
  | Types.T_string -> Ast.Character (Some 256)

let record_type_name grid_name = grid_name ^ "_t"

(** {1 Expressions}

    [tv] is the §3.5 lookup: the enclosing existing-TYPE variable of a
    grid, if any ([Type_element] storage), so that every reference —
    in statements {e and} inside expressions — is prefixed
    [var%element]. *)

let rec gen_expr tv (e : Expr.t) : Ast.expr =
  match e with
  | Expr.Int_lit n -> Ast.Int_lit n
  | Expr.Real_lit x -> Ast.Real_lit (x, true)
  | Expr.Bool_lit b -> Ast.Logical_lit b
  | Expr.Str_lit s -> Ast.Str_lit s
  | Expr.Ref r -> Ast.Desig (gen_ref tv r)
  | Expr.Unop (Expr.Neg, a) -> Ast.Unop (Ast.Neg, gen_expr tv a)
  | Expr.Unop (Expr.Not, a) -> Ast.Unop (Ast.Not, gen_expr tv a)
  | Expr.Binop (op, a, b) -> gen_binop tv op a b
  | Expr.Call (f, args) -> Ast.Desig [ (f, List.map (gen_expr tv) args) ]

and gen_binop tv op a b =
  let mk o = Ast.Binop (o, gen_expr tv a, gen_expr tv b) in
  match op with
  | Expr.Add -> mk Ast.Add
  | Expr.Sub -> mk Ast.Sub
  | Expr.Mul -> mk Ast.Mul
  | Expr.Div -> mk Ast.Div
  | Expr.Pow -> mk Ast.Pow
  | Expr.Mod -> Ast.Desig [ ("mod", [ gen_expr tv a; gen_expr tv b ]) ]
  | Expr.Eq -> mk Ast.Eq
  | Expr.Ne -> mk Ast.Ne
  | Expr.Lt -> mk Ast.Lt
  | Expr.Le -> mk Ast.Le
  | Expr.Gt -> mk Ast.Gt
  | Expr.Ge -> mk Ast.Ge
  | Expr.And -> mk Ast.And
  | Expr.Or -> mk Ast.Or

(** A grid reference as a Fortran designator.  [Type_element] storage
    prefixes the existing TYPE variable (§3.5); fields of GLAF-declared
    record grids become [%field] part-refs. *)
and gen_ref tv (r : Expr.gref) : Ast.designator =
  let indices = List.map (gen_expr tv) r.Expr.indices in
  let main =
    match r.Expr.field with
    | None -> [ (r.Expr.grid, indices) ]
    | Some f -> [ (r.Expr.grid, indices); (f, []) ]
  in
  match tv r.Expr.grid with
  | Some type_var -> (type_var, []) :: main
  | None -> main

(** {1 Statements} *)

type fctx = {
  opts : options;
  fname : string;  (** function being generated (for RETURN value) *)
  type_var_of : string -> string option;
      (** §3.5: enclosing TYPE variable of a grid, if any *)
}

let gen_directive (d : Stmt.directive) : Ast.omp_do =
  {
    Ast.omp_do_default with
    Ast.omp_private = d.Stmt.private_vars;
    omp_reduction =
      List.map
        (fun (op, v) ->
          let o =
            match op with
            | Stmt.Rsum -> Ast.Osum
            | Stmt.Rprod -> Ast.Oprod
            | Stmt.Rmax -> Ast.Omax
            | Stmt.Rmin -> Ast.Omin
          in
          (o, [ v ]))
        d.Stmt.reductions;
    omp_collapse = d.Stmt.collapse;
    omp_num_threads = Option.map (fun n -> Ast.Int_lit n) d.Stmt.num_threads;
    omp_schedule =
      Option.map
        (function
          | Stmt.Sched_static -> Ast.Static
          | Stmt.Sched_static_chunk k -> Ast.Static_chunk k
          | Stmt.Sched_dynamic k -> Ast.Dynamic k
          | Stmt.Sched_guided k -> Ast.Guided k)
        d.Stmt.schedule;
  }

let rec gen_stmts ctx stmts = List.concat_map (gen_stmt ctx) stmts

and gen_stmt ctx (s : Stmt.t) : Ast.stmt list =
  let tv = ctx.type_var_of in
  let ref_ r = gen_ref tv r in
  let ge e = gen_expr tv e in
  match s with
  | Stmt.Assign (r, e) -> [ Ast.Assign (ref_ r, ge e) ]
  | Stmt.Atomic (r, e) -> [ Ast.Omp_atomic (Ast.Assign (ref_ r, ge e)) ]
  | Stmt.If (branches, else_) ->
    [
      Ast.If_block
        ( List.map (fun (c, b) -> (ge c, gen_stmts ctx b)) branches,
          gen_stmts ctx else_ );
    ]
  | Stmt.For l ->
    let do_omp =
      if ctx.opts.emit_omp then Option.map gen_directive l.Stmt.directive
      else None
    in
    [
      Ast.Do
        {
          Ast.do_var = l.Stmt.index;
          do_lo = ge l.Stmt.lo;
          do_hi = ge l.Stmt.hi;
          do_step =
            (match l.Stmt.step with
            | Expr.Int_lit 1 -> None
            | st -> Some (ge st));
          do_body = gen_stmts ctx l.Stmt.body;
          do_omp;
        };
    ]
  | Stmt.While (c, body) -> [ Ast.Do_while (ge c, gen_stmts ctx body) ]
  | Stmt.Call (f, args) -> [ Ast.Call (f, List.map ge args) ]
  | Stmt.Return None -> [ Ast.Return ]
  | Stmt.Return (Some e) ->
    (* FUNCTION result: assign to the function name, then return *)
    [ Ast.Assign ([ (ctx.fname, []) ], ge e); Ast.Return ]
  | Stmt.Exit_loop -> [ Ast.Exit ]
  | Stmt.Cycle_loop -> [ Ast.Cycle ]
  | Stmt.Critical body -> [ Ast.Omp_critical (gen_stmts ctx body) ]
  | Stmt.Comment c -> [ Ast.Comment c ]

(** {1 Declarations} *)

let gen_extent (e : Grid.extent) : Ast.expr =
  match e with
  | Grid.Fixed n -> Ast.Int_lit n
  | Grid.Sym s -> Ast.var s

let dims_of_grid (g : Grid.t) =
  List.map
    (fun (d : Grid.dim) ->
      let lo =
        if d.Grid.lower = 1 then None else Some (Ast.Int_lit d.Grid.lower)
      in
      (lo, gen_extent d.Grid.extent))
    g.Grid.dims

(* A function-local grid is generated with deferred shape +
   ALLOCATABLE when any extent is symbolic (GLAF allocates it at
   entry).  Dummy arguments keep explicit shapes. *)
let is_dynamic (g : Grid.t) =
  g.Grid.storage = Grid.Local
  && (not (Grid.is_scalar g))
  && (g.Grid.allocatable || Grid.extent_deps g <> [])

let decl_of_grid ?(attrs = []) ?(module_level = false) (g : Grid.t) :
    Ast.decl list =
  (* scalar initializers are legal as initialized declarations at
     module scope; function-local grids are instead initialized by
     statements (a local initializer would imply SAVE) *)
  let scalar_init =
    if not (module_level && Grid.is_scalar g) then None
    else
      match g.Grid.init with
      | Grid.Zero_init -> Some (Ast.Real_lit (0.0, true))
      | Grid.Const_init x -> Some (Ast.Real_lit (x, true))
      | Grid.No_init | Grid.Data_init _ -> None
  in
  let mk_entity ~deferred =
    {
      Ast.ent_name = g.Grid.name;
      ent_dims = (if Grid.is_scalar g || deferred then None else Some (dims_of_grid g));
      ent_deferred = (if deferred then Some (Grid.num_dims g) else None);
      ent_init = scalar_init;
    }
  in
  match g.Grid.kind with
  | Grid.Dense t ->
    let deferred = is_dynamic g in
    let attrs =
      attrs
      @ (if deferred then [ Ast.Allocatable ] else [])
      @ if g.Grid.save then [ Ast.Save ] else []
    in
    [ Ast.Var_decl { base = base_of_elem t; attrs; entities = [ mk_entity ~deferred ] } ]
  | Grid.Record fields ->
    (* AoS: derived TYPE + variable of that type *)
    let tname = record_type_name g.Grid.name in
    let field_decls =
      List.map
        (fun (fn, ft) ->
          Ast.Var_decl
            {
              base = base_of_elem ft;
              attrs = [];
              entities =
                [
                  {
                    Ast.ent_name = fn;
                    ent_dims = None;
                    ent_deferred = None;
                    ent_init = None;
                  };
                ];
            })
        fields
    in
    [
      Ast.Type_def { type_name = tname; fields = field_decls };
      Ast.Var_decl
        {
          base = Ast.Derived tname;
          attrs = attrs @ (if g.Grid.save then [ Ast.Save ] else []);
          entities = [ mk_entity ~deferred:false ];
        };
    ]

(* Comment header carrying the grid's GPI caption/comment, as the
   paper's Fig. 1 shows for generated C. *)
let grid_comment (g : Grid.t) : Ast.decl list =
  if g.Grid.comment = "" then []
  else [ Ast.Decl_comment g.Grid.comment ]

(** Allocation prologue for dynamic local arrays.  With [save] set (the
    no-reallocation option), allocation happens only on first entry. *)
let allocation_prologue (f : Func.t) : Ast.stmt list =
  List.concat_map
    (fun (g : Grid.t) ->
      let is_record =
        match g.Grid.kind with
        | Grid.Record _ -> true
        | Grid.Dense _ -> false
      in
      (* record grids are declared as automatic derived-type arrays,
         not allocatables *)
      if is_record || not (is_dynamic g && g.Grid.storage = Grid.Local) then
        []
      else
        let alloc =
          Ast.Allocate
            [
              ( [ (g.Grid.name, []) ],
                List.map
                  (fun (d : Grid.dim) ->
                    match (d.Grid.lower, gen_extent d.Grid.extent) with
                    | 1, hi -> hi
                    | lo, hi -> Ast.Section (Some (Ast.Int_lit lo), Some hi))
                  g.Grid.dims );
            ]
        in
        if g.Grid.save then
          [
            Ast.If_block
              ( [
                  ( Ast.Unop
                      ( Ast.Not,
                        Ast.Desig
                          [ ("allocated", [ Ast.var g.Grid.name ]) ] ),
                    [ alloc ] );
                ],
                [] );
          ]
        else [ alloc ])
    (Func.local_grids f)

(** Initialization statements from grid [init] specs. *)
let init_stmts (f : Func.t) : Ast.stmt list =
  List.concat_map
    (fun (g : Grid.t) ->
      let name = g.Grid.name in
      match g.Grid.init with
      | Grid.No_init -> []
      | Grid.Zero_init ->
        if Grid.is_scalar g then
          [ Ast.Assign ([ (name, []) ], Ast.Real_lit (0.0, true)) ]
        else [ Ast.Assign ([ (name, []) ], Ast.Real_lit (0.0, true)) ]
      | Grid.Const_init x -> [ Ast.Assign ([ (name, []) ], Ast.Real_lit (x, true)) ]
      | Grid.Data_init xs ->
        List.mapi
          (fun i x ->
            Ast.Assign
              ( [ (name, [ Ast.Int_lit (i + 1) ]) ],
                Ast.Real_lit (x, true) ))
          xs)
    (Func.local_grids f)

(** {1 Functions} *)

let type_var_lookup (f : Func.t) name =
  match Func.find_grid f name with
  | Some { Grid.storage = Grid.Type_element (_, tv); _ } -> Some tv
  | _ -> None

let gen_function ?(opts = default_options) ~uses_globals (f : Func.t) :
    Ast.subprogram =
  let ctx = { opts; fname = f.Func.name; type_var_of = type_var_lookup f } in
  (* 1. USE statements (§3.1/§3.5) *)
  let uses = List.map (fun m -> Ast.Use (m, [])) (Func.used_modules f) in
  let uses =
    if uses_globals then uses @ [ Ast.Use (opts.globals_module, []) ] else uses
  in
  (* 2. argument declarations, in parameter order *)
  let arg_decls =
    List.concat_map
      (fun g -> grid_comment g @ decl_of_grid g)
      (Func.arg_grids f)
  in
  (* 3. local declarations; COMMON members are local declarations too *)
  let locals = Func.local_grids f in
  let local_decls =
    List.concat_map (fun g -> grid_comment g @ decl_of_grid g) locals
  in
  (* 4. COMMON statements, grouped per block (§3.2) *)
  let common_decls =
    List.map
      (fun (block, members) ->
        Ast.Common (block, List.map (fun (g : Grid.t) -> g.Grid.name) members))
      (Func.common_blocks f)
  in
  (* implicit loop indices used but never declared as grids *)
  let declared =
    List.map (fun (g : Grid.t) -> g.Grid.name) f.Func.grids
  in
  let body_stmts = Func.all_stmts f in
  let index_names =
    Stmt.fold_stmts
      (fun acc s ->
        match s with
        | Stmt.For l -> l.Stmt.index :: acc
        | _ -> acc)
      [] body_stmts
    |> List.sort_uniq String.compare
    |> List.filter (fun n -> not (List.mem n declared))
  in
  let index_decls =
    if index_names = [] then []
    else
      [
        Ast.Var_decl
          {
            base = Ast.Integer;
            attrs = [];
            entities =
              List.map
                (fun n ->
                  {
                    Ast.ent_name = n;
                    ent_dims = None;
                    ent_deferred = None;
                    ent_init = None;
                  })
                index_names;
          };
      ]
  in
  let body =
    allocation_prologue f @ init_stmts f
    @ List.concat_map
        (fun (st : Func.step) ->
          Ast.Comment ("step: " ^ st.Func.label) :: gen_stmts ctx st.Func.body)
        f.Func.steps
  in
  {
    Ast.sub_name = f.Func.name;
    sub_kind =
      (match f.Func.return with
      | None -> `Subroutine
      | Some t -> `Function (Some (base_of_elem t)));
    sub_args = f.Func.params;
    sub_decls =
      uses @ [ Ast.Implicit_none ] @ arg_decls @ local_decls @ index_decls
      @ common_decls;
    sub_body = body;
  }

(** {1 Whole programs} *)

let module_grid_decls grids =
  List.concat_map
    (fun g -> grid_comment g @ decl_of_grid ~module_level:true g)
    grids

(** Generate a compilation unit: one Fortran MODULE per IR module
    (module-scope grids in its specification part, functions under
    CONTAINS), preceded by a globals module when the Global Scope holds
    GLAF-declared grids. *)
let gen_program ?(opts = default_options) (p : Ir_module.program) :
    Ast.compilation_unit =
  let own_globals =
    List.filter
      (fun (g : Grid.t) -> not (Grid.externally_declared g))
      p.Ir_module.globals
  in
  let uses_globals = own_globals <> [] in
  let globals_unit =
    if uses_globals then
      [
        Ast.Module
          {
            Ast.mod_name = opts.globals_module;
            mod_decls = Ast.Implicit_none :: module_grid_decls own_globals;
            mod_contains = [];
          };
      ]
    else []
  in
  let gen_module (m : Ir_module.t) =
    Ast.Module
      {
        Ast.mod_name = m.Ir_module.name;
        mod_decls =
          (if uses_globals then [ Ast.Use (opts.globals_module, []) ] else [])
          @ [ Ast.Implicit_none ]
          @ module_grid_decls m.Ir_module.module_grids;
        mod_contains =
          List.map (gen_function ~opts ~uses_globals) m.Ir_module.functions;
      }
  in
  globals_unit @ List.map gen_module p.Ir_module.modules

(** Render directly to Fortran source text. *)
let to_source ?opts p = Pp_ast.to_string (gen_program ?opts p)
