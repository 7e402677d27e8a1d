(** The typed builder API: a programmatic stand-in for the paper's
    HTML5 graphical programming interface.

    Every GPI interaction (create a program, add a module, start a
    function, declare grids — including the §3 integration surface —
    open a step, append a formula) has one mutating entry point here.
    Program assembly is order-preserving: modules, functions, params,
    grids, steps and statements appear in the IR exactly in the order
    the corresponding actions were issued, just as the GPI records
    them.

    {!finish} closes the session and runs the structural validation
    the GPI would have enforced interactively ({!Glaf_ir.Validate});
    any violation raises {!Build_error}. *)

open Glaf_ir

exception Build_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Build_error s)) fmt

(* Accumulators are kept in reverse order and flipped in [finish]. *)

type step_b = {
  s_label : string;
  mutable s_stmts : Stmt.t list;
}

type func_b = {
  f_name : string;
  f_return : Types.elem_type option;
  mutable f_params : string list;
  mutable f_grids : Grid.t list;
  mutable f_steps : step_b list;
}

type module_b = {
  m_name : string;
  mutable m_grids : Grid.t list;
  mutable m_funcs : func_b list;
}

type t = {
  prog_name : string;
  mutable globals : Grid.t list;
  mutable modules : module_b list;
}

let create prog_name = { prog_name; globals = []; modules = [] }

let current_module b action =
  match b.modules with
  | m :: _ -> m
  | [] -> fail "%s: no module started (call add_module first)" action

let current_function b action =
  let m = current_module b action in
  match m.m_funcs with
  | f :: _ -> f
  | [] -> fail "%s: no function started (call start_function first)" action

let current_step b action =
  let f = current_function b action in
  match f.f_steps with
  | s :: _ -> s
  | [] -> fail "%s: no step started (call start_step first)" action

(** Add a grid to the program's Global Scope. *)
let add_global b (g : Grid.t) = b.globals <- g :: b.globals

let add_module b name =
  b.modules <- { m_name = name; m_grids = []; m_funcs = [] } :: b.modules

(** Declare a module-scope grid (§3.3) in the current module.  The
    grid's storage class is coerced to [Module_scope]. *)
let add_module_grid b (g : Grid.t) =
  let m = current_module b "add_module_grid" in
  m.m_grids <- { g with Grid.storage = Grid.Module_scope } :: m.m_grids

(** Start a function in the current module.  [?return] absent means a
    void return type, generated as a Fortran [SUBROUTINE] (§3.4). *)
let start_function b ?return name =
  let m = current_module b "start_function" in
  m.m_funcs <-
    { f_name = name; f_return = return; f_params = []; f_grids = []; f_steps = [] }
    :: m.m_funcs

(** Declare the next dummy argument of the current function.  The
    grid's storage class is coerced to [Arg] at the next free
    position, mirroring the GPI's ordered parameter list. *)
let add_param b (g : Grid.t) =
  let f = current_function b "add_param" in
  let g = { g with Grid.storage = Grid.Arg (List.length f.f_params) } in
  f.f_params <- g.Grid.name :: f.f_params;
  f.f_grids <- g :: f.f_grids

(** Declare a grid visible in the current function (any storage
    class: local, module-scope reference, external module, TYPE
    element, COMMON member). *)
let add_grid b (g : Grid.t) =
  let f = current_function b "add_grid" in
  f.f_grids <- g :: f.f_grids

(** Open a new step (the GPI's unit of editing) in the current
    function. *)
let start_step b label =
  let f = current_function b "start_step" in
  f.f_steps <- { s_label = label; s_stmts = [] } :: f.f_steps

(** Append a statement to the current step. *)
let add_stmt b stmt =
  let s = current_step b "add_stmt" in
  s.s_stmts <- stmt :: s.s_stmts

(** {1 Storage helpers for the §3 integration surface} *)

(** Re-home a grid into legacy module [module_name] (§3.1, emitted via
    [USE]); with [?type_var] it becomes an element of that existing
    [TYPE] variable instead (§3.5, referenced as [type_var%name]). *)
let grid_from_module ~module_name ?type_var (g : Grid.t) =
  let storage =
    match type_var with
    | Some v -> Grid.Type_element (module_name, v)
    | None -> Grid.External_module module_name
  in
  { g with Grid.storage }

(** Re-home a grid into COMMON block [block] (§3.2). *)
let grid_in_common ~block (g : Grid.t) =
  { g with Grid.storage = Grid.Common block }

(** {1 Assembly} *)

let assemble b : Ir_module.program =
  let build_step (s : step_b) = Func.step s.s_label (List.rev s.s_stmts) in
  let build_func (f : func_b) =
    Func.make ?return:f.f_return
      ~params:(List.rev f.f_params)
      ~grids:(List.rev f.f_grids)
      ~steps:(List.rev_map build_step f.f_steps)
      f.f_name
  in
  let build_module (m : module_b) =
    Ir_module.make
      ~module_grids:(List.rev m.m_grids)
      ~functions:(List.rev_map build_func m.m_funcs)
      m.m_name
  in
  Ir_module.program
    ~globals:(List.rev b.globals)
    ~modules:(List.rev_map build_module b.modules)
    b.prog_name

(** Close the building session: assemble the IR program and validate
    it structurally, raising {!Build_error} on any violation the GPI
    would have prevented interactively. *)
let finish b : Ir_module.program =
  let p = assemble b in
  match Validate.program p with
  | [] -> p
  | errors ->
    fail "invalid program %S: %s" b.prog_name
      (String.concat "; " (List.map Validate.error_to_string errors))
