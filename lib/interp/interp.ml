(** Interpreter for the Fortran subset, serial and parallel.

    This is the execution substrate standing in for gfortran/ifort +
    the OpenMP runtime in the paper's evaluation: it runs both the
    legacy kernels and the GLAF-generated code, honouring
    [!$OMP PARALLEL DO] (PRIVATE/FIRSTPRIVATE/REDUCTION/COLLAPSE/
    NUM_THREADS), [!$OMP ATOMIC] and [!$OMP CRITICAL] on OCaml domains.

    Semantics notes (documented simplifications):
    - COMMON blocks share storage by member {e name} within a block,
      not by byte offset; GLAF-generated and legacy code in this repo
      use consistent member names, which the integration checker
      verifies.
    - Whole-variable actual arguments alias the callee dummy (Fortran
      by-reference); array-element and expression actuals are
      copy-in/copy-out.
    - REAL is computed in double precision like REAL*8. *)

open Glaf_fortran
open Glaf_runtime

exception Fortran_error = Storage.Fortran_error

let error = Storage.error

(** {1 Storage}

    The representation lives in {!Storage} (shared with the bytecode
    compiler and VM); re-exported here so existing users of
    [Interp.entry] / [Interp.scope] keep working. *)

type entry = Storage.entry =
  | Scalar of Value.t
  | Array of Farray.t
  | Unalloc of Farray.elem * int  (** allocatable, not allocated: elem, rank *)
  | Struct of struct_obj
  | Struct_array of struct_obj array * (int * int) array

and slot = Storage.slot = {
  mutable entry : entry;
  base : Ast.base_type;
  is_param : bool;
}

and struct_obj = (string, slot) Hashtbl.t

type scope = Storage.scope = {
  vars : (string, slot) Hashtbl.t;
  used : scope list;  (** USEd module scopes, in USE order *)
  parent : scope option;  (** enclosing module scope *)
  implicit_none : bool;
}

type state = {
  cu : Ast.compilation_unit;
  subs : (string, Ast.subprogram * string option) Hashtbl.t;
      (** name -> subprogram, enclosing module *)
  module_scopes : (string, scope) Hashtbl.t;
  commons : (string, (string, slot) Hashtbl.t) Hashtbl.t;
  type_defs : (string, Ast.decl list) Hashtbl.t;
  saved : (string, slot) Hashtbl.t;  (** "sub.var" -> persistent slot *)
  alloc_count : int Atomic.t;
      (** ALLOCATE statements executed (reallocation study, Fig. 7) *)
  mutable printer : string -> unit;
  mutable default_threads : int;
  mutable default_sched : Sched.t;
      (** schedule used when a directive has no SCHEDULE clause *)
  mutable use_bytecode : bool;
      (** compile subprogram bodies and parallel-DO chunks (default);
          [false] forces the tree-walker everywhere ([--no-bytecode]) *)
  frames : (int * (int, Vm.cframe) Hashtbl.t) list Atomic.t;
      (** per domain id: reusable callee frames by frame-plan uid *)
  mutable callenv : Vm.callenv option;
      (** the VM's hooks into this state, built by the first bind
          ({!callenv}) and shared by every frame after it *)
}

let lookup = Storage.lookup
let implicit_base = Storage.implicit_base

(** {1 Control-flow exceptions} *)

exception Loop_exit = Storage.Loop_exit
exception Loop_cycle = Storage.Loop_cycle
exception Sub_return = Storage.Sub_return
exception Stop_program = Storage.Stop_program

(** {1 State construction} *)

let make_state ?(printer = print_string) (cu : Ast.compilation_unit) =
  let subs = Hashtbl.create 32 in
  let type_defs = Hashtbl.create 16 in
  List.iter
    (fun u ->
      match u with
      | Ast.Module m ->
        List.iter
          (fun sp ->
            Hashtbl.replace subs (String.lowercase_ascii sp.Ast.sub_name)
              (sp, Some m.Ast.mod_name))
          m.Ast.mod_contains;
        List.iter
          (function
            | Ast.Type_def { type_name; fields } ->
              Hashtbl.replace type_defs type_name fields
            | _ -> ())
          m.Ast.mod_decls
      | Ast.Standalone sp ->
        Hashtbl.replace subs (String.lowercase_ascii sp.Ast.sub_name) (sp, None)
      | Ast.Main _ -> ())
    cu;
  {
    cu;
    subs;
    module_scopes = Hashtbl.create 8;
    commons = Hashtbl.create 8;
    type_defs;
    saved = Hashtbl.create 16;
    alloc_count = Atomic.make 0;
    printer;
    default_threads = Omp.num_threads ();
    default_sched = Sched.default;
    use_bytecode = true;
    frames = Atomic.make [];
    callenv = None;
  }

let set_threads st n = st.default_threads <- max 1 n
let set_schedule st s = st.default_sched <- s
let set_bytecode st b = st.use_bytecode <- b

(** The compile-time environment handed to {!Bytecode}: namespaces the
    program cache and stats by compilation unit, exposes the
    subprogram table for call compilation, and lets the inliner peek
    at module scopes for shadowing checks.  Rebuilt per use (cheap:
    one record; [Bytecode.unit_key] is memoized on the AST). *)
let benv st : Bytecode.env =
  {
    Bytecode.e_unit = Bytecode.unit_key st.cu;
    e_subs = st.subs;
    e_module_scope = Hashtbl.find_opt st.module_scopes;
  }

(* This domain's reusable callee frames in [st].  Only the owning
   domain reads or writes its table; the list of tables grows by CAS. *)
let domain_frames st =
  let d = (Domain.self () :> int) in
  match List.assoc_opt d (Atomic.get st.frames) with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 16 in
    let rec add () =
      let cur = Atomic.get st.frames in
      if not (Atomic.compare_and_set st.frames cur ((d, t) :: cur)) then add ()
    in
    add ();
    t

let allocations st = Atomic.get st.alloc_count
let reset_allocations st = Atomic.set st.alloc_count 0

(** {1 Slot creation from declarations} *)

let elem_of_base = Farray.elem_of_base

let rec make_struct st type_name ~eval_dim : struct_obj =
  match Hashtbl.find_opt st.type_defs type_name with
  | None -> error "unknown derived type %s" type_name
  | Some fields ->
    let obj = Hashtbl.create 8 in
    List.iter
      (fun d ->
        match d with
        | Ast.Var_decl { base; attrs; entities } ->
          List.iter
            (fun (e : Ast.entity) ->
              let slot = make_slot st base attrs e ~eval_dim in
              Hashtbl.replace obj e.Ast.ent_name slot)
            entities
        | _ -> ())
      fields;
    obj

and make_slot st base attrs (e : Ast.entity) ~eval_dim =
  let dims =
    match e.Ast.ent_dims with
    | Some d -> Some d
    | None ->
      List.find_map
        (function Ast.Dimension d -> Some d | _ -> None)
        attrs
  in
  let allocatable = List.mem Ast.Allocatable attrs in
  let is_param = List.mem Ast.Parameter attrs in
  let deferred =
    match e.Ast.ent_deferred with
    | Some r -> Some r
    | None ->
      if allocatable then Option.map List.length dims else None
  in
  let entry =
    match base with
    | Ast.Derived tname -> (
      match dims with
      | None -> Struct (make_struct st tname ~eval_dim)
      | Some ds ->
        let bounds =
          Array.of_list
            (List.map
               (fun (lo, hi) ->
                 let lo = match lo with Some l -> eval_dim l | None -> 1 in
                 (lo, eval_dim hi))
               ds)
        in
        let n =
          Array.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 bounds
        in
        Struct_array (Array.init n (fun _ -> make_struct st tname ~eval_dim), bounds))
    | _ -> (
      let elem = elem_of_base base in
      match (deferred, dims) with
      | Some rank, _ when allocatable || e.Ast.ent_deferred <> None ->
        Unalloc (elem, rank)
      | _, None -> Scalar (Value.zero_of base)
      | _, Some ds ->
        let bounds =
          Array.of_list
            (List.map
               (fun (lo, hi) ->
                 let lo = match lo with Some l -> eval_dim l | None -> 1 in
                 (lo, eval_dim hi))
               ds)
        in
        Array (Farray.create elem bounds))
  in
  { entry; base; is_param }

(** {1 Expression evaluation} *)

let reduction_identity op (base : Ast.base_type) =
  match (op, base) with
  | Ast.Osum, Ast.Integer -> Value.Int 0
  | Ast.Osum, _ -> Value.Real 0.0
  | Ast.Oprod, Ast.Integer -> Value.Int 1
  | Ast.Oprod, _ -> Value.Real 1.0
  | Ast.Omax, Ast.Integer -> Value.Int min_int
  | Ast.Omax, _ -> Value.Real Float.neg_infinity
  | Ast.Omin, Ast.Integer -> Value.Int max_int
  | Ast.Omin, _ -> Value.Real Float.infinity

let combine_reduction op a b =
  match op with
  | Ast.Osum -> Value.add a b
  | Ast.Oprod -> Value.mul a b
  | Ast.Omax -> if Value.lt a b then b else a
  | Ast.Omin -> if Value.lt b a then b else a

let rec eval st scope (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int_lit n -> Value.Int n
  | Ast.Real_lit (x, _) -> Value.Real x
  | Ast.Logical_lit b -> Value.Bool b
  | Ast.Str_lit s -> Value.Str s
  | Ast.Unop (Ast.Neg, a) -> Value.neg (eval st scope a)
  | Ast.Unop (Ast.Pos, a) -> eval st scope a
  | Ast.Unop (Ast.Not, a) -> Value.Bool (not (Value.to_bool (eval st scope a)))
  | Ast.Binop (op, a, b) -> eval_binop st scope op a b
  | Ast.Desig parts -> eval_desig st scope parts
  | Ast.Implied_do (body, v, lo, hi) ->
    let lo = Value.to_int (eval st scope lo)
    and hi = Value.to_int (eval st scope hi) in
    let slot = { entry = Scalar (Value.Int lo); base = Ast.Integer; is_param = false } in
    Hashtbl.replace scope.vars v slot;
    let vals =
      List.init
        (max 0 (hi - lo + 1))
        (fun i ->
          slot.entry <- Scalar (Value.Int (lo + i));
          Value.to_float (eval st scope body))
    in
    Hashtbl.remove scope.vars v;
    Value.Arr (Farray.of_float_list vals)
  | Ast.Section _ -> error "array section outside a subscript position"

and eval_binop st scope op a b =
  match op with
  | Ast.And ->
    Value.Bool
      (Value.to_bool (eval st scope a) && Value.to_bool (eval st scope b))
  | Ast.Or ->
    Value.Bool
      (Value.to_bool (eval st scope a) || Value.to_bool (eval st scope b))
  | Ast.Eqv ->
    Value.Bool
      (Value.to_bool (eval st scope a) = Value.to_bool (eval st scope b))
  | Ast.Neqv ->
    Value.Bool
      (Value.to_bool (eval st scope a) <> Value.to_bool (eval st scope b))
  | _ -> (
    let va = eval st scope a and vb = eval st scope b in
    match op with
    | Ast.Add -> Value.add va vb
    | Ast.Sub -> Value.sub va vb
    | Ast.Mul -> Value.mul va vb
    | Ast.Div -> Value.div va vb
    | Ast.Pow -> Value.pow va vb
    | Ast.Concat -> (
      match (va, vb) with
      | Value.Str x, Value.Str y -> Value.Str (x ^ y)
      | _ -> error "// expects character operands")
    | Ast.Eq -> Value.Bool (Value.eq va vb)
    | Ast.Ne -> Value.Bool (not (Value.eq va vb))
    | Ast.Lt -> Value.Bool (Value.lt va vb)
    | Ast.Le -> Value.Bool (Value.le va vb)
    | Ast.Gt -> Value.Bool (Value.lt vb va)
    | Ast.Ge -> Value.Bool (Value.le vb va)
    | Ast.And | Ast.Or | Ast.Eqv | Ast.Neqv -> assert false)

and eval_subscripts st scope args =
  (* returns either plain indices or a single rank-1 slice *)
  let has_section =
    List.exists (function Ast.Section _ -> true | _ -> false) args
  in
  if has_section then `Section args
  else `Indices (Array.of_list (List.map (fun a -> Value.to_int (eval st scope a)) args))

and eval_desig st scope (parts : Ast.designator) : Value.t =
  match parts with
  | [] -> error "empty designator"
  | (name, args) :: rest -> (
    match lookup scope name with
    | Some slot -> eval_slot_access st scope slot name args rest
    | None -> (
      (* allocated() needs slot-level access *)
      if name = "allocated" then
        match args with
        | [ Ast.Desig [ (vname, []) ] ] -> (
          match lookup scope vname with
          | Some slot -> Value.Bool (Storage.allocated slot vname)
          | None -> error "allocated() of unknown variable %s" vname)
        | _ -> error "allocated() expects one variable"
      else
        let vals = List.map (eval_arg_value st scope) args in
        match Intrinsics.apply name vals with
        | Some v -> v
        | None -> (
          match Hashtbl.find_opt st.subs name with
          | Some _ -> (
            if rest <> [] then error "function result has no parts";
            match call_subprogram st name args ~caller_scope:scope with
            | Some v -> v
            | None -> error "subroutine %s used as a function" name)
          | None ->
            error "unknown name %S (not a variable, intrinsic or function)"
              name)))

and eval_arg_value st scope (a : Ast.expr) : Value.t =
  match a with
  | Ast.Section _ -> error "stray section argument"
  | _ -> eval st scope a

and eval_slot_access st scope slot name args rest : Value.t =
  match (slot.entry, args, rest) with
  | Scalar v, [], [] -> v
  | Scalar _, _ :: _, _ -> error "%s is scalar but was subscripted" name
  | Scalar _, [], _ :: _ -> error "%s is scalar and has no parts" name
  | Array a, [], [] -> Value.Arr a
  | Array a, _ :: _, [] -> (
    match eval_subscripts st scope args with
    | `Indices idx -> Value.of_cell (Farray.get a idx)
    | `Section [ Ast.Section (lo, hi) ] ->
      let blo, bhi = a.Farray.bounds.(0) in
      let lo = match lo with Some e -> Value.to_int (eval st scope e) | None -> blo in
      let hi = match hi with Some e -> Value.to_int (eval st scope e) | None -> bhi in
      Value.Arr (Farray.slice1 a lo hi)
    | `Section _ -> error "only rank-1 sections are supported (%s)" name)
  | Array _, _, _ :: _ -> error "array element of %s has no parts" name
  | Unalloc _, _, _ -> error "%s used before allocation" name
  | Struct obj, [], (fname, fargs) :: frest ->
    let fslot =
      match Hashtbl.find_opt obj fname with
      | Some s -> s
      | None -> error "%s has no component %s" name fname
    in
    eval_slot_access st scope fslot (name ^ "%" ^ fname) fargs frest
  | Struct _, _, _ -> error "bad access to derived-type variable %s" name
  | Struct_array (objs, bounds), _ :: _, (fname, fargs) :: frest -> (
    match eval_subscripts st scope args with
    | `Indices idx ->
      let off = Farray.offset { Farray.elem = Farray.Eint; bounds; data = Farray.I [||] } idx in
      let obj = objs.(off) in
      let fslot =
        match Hashtbl.find_opt obj fname with
        | Some s -> s
        | None -> error "%s has no component %s" name fname
      in
      eval_slot_access st scope fslot (name ^ "%" ^ fname) fargs frest
    | `Section _ -> error "sections of derived-type arrays unsupported")
  | Struct_array _, _, _ -> error "derived-type array %s needs subscripts and a component" name

(** {1 Lvalue resolution} *)

and resolve_lvalue st scope (parts : Ast.designator) :
    [ `Slot of slot | `Elem of Farray.t * int array ] =
  match parts with
  | [] -> error "empty lvalue"
  | (name, args) :: rest -> (
    match lookup scope name with
    | None ->
      if scope.implicit_none then error "assignment to undeclared %s" name
      else begin
        (* implicit declaration on first assignment *)
        if args <> [] || rest <> [] then
          error "undeclared %s used with subscripts" name;
        let base = implicit_base name in
        let slot = { entry = Scalar (Value.zero_of base); base; is_param = false } in
        Hashtbl.replace scope.vars name slot;
        `Slot slot
      end
    | Some slot -> resolve_slot_lvalue st scope slot name args rest)

and resolve_slot_lvalue st scope slot name args rest =
  match (slot.entry, args, rest) with
  | (Scalar _ | Unalloc _), [], [] -> `Slot slot
  | Array a, _ :: _, [] -> (
    match eval_subscripts st scope args with
    | `Indices idx -> `Elem (a, idx)
    | `Section _ -> error "section assignment unsupported (%s)" name)
  | Array _, [], [] -> `Slot slot
  | Struct obj, [], (fname, fargs) :: frest ->
    let fslot =
      match Hashtbl.find_opt obj fname with
      | Some s -> s
      | None -> error "%s has no component %s" name fname
    in
    resolve_slot_lvalue st scope fslot (name ^ "%" ^ fname) fargs frest
  | Struct_array (objs, bounds), _ :: _, (fname, fargs) :: frest -> (
    match eval_subscripts st scope args with
    | `Indices idx ->
      let off = Farray.offset { Farray.elem = Farray.Eint; bounds; data = Farray.I [||] } idx in
      let obj = objs.(off) in
      let fslot =
        match Hashtbl.find_opt obj fname with
        | Some s -> s
        | None -> error "%s has no component %s" name fname
      in
      resolve_slot_lvalue st scope fslot (name ^ "%" ^ fname) fargs frest
    | `Section _ -> error "sections of derived-type arrays unsupported")
  | _ -> error "cannot assign to %s this way" name

and assign_lvalue slot_or_elem base v =
  match slot_or_elem with
  | `Slot slot -> (
    match slot.entry with
    | Scalar _ -> slot.entry <- Scalar (Value.coerce slot.base v)
    | Array a -> (
      (* whole-array assignment: scalar broadcast or array copy *)
      match v with
      | Value.Arr src when Farray.size src = Farray.size a ->
        let n = Farray.size a in
        for i = 0 to n - 1 do
          Farray.set_linear a i (Farray.get_linear src i)
        done
      | Value.Arr _ -> error "shape mismatch in whole-array assignment"
      | v -> Farray.fill a (Value.to_cell v))
    | Unalloc _ -> error "assignment to unallocated array"
    | Struct _ | Struct_array _ -> error "whole-structure assignment unsupported")
  | `Elem (a, idx) ->
    ignore base;
    Farray.set a idx (Value.to_cell v)

(** {1 Subprogram calls} *)

(* Evaluate an actual argument into a binding for the callee. *)
and bind_actual st scope (a : Ast.expr) :
    [ `Alias of slot | `Copy of Value.t * (Value.t -> unit) option ] =
  match a with
  | Ast.Desig [ (name, []) ] -> (
    match lookup scope name with
    | Some slot -> `Alias slot
    | None ->
      if scope.implicit_none then error "unknown argument %s" name
      else begin
        let base = implicit_base name in
        let slot = { entry = Scalar (Value.zero_of base); base; is_param = false } in
        Hashtbl.replace scope.vars name slot;
        `Alias slot
      end)
  | Ast.Desig parts -> (
    (* array element / struct component: copy-in/copy-out when it
       resolves to an lvalue; plain value when it is a function call *)
    match resolve_lvalue st scope parts with
    | lv ->
      let v = eval_desig st scope parts in
      let writeback v' =
        match lv with
        | `Slot slot -> assign_lvalue (`Slot slot) slot.base v'
        | `Elem _ -> assign_lvalue lv Ast.Real8 v'
      in
      `Copy (v, Some writeback)
    | exception Fortran_error _ ->
      `Copy (eval st scope a, None))
  | _ -> `Copy (eval st scope a, None)

and call_subprogram st name (actuals : Ast.expr list) ~caller_scope :
    Value.t option =
  let sp, mod_name =
    match Hashtbl.find_opt st.subs (String.lowercase_ascii name) with
    | Some x -> x
    | None -> error "call to unknown subprogram %s" name
  in
  if List.length actuals <> List.length sp.Ast.sub_args then
    error "%s called with %d arguments, expects %d" name (List.length actuals)
      (List.length sp.Ast.sub_args);
  let bindings = List.map (bind_actual st caller_scope) actuals in
  call_with_bindings st sp mod_name name bindings

(* The shared call tail: scope setup, body execution, copy-out and
   result extraction.  Reached from the tree-walker (via
   [call_subprogram], which evaluates actuals with [bind_actual]) and
   from a compiled call site [cs] whose callee has no reusable frame
   yet or whose frame refused the call (via [callenv]'s [ce_call]) — both
   paths MUST run this exact sequence or compiled and tree-walked calls
   diverge.  A compiled call that finishes here leaves its bound frame
   behind for the next call through the same plan on this domain. *)
and call_with_bindings ?cs st (sp : Ast.subprogram) mod_name name
    (bindings : Storage.arg_binding list) : Value.t option =
  let scope = setup_scope st sp mod_name bindings in
  let ran = run_sub_body ?cs st sp scope in
  (* copy-out *)
  List.iter2
    (fun dummy binding ->
      match binding with
      | `Copy (_, Some writeback) -> (
        match Hashtbl.find_opt scope.vars dummy with
        | Some { entry = Scalar v; _ } -> writeback v
        | _ -> ())
      | `Copy (_, None) | `Alias _ -> ())
    sp.Ast.sub_args bindings;
  let result =
    match sp.Ast.sub_kind with
    | `Subroutine -> None
    | `Function _ -> (
      match Hashtbl.find_opt scope.vars sp.Ast.sub_name with
      | Some { entry = Scalar v; _ } -> Some v
      | _ -> error "function %s did not set its result" name)
  in
  (match (cs, ran) with
  | Some { Bytecode.cs_plan = Bytecode.Plan plan; _ }, Some (p, fr)
    when p == plan.Bytecode.fp_prog ->
    let frames = domain_frames st in
    if not (Hashtbl.mem frames plan.Bytecode.fp_uid) then
      Option.iter
        (Hashtbl.replace frames plan.Bytecode.fp_uid)
        (Vm.make_cframe plan fr)
  | _ -> ());
  result

(* Execute a subprogram body: compiled once per subprogram (digest
   cached) when bytecode is on, re-bound against each call's scope;
   any compile bail or bind mismatch tree-walks this call only.
   Returns the program and frame it ran compiled in, if it did.  A
   compiled call site [cs] records its callee's frame plan on its first
   call and skips the compile lookups after that. *)
and run_sub_body ?cs st (sp : Ast.subprogram) scope :
    (Bytecode.program * Vm.frame) option =
  let tree_walk () =
    (try exec_stmts st scope sp.Ast.sub_body with Sub_return -> ());
    None
  in
  if not st.use_bytecode then tree_walk ()
  else begin
    let compiled =
      match cs with
      | Some { Bytecode.cs_plan = Bytecode.Plan plan; _ } ->
        (Some plan.Bytecode.fp_prog, Bytecode.plan_site plan)
      | _ ->
        let env = benv st in
        let p, site = Bytecode.compile_sub env ~scope sp in
        (match cs with
        | Some ({ Bytecode.cs_plan = Bytecode.Plan_unknown; _ } as cs) ->
          cs.Bytecode.cs_plan <-
            (match Option.bind p (fun p -> Bytecode.frame_plan env sp p site) with
            | Some plan -> Bytecode.Plan plan
            | None -> Bytecode.Plan_none)
        | _ -> ());
        (p, site)
    in
    match bind_compiled st compiled scope with
    | Some fr ->
      ignore (Vm.texec fr);
      Option.map (fun p -> (p, fr)) (fst compiled)
    | None -> tree_walk ()
  end

(* Bind a compiled program (or a compile bail) to [scope], counting
   the run, typed or boxed, or the bail against its stats site; [None]
   tree-walks. *)
and bind_compiled st ((p, site) : Bytecode.program option * Bytecode.Stats.site) scope =
  match Option.bind p (fun p -> Vm.bind p scope ~printer:st.printer ~env:(callenv st)) with
  | Some fr ->
    Vm.count_run site fr;
    Some fr
  | None ->
    Bytecode.Stats.bail site;
    None

(* The VM's view of the interpreter: a compiled call runs in this
   domain's reusable frame for the callee ([call_site_frame]) when it
   takes the call, otherwise down the scope path with marshalled
   bindings (arity was checked at compile time), which leaves a frame
   behind; [Iallocate] counts into the state's counter; a parallel DO
   enters its region here, as the tree-walker does.  Built once per
   state; two domains that race to build it make equal records, and
   either may stay. *)
and callenv st : Vm.callenv =
  match st.callenv with
  | Some env -> env
  | None ->
    let env =
      {
        Vm.ce_call =
          (fun cs bindings ->
            call_with_bindings ~cs st cs.Bytecode.cs_sub cs.Bytecode.cs_mod
              cs.Bytecode.cs_name bindings);
        ce_frame = call_site_frame st;
        ce_allocs = st.alloc_count;
        ce_omp_do = (fun scope l -> exec_do_parallel st scope l (Option.get l.Ast.do_omp));
      }
    in
    st.callenv <- Some env;
    env

(* This domain's reusable frame for the callee of [cs], if a call left
   one behind.  The VM caches the answer per call site in the calling
   frame, so this runs once per site and frame, not once per call. *)
and call_site_frame st (cs : Bytecode.call_site) =
  let plan =
    match cs.Bytecode.cs_plan with
    | Bytecode.Plan_unknown ->
      let known = Bytecode.known_plan (benv st) cs.Bytecode.cs_sub in
      cs.Bytecode.cs_plan <- known;
      known
    | known -> known
  in
  match plan with
  | Bytecode.Plan plan -> Hashtbl.find_opt (domain_frames st) plan.Bytecode.fp_uid
  | Bytecode.Plan_unknown | Bytecode.Plan_none -> None

and init_module st mod_name : scope =
  match Hashtbl.find_opt st.module_scopes mod_name with
  | Some s -> s
  | None -> (
    match Ast.find_module st.cu mod_name with
    | None -> error "USE of unknown module %s" mod_name
    | Some m ->
      (* initialize USEd modules first so their names resolve while
         evaluating this module's declarations *)
      let used =
        List.filter_map
          (function Ast.Use (other, _) -> Some (init_module st other) | _ -> None)
          m.Ast.mod_decls
      in
      let scope =
        {
          vars = Hashtbl.create 16;
          used;
          parent = None;
          implicit_none = true;
        }
      in
      (* register first to allow self-reference in contained subs *)
      Hashtbl.replace st.module_scopes mod_name scope;
      let eval_dim expr = Value.to_int (eval st scope expr) in
      List.iter
        (fun d ->
          match d with
          | Ast.Type_def { type_name; fields } ->
            Hashtbl.replace st.type_defs type_name fields
          | Ast.Var_decl { base; attrs; entities } ->
            List.iter
              (fun (e : Ast.entity) ->
                let slot = make_slot st base attrs e ~eval_dim in
                (match e.Ast.ent_init with
                | Some ie ->
                  let v = eval st scope ie in
                  slot.entry <- Scalar (Value.coerce base v)
                | None -> ());
                Hashtbl.replace scope.vars e.Ast.ent_name slot)
              entities
          | Ast.Use (other, _) ->
            ignore (init_module st other)
          | Ast.Common (block, names) ->
            bind_common st scope block names
          | Ast.Implicit_none | Ast.External _ | Ast.Decl_comment _ -> ())
        m.Ast.mod_decls;
      scope)

and bind_common st scope block names =
  let tbl =
    match Hashtbl.find_opt st.commons block with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace st.commons block t;
      t
  in
  (* Bind names now if the shared slot exists; otherwise record intent
     by binding lazily after declarations are processed (handled by the
     second pass in setup_scope / init_module callers). *)
  List.iter
    (fun n ->
      match Hashtbl.find_opt tbl n with
      | Some slot -> Hashtbl.replace scope.vars n slot
      | None -> ())
    names

and setup_scope st (sp : Ast.subprogram) mod_name bindings : scope =
  let parent = Option.map (init_module st) mod_name in
  let implicit_none =
    List.exists (fun d -> d = Ast.Implicit_none) sp.Ast.sub_decls
    || parent <> None
  in
  let used =
    List.filter_map
      (function Ast.Use (m, _) -> Some (init_module st m) | _ -> None)
      sp.Ast.sub_decls
  in
  let scope = { vars = Hashtbl.create 16; used; parent; implicit_none } in
  (* type defs local to the subprogram *)
  List.iter
    (function
      | Ast.Type_def { type_name; fields } ->
        Hashtbl.replace st.type_defs type_name fields
      | _ -> ())
    sp.Ast.sub_decls;
  (* bind arguments *)
  List.iter2
    (fun dummy binding ->
      match binding with
      | `Alias slot -> Hashtbl.replace scope.vars dummy slot
      | `Copy (v, _) -> Hashtbl.replace scope.vars dummy (Storage.copy_in_slot v))
    sp.Ast.sub_args bindings;
  (* COMMON membership: block per member name *)
  let common_of = Hashtbl.create 8 in
  List.iter
    (function
      | Ast.Common (block, names) ->
        List.iter (fun n -> Hashtbl.replace common_of n block) names
      | _ -> ())
    sp.Ast.sub_decls;
  let eval_dim expr = Value.to_int (eval st scope expr) in
  (* declarations in order *)
  List.iter
    (fun d ->
      match d with
      | Ast.Var_decl { base; attrs; entities } ->
        List.iter
          (fun (e : Ast.entity) ->
            let name = e.Ast.ent_name in
            if Hashtbl.mem scope.vars name then begin
              (* dummy argument redeclaration: adjust scalar numeric
                 type if needed (e.g. integer dummy bound) *)
              match (Hashtbl.find scope.vars name).entry with
              | Scalar v ->
                let slot = Hashtbl.find scope.vars name in
                if Value.is_int v && (base = Ast.Real || base = Ast.Real8)
                then slot.entry <- Scalar (Value.Real (Value.to_float v))
              | _ -> ()
            end
            else begin
              match Hashtbl.find_opt common_of name with
              | Some block ->
                let tbl = Hashtbl.find_opt st.commons block in
                let tbl =
                  match tbl with
                  | Some t -> t
                  | None ->
                    let t = Hashtbl.create 8 in
                    Hashtbl.replace st.commons block t;
                    t
                in
                let slot =
                  match Hashtbl.find_opt tbl name with
                  | Some s -> s
                  | None ->
                    let s = make_slot st base attrs e ~eval_dim in
                    Hashtbl.replace tbl name s;
                    s
                in
                Hashtbl.replace scope.vars name slot
              | None ->
                if List.mem Ast.Save attrs then begin
                  (* SAVE storage is per-domain (OpenMP THREADPRIVATE
                     semantics): each worker thread re-uses its own
                     instance, which is what the paper's SAVE +
                     threadprivate tweak achieves in FUN3D *)
                  let key =
                    Printf.sprintf "%s.%s#%d"
                      (String.lowercase_ascii sp.Ast.sub_name)
                      name
                      (Domain.self () :> int)
                  in
                  let slot =
                    Omp.critical (fun () ->
                        match Hashtbl.find_opt st.saved key with
                        | Some s -> s
                        | None ->
                          let s = make_slot st base attrs e ~eval_dim in
                          (match e.Ast.ent_init with
                          | Some ie ->
                            s.entry <-
                              Scalar (Value.coerce base (eval st scope ie))
                          | None -> ());
                          Hashtbl.replace st.saved key s;
                          s)
                  in
                  Hashtbl.replace scope.vars name slot
                end
                else begin
                  let slot = make_slot st base attrs e ~eval_dim in
                  (match e.Ast.ent_init with
                  | Some ie ->
                    slot.entry <- Scalar (Value.coerce base (eval st scope ie))
                  | None -> ());
                  Hashtbl.replace scope.vars name slot
                end
            end)
          entities
      | Ast.Common _ | Ast.Use _ | Ast.Implicit_none | Ast.Type_def _
      | Ast.External _ | Ast.Decl_comment _ ->
        ())
    sp.Ast.sub_decls;
  (* function result slot *)
  (match sp.Ast.sub_kind with
  | `Function rt ->
    if not (Hashtbl.mem scope.vars sp.Ast.sub_name) then begin
      let base = Option.value rt ~default:Ast.Real8 in
      Hashtbl.replace scope.vars sp.Ast.sub_name
        { entry = Scalar (Value.zero_of base); base; is_param = false }
    end
  | `Subroutine -> ());
  scope

(** {1 Statement execution} *)

and exec_stmts st scope stmts = List.iter (exec_stmt st scope) stmts

and exec_stmt st scope (s : Ast.stmt) =
  match s with
  | Ast.Assign (d, e) ->
    let v = eval st scope e in
    let lv = resolve_lvalue st scope d in
    let base = match lv with `Slot slot -> slot.base | `Elem _ -> Ast.Real8 in
    assign_lvalue lv base v
  | Ast.If_arith (c, s) ->
    if Value.to_bool (eval st scope c) then exec_stmt st scope s
  | Ast.If_block (branches, else_) ->
    let rec go = function
      | [] -> exec_stmts st scope else_
      | (c, body) :: rest ->
        if Value.to_bool (eval st scope c) then exec_stmts st scope body
        else go rest
    in
    go branches
  | Ast.Do l -> (
    match l.Ast.do_omp with
    | None -> exec_do_serial st scope l
    | Some d -> exec_do_parallel st scope l d)
  | Ast.Do_while (c, body) ->
    let tick = ref 0 in
    (try
       while Value.to_bool (eval st scope c) do
         incr tick;
         if !tick land 255 = 0 then Fault.check_current ();
         try exec_stmts st scope body with Loop_cycle -> ()
       done
     with Loop_exit -> ())
  | Ast.Call (name, args) -> (
    match Hashtbl.find_opt st.subs (String.lowercase_ascii name) with
    | Some _ -> ignore (call_subprogram st name args ~caller_scope:scope)
    | None -> error "CALL to unknown subroutine %s" name)
  | Ast.Return -> raise Sub_return
  | Ast.Exit -> raise Loop_exit
  | Ast.Cycle -> raise Loop_cycle
  | Ast.Continue -> ()
  | Ast.Stop msg -> raise (Stop_program msg)
  | Ast.Allocate allocs ->
    List.iter
      (fun (d, exprs) ->
        let name = Ast.desig_name d in
        match lookup scope name with
        | None -> error "ALLOCATE of unknown variable %s" name
        | Some slot ->
          let bounds =
            Array.of_list
              (List.map
                 (fun e ->
                   match e with
                   | Ast.Section (Some lo, Some hi) ->
                     ( Value.to_int (eval st scope lo),
                       Value.to_int (eval st scope hi) )
                   | e -> (1, Value.to_int (eval st scope e)))
                 exprs)
          in
          Storage.allocate slot name bounds ~count:st.alloc_count)
      allocs
  | Ast.Deallocate ds ->
    List.iter
      (fun d ->
        let name = Ast.desig_name d in
        match lookup scope name with
        | Some slot -> Storage.deallocate slot name
        | None -> error "DEALLOCATE of unknown variable %s" name)
      ds
  | Ast.Print args ->
    let parts = List.map (fun e -> Value.to_string (eval st scope e)) args in
    st.printer (String.concat " " parts ^ "\n")
  | Ast.Omp_atomic s -> Omp.atomic_update (fun () -> exec_stmt st scope s)
  | Ast.Omp_critical body -> Omp.critical (fun () -> exec_stmts st scope body)
  | Ast.Omp_barrier -> ()  (* fork-join model: chunks join at loop end *)
  | Ast.Comment _ -> ()

and exec_do_serial st scope (l : Ast.do_loop) =
  let lo = Value.to_int (eval st scope l.Ast.do_lo)
  and hi = Value.to_int (eval st scope l.Ast.do_hi)
  and step =
    match l.Ast.do_step with
    | Some e -> Value.to_int (eval st scope e)
    | None -> 1
  in
  if step = 0 then error "DO loop with zero step";
  let slot =
    match lookup scope l.Ast.do_var with
    | Some s -> s
    | None ->
      if scope.implicit_none then error "undeclared DO variable %s" l.Ast.do_var
      else begin
        let s = { entry = Scalar (Value.Int 0); base = Ast.Integer; is_param = false } in
        Hashtbl.replace scope.vars l.Ast.do_var s;
        s
      end
  in
  let continue_ i = if step > 0 then i <= hi else i >= hi in
  (* Cooperative cancellation: poll the ambient deadline token every
     256 iterations so a runaway serial loop honours --timeout-ms
     (parallel loops poll at pool chunk boundaries and below). *)
  let tick = ref 0 in
  try
    let i = ref lo in
    while continue_ !i do
      incr tick;
      if !tick land 255 = 0 then Fault.check_current ();
      slot.entry <- Scalar (Value.Int !i);
      (try exec_stmts st scope l.Ast.do_body with Loop_cycle -> ());
      i := !i + step
    done;
    (* normal completion only: after EXIT the DO variable retains
       its value at the point of EXIT (F2018 8.1.6.6) *)
    slot.entry <-
      Scalar (Value.Int (lo + (step * max 0 ((hi - lo + step) / step))))
  with Loop_exit -> ()

(* Clone a scope for one worker thread: same slot objects (shared),
   except names listed private/firstprivate/reduction and the loop
   variables, which get fresh slots. *)
and clone_scope_for_thread scope ~fresh =
  let vars = Hashtbl.copy scope.vars in
  List.iter (fun (name, slot) -> Hashtbl.replace vars name slot) fresh;
  { scope with vars }

and private_copy_of_slot st scope name =
  match lookup scope name with
  | None ->
    (* e.g. an inner loop index not declared: implicit integer *)
    { entry = Scalar (Value.Int 0); base = implicit_base name; is_param = false }
  | Some slot ->
    let entry =
      match slot.entry with
      | Scalar v -> Scalar (Value.coerce slot.base v |> fun _ -> Value.zero_of slot.base)
      | Array a -> Array (Farray.create a.Farray.elem a.Farray.bounds)
      | Unalloc (e, r) -> Unalloc (e, r)
      | Struct _ | Struct_array _ ->
        error "PRIVATE derived-type variables unsupported (%s)" name
    in
    ignore st;
    { entry; base = slot.base; is_param = false }

and firstprivate_copy_of_slot scope name =
  match lookup scope name with
  | None -> error "FIRSTPRIVATE of unknown variable %s" name
  | Some slot ->
    let entry =
      match slot.entry with
      | Scalar v -> Scalar v
      | Array a -> Array (Farray.copy a)
      | e -> e
    in
    { entry; base = slot.base; is_param = false }

and exec_do_parallel st scope (l : Ast.do_loop) (d : Ast.omp_do) =
  let lo = Value.to_int (eval st scope l.Ast.do_lo)
  and hi = Value.to_int (eval st scope l.Ast.do_hi) in
  (match l.Ast.do_step with
  | Some (Ast.Int_lit 1) | None -> ()
  | Some _ -> error "parallel DO requires unit step");
  (* a team of one inside another region's body, so a nested loop
     takes the [serial_team] path below *)
  let threads =
    Pool.team_size
      (match d.Ast.omp_num_threads with
      | Some e -> Value.to_int (eval st scope e)
      | None -> st.default_threads)
  in
  let sched =
    match d.Ast.omp_schedule with
    | Some Ast.Static -> Sched.Static
    | Some (Ast.Static_chunk k) -> Sched.Static_chunked k
    | Some (Ast.Dynamic k) -> Sched.Dynamic k
    | Some (Ast.Guided k) -> Sched.Guided k
    | None -> st.default_sched
  in
  (* collapse(2): fuse with the unique inner loop *)
  let collapse2 =
    if d.Ast.omp_collapse >= 2 then begin
      match l.Ast.do_body with
      | [ Ast.Do inner ] when inner.Ast.do_omp = None ->
        (* the linearization below strides the inner space by 1, so a
           non-unit inner step would silently compute wrong indices;
           reject it like the outer-step check above *)
        (match inner.Ast.do_step with
        | Some (Ast.Int_lit 1) | None -> ()
        | Some _ -> error "COLLAPSE(2) requires a unit-step inner DO");
        Some inner
      | _ -> error "COLLAPSE(2) requires a singly-nested inner DO"
    end
    else None
  in
  (* One reduction accumulator per *thread*, reused across every chunk
     that thread executes, so each thread folds its iterations in
     execution order.  With a single thread the accumulator is seeded
     from the shared variable's current value and written back verbatim
     at the end, which makes an annotated loop bit-identical to its
     serial execution under every schedule — the property the lift
     verifier relies on.  A loop nested inside another region's body
     always runs here with one thread ({!Pool.team_size}), so nesting
     never changes a result either. *)
  let serial_team = threads <= 1 in
  let red_by_thread : (int, (string * slot) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let reduction_slots_for t =
    if d.Ast.omp_reduction = [] then []
    else
      Omp.critical (fun () ->
          match Hashtbl.find_opt red_by_thread t with
          | Some red -> red
          | None ->
            let red =
              List.concat_map
                (fun (op, names) ->
                  List.map
                    (fun n ->
                      let base, seed =
                        match lookup scope n with
                        | Some { entry = Scalar v; base; _ } when serial_team
                          ->
                          (base, v)
                        | Some s -> (s.base, reduction_identity op s.base)
                        | None ->
                          let base = implicit_base n in
                          (base, reduction_identity op base)
                      in
                      (n, { entry = Scalar seed; base; is_param = false }))
                    names)
                d.Ast.omp_reduction
            in
            Hashtbl.add red_by_thread t red;
            red)
  in
  let run_chunk body_of_thread t clo chi =
    let fresh =
      (* loop variable(s) always private *)
      let loop_vars =
        l.Ast.do_var
        :: (match collapse2 with Some i -> [ i.Ast.do_var ] | None -> [])
      in
      let priv =
        List.map
          (fun n -> (n, private_copy_of_slot st scope n))
          (List.sort_uniq String.compare (loop_vars @ d.Ast.omp_private))
      in
      let fpriv =
        List.map
          (fun n -> (n, firstprivate_copy_of_slot scope n))
          d.Ast.omp_firstprivate
      in
      priv @ fpriv @ reduction_slots_for t
    in
    let tscope = clone_scope_for_thread scope ~fresh in
    body_of_thread tscope clo chi
  in
  (* Compile the chunk program once per loop (cached on the loop's
     digest): one pass loops over a whole chunk, with the DO variables,
     privates and reduction accumulators in registers.  Each chunk binds
     it against the thread's scope clone and tree-walks [walk] when the
     binding does not resolve.  Stats count chunks: runs are chunks
     that ran compiled, bails are chunks that tree-walked.  OpenMP
     forbids a branch out of the region, so an EXIT or RETURN that
     leaves the body is an error on both engines. *)
  let run_chunks ~lo ~hi args walk =
    let prog =
      if st.use_bytecode then Some (Bytecode.compile_chunk (benv st) ~scope l d ~inner:collapse2)
      else None
    in
    Omp.parallel_for ~threads ~sched ~lo ~hi
      (run_chunk (fun tscope clo chi ->
           try
             match Option.bind prog (fun c -> bind_compiled st c tscope) with
             | Some fr -> Vm.run_chunk fr (args clo chi)
             | None -> walk tscope clo chi
           with
           | Loop_exit -> error "EXIT branches out of a PARALLEL DO region"
           | Sub_return -> error "RETURN branches out of a PARALLEL DO region"))
  in
  (match collapse2 with
  | None ->
    run_chunks ~lo ~hi
      (fun clo chi -> [| clo; chi |])
      (fun tscope clo chi ->
        let slot = Hashtbl.find tscope.vars l.Ast.do_var in
        for i = clo to chi do
          if (i - clo) land 255 = 255 then Fault.check_current ();
          slot.entry <- Scalar (Value.Int i);
          try exec_stmts st tscope l.Ast.do_body with Loop_cycle -> ()
        done)
  | Some inner ->
    let ilo = Value.to_int (eval st scope inner.Ast.do_lo)
    and ihi = Value.to_int (eval st scope inner.Ast.do_hi) in
    let isize = max 0 (ihi - ilo + 1) in
    let osize = max 0 (hi - lo + 1) in
    let total = osize * isize in
    if total > 0 then
      run_chunks ~lo:1 ~hi:total
        (fun clo chi -> [| clo; chi; lo; ilo; isize |])
        (fun tscope clo chi ->
          let oslot = Hashtbl.find tscope.vars l.Ast.do_var in
          let islot = Hashtbl.find tscope.vars inner.Ast.do_var in
          for k = clo to chi do
            if (k - clo) land 255 = 255 then Fault.check_current ();
            let oi = lo + ((k - 1) / isize) in
            let ii = ilo + ((k - 1) mod isize) in
            oslot.entry <- Scalar (Value.Int oi);
            islot.entry <- Scalar (Value.Int ii);
            try exec_stmts st tscope inner.Ast.do_body with Loop_cycle -> ()
          done));
  (* combine reductions deterministically, in thread order *)
  let per_thread =
    Hashtbl.fold (fun t red acc -> (t, red) :: acc) red_by_thread []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (op, names) ->
      List.iter
        (fun n ->
          let shared =
            match lookup scope n with
            | Some s -> s
            | None -> error "reduction variable %s not in scope" n
          in
          let initial =
            match shared.entry with
            | Scalar v -> v
            | _ -> error "reduction variable %s is not scalar" n
          in
          let final =
            if serial_team then
              (* seeded from the shared value: the single thread's
                 accumulator already IS the serial result *)
              match per_thread with
              | [ (_, red) ] -> (
                match List.assoc_opt n red with
                | Some { entry = Scalar v; _ } -> v
                | _ -> initial)
              | _ -> initial (* zero-trip loop: no chunk ever ran *)
            else
              List.fold_left
                (fun acc (_, red) ->
                  match List.assoc_opt n red with
                  | Some { entry = Scalar v; _ } -> combine_reduction op acc v
                  | _ -> acc)
                initial per_thread
          in
          shared.entry <- Scalar (Value.coerce shared.base final))
        names)
    d.Ast.omp_reduction

(** {1 Entry points} *)

(** Run subroutine [name] with [actuals] given as expression strings
    parsed in an empty caller scope, or — more usefully — with
    pre-built bindings via {!call_with}. *)
let call st name (actuals : Ast.expr list) =
  let caller_scope =
    { vars = Hashtbl.create 4; used = []; parent = None; implicit_none = false }
  in
  call_subprogram st name actuals ~caller_scope

(** Run the [Main] program unit, if present. *)
let run_main st =
  match
    List.find_map
      (function Ast.Main m -> Some m | _ -> None)
      st.cu
  with
  | None -> error "no PROGRAM unit"
  | Some m ->
    let sp =
      {
        Ast.sub_name = m.Ast.main_name;
        sub_kind = `Subroutine;
        sub_args = [];
        sub_decls = m.Ast.main_decls;
        sub_body = m.Ast.main_body;
      }
    in
    Hashtbl.replace st.subs (String.lowercase_ascii m.Ast.main_name) (sp, None);
    (try ignore (call st m.Ast.main_name []) with Stop_program _ -> ())

(** Read a scalar module variable (for test harnesses). *)
let module_scalar st ~module_name ~var =
  let scope = init_module st module_name in
  match Hashtbl.find_opt scope.vars var with
  | Some { entry = Scalar v; _ } -> v
  | Some _ -> error "%s.%s is not scalar" module_name var
  | None -> error "no variable %s in module %s" module_name var

(** Read a whole-array module variable. *)
let module_array st ~module_name ~var =
  let scope = init_module st module_name in
  match Hashtbl.find_opt scope.vars var with
  | Some { entry = Array a; _ } -> a
  | Some _ -> error "%s.%s is not an allocated array" module_name var
  | None -> error "no variable %s in module %s" module_name var

(** Read a COMMON-block member. *)
let common_scalar st ~block ~var =
  match Hashtbl.find_opt st.commons block with
  | None -> error "no COMMON block %s" block
  | Some tbl -> (
    match Hashtbl.find_opt tbl var with
    | Some { entry = Scalar v; _ } -> v
    | Some _ -> error "/%s/ %s is not scalar" block var
    | None -> error "no member %s in COMMON /%s/" var block)

(** {1 Bytecode observability}

    Re-exports of {!Bytecode.Stats} so front-ends report coverage
    without reaching into the compiler module. *)

type bytecode_row = Bytecode.Stats.row = {
  r_unit : string;
  r_id : string;
  r_label : string;
  r_reason : string option;  (** first bailing construct, if any *)
  r_boxed_reason : string option;
      (** first reason a compiled run took the boxed variant, if any *)
  r_runs : int;  (** executions that ran compiled: [r_typed + r_boxed] *)
  r_typed : int;  (** ...on the typed (unboxed) VM *)
  r_boxed : int;  (** ...of the boxed variant (the [Value] registers) *)
  r_bails : int;  (** executions that fell back to the tree-walker *)
}

let bytecode_stats () = Bytecode.Stats.snapshot ()

(** Only the rows belonging to [st]'s compilation unit. *)
let bytecode_stats_for st =
  let u = Bytecode.unit_key st.cu in
  List.filter (fun r -> r.r_unit = u) (Bytecode.Stats.snapshot ())

let reset_bytecode_stats () = Bytecode.Stats.reset ()

(** Read an array-valued field of a scalar TYPE variable in a module
    (e.g. SARB's [fo%fuir]). *)
let module_struct_array st ~module_name ~var ~field =
  let scope = init_module st module_name in
  match Hashtbl.find_opt scope.vars var with
  | Some { entry = Struct obj; _ } -> (
    match Hashtbl.find_opt obj field with
    | Some { entry = Array a; _ } -> a
    | Some _ -> error "%s%%%s is not an array" var field
    | None -> error "%s has no component %s" var field)
  | Some _ -> error "%s.%s is not a TYPE variable" module_name var
  | None -> error "no variable %s in module %s" module_name var
