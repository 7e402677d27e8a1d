(** Execution engine for {!Bytecode} programs.

    [bind] re-resolves a compiled program's name descriptors against
    the executing scope (a worker thread's private clone for parallel
    chunks, the callee scope for compiled subprograms), verifying that
    every binding still has the
    kind the compiler saw — and that everything compilation baked in
    from its representative scope still holds: folded PARAMETER values
    are compared against the executing slot, and names compiled as
    intrinsics or function references must still not resolve as
    variables.  Any mismatch returns [None] and the caller falls back
    to the tree-walker.

    A bound program is one {!frame} running one dispatch loop
    ([texec]) over three register banks, its constant registers
    preloaded at bind.  A pass ends normally or on RETURN without an
    exception; a chunk's top-level EXIT raises the tree-walker's
    [Loop_exit].  When the program carries a
    typed variant (see {!Bytecode.specialize}) and the executing
    scope's scalar slots are declared with, and hold, the inferred
    kinds, the frame runs that variant over the unboxed float and int
    banks; otherwise it runs the program's boxed variant, whose [Tv]
    instructions step over the [Value] bank.  Both produce
    bit-identical results — the typed opcodes perform the same
    primitive operations in the same order, minus the [Value] boxing
    (DESIGN.md §16, §21).  Frames run compiled calls, ALLOCATE,
    DEALLOCATE and [allocated()] (through the {!Storage} helpers the
    tree-walker uses), and bind arrays that may be unallocated: such a
    binding has empty bounds, so only the checked out-of-range path
    ever sees it, and it raises the tree-walker's error there.  After
    an (de)allocation, and after a call whose callee may (de)allocate
    something the frame can bind, the frame re-reads its array slots
    (DESIGN.md §19, §20).

    A compiled call keeps its callee's bound frame per domain
    ({!cframe}) and re-binds only what a {!Bytecode.frame_plan} says can
    change between calls (DESIGN.md §18).  One function stages every
    compiled call ({!call}): the calling frame caches the callee's
    frame per call site, the calling instruction stages the actuals
    straight into its dummy slots, and nothing is allocated for an
    aliased actual; the interpreter's scope path ([callenv.ce_call])
    takes every call the frame cannot (DESIGN.md §20).  A parallel DO
    in a compiled body goes back to the interpreter's region entry
    ([callenv.ce_omp_do]) on the scope the frame was bound to, and the
    frame re-reads its array slots after it (DESIGN.md §13).

    One loop driver runs a parallel DO's chunk: [run_chunk] runs the
    chunk program, which loops over the chunk itself, as a single pass
    ({!Bytecode.compile_chunk}, DESIGN.md §24).  Compiled loops poll
    {!Glaf_runtime.Fault.check_current} every 256 ticks of the frame. *)

open Glaf_fortran
open Glaf_runtime

(** Why an array binding cannot take the fast paths: the slot holds no
    array (the display name is for the tree-walker's error text), or its
    rank differs from the subscript count (the generic {!Farray} access
    then raises the tree-walker's rank error). *)
type bad = Good | Unallocated of string | Rank_mismatch

(** Array binding: the backing {!Farray.t}, its raw element bank (a
    float or an int array, the other empty; both empty for the other
    element kinds) and pre-fetched bounds for the rank-1/rank-2 fast
    paths (column-major: the second subscript strides by the first
    dimension's size).  Typed code reads the bank, boxed code the
    array.  A [bad] binding has empty bounds and banks, so every
    fast-path access takes the checked out-of-range path. *)
type tabind = {
  t_f : float array;
  t_i : int array;
  c_lo1 : int;
  c_hi1 : int;
  c_lo2 : int;
  c_hi2 : int;
  c_s1 : int;
  c_ba : Farray.t;  (** identity, for frame reuse; the array itself for a rank mismatch *)
  c_bad : bad;
}

(** The VM's hooks back into the interpreter.  [ce_call cs bindings]
    runs the callee of [cs] with marshalled bindings exactly like the
    tail of the tree-walker's [call_subprogram] (scope setup, body,
    copy-out, result): the scope path.  [ce_frame cs] is this domain's
    reusable frame for the callee of [cs], once a call left one behind.
    [ce_allocs] is the state's ALLOCATE counter, which ALLOCATE bumps
    like the tree-walker does.  [ce_omp_do scope loop] runs a parallel
    DO exactly like the tree-walker's [exec_do_parallel]. *)
type callenv = {
  ce_call : Bytecode.call_site -> Storage.arg_binding list -> Value.t option;
  ce_frame : Bytecode.call_site -> cframe option;
  ce_allocs : int Atomic.t;
  ce_omp_do : Storage.scope -> Ast.do_loop -> unit;
}

(** A bound program, ready to run: the typed variant (with sized float
    and int banks and the shared empty [vregs]) or the boxed variant
    (with a sized [vregs] and the shared empty float and int banks). *)
and frame = {
  code : Bytecode.tinstr array;
  fregs : float array;
  iregs : int array;
  vregs : Value.t array;
  scalars : Storage.slot array;
  arrays : tabind array;
  aslots : Storage.slot array;  (** the slot each array binding reads *)
  arefs : Bytecode.array_ref array;
  raws : Storage.slot array;  (** whole-slot aliases for calls and ALLOCATE *)
  env : callenv;
  scope : Storage.scope;  (** where a parallel DO runs ({!Bytecode.build_plan}) *)
  callees : cframe option array;  (** per call site: the callee's frame *)
  cargs : int array;  (** a chunk program's argument registers, in this frame's bank *)
  why : string option;  (** why this frame runs the boxed variant; [None]: typed *)
  printer : string -> unit;
  mutable tick : int;
  mutable crit : int;  (* CRITICAL locks held (0 or 1) *)
}

(** A compiled callee's bound frame, kept for reuse by one domain of one
    interpreter state: the plan, the bound frame, the slots of the
    plan's fresh locals and the current call's dummy slots, which the
    calling instruction stages.  [busy] marks a frame whose call is
    still running (recursion).  A calling frame caches the callee frame
    of each of its call sites (in [callees]), so after the first call
    it is found without any lookup: the calling frame runs on one
    domain of one state too. *)
and cframe = {
  plan : Bytecode.frame_plan;
  frame : frame;
  lslots : Storage.slot array;
  dslots : Storage.slot array;
  mutable busy : bool;
}

let dummy_slot () =
  { Storage.entry = Storage.Scalar (Value.Int 0); base = Ast.Integer; is_param = false }

let empty_array = Farray.create Farray.Eint [| (1, 0) |]

(* The banks a frame does not use. *)
let no_fregs : float array = [||]
let no_iregs : int array = [||]
let no_vregs : Value.t array = [||]

let bad_binding ba why =
  {
    t_f = no_fregs;
    t_i = no_iregs;
    c_lo1 = 1;
    c_hi1 = 0;
    c_lo2 = 1;
    c_hi2 = 0;
    c_s1 = 0;
    c_ba = ba;
    c_bad = why;
  }

let dummy_binding = bad_binding empty_array Rank_mismatch

let good_binding a =
  let rank = Farray.rank a in
  let lo1, hi1 = if rank >= 1 then a.Farray.bounds.(0) else (1, 0) in
  let lo2, hi2 = if rank >= 2 then a.Farray.bounds.(1) else (1, 0) in
  {
    t_f = (match a.Farray.data with Farray.F fa -> fa | _ -> no_fregs);
    t_i = (match a.Farray.data with Farray.I ia -> ia | _ -> no_iregs);
    c_lo1 = lo1;
    c_hi1 = hi1;
    c_lo2 = lo2;
    c_hi2 = hi2;
    c_s1 = Farray.dim_size (lo1, hi1);
    c_ba = a;
    c_bad = Good;
  }

let display_name (r : Bytecode.array_ref) =
  String.concat "%" (r.Bytecode.aname :: r.Bytecode.apath)

(* The binding for [r] given its slot's current entry.  At a call or
   body entry ([~entry:true]) a rank mismatch or an unexpected
   unallocated array refuses the bind (None), so the tree-walker runs
   instead; mid-body, after an ALLOCATE, DEALLOCATE or call changed
   storage, there is no falling back, so the binding turns bad and the
   access raises exactly what the tree-walker would. *)
let binding_of ~entry (r : Bytecode.array_ref) (e : Storage.entry) : tabind option =
  match e with
  | Storage.Array a ->
    if r.Bytecode.asubs > 0 && r.Bytecode.asubs <> Farray.rank a then
      if entry then None else Some (bad_binding a Rank_mismatch)
    else Some (good_binding a)
  | Storage.Unalloc _ ->
    if entry && not r.Bytecode.amaybe then None
    else Some (bad_binding empty_array (Unallocated (display_name r)))
  | _ -> if entry then None else Some (bad_binding empty_array (Unallocated (display_name r)))

(* The slot's element kind is the one the typed code was specialized
   for — an unallocated slot's too, whose kind an ALLOCATE under the
   running frame brings in. *)
let elem_ok (r : Bytecode.array_ref) (e : Storage.entry) =
  match e with
  | Storage.Array a -> a.Farray.elem = r.Bytecode.aelem
  | Storage.Unalloc (elem, _) -> elem = r.Bytecode.aelem
  | _ -> true

let corrupt () = Storage.error "bytecode: register/slot invariant violated"

(* Re-read every array slot after storage may have changed under a
   running frame, rebuilding the bindings whose array is no longer the
   bound one.  A slot's element kind never changes, so typed code keeps
   the bank it was specialized for. *)
let revalidate fr =
  let arrays = fr.arrays in
  for i = 0 to Array.length arrays - 1 do
    let ab = arrays.(i) in
    match fr.aslots.(i).Storage.entry with
    | Storage.Array a when a == ab.c_ba && ab.c_bad = Good -> ()
    | Storage.Unalloc _ when (match ab.c_bad with Unallocated _ -> true | _ -> false) -> ()
    | e -> (
      let r = fr.arefs.(i) in
      match binding_of ~entry:false r e with
      | Some ab when fr.why <> None || elem_ok r e -> arrays.(i) <- ab
      | _ -> corrupt ())
  done

let resolve_slot scope name path : Storage.slot option =
  match Storage.lookup scope name with
  | None -> None
  | Some slot -> Storage.walk_path slot path

(* The slot is declared with the value kind the typed code was
   specialized for (so the coercing stores of a callee or of boxed
   code keep it) and holds it. *)
let typed_slot_ok (ty : Bytecode.ty) (sl : Storage.slot) =
  match (ty, sl.Storage.base, sl.Storage.entry) with
  | Bytecode.TF, (Ast.Real | Ast.Real8), Storage.Scalar (Value.Real _)
  | Bytecode.TI, Ast.Integer, Storage.Scalar (Value.Int _)
  | Bytecode.TB, Ast.Logical, Storage.Scalar (Value.Bool _) ->
    true
  | _ -> false

(* The raw slots a typed call passes to a callee that may change their
   kind hold the kind that call leaves alone. *)
let typed_raws_ok (tp : Bytecode.tprogram) (raws : Storage.slot array) =
  let rk = tp.Bytecode.t_raw_int in
  let ok = ref true in
  for j = 0 to Array.length rk - 1 do
    let rid, int = rk.(j) in
    let holds_int = match raws.(rid).Storage.entry with Storage.Scalar (Value.Int _) -> true | _ -> false in
    if holds_int <> int then ok := false
  done;
  !ok

(* Why the executing scope refuses the typed variant, if it does. *)
let typed_refusal (p : Bytecode.program) (tp : Bytecode.tprogram)
    (scalars : Storage.slot array) (aslots : Storage.slot array) raws : string option =
  match Array.find_mapi (fun i sl -> if typed_slot_ok tp.Bytecode.t_sty.(i) sl then None else Some i) scalars with
  | Some i -> Some ("bind: scalar " ^ p.Bytecode.scalars.(i).Bytecode.sname ^ " has another kind")
  | None when not (typed_raws_ok tp raws) -> Some "bind: alias actual has another kind"
  | None when Array.for_all2 (fun r (s : Storage.slot) -> elem_ok r s.Storage.entry) p.Bytecode.arrays aslots -> None
  | None -> Some "bind: array has another element kind"

let bind (p : Bytecode.program) (scope : Storage.scope) ~printer ~(env : callenv) : frame option =
  let ok = ref true in
  let scalars =
    Array.map
      (fun (r : Bytecode.scalar_ref) ->
        match resolve_slot scope r.Bytecode.sname r.Bytecode.spath with
        | Some ({ Storage.entry = Storage.Scalar _; _ } as s) -> s
        | _ ->
          ok := false;
          dummy_slot ())
      p.Bytecode.scalars
  in
  let aslots =
    Array.map
      (fun (r : Bytecode.array_ref) ->
        match resolve_slot scope r.Bytecode.aname r.Bytecode.apath with
        | Some s -> s
        | None ->
          ok := false;
          dummy_slot ())
      p.Bytecode.arrays
  in
  let arrays =
    Array.map2
      (fun r (s : Storage.slot) ->
        match binding_of ~entry:true r s.Storage.entry with
        | Some ab -> ab
        | None ->
          (* e.g. a rank mismatch: let the tree-walker raise its error *)
          ok := false;
          dummy_binding)
      p.Bytecode.arrays aslots
  in
  let raws =
    Array.map
      (fun name ->
        match Storage.lookup scope name with
        | Some s -> s
        | None ->
          ok := false;
          dummy_slot ())
      p.Bytecode.raws
  in
  (* Everything compilation baked in from its representative scope
     must still hold here, or the generated code is for a different
     program: folded PARAMETER values... *)
  Array.iter
    (fun ((r : Bytecode.scalar_ref), v) ->
      match resolve_slot scope r.Bytecode.sname r.Bytecode.spath with
      | Some { Storage.entry = Storage.Scalar v'; _ } when compare v v' = 0 ->
        ()
      | _ -> ok := false)
    p.Bytecode.checks;
  (* ...and names resolved as intrinsics or user functions, which a
     variable of the same name would shadow. *)
  Array.iter
    (fun name -> if Storage.lookup scope name <> None then ok := false)
    p.Bytecode.negatives;
  (* ...and the bases a chunk program's homes coerce to. *)
  Array.iter
    (fun (r : Bytecode.scalar_ref) ->
      match Storage.lookup scope r.Bytecode.sname with
      | Some { Storage.entry = Storage.Scalar _; base; _ } when base = r.Bytecode.sbase -> ()
      | _ -> ok := false)
    p.Bytecode.chunk_homes;
  if not !ok then None
  else
    let frame code ~fregs ~iregs ~vregs ~cargs why =
      Some
        {
          code;
          fregs;
          iregs;
          vregs;
          scalars;
          arrays;
          aslots;
          arefs = p.Bytecode.arrays;
          raws;
          env;
          scope;
          callees = Array.make p.Bytecode.ncalls None;
          cargs;
          why;
          printer;
          tick = 0;
          crit = 0;
        }
    in
    let boxed why =
      let vregs = Array.make (max 1 p.Bytecode.nregs) (Value.Int 0) in
      Array.iter (fun (r, v) -> vregs.(r) <- v) p.Bytecode.consts;
      frame (Bytecode.boxed p) ~fregs:no_fregs ~iregs:no_iregs ~vregs ~cargs:p.Bytecode.chunk_args (Some why)
    in
    match p.Bytecode.typed with
    | Error why -> boxed why
    | Ok tp -> (
      match typed_refusal p tp scalars aslots raws with
      | Some why -> boxed why
      | None ->
        frame tp.Bytecode.tcode
          ~fregs:(Array.copy tp.Bytecode.t_finit)
          ~iregs:(Array.copy tp.Bytecode.t_iinit)
          ~vregs:no_vregs ~cargs:tp.Bytecode.t_chunk_args None)

(* Whole-array assignment, mirroring the tree-walker's assign_lvalue. *)
let store_whole a v =
  match v with
  | Value.Arr src when Farray.size src = Farray.size a ->
    let n = Farray.size a in
    for i = 0 to n - 1 do
      Farray.set_linear a i (Farray.get_linear src i)
    done
  | Value.Arr _ -> Storage.error "shape mismatch in whole-array assignment"
  | v -> Farray.fill a (Value.to_cell v)

let check_alloc bad ~store =
  match bad with Unallocated n -> Storage.unallocated_error n ~store | Good | Rank_mismatch -> ()

(* The checked element access behind boxed code's rank-1/rank-2 fast
   paths (and every rank-N access): a binding with no array raises the
   tree-walker's unallocated error; otherwise the generic [Farray]
   access converts the subscripts and raises the tree-walker's bounds
   or rank error, or succeeds (e.g. real-valued subscripts). *)
let slow_load ab (idx : Value.t array) =
  check_alloc ab.c_bad ~store:false;
  let idx = Array.map Value.to_int idx in
  Value.of_cell (Farray.get ab.c_ba idx)

let slow_store ab (idx : Value.t array) v =
  check_alloc ab.c_bad ~store:true;
  let idx = Array.map Value.to_int idx in
  Farray.set ab.c_ba idx (Value.to_cell v)

(* Typed code's out-of-range branch, which every access through a bad
   binding takes (its bounds are empty): raise what the boxed slow path
   raises for the same subscripts — the unallocated error, or
   [Farray]'s rank or bounds error. *)
let oob ab ~store (idx : int array) =
  check_alloc ab.c_bad ~store;
  ignore (Farray.offset ab.c_ba idx);
  corrupt ()

(* Generic binop semantics, shared with boxed code's fast paths:
   exactly the tree-walker's [eval_binop] (Gt/Ge swap operands into
   lt/le, comparisons go through [Value.compare_values]' total order). *)
let binop_slow op va vb =
  match op with
  | Ast.Add -> Value.add va vb
  | Ast.Sub -> Value.sub va vb
  | Ast.Mul -> Value.mul va vb
  | Ast.Div -> Value.div va vb
  | Ast.Pow -> Value.pow va vb
  | Ast.Eq -> Value.Bool (Value.eq va vb)
  | Ast.Ne -> Value.Bool (not (Value.eq va vb))
  | Ast.Lt -> Value.Bool (Value.lt va vb)
  | Ast.Le -> Value.Bool (Value.le va vb)
  | Ast.Gt -> Value.Bool (Value.lt vb va)
  | Ast.Ge -> Value.Bool (Value.le vb va)
  | Ast.Eqv -> Value.Bool (Value.to_bool va = Value.to_bool vb)
  | Ast.Neqv -> Value.Bool (Value.to_bool va <> Value.to_bool vb)
  | Ast.Concat -> (
    match (va, vb) with
    | Value.Str x, Value.Str y -> Value.Str (x ^ y)
    | _ -> Storage.error "// expects character operands")
  | Ast.And | Ast.Or -> corrupt () (* compiled to jumps *)

(* Boxed code's binop: typed fast paths skipping the [Value] dispatch
   layers; the results are bit-identical to [binop_slow] — [num2]/[div]
   reduce to the raw float/int op on same-typed operands, and
   comparisons use the same [compare]-based total order (so NaN
   ordering matches the tree-walker exactly). *)
let binop op va vb =
  match (va, vb) with
  | Value.Real x, Value.Real y -> (
    match op with
    | Ast.Add -> Value.Real (x +. y)
    | Ast.Sub -> Value.Real (x -. y)
    | Ast.Mul -> Value.Real (x *. y)
    | Ast.Div -> Value.Real (x /. y)
    | Ast.Pow -> Value.Real (x ** y)
    | Ast.Lt -> Value.Bool (Float.compare x y < 0)
    | Ast.Le -> Value.Bool (Float.compare x y <= 0)
    | Ast.Gt -> Value.Bool (Float.compare y x < 0)
    | Ast.Ge -> Value.Bool (Float.compare y x <= 0)
    | Ast.Eq -> Value.Bool (Float.compare x y = 0)
    | Ast.Ne -> Value.Bool (Float.compare x y <> 0)
    | _ -> binop_slow op va vb)
  | Value.Int x, Value.Int y -> (
    match op with
    | Ast.Add -> Value.Int (x + y)
    | Ast.Sub -> Value.Int (x - y)
    | Ast.Mul -> Value.Int (x * y)
    | Ast.Lt -> Value.Bool (x < y)
    | Ast.Le -> Value.Bool (x <= y)
    | Ast.Gt -> Value.Bool (y < x)
    | Ast.Ge -> Value.Bool (y <= x)
    | Ast.Eq -> Value.Bool (x = y)
    | Ast.Ne -> Value.Bool (x <> y)
    | _ -> binop_slow op va vb)
  | _ -> binop_slow op va vb

let loop_completed lo hi step = lo + (step * max 0 ((hi - lo + step) / step))

let int_reg (regs : Value.t array) r = match regs.(r) with Value.Int i -> i | _ -> corrupt ()

(* The cancellation poll, every 256 ticks of the frame. *)
let poll fr =
  fr.tick <- fr.tick + 1;
  if fr.tick land 255 = 0 then Fault.check_current ()

(* One instruction of a boxed variant at [pc], over the [Value] bank:
   the tree-walker's operations on boxed values.  Returns the next pc. *)
let vstep fr pc (ins : Bytecode.instr) : int =
  let regs = fr.vregs in
  match ins with
  | Bytecode.Iconst (d, v) ->
    regs.(d) <- v;
    pc + 1
  | Bytecode.Icopy (d, s) ->
    regs.(d) <- regs.(s);
    pc + 1
  | Bytecode.Iload (d, s) ->
    (match fr.scalars.(s).Storage.entry with
    | Storage.Scalar v -> regs.(d) <- v
    | _ -> corrupt ());
    pc + 1
  | Bytecode.Istore (s, r) ->
    let sl = fr.scalars.(s) in
    sl.Storage.entry <- Storage.Scalar (Value.coerce sl.Storage.base regs.(r));
    pc + 1
  | Bytecode.Istore_raw (s, r) ->
    fr.scalars.(s).Storage.entry <- Storage.Scalar regs.(r);
    pc + 1
  | Bytecode.Icoerce (base, d, s) ->
    regs.(d) <- Value.coerce base regs.(s);
    pc + 1
  | Bytecode.Idummy_adjust s ->
    (* setup_scope's dummy-redeclaration quirk: declaring an aliased
       dummy REAL rewrites an Int value in place *)
    let sl = fr.scalars.(s) in
    (match sl.Storage.entry with
    | Storage.Scalar v when Value.is_int v ->
      sl.Storage.entry <- Storage.Scalar (Value.Real (Value.to_float v))
    | _ -> ());
    pc + 1
  | Bytecode.Iload_arr (d, a) ->
    let ab = fr.arrays.(a) in
    (match ab.c_bad with
    | Unallocated n -> Storage.error "%s used before allocation" n
    | _ -> regs.(d) <- Value.Arr ab.c_ba);
    pc + 1
  | Bytecode.Istore_whole (a, r) ->
    let ab = fr.arrays.(a) in
    (match ab.c_bad with
    | Unallocated _ -> Storage.error "assignment to unallocated array"
    | _ -> store_whole ab.c_ba regs.(r));
    pc + 1
  | Bytecode.Iload1 (d, a, ir) ->
    let ab = fr.arrays.(a) in
    (match regs.(ir) with
    | Value.Int i when i >= ab.c_lo1 && i <= ab.c_hi1 ->
      regs.(d) <- Value.of_cell (Farray.get_linear ab.c_ba (i - ab.c_lo1))
    | vi -> regs.(d) <- slow_load ab [| vi |]);
    pc + 1
  | Bytecode.Iload2 (d, a, ir, jr) ->
    let ab = fr.arrays.(a) in
    (match (regs.(ir), regs.(jr)) with
    | Value.Int i, Value.Int j
      when i >= ab.c_lo1 && i <= ab.c_hi1 && j >= ab.c_lo2 && j <= ab.c_hi2 ->
      regs.(d) <-
        Value.of_cell (Farray.get_linear ab.c_ba (i - ab.c_lo1 + ((j - ab.c_lo2) * ab.c_s1)))
    | vi, vj -> regs.(d) <- slow_load ab [| vi; vj |]);
    pc + 1
  | Bytecode.IloadN (d, a, irs) ->
    regs.(d) <- slow_load fr.arrays.(a) (Array.map (fun r -> regs.(r)) irs);
    pc + 1
  | Bytecode.Istore1 (a, ir, r) ->
    let ab = fr.arrays.(a) in
    (match regs.(ir) with
    | Value.Int i when i >= ab.c_lo1 && i <= ab.c_hi1 ->
      Farray.set_linear ab.c_ba (i - ab.c_lo1) (Value.to_cell regs.(r))
    | vi -> slow_store ab [| vi |] regs.(r));
    pc + 1
  | Bytecode.Istore2 (a, ir, jr, r) ->
    let ab = fr.arrays.(a) in
    (match (regs.(ir), regs.(jr)) with
    | Value.Int i, Value.Int j
      when i >= ab.c_lo1 && i <= ab.c_hi1 && j >= ab.c_lo2 && j <= ab.c_hi2 ->
      Farray.set_linear ab.c_ba
        (i - ab.c_lo1 + ((j - ab.c_lo2) * ab.c_s1))
        (Value.to_cell regs.(r))
    | vi, vj -> slow_store ab [| vi; vj |] regs.(r));
    pc + 1
  | Bytecode.IstoreN (a, irs, r) ->
    slow_store fr.arrays.(a) (Array.map (fun i -> regs.(i)) irs) regs.(r);
    pc + 1
  | Bytecode.Iallocate { al_raw; al_name; al_bounds } ->
    (* the tree-walker's ALLOCATE, bounds already evaluated *)
    let bounds = Array.map (fun (l, h) -> (int_reg regs l, int_reg regs h)) al_bounds in
    Storage.allocate fr.raws.(al_raw) al_name bounds ~count:fr.env.ce_allocs;
    revalidate fr;
    pc + 1
  | Bytecode.Iallocated (d, rid, name) ->
    regs.(d) <- Value.Bool (Storage.allocated fr.raws.(rid) name);
    pc + 1
  | Bytecode.Ibinop (op, d, a, b) ->
    regs.(d) <- binop op regs.(a) regs.(b);
    pc + 1
  | Bytecode.Ineg (d, s) ->
    regs.(d) <- Value.neg regs.(s);
    pc + 1
  | Bytecode.Inot (d, s) ->
    regs.(d) <- Value.Bool (not (Value.to_bool regs.(s)));
    pc + 1
  | Bytecode.Ibool (d, s) ->
    regs.(d) <- Value.Bool (Value.to_bool regs.(s));
    pc + 1
  | Bytecode.Ito_int (d, s) ->
    regs.(d) <- Value.Int (Value.to_int regs.(s));
    pc + 1
  | Bytecode.Icheck_step r ->
    (match regs.(r) with Value.Int 0 -> Storage.error "DO loop with zero step" | _ -> ());
    pc + 1
  | Bytecode.Iintr (_, f, d, args) ->
    let vals =
      match Array.length args with
      | 1 -> [ regs.(args.(0)) ]
      | 2 -> [ regs.(args.(0)); regs.(args.(1)) ]
      | _ -> Array.fold_right (fun r acc -> regs.(r) :: acc) args []
    in
    regs.(d) <- f vals;
    pc + 1
  | Bytecode.Ijf (r, t) -> if Value.to_bool regs.(r) then pc + 1 else t
  | Bytecode.Ijt (r, t) -> if Value.to_bool regs.(r) then t else pc + 1
  | Bytecode.Iloop_test { ireg; hireg; stepreg; target } ->
    let i = int_reg regs ireg and hi = int_reg regs hireg and step = int_reg regs stepreg in
    if if step > 0 then i <= hi else i >= hi then pc + 1 else target
  | Bytecode.Iloop_next { ireg; hireg; stepreg; target } ->
    let step = int_reg regs stepreg in
    let i = int_reg regs ireg + step in
    regs.(ireg) <- Value.Int i;
    let hi = int_reg regs hireg in
    if if step > 0 then i <= hi else i >= hi then begin
      poll fr;
      target
    end
    else pc + 1
  | Bytecode.Iloop_fini { sid; loreg; hireg; stepreg } ->
    fr.scalars.(sid).Storage.entry <-
      Storage.Scalar (Value.Int (loop_completed (int_reg regs loreg) (int_reg regs hireg) (int_reg regs stepreg)));
    pc + 1
  | Bytecode.Iloop_fini_reg { dst; loreg; hireg; stepreg } ->
    regs.(dst) <- Value.Int (loop_completed (int_reg regs loreg) (int_reg regs hireg) (int_reg regs stepreg));
    pc + 1
  | Bytecode.Iprint rs ->
    let parts = Array.fold_right (fun r acc -> Value.to_string regs.(r) :: acc) rs [] in
    fr.printer (String.concat " " parts ^ "\n");
    pc + 1
  | Bytecode.Istop msg -> raise (Storage.Stop_program msg)
  (* the register-free opcodes and calls run in their shared form
     ({!Bytecode.boxed_code}) *)
  | Bytecode.Icall _ | Bytecode.Ijmp _ | Bytecode.Ipoll | Bytecode.Icrit_enter
  | Bytecode.Icrit_exit | Bytecode.Ireturn | Bytecode.Iexit | Bytecode.Idealloc _
  | Bytecode.Icheck_alloc _ | Bytecode.Iomp_do _ ->
    corrupt ()

(* --- reusable callee frames ---------------------------------------------- *)

(** Count one run of [fr] on [site], and the first reason it ran boxed. *)
let count_run site fr =
  match fr.why with
  | None -> Bytecode.Stats.run site ~typed:true
  | Some why ->
    Bytecode.Stats.run site ~typed:false;
    Bytecode.Stats.set_boxed_reason site why

(** Keep the frame [fr] that a finished call of [plan]'s callee ran in,
    adopting the locals of the scope it was bound to. *)
let make_cframe (plan : Bytecode.frame_plan) (fr : frame) : cframe option =
  match Array.map (fun (n, _) -> Hashtbl.find fr.scope.Storage.vars n) plan.Bytecode.fp_locals with
  | lslots ->
    Some
      {
        plan;
        frame = fr;
        lslots;
        dslots = Array.make plan.Bytecode.fp_nargs (dummy_slot ());
        busy = false;
      }
  | exception Not_found -> None

(* The slot dummy [k]'s component [path] names this call, or [Exit]. *)
let arg_slot cf k path =
  let s = cf.dslots.(k) in
  if path = [] then s
  else match Storage.walk_path s path with Some s -> s | None -> raise Exit

(* Point the arg-sourced slot bindings at this call's dummies: only the
   entries the plan lists, by index. *)
let rebind_slots cf =
  let fr = cf.frame in
  let p = cf.plan in
  let prog = p.Bytecode.fp_prog in
  let ix = p.Bytecode.fp_arg_scalars in
  for j = 0 to Array.length ix - 1 do
    let i, k = ix.(j) in
    let s = arg_slot cf k prog.Bytecode.scalars.(i).Bytecode.spath in
    match s.Storage.entry with Storage.Scalar _ -> fr.scalars.(i) <- s | _ -> raise Exit
  done;
  let ix = p.Bytecode.fp_arg_raws in
  for j = 0 to Array.length ix - 1 do
    let i, k = ix.(j) in
    fr.raws.(i) <- cf.dslots.(k)
  done;
  let ix = p.Bytecode.fp_arg_arrays in
  for j = 0 to Array.length ix - 1 do
    let i, k = ix.(j) in
    fr.aslots.(i) <- arg_slot cf k prog.Bytecode.arrays.(i).Bytecode.apath
  done

(* Point the arg-sourced bindings at this call's dummies and re-check
   what can differ from call to call: argument kinds and ranks, folded
   PARAMETER values reached through a dummy, arrays whose storage was
   replaced (fresh locals, re-ALLOCATEd module arrays) and, for typed
   frames, the element kinds and the value kind of every scalar but
   the fresh locals.  [false] sends this call down the scope path. *)
let rebind cf =
  let p = cf.plan in
  let fr = cf.frame in
  try
    let checks = p.Bytecode.fp_arg_checks in
    for j = 0 to Array.length checks - 1 do
      let k, path, v = checks.(j) in
      match (arg_slot cf k path).Storage.entry with
      | Storage.Scalar v' when compare v v' = 0 -> ()
      | _ -> raise Exit
    done;
    rebind_slots cf;
    let arrays = fr.arrays in
    for i = 0 to Array.length arrays - 1 do
      match fr.aslots.(i).Storage.entry with
      | Storage.Array a when a == arrays.(i).c_ba && arrays.(i).c_bad = Good -> ()
      | e -> (
        let r = fr.arefs.(i) in
        match binding_of ~entry:true r e with
        | Some ab when fr.why <> None || elem_ok r e -> arrays.(i) <- ab
        | _ -> raise Exit)
    done;
    (match (fr.why, p.Bytecode.fp_prog.Bytecode.typed) with
    | Some _, _ -> ()
    | None, Ok tp ->
      let ix = p.Bytecode.fp_kind_scalars in
      for j = 0 to Array.length ix - 1 do
        let i = ix.(j) in
        if not (typed_slot_ok tp.Bytecode.t_sty.(i) fr.scalars.(i)) then raise Exit
      done;
      if not (typed_raws_ok tp fr.raws) then raise Exit
    | None, Error _ -> raise Exit);
    fr.tick <- 0;
    true
  with Exit -> false

(* Start a call of [cf]'s callee, whose dummies the calling instruction
   has staged in [dslots], exactly like the interpreter's scope path
   would: the REAL redeclaration quirk, fresh locals, then [rebind].
   [false] means the frame cannot take this call; nothing the caller
   can observe has happened then, beyond the quirk the scope path
   repeats. *)
let enter cf =
  let p = cf.plan in
  let rd = p.Bytecode.fp_real_dummies in
  for j = 0 to Array.length rd - 1 do
    let s = cf.dslots.(rd.(j)) in
    match s.Storage.entry with
    | Storage.Scalar v when Value.is_int v ->
      s.Storage.entry <- Storage.Scalar (Value.Real (Value.to_float v))
    | _ -> ()
  done;
  let locals = p.Bytecode.fp_locals in
  for l = 0 to Array.length locals - 1 do
    cf.lslots.(l).Storage.entry <-
      (match snd locals.(l) with
      | Bytecode.L_scalar e -> e
      | Bytecode.L_array (e, b) -> Storage.Array (Farray.create e b)
      | Bytecode.L_unalloc (e, r) -> Storage.Unalloc (e, r))
  done;
  rebind cf

(* Stands in for a subroutine's (absent) result. *)
let no_result = Value.Str "(no result)"

(* The function result of the call [cf] just ran, read like the
   tree-walker reads it; [no_result] for a subroutine. *)
let result_of cf name =
  match cf.plan.Bytecode.fp_result with
  | None -> no_result
  | Some src -> (
    let slot =
      match src with
      | Bytecode.Src_arg k -> cf.dslots.(k)
      | Bytecode.Src_local l -> cf.lslots.(l)
      | Bytecode.Src_save | Bytecode.Src_stable -> assert false
    in
    match slot.Storage.entry with
    | Storage.Scalar v -> v
    | _ -> Storage.error "function %s did not set its result" name)

(* The calling frame's cached callee frame for [cs], looked up (and
   cached) on a miss. *)
let callee (cache : cframe option array) env (cs : Bytecode.call_site) =
  match Array.unsafe_get cache cs.Bytecode.cs_idx with
  | Some _ as c -> c
  | None -> (
    match env.ce_frame cs with
    | Some _ as c ->
      cache.(cs.Bytecode.cs_idx) <- c;
      c
    | None -> None)

let is_elem = function Bytecode.Ta_elem _ -> true | _ -> false

(* An actual copied in from a register: typed ones are boxed at the
   call boundary. *)
let targ_value fr = function
  | Bytecode.Ta_f r -> Value.Real fr.fregs.(r)
  | Bytecode.Ta_i r -> Value.Int fr.iregs.(r)
  | Bytecode.Ta_b r -> Value.Bool (fr.iregs.(r) <> 0)
  | Bytecode.Ta_v r -> fr.vregs.(r)
  | Bytecode.Ta_alias _ | Bytecode.Ta_elem _ -> corrupt ()

(* A call's result into its bank; [no_result] from a subroutine called
   as a function is the tree-walker's error. *)
let store_result fr (cs : Bytecode.call_site) (res : Bytecode.tres) v =
  match (res, v) with
  | Bytecode.Tr_none, _ -> ()
  | _ when v == no_result -> Storage.error "subroutine %s used as a function" cs.Bytecode.cs_name
  | Bytecode.Tr_v d, v -> fr.vregs.(d) <- v
  | Bytecode.Tr_f d, Value.Real x -> fr.fregs.(d) <- x
  | Bytecode.Tr_i d, Value.Int x -> fr.iregs.(d) <- x
  | Bytecode.Tr_b d, Value.Bool b -> fr.iregs.(d) <- (if b then 1 else 0)
  | _ -> corrupt ()

(* Release the CRITICAL locks [fr] holds, like Fun.protect unwinding
   the tree-walker's [Omp.critical]. *)
let release_crit fr =
  while fr.crit > 0 do
    fr.crit <- fr.crit - 1;
    Mutex.unlock Omp.critical_mutex
  done

(* The dispatch loop: one pass over the body, and whether a RETURN
   ended it (a chunk's top-level EXIT raises [Loop_exit]).  Typed opcodes work on the float and int banks,
   each the primitive operation its boxed counterpart performs on the
   value kinds the binder verified, so the float/int results are
   bit-identical (DESIGN.md §16); a boxed variant's [Tv] instructions
   step over the [Value] bank.  RETURN, and any exception, release the
   CRITICAL locks still held, like Fun.protect in the tree-walker. *)
let rec texec (fr : frame) : bool =
  let code = fr.code in
  let fregs = fr.fregs in
  let iregs = fr.iregs in
  let scalars = fr.scalars in
  let arrays = fr.arrays in
  let n = Array.length code in
  let pc = ref 0 in
  let returned = ref false in
  (try
     while !pc < n do
       match Array.unsafe_get code !pc with
       | Bytecode.TconstF (d, x) ->
         fregs.(d) <- x;
         incr pc
       | Bytecode.TconstI (d, x) ->
         iregs.(d) <- x;
         incr pc
       | Bytecode.TmovF (d, s) ->
         fregs.(d) <- fregs.(s);
         incr pc
       | Bytecode.TmovI (d, s) ->
         iregs.(d) <- iregs.(s);
         incr pc
       | Bytecode.TldsF (d, s) ->
         (match scalars.(s).Storage.entry with
         | Storage.Scalar (Value.Real x) -> fregs.(d) <- x
         | _ -> corrupt ());
         incr pc
       | Bytecode.TldsI (d, s) ->
         (match scalars.(s).Storage.entry with
         | Storage.Scalar (Value.Int x) -> iregs.(d) <- x
         | _ -> corrupt ());
         incr pc
       | Bytecode.TldsB (d, s) ->
         (match scalars.(s).Storage.entry with
         | Storage.Scalar (Value.Bool b) -> iregs.(d) <- (if b then 1 else 0)
         | _ -> corrupt ());
         incr pc
       | Bytecode.TstsF (s, r) ->
         scalars.(s).Storage.entry <- Storage.Scalar (Value.Real fregs.(r));
         incr pc
       | Bytecode.TstsF_ofI (s, r) ->
         scalars.(s).Storage.entry <-
           Storage.Scalar (Value.Real (float_of_int iregs.(r)));
         incr pc
       | Bytecode.TstsI (s, r) | Bytecode.TstsI_raw (s, r) ->
         scalars.(s).Storage.entry <- Storage.Scalar (Value.Int iregs.(r));
         incr pc
       | Bytecode.TstsI_ofF (s, r) ->
         scalars.(s).Storage.entry <-
           Storage.Scalar (Value.Int (int_of_float fregs.(r)));
         incr pc
       | Bytecode.TstsB (s, r) ->
         scalars.(s).Storage.entry <-
           Storage.Scalar (Value.Bool (iregs.(r) <> 0));
         incr pc
       | Bytecode.Ti2f (d, s) ->
         fregs.(d) <- float_of_int iregs.(s);
         incr pc
       | Bytecode.Tf2i (d, s) ->
         iregs.(d) <- int_of_float fregs.(s);
         incr pc
       | Bytecode.Tld1F (d, a, ir) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) in
         if i < ab.c_lo1 || i > ab.c_hi1 then oob ab ~store:false [| i |];
         fregs.(d) <- Array.unsafe_get ab.t_f (i - ab.c_lo1);
         incr pc
       | Bytecode.Tld2F (d, a, ir, jr) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) and j = iregs.(jr) in
         if i < ab.c_lo1 || i > ab.c_hi1 || j < ab.c_lo2 || j > ab.c_hi2 then
           oob ab ~store:false [| i; j |];
         fregs.(d) <-
           Array.unsafe_get ab.t_f
             (i - ab.c_lo1 + ((j - ab.c_lo2) * ab.c_s1));
         incr pc
       | Bytecode.Tld1I (d, a, ir) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) in
         if i < ab.c_lo1 || i > ab.c_hi1 then oob ab ~store:false [| i |];
         iregs.(d) <- Array.unsafe_get ab.t_i (i - ab.c_lo1);
         incr pc
       | Bytecode.Tld2I (d, a, ir, jr) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) and j = iregs.(jr) in
         if i < ab.c_lo1 || i > ab.c_hi1 || j < ab.c_lo2 || j > ab.c_hi2 then
           oob ab ~store:false [| i; j |];
         iregs.(d) <-
           Array.unsafe_get ab.t_i
             (i - ab.c_lo1 + ((j - ab.c_lo2) * ab.c_s1));
         incr pc
       | Bytecode.Tst1F (a, ir, r) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) in
         if i < ab.c_lo1 || i > ab.c_hi1 then oob ab ~store:true [| i |];
         Array.unsafe_set ab.t_f (i - ab.c_lo1) fregs.(r);
         incr pc
       | Bytecode.Tst2F (a, ir, jr, r) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) and j = iregs.(jr) in
         if i < ab.c_lo1 || i > ab.c_hi1 || j < ab.c_lo2 || j > ab.c_hi2 then
           oob ab ~store:true [| i; j |];
         Array.unsafe_set ab.t_f
           (i - ab.c_lo1 + ((j - ab.c_lo2) * ab.c_s1))
           fregs.(r);
         incr pc
       | Bytecode.Tst1I (a, ir, r) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) in
         if i < ab.c_lo1 || i > ab.c_hi1 then oob ab ~store:true [| i |];
         Array.unsafe_set ab.t_i (i - ab.c_lo1) iregs.(r);
         incr pc
       | Bytecode.Tst2I (a, ir, jr, r) ->
         let ab = arrays.(a) in
         let i = iregs.(ir) and j = iregs.(jr) in
         if i < ab.c_lo1 || i > ab.c_hi1 || j < ab.c_lo2 || j > ab.c_hi2 then
           oob ab ~store:true [| i; j |];
         Array.unsafe_set ab.t_i
           (i - ab.c_lo1 + ((j - ab.c_lo2) * ab.c_s1))
           iregs.(r);
         incr pc
       | Bytecode.TaddF (d, a, b) ->
         fregs.(d) <- fregs.(a) +. fregs.(b);
         incr pc
       | Bytecode.TsubF (d, a, b) ->
         fregs.(d) <- fregs.(a) -. fregs.(b);
         incr pc
       | Bytecode.TmulF (d, a, b) ->
         fregs.(d) <- fregs.(a) *. fregs.(b);
         incr pc
       | Bytecode.TdivF (d, a, b) ->
         fregs.(d) <- fregs.(a) /. fregs.(b);
         incr pc
       | Bytecode.TpowF (d, a, b) ->
         fregs.(d) <- fregs.(a) ** fregs.(b);
         incr pc
       | Bytecode.TaddI (d, a, b) ->
         iregs.(d) <- iregs.(a) + iregs.(b);
         incr pc
       | Bytecode.TsubI (d, a, b) ->
         iregs.(d) <- iregs.(a) - iregs.(b);
         incr pc
       | Bytecode.TmulI (d, a, b) ->
         iregs.(d) <- iregs.(a) * iregs.(b);
         incr pc
       | Bytecode.TdivI (d, a, b) ->
         let y = iregs.(b) in
         if y = 0 then Value.error "integer division by zero";
         iregs.(d) <- iregs.(a) / y;
         incr pc
       | Bytecode.TmodI (d, a, b) ->
         let y = iregs.(b) in
         if y = 0 then Value.error "mod by zero";
         iregs.(d) <- iregs.(a) mod y;
         incr pc
       | Bytecode.TcmpF (c, d, a, b) ->
         let k = Float.compare fregs.(a) fregs.(b) in
         iregs.(d) <-
           (if
              match c with
              | Bytecode.Clt -> k < 0
              | Bytecode.Cle -> k <= 0
              | Bytecode.Cgt -> k > 0
              | Bytecode.Cge -> k >= 0
              | Bytecode.Ceq -> k = 0
              | Bytecode.Cne -> k <> 0
            then 1
            else 0);
         incr pc
       | Bytecode.TcmpI (c, d, a, b) ->
         let x = iregs.(a) and y = iregs.(b) in
         iregs.(d) <-
           (if
              match c with
              | Bytecode.Clt -> x < y
              | Bytecode.Cle -> x <= y
              | Bytecode.Cgt -> x > y
              | Bytecode.Cge -> x >= y
              | Bytecode.Ceq -> x = y
              | Bytecode.Cne -> x <> y
            then 1
            else 0);
         incr pc
       | Bytecode.TnegF (d, s) ->
         fregs.(d) <- -.fregs.(s);
         incr pc
       | Bytecode.TnegI (d, s) ->
         iregs.(d) <- -iregs.(s);
         incr pc
       | Bytecode.Tnot (d, s) ->
         iregs.(d) <- (if iregs.(s) = 0 then 1 else 0);
         incr pc
       | Bytecode.Tbool (d, s) ->
         iregs.(d) <- (if iregs.(s) <> 0 then 1 else 0);
         incr pc
       | Bytecode.Tcheck_step r ->
         if iregs.(r) = 0 then Storage.error "DO loop with zero step";
         incr pc
       | Bytecode.Tin1F (_, f, d, a) ->
         fregs.(d) <- f fregs.(a);
         incr pc
       | Bytecode.Tin2F (_, f, d, a, b) ->
         fregs.(d) <- f fregs.(a) fregs.(b);
         incr pc
       | Bytecode.TfniF (_, f, d, a) ->
         iregs.(d) <- f fregs.(a);
         incr pc
       | Bytecode.TmaxF (d, a, b) ->
         (* variadic_minmax's pick is polymorphic (>) on floats, i.e.
            Float.compare's total order (NaN below everything) *)
         let x = fregs.(a) and y = fregs.(b) in
         fregs.(d) <- (if Float.compare y x > 0 then y else x);
         incr pc
       | Bytecode.TminF (d, a, b) ->
         let x = fregs.(a) and y = fregs.(b) in
         fregs.(d) <- (if Float.compare y x < 0 then y else x);
         incr pc
       | Bytecode.TmaxI (d, a, b) ->
         (* the boxed pick compares to_floats, so go through
            float_of_int (observable for > 2^53 magnitudes) *)
         let x = iregs.(a) and y = iregs.(b) in
         iregs.(d) <-
           (if Float.compare (float_of_int y) (float_of_int x) > 0 then y
            else x);
         incr pc
       | Bytecode.TminI (d, a, b) ->
         let x = iregs.(a) and y = iregs.(b) in
         iregs.(d) <-
           (if Float.compare (float_of_int y) (float_of_int x) < 0 then y
            else x);
         incr pc
       | Bytecode.TabsF (d, s) ->
         fregs.(d) <- Float.abs fregs.(s);
         incr pc
       | Bytecode.TabsI (d, s) ->
         iregs.(d) <- abs iregs.(s);
         incr pc
       | Bytecode.Tjmp t -> pc := t
       | Bytecode.Tjf (r, t) -> if iregs.(r) <> 0 then incr pc else pc := t
       | Bytecode.Tjt (r, t) -> if iregs.(r) <> 0 then pc := t else incr pc
       | Bytecode.Tloop_test { t_ireg; t_hireg; t_stepreg; t_target } ->
         let i = iregs.(t_ireg)
         and hi = iregs.(t_hireg)
         and step = iregs.(t_stepreg) in
         if (if step > 0 then i <= hi else i >= hi) then incr pc
         else pc := t_target
       | Bytecode.Tloop_next { t_ireg; t_hireg; t_stepreg; t_target } ->
         let step = iregs.(t_stepreg) in
         let i = iregs.(t_ireg) + step in
         iregs.(t_ireg) <- i;
         if (if step > 0 then i <= iregs.(t_hireg) else i >= iregs.(t_hireg)) then begin
           poll fr;
           pc := t_target
         end
         else incr pc
       | Bytecode.Tloop_fini { t_sid; t_loreg; t_hireg; t_stepreg } ->
         let lo = iregs.(t_loreg)
         and hi = iregs.(t_hireg)
         and step = iregs.(t_stepreg) in
         scalars.(t_sid).Storage.entry <- Storage.Scalar (Value.Int (loop_completed lo hi step));
         incr pc
       | Bytecode.Tloop_fini_reg { t_dst; t_loreg; t_hireg; t_stepreg } ->
         let lo = iregs.(t_loreg)
         and hi = iregs.(t_hireg)
         and step = iregs.(t_stepreg) in
         iregs.(t_dst) <- loop_completed lo hi step;
         incr pc
       | Bytecode.Tpoll ->
         poll fr;
         incr pc
       | Bytecode.Tcrit_enter ->
         Mutex.lock Omp.critical_mutex;
         fr.crit <- fr.crit + 1;
         incr pc
       | Bytecode.Tcrit_exit ->
         fr.crit <- fr.crit - 1;
         Mutex.unlock Omp.critical_mutex;
         incr pc
       | Bytecode.Tcall { tc_site; tc_args; tc_res } ->
         call fr tc_site tc_args tc_res;
         (* the callee may have (de)allocated arrays this frame binds *)
         if tc_site.Bytecode.cs_reval then revalidate fr;
         incr pc
       | Bytecode.Tallocate { ta_raw; ta_name; ta_bounds } ->
         let bounds = Array.map (fun (l, h) -> (iregs.(l), iregs.(h))) ta_bounds in
         Storage.allocate fr.raws.(ta_raw) ta_name bounds ~count:fr.env.ce_allocs;
         revalidate fr;
         incr pc
       | Bytecode.Tdealloc (rid, name) ->
         Storage.deallocate fr.raws.(rid) name;
         revalidate fr;
         incr pc
       | Bytecode.Tallocated (d, rid, name) ->
         iregs.(d) <- (if Storage.allocated fr.raws.(rid) name then 1 else 0);
         incr pc
       | Bytecode.Tcheck_alloc (a, store) ->
         check_alloc arrays.(a).c_bad ~store;
         incr pc
       | Bytecode.Tomp_do od ->
         fr.env.ce_omp_do fr.scope od.Bytecode.od_loop;
         (* the loop's body may have (de)allocated arrays this frame binds *)
         revalidate fr;
         incr pc
       | Bytecode.Treturn ->
         release_crit fr;
         returned := true;
         pc := n
       | Bytecode.Texit -> raise Storage.Loop_exit
       | Bytecode.Tv ins -> pc := vstep fr !pc ins
     done
   with e ->
     release_crit fr;
     raise e);
  !returned


(* Run one call of [cf]'s callee, whose dummies are staged; [false]
   when [enter] refused it. *)
and call_frame cf =
  if not (enter cf) then false
  else begin
    cf.busy <- true;
    count_run (Bytecode.plan_site cf.plan) cf.frame;
    (match texec cf.frame with
    | _ -> cf.busy <- false
    | exception e ->
      cf.busy <- false;
      raise e);
    true
  end

(* A compiled call.  Through the callee's reusable frame when there is
   one and it takes the call: the actuals go straight into its dummy
   slots.  Otherwise — and always for array-element actuals, whose
   copy-out targets the array resolved before the call — the scope
   path, with the tree-walker's bindings. *)
and call fr (cs : Bytecode.call_site) (args : Bytecode.targ array) (res : Bytecode.tres) =
  let frame_ran =
    match callee fr.callees fr.env cs with
    | Some cf when (not cf.busy) && not (Array.exists is_elem args) ->
      for k = 0 to Array.length args - 1 do
        cf.dslots.(k) <-
          (match args.(k) with
          | Bytecode.Ta_alias rid -> fr.raws.(rid)
          | a -> Storage.copy_in_slot (targ_value fr a))
      done;
      call_frame cf
      && begin
           store_result fr cs res (result_of cf cs.Bytecode.cs_name);
           true
         end
    | _ -> false
  in
  if not frame_ran then begin
    let bindings =
      Array.fold_right
        (fun a acc ->
          (match a with
          | Bytecode.Ta_alias rid -> `Alias fr.raws.(rid)
          | Bytecode.Ta_elem { ae_arr; ae_idx; ae_val } ->
            let ab = fr.arrays.(ae_arr) in
            let idx =
              Array.map (int_reg fr.vregs) ae_idx
            in
            (* copy-out through the resolved lvalue, exactly the
               tree-walker's writeback: bounds-checked Farray.set *)
            let wb v = Farray.set ab.c_ba idx (Value.to_cell v) in
            `Copy (fr.vregs.(ae_val), Some wb)
          | a -> `Copy (targ_value fr a, None))
          :: acc)
        args []
    in
    store_result fr cs res
      (match fr.env.ce_call cs bindings with Some v -> v | None -> no_result)
  end

(* --- the chunk driver ----------------------------------------------------- *)

(** One chunk of a parallel DO, [args] its {!Bytecode.chunk_args}
    values: a single pass of the chunk program, which loops over the
    chunk itself.  EXIT and RETURN escape as the tree-walker's
    [Loop_exit] and [Sub_return], which [Interp.exec_do_parallel] turns
    into a runtime error. *)
let run_chunk fr (args : int array) =
  let regs = fr.cargs in
  for k = 0 to Array.length regs - 1 do
    if fr.why = None then fr.iregs.(regs.(k)) <- args.(k) else fr.vregs.(regs.(k)) <- Value.Int args.(k)
  done;
  if texec fr then raise Storage.Sub_return
