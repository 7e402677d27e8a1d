(** Execution engine for {!Bytecode} programs.

    [bind] re-resolves a compiled program's name descriptors against
    the executing scope (a worker thread's private clone for parallel
    chunks, the callee scope for compiled subprograms), verifying that
    every binding still has the
    kind the compiler saw — and that everything compilation baked in
    from its representative scope still holds: folded PARAMETER values
    are compared against the executing slot, and names compiled as
    intrinsics or function references must still not resolve as
    variables — and that the executing scope's scalar slots are
    declared with, and hold, the kinds the program was compiled for.
    Any mismatch returns the reason and the caller falls back to the
    tree-walker for that run (DESIGN.md §26).

    A bound program is one {!frame} running one dispatch loop
    ([texec]) over two unboxed register banks, float and int, its
    constant registers preloaded at bind.  A pass ends normally or on
    RETURN without an exception; a chunk's top-level EXIT raises the
    tree-walker's [Loop_exit].  Results are bit-identical to the
    tree-walker's — the typed opcodes perform the same primitive
    operations in the same order, minus the [Value] boxing (DESIGN.md
    §16, §21).  Frames run compiled calls, ALLOCATE,
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
    element kinds) and pre-fetched bounds for the rank-1/rank-2
    accesses (column-major: the second subscript strides by the first
    dimension's size).  A [bad] binding has empty bounds and banks, so
    every access takes the checked out-of-range path. *)
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

(** A bound program, ready to run, with its float and int banks. *)
and frame = {
  code : Bytecode.tinstr array;
  fregs : float array;
  iregs : int array;
  scalars : Storage.slot array;
  arrays : tabind array;
  aslots : Storage.slot array;  (** the slot each array binding reads *)
  arefs : Bytecode.array_ref array;
  raws : Storage.slot array;  (** whole-slot aliases for calls and ALLOCATE *)
  env : callenv;
  scope : Storage.scope;  (** where a parallel DO runs ({!Bytecode.build_plan}) *)
  callees : cframe option array;  (** per call site: the callee's frame *)
  cargs : int array;  (** a chunk program's argument registers, in the int bank *)
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

(* The banks of an array that has neither element kind. *)
let no_fregs : float array = [||]
let no_iregs : int array = [||]

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
    if r.Bytecode.asubs <> Farray.rank a then
      if entry then None else Some (bad_binding a Rank_mismatch)
    else Some (good_binding a)
  | Storage.Unalloc _ ->
    if entry && not r.Bytecode.amaybe then None
    else Some (bad_binding empty_array (Unallocated (display_name r)))
  | _ -> if entry then None else Some (bad_binding empty_array (Unallocated (display_name r)))

(* The slot's element kind is the one the typed code was compiled
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
   the bank it was compiled for. *)
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
      | Some ab when elem_ok r e -> arrays.(i) <- ab
      | _ -> corrupt ())
  done

let resolve_slot scope name path : Storage.slot option =
  match Storage.lookup scope name with
  | None -> None
  | Some slot -> Storage.walk_path slot path

(* The slot is declared with the value kind the typed code was
   compiled for (so the coercing stores of a callee or of the
   tree-walker keep it) and holds it. *)
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

(* Why the executing scope's kinds refuse the typed code, if they do. *)
let typed_refusal (p : Bytecode.program) (scalars : Storage.slot array) (aslots : Storage.slot array) raws :
    string option =
  let tp = p.Bytecode.typed in
  match Array.find_mapi (fun i sl -> if typed_slot_ok tp.Bytecode.t_sty.(i) sl then None else Some i) scalars with
  | Some i -> Some ("bind: scalar " ^ p.Bytecode.scalars.(i).Bytecode.sname ^ " has another kind")
  | None when not (typed_raws_ok tp raws) -> Some "bind: alias actual has another kind"
  | None when Array.for_all2 (fun r (s : Storage.slot) -> elem_ok r s.Storage.entry) p.Bytecode.arrays aslots -> None
  | None -> Some "bind: array has another element kind"

(** Bind [p] to [scope], or say why the scope refuses it. *)
let bind (p : Bytecode.program) (scope : Storage.scope) ~(env : callenv) : (frame, string) result =
  let why = ref None in
  let refuse name = if !why = None then why := Some ("bind: " ^ name ^ " does not resolve as compiled") in
  let scalars =
    Array.map
      (fun (r : Bytecode.scalar_ref) ->
        match resolve_slot scope r.Bytecode.sname r.Bytecode.spath with
        | Some ({ Storage.entry = Storage.Scalar _; _ } as s) -> s
        | _ ->
          refuse r.Bytecode.sname;
          dummy_slot ())
      p.Bytecode.scalars
  in
  let aslots =
    Array.map
      (fun (r : Bytecode.array_ref) ->
        match resolve_slot scope r.Bytecode.aname r.Bytecode.apath with
        | Some s -> s
        | None ->
          refuse r.Bytecode.aname;
          dummy_slot ())
      p.Bytecode.arrays
  in
  let arrays =
    Array.map2
      (fun (r : Bytecode.array_ref) (s : Storage.slot) ->
        match binding_of ~entry:true r s.Storage.entry with
        | Some ab -> ab
        | None ->
          (* e.g. a rank mismatch: let the tree-walker raise its error *)
          refuse r.Bytecode.aname;
          dummy_binding)
      p.Bytecode.arrays aslots
  in
  let raws =
    Array.map
      (fun name ->
        match Storage.lookup scope name with
        | Some s -> s
        | None ->
          refuse name;
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
      | _ -> refuse r.Bytecode.sname)
    p.Bytecode.checks;
  (* ...and names resolved as intrinsics or user functions, which a
     variable of the same name would shadow. *)
  Array.iter
    (fun name -> if Storage.lookup scope name <> None then refuse name)
    p.Bytecode.negatives;
  (* ...and the bases a chunk program's homes coerce to. *)
  Array.iter
    (fun (r : Bytecode.scalar_ref) ->
      match Storage.lookup scope r.Bytecode.sname with
      | Some { Storage.entry = Storage.Scalar _; base; _ } when base = r.Bytecode.sbase -> ()
      | _ -> refuse r.Bytecode.sname)
    p.Bytecode.chunk_homes;
  match !why with
  | Some why -> Error why
  | None -> (
    match typed_refusal p scalars aslots raws with
    | Some why -> Error why
    | None ->
      let tp = p.Bytecode.typed in
      Ok
        {
          code = tp.Bytecode.tcode;
          fregs = Array.copy tp.Bytecode.t_finit;
          iregs = Array.copy tp.Bytecode.t_iinit;
          scalars;
          arrays;
          aslots;
          arefs = p.Bytecode.arrays;
          raws;
          env;
          scope;
          callees = Array.make p.Bytecode.ncalls None;
          cargs = tp.Bytecode.t_chunk_args;
          tick = 0;
          crit = 0;
        })

let check_alloc bad ~store =
  match bad with Unallocated n -> Storage.unallocated_error n ~store | Good | Rank_mismatch -> ()

(* The out-of-range branch, which every access through a bad binding
   takes (its bounds are empty): raise what the tree-walker raises for
   the same subscripts — the unallocated error, or [Farray]'s rank or
   bounds error. *)
let oob ab ~store (idx : int array) =
  check_alloc ab.c_bad ~store;
  ignore (Farray.offset ab.c_ba idx);
  corrupt ()

let loop_completed lo hi step = lo + (step * max 0 ((hi - lo + step) / step))

(* A comparison of the typed code.  Reals compare in [Float.compare]'s
   total order (NaN below everything, NaN = NaN), as the tree-walker's
   polymorphic [compare] does, not IEEE's. *)
let[@inline] fcmp c (x : float) y =
  let k = Float.compare x y in
  match c with
  | Bytecode.Clt -> k < 0
  | Bytecode.Cle -> k <= 0
  | Bytecode.Cgt -> k > 0
  | Bytecode.Cge -> k >= 0
  | Bytecode.Ceq -> k = 0
  | Bytecode.Cne -> k <> 0

let[@inline] icmp c (x : int) y =
  match c with
  | Bytecode.Clt -> x < y
  | Bytecode.Cle -> x <= y
  | Bytecode.Cgt -> x > y
  | Bytecode.Cge -> x >= y
  | Bytecode.Ceq -> x = y
  | Bytecode.Cne -> x <> y

(* The cancellation poll, every 256 ticks of the frame. *)
let poll fr =
  fr.tick <- fr.tick + 1;
  if fr.tick land 255 = 0 then Fault.check_current ()

(* --- reusable callee frames ---------------------------------------------- *)

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
   replaced (fresh locals, re-ALLOCATEd module arrays), the element
   kinds and the value kind of every scalar but the fresh locals.
   [false] sends this call down the scope path. *)
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
        | Some ab when elem_ok r e -> arrays.(i) <- ab
        | _ -> raise Exit)
    done;
    let tp = p.Bytecode.fp_prog.Bytecode.typed in
    let ix = p.Bytecode.fp_kind_scalars in
    for j = 0 to Array.length ix - 1 do
      let i = ix.(j) in
      if not (typed_slot_ok tp.Bytecode.t_sty.(i) fr.scalars.(i)) then raise Exit
    done;
    if not (typed_raws_ok tp fr.raws) then raise Exit;
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

(* An actual copied in from a register, boxed at the call boundary. *)
let targ_value fr = function
  | Bytecode.Ta_f r -> Value.Real fr.fregs.(r)
  | Bytecode.Ta_i r -> Value.Int fr.iregs.(r)
  | Bytecode.Ta_b r -> Value.Bool (fr.iregs.(r) <> 0)
  | Bytecode.Ta_alias _ -> corrupt ()

(* A call's result into its bank; [no_result] from a subroutine called
   as a function is the tree-walker's error. *)
let store_result fr (cs : Bytecode.call_site) (res : Bytecode.tres) v =
  match (res, v) with
  | Bytecode.Tr_none, _ -> ()
  | _ when v == no_result -> Storage.error "subroutine %s used as a function" cs.Bytecode.cs_name
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
   ended it (a chunk's top-level EXIT raises [Loop_exit]).  Opcodes
   work on the float and int banks, each the primitive operation the
   tree-walker's [Value] function performs on the value kinds the
   binder verified, so the float/int results are bit-identical
   (DESIGN.md §16).  RETURN, and any exception, release the CRITICAL
   locks still held, like Fun.protect in the tree-walker. *)
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
       | Bytecode.TpowI (d, a, k) ->
         let x = iregs.(a) in
         let acc = ref 1 in
         for _ = 1 to k do
           acc := !acc * x
         done;
         iregs.(d) <- !acc;
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
         iregs.(d) <- (if fcmp c fregs.(a) fregs.(b) then 1 else 0);
         incr pc
       | Bytecode.TcmpI (c, d, a, b) ->
         iregs.(d) <- (if icmp c iregs.(a) iregs.(b) then 1 else 0);
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
         (* variadic_minmax's pick is (>) on floats, which is false
            when either side is NaN: the first argument stays *)
         let x = fregs.(a) and y = fregs.(b) in
         fregs.(d) <- (if y > x then y else x);
         incr pc
       | Bytecode.TminF (d, a, b) ->
         let x = fregs.(a) and y = fregs.(b) in
         fregs.(d) <- (if y < x then y else x);
         incr pc
       | Bytecode.TmaxI (d, a, b) ->
         (* the tree-walker's pick compares to_floats, so go through
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
       | Bytecode.TjcmpF (c, a, b, t) -> if fcmp c fregs.(a) fregs.(b) then pc := t else incr pc
       | Bytecode.TjcmpI (c, a, b, t) -> if icmp c iregs.(a) iregs.(b) then pc := t else incr pc
       | Bytecode.Tjalloc (rid, name, sense, t) ->
         if Storage.allocated fr.raws.(rid) name = sense then pc := t else incr pc
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
    Bytecode.Stats.run (Bytecode.plan_site cf.plan);
    (match texec cf.frame with
    | _ -> cf.busy <- false
    | exception e ->
      cf.busy <- false;
      raise e);
    true
  end

(* A compiled call.  Through the callee's reusable frame when there is
   one and it takes the call: the actuals go straight into its dummy
   slots.  Otherwise the scope path, with the tree-walker's bindings. *)
and call fr (cs : Bytecode.call_site) (args : Bytecode.targ array) (res : Bytecode.tres) =
  let frame_ran =
    match callee fr.callees fr.env cs with
    | Some cf when not cf.busy ->
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
    fr.iregs.(regs.(k)) <- args.(k)
  done;
  if texec fr then raise Storage.Sub_return
