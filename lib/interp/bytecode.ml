(** Bytecode compiler for whole subprograms and parallel-DO chunks.

    The tree-walker pays a [Hashtbl.find], an exception handler and a
    closure allocation or two on every statement of every iteration.
    For the hot loops this repo measures (SARB's 2x60 exchange nests,
    FUN3D's edge loops) that per-iteration overhead dwarfs the actual
    arithmetic, so eligible loop bodies are lowered once to a flat
    register-style instruction array and executed by {!Vm}'s dispatch
    loop instead.  Since PR 9 the lowering also crosses call
    boundaries: user subprograms compile once into cached programs
    ({!compile_sub}), call sites marshal arguments with the exact
    by-reference semantics of the tree-walker's [bind_actual]
    ([Tcall]), small leaf subprograms are inlined into the caller's
    instruction stream, and every program runs over unboxed typed
    register banks.  The compiler emits that typed code in one pass:
    each construct is typed where it is compiled, every operand a
    real, an integer or a logical register — calls and allocation
    included — or the program bails like any other construct the
    compiler has no instruction for (DESIGN.md sections 26 and 31).
    A subprogram body keeps its private scalars — the locals nothing
    outside the running call can observe — in registers of their own
    instead of scope slots ({!private_scalars}, DESIGN.md
    section 20), and an inlined leaf reads such a register in place
    when it never assigns the dummy.  Literals and folded
    PARAMETERs are constant registers the bind preloads
    ([tprogram.t_finit], [t_iinit]) rather than instructions, a serial
    DO tests and polls once per iteration at its continue point
    ([Tloop_next]), and
    RETURN ends the VM's pass without an exception (DESIGN.md
    section 22).  A parallel DO's chunk is one program that loops over
    the chunk itself, with its DO variables, privates, reduction
    accumulators and the shared scalars it only reads in registers
    ({!compile_chunk}, DESIGN.md section 24), and a parallel DO inside
    a compiled body is one instruction ([Tomp_do], DESIGN.md section 13).
    IF and DO WHILE conditions compile to fused jumps, a result assigned
    to a home register is computed straight into it, and the slot loads
    a serial DO's body cannot change run once before the loop
    ({!compile_branch}, {!result}, {!hoist_loads}, DESIGN.md section 27).

    Design rules (DESIGN.md sections 13 and 16):
    - {e Compile or fall back, never approximate.}  Compilation raises
      {!Bail} (with the offending construct's name, for the stats
      counters) for anything whose tree-walk semantics we are not
      prepared to replicate exactly; the caller then runs the
      tree-walker, so behaviour is unchanged by construction.  The
      fallback unit is one callee or one chunk, never the whole
      program.
    - {e Same operations, same order.}  Generated code calls the exact
      [Value]/[Farray]/[Intrinsics] functions the tree-walker calls,
      in the same evaluation order, so results — including error
      messages and Fortran coercion quirks — are bit-identical.
    - {e Names resolve late.}  Compilation classifies each name
      against a representative scope but records only (name, field
      path, kind); {!Vm.bind} re-resolves against the executing scope
      (each pooled worker's private clone) and refuses mismatches,
      falling back to the tree-walker.  Anything compilation baked in
      from the representative scope — folded PARAMETER values, names
      it resolved as intrinsics or functions because they were not
      variables — is recorded in [checks]/[negatives] and re-verified
      at bind time, so a structurally identical body in a differently
      shaped scope can never run the wrong code.
    - {e Keyed by structure, not identity.}  Programs are cached by an
      MD5 digest of the marshalled AST (namespaced by the digest of
      the whole compilation unit, because call compilation consults
      the unit's subprogram table), so re-parsing an identical inline
      script — the listener does this on every request — hits the
      cache instead of recompiling. *)

open Glaf_fortran
open Glaf_runtime

(* One global mutex guards the digest memos, the program cache and the
   stats table.  Compiles run outside it (double-checked insert); only
   Hashtbl lookups and small Marshal digests run under it. *)
let global_mutex = Mutex.create ()

let locked f =
  Mutex.lock global_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock global_mutex) f

(** {1 Bail / coverage statistics}

    One site per compiled construct (subprogram body or parallel-DO
    chunk),
    keyed by (unit, site id).  [sk_runs] counts bytecode executions,
    [sk_bails] tree-walk fallbacks (compile bails and bind refusals
    alike); [sk_reason] names the first reason the site fell back: the
    construct that made compilation bail, or the binding that refused
    the compiled program. *)
module Stats = struct
  type site = {
    sk_unit : string;
    sk_id : string;
    sk_label : string;
    mutable sk_reason : string option;
    sk_runs : int Atomic.t;
    sk_bails : int Atomic.t;
    sk_gen : int;  (** [generation] when registered *)
  }

  (* Bumped by [reset]: a site held past a reset (by a frame plan) is
     re-registered on its next use. *)
  let generation = Atomic.make 0

  (* A read-only copy of a site, for reporting. *)
  type row = {
    r_unit : string;
    r_id : string;
    r_label : string;
    r_reason : string option;
    r_runs : int;
    r_bails : int;
  }

  let tbl : (string * string, site) Hashtbl.t = Hashtbl.create 64

  let get ~unit_key ~id ~label : site =
    locked (fun () ->
        match Hashtbl.find_opt tbl (unit_key, id) with
        | Some s -> s
        | None ->
          let s =
            {
              sk_unit = unit_key;
              sk_id = id;
              sk_label = label;
              sk_reason = None;
              sk_runs = Atomic.make 0;
              sk_bails = Atomic.make 0;
              sk_gen = Atomic.get generation;
            }
          in
          Hashtbl.replace tbl (unit_key, id) s;
          s)

  let run s = Atomic.incr s.sk_runs

  (* Unlocked test first: every bind refusal of a site calls this. *)
  let set_reason s reason =
    if s.sk_reason = None then
      locked (fun () ->
          match s.sk_reason with
          | Some _ -> ()
          | None -> s.sk_reason <- Some reason)

  let bail ?reason s =
    Atomic.incr s.sk_bails;
    Option.iter (set_reason s) reason

  let snapshot () : row list =
    let rows =
      locked (fun () ->
          Hashtbl.fold
            (fun _ s acc ->
              {
                r_unit = s.sk_unit;
                r_id = s.sk_id;
                r_label = s.sk_label;
                r_reason = s.sk_reason;
                r_runs = Atomic.get s.sk_runs;
                r_bails = Atomic.get s.sk_bails;
              }
              :: acc)
            tbl [])
    in
    List.sort
      (fun a b ->
        match compare a.r_unit b.r_unit with
        | 0 -> compare a.r_id b.r_id
        | c -> c)
      rows

  let reset () =
    locked (fun () ->
        Hashtbl.reset tbl;
        Atomic.incr generation)

  let purge_unit u =
    locked (fun () ->
        let doomed =
          Hashtbl.fold
            (fun k s acc -> if s.sk_unit = u then k :: acc else acc)
            tbl []
        in
        List.iter (Hashtbl.remove tbl) doomed)
end


(** Scalar binding descriptor: [spath] is the derived-type component
    chain ([fo%fuir] gives [sname = "fo"], [spath = ["fuir"]]).
    [sbase] is the declared base type seen at compile time: the kind the
    code reads and writes the slot as, which the bind re-checks. *)
type scalar_ref = { sname : string; spath : string list; sbase : Ast.base_type }

(** Array binding descriptor; [asubs] is the subscript count at the
    use sites (1 or 2), which the bound array's rank must equal.
    [aelem] is the element kind seen at compile time: the bank the code
    loads and stores its elements in, re-validated by the bind. *)
type array_ref = {
  aname : string;
  apath : string list;
  asubs : int;
  aelem : Farray.elem;
  amaybe : bool;
      (** may be unallocated while the program runs: the slot was
          [Unalloc] at compile time or the unit DEALLOCATEs the name.
          Only these bind while unallocated (see {!Vm.bind}), and a
          non-trivial subscript of one is preceded by [Tcheck_alloc] so
          the tree-walker's "used before allocation" error fires before
          the subscripts are evaluated. *)
}

(** {1 Register files}

    The compiler emits one [tinstr] stream over two unboxed banks, a
    [float array] and an [int array] (bools live in it as 0/1): every
    operand it compiles is a register of a known kind, or the program
    bails.  Every typed opcode performs the same primitive float/int
    operation, in the same order, as the tree-walker's [Value]
    function — unboxing removes allocation and dispatch cost, never
    changes an IEEE-754 bit (DESIGN.md section 16 has the
    instruction-by-instruction argument). *)

type cmp = Clt | Cle | Cgt | Cge | Ceq | Cne

(** The value kind of a typed register or scalar slot: float bank,
    int bank, or a bool as 0/1 in the int bank. *)
type ty = TF | TI | TB

(** A compiled call site.  The callee AST rides along so the VM's
    [callenv] can dispatch it without any name lookup: the same
    (subprogram, module) pair the compiler resolved.  [cs_plan] caches
    the callee's frame plan once the first call has compiled it. *)
type call_site = {
  cs_sub : Ast.subprogram;
  cs_mod : string option;  (** enclosing module, for the callee scope *)
  cs_name : string;  (** call-site spelling, for error messages *)
  cs_idx : int;
      (** index among the program's call sites: the slot of the calling
          frame's per-site callee-frame cache *)
  cs_reval : bool;
      (** the callee may (de)allocate an array the caller can bind, so
          the caller re-reads its array slots after the call (see
          {!effects}) *)
  mutable cs_plan : plan_state;
}

and plan_state =
  | Plan_unknown  (** no call through this site has finished yet *)
  | Plan_none  (** the callee does not compile, or has no plan *)
  | Plan of frame_plan

(** Where a name of a compiled callee lives, for frame reuse. *)
and src =
  | Src_arg of int  (** dummy argument k: re-bound on every call *)
  | Src_local of int  (** fresh local k of [fp_locals]: reset per call *)
  | Src_save  (** per-domain SAVE slot: bound once per frame *)
  | Src_stable  (** module or COMMON slot: bound once per frame *)

(** The entry a fresh local gets at the start of every call, exactly
    what [setup_scope]'s [make_slot] (plus a static initializer) would
    build.  A scalar's entry is immutable, so one is shared by every
    call. *)
and local_init =
  | L_scalar of Storage.entry
  | L_array of Farray.elem * (int * int) array
  | L_unalloc of Farray.elem * int

(** A frame plan: how to turn a bound frame of [fp_prog] for one call
    into a bound frame for the next without rebuilding the scope.
    Built once per (unit, callee) from the callee's declarations
    alone; the slots themselves belong to per-state, per-domain frames
    ({!Vm.cframe}). *)
and frame_plan = {
  fp_uid : int;  (** key of the per-domain frame tables *)
  fp_prog : program;
  mutable fp_site : Stats.site;  (** read through {!plan_site} *)
  fp_nargs : int;
  fp_arg_scalars : (int * int) array;
      (** (index in [fp_prog.scalars], dummy index) of each scalar taken
          from a dummy: the only scalar bindings a call re-points *)
  fp_arg_arrays : (int * int) array;  (** likewise for [fp_prog.arrays] *)
  fp_arg_raws : (int * int) array;  (** likewise for [fp_prog.raws] *)
  fp_kind_scalars : int array;
      (** scalars whose value kind a typed frame re-checks on every
          call: all but the fresh locals, whose reset entry has the
          declared kind *)
  fp_locals : (string * local_init) array;
  fp_real_dummies : int array;
      (** dummies declared REAL: the redeclaration quirk rewrites an
          Int actual to Real in place, as [setup_scope] does *)
  fp_arg_checks : (int * string list * Value.t) array;
      (** folded PARAMETER values reached through a dummy: dummy
          index, component path, value; verified on every call *)
  fp_result : src option;  (** function result slot *)
}

and program = {
  scalars : scalar_ref array;
  arrays : array_ref array;
  raws : string array;
      (** whole-slot aliases for [Tcall] marshalling: resolved by name
          at bind time, any entry kind *)
  checks : (scalar_ref * Value.t) array;
      (** PARAMETER scalars folded into the code as constants; bind
          verifies the executing scope still holds exactly this value *)
  negatives : string array;
      (** names compilation resolved as not-in-scope (intrinsics, user
          functions); bind verifies they are still not variables *)
  ncalls : int;  (** call sites ([cs_idx] ranges over [0, ncalls)) *)
  promoted : string array;
      (** a subprogram's private scalars, kept in registers: no slot of
          the executing scope is read or written for them *)
  chunk_homes : scalar_ref array;
      (** the scalars a chunk program keeps in home registers: bind
          verifies each is a scalar slot of the executing scope with
          the base the homes were compiled for *)
  typed : tprogram;  (** the code over the typed banks *)
}

(** Register-style instructions over the two banks.  [int] operands
    are register indices except where noted; jump targets are
    instruction indices. *)
and tinstr =
  | TconstF of int * float
      (** dst <- value, for writes that must run: home zeroing, inline
          locals and results, the [.and.]/[.or.] diamonds; literals and
          folded PARAMETERs are constant registers *)
  | TconstI of int * int  (** ints; bools are 0/1 in the int bank *)
  | TmovF of int * int
  | TmovI of int * int
  | TldsF of int * int  (** dst <- slot (must hold Real), scalar id *)
  | TldsI of int * int
  | TldsB of int * int  (** dst (int bank, 0/1) <- Bool slot *)
  | TstsF of int * int  (** slot <- Real dst: declared-real slot *)
  | TstsF_ofI of int * int  (** declared-real slot <- float_of_int reg *)
  | TstsI of int * int
  | TstsI_ofF of int * int  (** declared-int slot <- int_of_float reg *)
  | TstsB of int * int
  | TstsI_raw of int * int
      (** scalar id <- src, no coercion (DO-variable stores, matching
          the tree-walker's raw [Scalar (Int i)] writes) *)
  | Ti2f of int * int  (** float dst <- float_of_int int src *)
  | Tf2i of int * int  (** int dst <- int_of_float float src *)
  | Tld1F of int * int * int  (** dst, array id, index reg (rank 1) *)
  | Tld2F of int * int * int * int
  | Tld1I of int * int * int
  | Tld2I of int * int * int * int
  | Tst1F of int * int * int  (** array id, index reg, src *)
  | Tst2F of int * int * int * int
  | Tst1I of int * int * int
  | Tst2I of int * int * int * int
  | TaddF of int * int * int
  | TsubF of int * int * int
  | TmulF of int * int * int
  | TdivF of int * int * int
  | TpowF of int * int * int
  | TpowI of int * int * int
      (** dst, base, exponent k >= 0 (a constant): [k] multiplications
          of 1 by the base, like [Value.pow] *)
  | TaddI of int * int * int
  | TsubI of int * int * int
  | TmulI of int * int * int
  | TdivI of int * int * int  (** checks the divisor like [Value.div] *)
  | TmodI of int * int * int  (** MOD intrinsic, int args *)
  | TcmpF of cmp * int * int * int  (** int dst <- 0/1, [Float.compare] *)
  | TcmpI of cmp * int * int * int
  | TnegF of int * int
  | TnegI of int * int
  | Tnot of int * int  (** int dst <- 1 - (src <> 0) *)
  | Tbool of int * int  (** int dst <- src <> 0 (normalize to 0/1) *)
  | Tcheck_step of int  (** error if int reg is 0 (DO step) *)
  | Tin1F of string * (float -> float) * int * int  (** intrinsic f(x) *)
  | Tin2F of string * (float -> float -> float) * int * int * int
  | TfniF of string * (float -> int) * int * int  (** nint/floor/... *)
  | TmaxF of int * int * int  (** IEEE [>] pick, like variadic_minmax *)
  | TminF of int * int * int
  | TmaxI of int * int * int  (** compared via float_of_int, like [Value] *)
  | TminI of int * int * int
  | TabsF of int * int
  | TabsI of int * int
  | Tjmp of int
  | Tjf of int * int  (** jump when int reg = 0 *)
  | Tjt of int * int
  | TjcmpF of cmp * int * int * int
      (** a, b, target: jump when [Float.compare a b] satisfies the cmp *)
  | TjcmpI of cmp * int * int * int
  | Tjalloc of int * string * bool * int
      (** raw-slot id, name, sense, target: jump when allocated(raw
          slot) is [sense] *)
  | Tloop_test of { t_ireg : int; t_hireg : int; t_stepreg : int; t_target : int }
      (** serial-DO header: jump to [t_target] when the counter has
          passed the bound for the step's sign *)
  | Tloop_next of { t_ireg : int; t_hireg : int; t_stepreg : int; t_target : int }
      (** serial-DO continue point: counter <- counter + step; when it
          has not passed the bound, poll and jump to [t_target], the
          first instruction after the header's [Tpoll], else fall
          through *)
  | Tloop_fini of { t_sid : int; t_loreg : int; t_hireg : int; t_stepreg : int }
      (** normal serial-DO completion: store the loop-completed value
          [lo + step * max 0 ((hi-lo+step)/step)]; an EXIT jumps past
          this, so the DO variable keeps its value at the EXIT *)
  | Tloop_fini_reg of { t_dst : int; t_loreg : int; t_hireg : int; t_stepreg : int }
      (** [Tloop_fini] for a DO variable promoted to register [t_dst] *)
  | Tpoll  (** cancellation poll (every 256 ticks) *)
  | Tcrit_enter  (** lock the global CRITICAL/ATOMIC mutex *)
  | Tcrit_exit
  | Treturn  (** RETURN: release CRITICAL locks, end the pass *)
  | Texit  (** a chunk's top-level EXIT: raise [Loop_exit] *)
  | Tcall of call
      (** marshal the actuals, run the callee: typed actuals are boxed
          at the call boundary, the result lands in the bank of the
          callee's declared result kind *)
  | Tallocate of { ta_raw : int; ta_name : string; ta_bounds : (int * int) array }
      (** ALLOCATE one variable: raw-slot id, name for errors, (lo, hi)
          int-bank registers per dimension *)
  | Tdealloc of int * string  (** DEALLOCATE: raw-slot id, name *)
  | Tallocated of int * int * string  (** int dst <- 0/1 allocated(raw slot) *)
  | Tcheck_alloc of int * bool
      (** array id, is-store: raise the tree-walker's unallocated-array
          error before the access's subscripts are evaluated *)
  | Tomp_do of omp_do
      (** a parallel DO: the interpreter's region entry runs it on the
          frame's scope, then the frame re-reads its array slots *)

(** A parallel DO inside a compiled body (DESIGN.md section 13).  Every
    name it mentions stays a scope slot.  [od_kinds] are the raw slots
    the loop may store a raw Int into ([true]: DO variables, callees'
    integer stores) or rewrite from Int to Real ([false]), verified at
    a typed bind like a typed call's ({!tprogram.t_raw_int}). *)
and omp_do = { od_loop : Ast.do_loop; od_kinds : (int * bool) list }

(** A compiled call: the site, how each actual is passed, and where the
    result goes. *)
and call = { tc_site : call_site; tc_args : targ array; tc_res : tres }

(** How one actual is passed.  The shapes mirror the tree-walker's
    [bind_actual] exactly: whole-variable designators alias the slot,
    everything else is a plain copied value, from the float bank, the
    int bank or a 0/1 bool.  An array-element actual
    (copy-in/copy-out) bails. *)
and targ =
  | Ta_alias of int  (** raw-slot id: pass the caller's slot itself *)
  | Ta_f of int
  | Ta_i of int
  | Ta_b of int

(** Where a call's result goes: nowhere (statement CALL) or a register
    of the float bank, the int bank or a bool in the int bank. *)
and tres = Tr_none | Tr_f of int | Tr_i of int | Tr_b of int

(** A program's typed code: registers split across float and int
    banks.  [t_sty] gives the value kind every scalar slot must hold
    for the typed code to be exact; the bind re-checks it and refuses
    the program on mismatch, so that run tree-walks. *)
and tprogram = {
  tcode : tinstr array;
  t_finit : float array;
      (** the float bank at bind: constant registers (literals, folded
          PARAMETERs, the default DO step and ALLOCATE lower bound) in
          place, never written *)
  t_iinit : int array;  (** the int bank at bind: constants in place *)
  t_sty : ty array;  (** per-scalar expected value kind *)
  t_chunk_args : int array;
      (** a parallel-DO chunk program's argument registers in the int
          bank, which {!Vm.run_chunk} sets before the pass: the chunk's
          first and last iteration, then for COLLAPSE(2) the outer lower
          bound, the inner lower bound and the inner trip count; empty
          for other programs *)
  t_raw_int : (int * bool) array;
      (** raw ids passed to a callee that may rewrite an Int actual to
          Real ([false]: the slot must not hold an Int) or store a raw
          Int into it ([true]: it must hold one); verified at bind, see
          {!effects} *)
}

(** Compilation environment beyond the representative scope: what the
    unit as a whole provides.  [e_unit] namespaces the program cache
    and the stats sites; [e_subs] is the interpreter's subprogram
    table (shared, read-only here); and [e_module_scope] peeks at
    already-initialized module scopes (never forcing initialization)
    for the inliner's shadowing check. *)
type env = {
  e_unit : string;
  e_subs : (string, Ast.subprogram * string option) Hashtbl.t;
  e_module_scope : string -> Storage.scope option;
}

(* --- compilation context ------------------------------------------------- *)

(* Construct not covered: caller falls back to tree-walk.  The string
   is the construct's name, surfaced through the bail counters. *)
exception Bail of string

let bail reason = raise (Bail reason)

(* Enclosing loop construct, for EXIT/CYCLE lowering: where to jump
   and how many CRITICAL locks to release on the way out. *)
type loop_ctx = {
  mutable exit_patches : int list;
  mutable cont_patches : int list;  (* empty when cont_target is known *)
  cont_target : int option;
  crit_at_entry : int;
}

(* A compiled value: a register of the float bank ([TF]) or of the int
   bank ([TI], or a 0/1 [TB]), and what else may read or write it. *)
type opnd = { r : int; k : ty; role : role }

and role =
  | Temp  (** written only by the expression that computes it *)
  | Var
      (** a variable's register, which statements assign: a home, an
          inlined leaf's local *)
  | Const of Value.t  (** preloaded by the bind, never written *)

(* How a name inside an inlined callee resolves: a caller scalar slot
   (aliased dummy: scalar id and the kind it holds) or a register
   (callee local or result, or a home the leaf reads in place). *)
type ibind = Ib_slot of int * ty | Ib_reg of int * Ast.base_type

type iframe = {
  imap : (string, ibind) Hashtbl.t;
  mutable iret : int list;  (* RETURN -> jump-to-inline-end patch sites *)
}

(* A constant's identity: its kind and bit pattern, so [0.0d0] and
   [-0.0d0] get registers of their own. *)
type const_key = K_int of int | K_real of int64 | K_bool of bool

type ctx = {
  env : env;
  scope : Storage.scope;
  mutable code : tinstr array;  (* the program's one code vector *)
  mutable len : int;
  mutable nf : int;  (* float-bank registers in use *)
  mutable ni : int;  (* int-bank registers in use *)
  scalar_ids : (string * string list, int * ty) Hashtbl.t;
  mutable scalar_refs : scalar_ref list;  (* reversed *)
  array_ids : (string * string list * int, int) Hashtbl.t;
  mutable array_refs : array_ref list;  (* reversed *)
  raw_ids : (string, int) Hashtbl.t;
  mutable raw_refs : string list;  (* reversed *)
  check_ids : (string * string list, unit) Hashtbl.t;
  mutable checks : (scalar_ref * Value.t) list;
  negs : (string, unit) Hashtbl.t;
  mutable loops : loop_ctx list;  (* innermost first *)
  mutable crit : int;  (* compile-time CRITICAL nesting depth *)
  mutable end_patches : int list;  (* top-level CYCLE -> end of body *)
  mutable inline : iframe option;  (* set while expanding a leaf callee *)
  sub : Ast.subprogram option;
      (* the subprogram whose body this is; [None] for a chunk *)
  homes : (string, int * Ast.base_type) Hashtbl.t;
      (* promoted private scalars: home register, declared base *)
  mutable ncalls : int;
  const_ids : (const_key, opnd) Hashtbl.t;  (* preloaded by the bind *)
  movable : (int, unit) Hashtbl.t;
      (* the slot loads into temps, by code index: {!hoist_loads} may
         move them out of their loop *)
  mutable raw_int : (int * bool) list;  (* [t_raw_int], reversed *)
  mutable has_call : bool;  (* a call or a parallel DO was emitted *)
  dealloc_names : (string, unit) Hashtbl.t Lazy.t;
      (* every DEALLOCATE target in the unit: arrays that may be
         unallocated at run time even when allocated at compile time *)
}

(* A fresh register of the bank of kind [k]. *)
let fresh ctx k =
  match k with
  | TF ->
    let r = ctx.nf in
    ctx.nf <- r + 1;
    r
  | TI | TB ->
    let r = ctx.ni in
    ctx.ni <- r + 1;
    r

(* The register a result of kind [k] is computed in: the destination
   hint [dst] when it has that kind, else a fresh temp.  A hint is the
   home or inlined local the statement assigns the result to; a temp is
   read once, by that assignment, and every instruction reads its
   operands before it writes its result, so computing straight into the
   variable leaves the assignment nothing to move. *)
let result ctx ?dst k =
  match dst with
  | Some d when d.k = k -> { d with role = Temp }
  | _ -> { r = fresh ctx k; k; role = Temp }

(* The kind of a register or slot declared [base]. *)
let ty_of_base = function
  | Ast.Integer -> TI
  | Ast.Real | Ast.Real8 -> TF
  | Ast.Logical -> TB
  | _ -> bail "character or array constant"

let emit ctx i =
  if ctx.len = Array.length ctx.code then begin
    let bigger = Array.make (max 64 (2 * ctx.len)) Tpoll in
    Array.blit ctx.code 0 bigger 0 ctx.len;
    ctx.code <- bigger
  end;
  ctx.code.(ctx.len) <- i;
  ctx.len <- ctx.len + 1

let here ctx = ctx.len

(* [ins] with every jump target [t] replaced by [f t]. *)
let retarget f (ins : tinstr) =
  match ins with
  | Tjmp t -> Tjmp (f t)
  | Tjf (r, t) -> Tjf (r, f t)
  | Tjt (r, t) -> Tjt (r, f t)
  | TjcmpF (c, a, b, t) -> TjcmpF (c, a, b, f t)
  | TjcmpI (c, a, b, t) -> TjcmpI (c, a, b, f t)
  | Tjalloc (rid, n, sense, t) -> Tjalloc (rid, n, sense, f t)
  | Tloop_test lt -> Tloop_test { lt with t_target = f lt.t_target }
  | Tloop_next ln -> Tloop_next { ln with t_target = f ln.t_target }
  | ins -> ins

(* The register holding constant [v], taken from the program's constant
   table (preloaded into the banks at bind); nothing is emitted. *)
let const_reg ctx (v : Value.t) =
  let key, k =
    match v with
    | Value.Int n -> (K_int n, TI)
    | Value.Real x -> (K_real (Int64.bits_of_float x), TF)
    | Value.Bool b -> (K_bool b, TB)
    | Value.Str _ | Value.Arr _ -> bail "character or array constant"
  in
  match Hashtbl.find_opt ctx.const_ids key with
  | Some o -> o
  | None ->
    let o = { r = fresh ctx k; k; role = Const v } in
    Hashtbl.replace ctx.const_ids key o;
    o

(* Set register [r] of kind [k] to the zero [setup_scope] gives a fresh
   variable. *)
let emit_zero ctx k r = emit ctx (if k = TF then TconstF (r, 0.0) else TconstI (r, 0))

(* Emit a jump with a placeholder target; returns the patch site. *)
let emit_patchable ctx i =
  let at = here ctx in
  emit ctx i;
  at

let patch ctx at target = ctx.code.(at) <- retarget (fun _ -> target) ctx.code.(at)

(* Point the jumps at [sites] here. *)
let patch_here ctx sites = List.iter (fun at -> patch ctx at (here ctx)) sites

(* The id of scalar [name]%[path] in the program's table and the kind
   its slot holds; a slot of any other base makes the program
   untypable. *)
let scalar_id ctx (slot : Storage.slot) name path =
  let key = (name, path) in
  match Hashtbl.find_opt ctx.scalar_ids key with
  | Some idk -> idk
  | None ->
    let k =
      match slot.Storage.base with
      | Ast.Integer | Ast.Real | Ast.Real8 | Ast.Logical -> ty_of_base slot.Storage.base
      | _ -> bail ("scalar " ^ name ^ " is not integer, real or logical")
    in
    let id = Hashtbl.length ctx.scalar_ids in
    Hashtbl.replace ctx.scalar_ids key (id, k);
    ctx.scalar_refs <-
      { sname = name; spath = path; sbase = slot.Storage.base }
      :: ctx.scalar_refs;
    (id, k)

(* [unalloc]: the compile-time slot holds no array yet. *)
let array_id ctx ~unalloc elem name path nsubs =
  let key = (name, path, nsubs) in
  match Hashtbl.find_opt ctx.array_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length ctx.array_ids in
    Hashtbl.replace ctx.array_ids key id;
    let amaybe = unalloc || Hashtbl.mem (Lazy.force ctx.dealloc_names) name in
    ctx.array_refs <-
      { aname = name; apath = path; asubs = nsubs; aelem = elem; amaybe }
      :: ctx.array_refs;
    id

let array_ref ctx id =
  List.nth ctx.array_refs (Hashtbl.length ctx.array_ids - 1 - id)

let raw_id ctx name =
  match Hashtbl.find_opt ctx.raw_ids name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length ctx.raw_ids in
    Hashtbl.replace ctx.raw_ids name id;
    ctx.raw_refs <- name :: ctx.raw_refs;
    id

let note_check ctx (slot : Storage.slot) name path v =
  let key = (name, path) in
  if not (Hashtbl.mem ctx.check_ids key) then begin
    Hashtbl.replace ctx.check_ids key ();
    ctx.checks <-
      ({ sname = name; spath = path; sbase = slot.Storage.base }, v)
      :: ctx.checks
  end

let note_negative ctx name =
  if not (Hashtbl.mem ctx.negs name) then Hashtbl.replace ctx.negs name ()

(* --- digests and global tables ------------------------------------------- *)

let digest_of x =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* Memo tables keyed by an AST's physical identity.  [purge_unit]
   drops a unit's entries when a long-lived listener evicts it, so the
   tables hold only the ASTs someone still holds.  (Ephemeron tables
   would drop them too, but on OCaml 5.1 a table whose keys churn as
   fast as a listener's inline scripts slows every major cycle, and
   the heap grows with the requests served.) *)
module Phys (T : sig
  type t
end) =
Hashtbl.Make (struct
  type t = T.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Phys_loop = Phys (struct
  type t = Ast.do_loop
end)

module Phys_sub = Phys (struct
  type t = Ast.subprogram
end)

module Phys_cu = Phys (struct
  type t = Ast.compilation_unit
end)

(* [find] / [replace] of one memo table: the value for [key], computed
   outside the lock on a miss. *)
let memo find replace tbl compute key =
  match locked (fun () -> find tbl key) with
  | Some v -> v
  | None ->
    let v = compute key in
    locked (fun () -> replace tbl key v);
    v

(* The parser builds each AST once, so memoizing digests by physical
   identity makes the digest cost once-per-AST, not once-per-call. *)
let loop_digest_tbl : string Phys_loop.t = Phys_loop.create 16
let sub_digest_tbl : string Phys_sub.t = Phys_sub.create 64
let unit_key_tbl : string Phys_cu.t = Phys_cu.create 16

(* A whole DO loop, its bounds and OpenMP clauses included. *)
let loop_digest = memo Phys_loop.find_opt Phys_loop.replace loop_digest_tbl digest_of
let sub_digest = memo Phys_sub.find_opt Phys_sub.replace sub_digest_tbl digest_of

(** Stable cache/stats namespace for a compilation unit: the digest of
    its whole AST, so structurally identical re-parses share it. *)
let unit_key =
  memo Phys_cu.find_opt Phys_cu.replace unit_key_tbl (fun cu -> "u" ^ digest_of cu)

(* --- constant folding ---------------------------------------------------- *)

(* Fold literal-only subtrees with the same Value operations the
   tree-walker uses.  Anything that would raise at runtime is left
   unfolded so the error fires in its original place and order. *)
let rec static_eval (e : Ast.expr) : Value.t option =
  match e with
  | Ast.Int_lit n -> Some (Value.Int n)
  | Ast.Real_lit (x, _) -> Some (Value.Real x)
  | Ast.Logical_lit b -> Some (Value.Bool b)
  | Ast.Str_lit s -> Some (Value.Str s)
  | Ast.Unop (op, a) -> (
    match static_eval a with
    | None -> None
    | Some va -> (
      try
        Some
          (match op with
          | Ast.Neg -> Value.neg va
          | Ast.Pos -> va
          | Ast.Not -> Value.Bool (not (Value.to_bool va)))
      with Value.Runtime_error _ -> None))
  | Ast.Binop (op, a, b) -> (
    match (static_eval a, static_eval b) with
    | Some va, Some vb -> (
      try
        Some
          (match op with
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
          | Ast.And -> Value.Bool (Value.to_bool va && Value.to_bool vb)
          | Ast.Or -> Value.Bool (Value.to_bool va || Value.to_bool vb)
          | Ast.Eqv -> Value.Bool (Value.to_bool va = Value.to_bool vb)
          | Ast.Neqv -> Value.Bool (Value.to_bool va <> Value.to_bool vb)
          | Ast.Concat -> (
            match (va, vb) with
            | Value.Str x, Value.Str y -> Value.Str (x ^ y)
            | _ -> raise (Value.Runtime_error "unfoldable")))
      with Value.Runtime_error _ -> None)
    | _ -> None)
  | Ast.Desig _ | Ast.Implied_do _ | Ast.Section _ -> None

(* --- callee analysis ----------------------------------------------------- *)

(* The top-level expressions a statement evaluates itself (bodies of
   nested constructs are visited separately by fold_stmts). *)
let stmt_exprs (s : Ast.stmt) : Ast.expr list =
  match s with
  | Ast.Assign (d, e) -> [ Ast.Desig d; e ]
  | Ast.If_arith (c, _) -> [ c ]
  | Ast.If_block (branches, _) -> List.map fst branches
  | Ast.Do l -> (
    match l.Ast.do_step with
    | Some st -> [ l.Ast.do_lo; l.Ast.do_hi; st ]
    | None -> [ l.Ast.do_lo; l.Ast.do_hi ])
  | Ast.Do_while (c, _) -> [ c ]
  | Ast.Call (_, args) -> args
  | Ast.Print args -> args
  | Ast.Allocate allocs -> List.concat_map (fun (d, es) -> Ast.Desig d :: es) allocs
  | Ast.Deallocate ds -> List.map (fun d -> Ast.Desig d) ds
  | Ast.Stop _ | Ast.Return | Ast.Exit | Ast.Cycle | Ast.Continue
  | Ast.Comment _ | Ast.Omp_barrier ->
    []
  | Ast.Omp_atomic _ | Ast.Omp_critical _ -> []

(* The expressions [setup_scope] evaluates on every call of [sp]:
   declared bounds and initializers. *)
let decl_exprs (sp : Ast.subprogram) : Ast.expr list =
  let dims ds = List.concat_map (fun (lo, hi) -> Option.to_list lo @ [ hi ]) ds in
  List.concat_map
    (function
      | Ast.Var_decl { attrs; entities; _ } ->
        List.concat_map (function Ast.Dimension ds -> dims ds | _ -> []) attrs
        @ List.concat_map
            (fun (e : Ast.entity) ->
              Option.fold ~none:[] ~some:dims e.Ast.ent_dims @ Option.to_list e.Ast.ent_init)
            entities
      | _ -> [])
    sp.Ast.sub_decls

(* Names [sp] binds as variables: dummies, declared entities, COMMON
   members.  A designator head outside this set is an intrinsic or a
   function reference. *)
let local_var_names (sp : Ast.subprogram) : (string, unit) Hashtbl.t =
  let vars = Hashtbl.create 16 in
  (* the function's own name is its result variable, not a callee:
     without this every RETURN-carrying function looks self-recursive *)
  Hashtbl.replace vars sp.Ast.sub_name ();
  Hashtbl.replace vars (String.lowercase_ascii sp.Ast.sub_name) ();
  List.iter (fun n -> Hashtbl.replace vars n ()) sp.Ast.sub_args;
  List.iter
    (function
      | Ast.Var_decl { entities; _ } ->
        List.iter (fun e -> Hashtbl.replace vars e.Ast.ent_name ()) entities
      | Ast.Common (_, names) ->
        List.iter (fun n -> Hashtbl.replace vars n ()) names
      | _ -> ())
    sp.Ast.sub_decls;
  vars

(* The dummies [sp] may write: assignment/DO/ALLOCATE heads, whole-var
   actuals of nested calls, whole-var arguments of function-looking
   designator heads, and dummies the setup_scope redeclaration quirk
   can rewrite (declared REAL over an aliased Int).  Conservative by
   construction: used to refuse compiled calls that would mutate a
   caller PARAMETER slot our constant folding relies on. *)
let written_memo : (string, unit) Hashtbl.t Phys_sub.t = Phys_sub.create 32

let written_dummies : Ast.subprogram -> (string, unit) Hashtbl.t =
  memo Phys_sub.find_opt Phys_sub.replace written_memo @@ fun sp ->
    let dummies = sp.Ast.sub_args in
    let w = Hashtbl.create 8 in
    let note n = if List.mem n dummies then Hashtbl.replace w n () in
    let vars = local_var_names sp in
    List.iter
      (function
        | Ast.Var_decl { base; entities; _ }
          when base = Ast.Real || base = Ast.Real8 ->
          List.iter (fun e -> note e.Ast.ent_name) entities
        | _ -> ())
      sp.Ast.sub_decls;
    let check_expr e =
      Ast.fold_expr
        (fun () e ->
          match e with
          | Ast.Desig ((h, hargs) :: _)
            when (not (Hashtbl.mem vars h))
                 && not
                      (Hashtbl.mem Intrinsics.tbl (String.lowercase_ascii h))
            ->
            (* function-looking head: its whole-var arguments bind by
               reference in the callee and may be written there *)
            List.iter
              (function Ast.Desig [ (n, []) ] -> note n | _ -> ())
              hargs
          | _ -> ())
        () e
    in
    Ast.fold_stmts
      (fun () s ->
        (match s with
        | Ast.Assign ((h, _) :: _, _) -> note h
        | Ast.Do l -> note l.Ast.do_var
        | Ast.Allocate allocs ->
          List.iter
            (fun (d, _) -> match d with (h, _) :: _ -> note h | [] -> ())
            allocs
        | Ast.Deallocate ds ->
          List.iter (function (h, _) :: _ -> note h | [] -> ()) ds
        | Ast.Call (_, args) ->
          List.iter
            (function Ast.Desig [ (n, []) ] -> note n | _ -> ())
            args
        | _ -> ());
        List.iter check_expr (stmt_exprs s))
      () sp.Ast.sub_body;
    w

(* --- value-kind effects of calls ------------------------------------------ *)

(* A typed frame checks once, at bind, that each scalar slot it reads
   holds the value kind it was compiled for.  Coercing stores keep a
   slot's kind, so only two things can change it under a running frame:
   the setup_scope quirk, which rewrites an Int aliased to a dummy
   declared REAL into a Real, and a DO loop, which stores raw Ints into
   its variable.  [fx_real.(k)]/[fx_int.(k)] say whether a call of the
   subprogram may do either to its k-th actual's slot (index [nargs] is
   a function's result slot); [ue_real]/[ue_int] collect the non-local
   names some subprogram may do it to.  Dummies passed on to further
   calls propagate, so the unit is solved to a fixpoint.  Names are
   matched conservatively: any bare actual, any designator head that
   names a subprogram.

   The same pass collects what a call may (de)allocate, for the
   caller's decision to re-read its array slots afterwards:
   [fx_alloc_out] when the callee, or anything it calls, ALLOCATEs or
   DEALLOCATEs a dummy, a module or a COMMON name; [fx_alloc_saves] the
   (lowercase) subprograms whose SAVE locals it may (de)allocate.  A
   fresh local of any activation is invisible to every caller. *)
type effects = {
  fx_real : bool array;
  fx_int : bool array;
  mutable fx_alloc_out : bool;
  fx_alloc_saves : (string, unit) Hashtbl.t;
}

type unit_effects = {
  ue_subs : (string, effects) Hashtbl.t;  (** by lowercase subprogram name *)
  ue_real : (string, unit) Hashtbl.t;
  ue_int : (string, unit) Hashtbl.t;
}

let effects_memo : (string, unit_effects) Hashtbl.t = Hashtbl.create 16

let solve_effects (subs : (string, Ast.subprogram * string option) Hashtbl.t) :
    unit_effects =
  let ue = { ue_subs = Hashtbl.create 32; ue_real = Hashtbl.create 8; ue_int = Hashtbl.create 8 } in
  let all = Hashtbl.fold (fun key (sp, _) acc -> (key, sp) :: acc) subs [] in
  List.iter
    (fun (key, (sp : Ast.subprogram)) ->
      let n = List.length sp.Ast.sub_args + 1 in
      Hashtbl.replace ue.ue_subs key
        {
          fx_real = Array.make n false;
          fx_int = Array.make n false;
          fx_alloc_out = false;
          fx_alloc_saves = Hashtbl.create 2;
        })
    all;
  let changed = ref true in
  let sub_effects (key, (sp : Ast.subprogram)) =
    let fx = Hashtbl.find ue.ue_subs key in
    let nargs = List.length sp.Ast.sub_args in
    let vars = local_var_names sp in
    let commons = List.concat_map (function Ast.Common (_, ns) -> ns | _ -> []) sp.Ast.sub_decls in
    let declared n =
      List.find_map
        (function
          | Ast.Var_decl { attrs; entities; _ } ->
            if List.exists (fun e -> e.Ast.ent_name = n) entities then Some attrs else None
          | _ -> None)
        sp.Ast.sub_decls
    in
    let local n = (not (List.mem n commons)) && declared n <> None in
    let add_save s =
      if not (Hashtbl.mem fx.fx_alloc_saves s) then begin
        Hashtbl.replace fx.fx_alloc_saves s ();
        changed := true
      end
    in
    let alloc_out () =
      if not fx.fx_alloc_out then begin
        fx.fx_alloc_out <- true;
        changed := true
      end
    in
    let note_alloc d =
      let n = Ast.desig_name d in
      if List.mem n sp.Ast.sub_args || not (local n) then alloc_out ()
      else if List.mem Ast.Save (Option.value (declared n) ~default:[]) then add_save key
    in
    (* note that a call of [sp] may rewrite name [n] (to Real if [real],
       else to a raw Int) *)
    let mark ~real n =
      let slot =
        match List.find_index (String.equal n) sp.Ast.sub_args with
        | Some k -> Some k
        | None -> if n = sp.Ast.sub_name && sp.Ast.sub_kind <> `Subroutine then Some nargs else None
      in
      match slot with
      | Some k ->
        let a = if real then fx.fx_real else fx.fx_int in
        if not a.(k) then begin
          a.(k) <- true;
          changed := true
        end
      | None ->
        let names = if real then ue.ue_real else ue.ue_int in
        if not (Hashtbl.mem names n || local n) then begin
          Hashtbl.replace names n ();
          changed := true
        end
    in
    List.iter
      (function
        | Ast.Var_decl { base = Ast.Real | Ast.Real8; entities; _ } ->
          List.iter
            (fun e ->
              if List.mem e.Ast.ent_name sp.Ast.sub_args then mark ~real:true e.Ast.ent_name)
            entities
        | _ -> ())
      sp.Ast.sub_decls;
    let pass callee args =
      match Hashtbl.find_opt ue.ue_subs (String.lowercase_ascii callee) with
      | Some cfx when not (Hashtbl.mem vars callee) ->
        if cfx.fx_alloc_out then alloc_out ();
        Hashtbl.iter (fun s () -> add_save s) cfx.fx_alloc_saves;
        List.iteri
          (fun j a ->
            match a with
            | Ast.Desig [ (n, []) ] when j < Array.length cfx.fx_real - 1 ->
              if cfx.fx_real.(j) then mark ~real:true n;
              if cfx.fx_int.(j) then mark ~real:false n
            | _ -> ())
          args
      | _ -> ()
    in
    let visit =
      Ast.fold_expr (fun () e -> match e with Ast.Desig ((h, args) :: _) -> pass h args | _ -> ()) ()
    in
    List.iter visit (decl_exprs sp);
    Ast.fold_stmts
      (fun () s ->
        (match s with
        | Ast.Do l -> mark ~real:false l.Ast.do_var
        | Ast.Call (c, args) -> pass c args
        | Ast.Allocate allocs -> List.iter (fun (d, _) -> note_alloc d) allocs
        | Ast.Deallocate ds -> List.iter note_alloc ds
        | _ -> ());
        List.iter visit (stmt_exprs s))
      () sp.Ast.sub_body
  in
  while !changed do
    changed := false;
    List.iter sub_effects all
  done;
  ue

let unit_effects env =
  match locked (fun () -> Hashtbl.find_opt effects_memo env.e_unit) with
  | Some ue -> ue
  | None ->
    let ue = solve_effects env.e_subs in
    locked (fun () -> Hashtbl.replace effects_memo env.e_unit ue);
    ue

(* Whether a call of [sp] compiled in [ctx] may (de)allocate an array
   the calling frame binds.  The frame binds dummies, module and COMMON
   names — [fx_alloc_out] — and SAVE locals: its own subprogram's, and,
   through an array dummy or from a chunk, anyone's. *)
let may_realloc_for ctx (sp : Ast.subprogram) =
  let scalar_dummy (f : Ast.subprogram) n =
    List.exists
      (function
        | Ast.Var_decl { attrs; entities; _ } ->
          (not (List.exists (function Ast.Dimension _ -> true | _ -> false) attrs))
          && List.exists
               (fun (e : Ast.entity) ->
                 e.Ast.ent_name = n && e.Ast.ent_dims = None && e.Ast.ent_deferred = None)
               entities
        | _ -> false)
      f.Ast.sub_decls
  in
  match Hashtbl.find_opt (unit_effects ctx.env).ue_subs (String.lowercase_ascii sp.Ast.sub_name) with
  | None -> true
  | Some fx -> (
    fx.fx_alloc_out
    || Hashtbl.length fx.fx_alloc_saves > 0
       &&
       match ctx.sub with
       | Some f ->
         Hashtbl.mem fx.fx_alloc_saves (String.lowercase_ascii f.Ast.sub_name)
         || not (List.for_all (scalar_dummy f) f.Ast.sub_args)
       | _ -> true)

(* The kind a function's result register gets: the declared kind of its
   result slot, when nothing in the callee can rewrite that slot. *)
let result_ty (sp : Ast.subprogram) (fx : effects) : ty option =
  let of_base = function
    | Ast.Integer -> Some TI
    | Ast.Real | Ast.Real8 -> Some TF
    | Ast.Logical -> Some TB
    | _ -> None
  in
  let n = List.length sp.Ast.sub_args in
  match sp.Ast.sub_kind with
  | `Subroutine -> None
  | `Function _ when List.mem sp.Ast.sub_name sp.Ast.sub_args || fx.fx_real.(n) || fx.fx_int.(n) ->
    None
  | `Function rt -> (
    let name = sp.Ast.sub_name in
    let declared =
      List.find_map
        (function
          | Ast.Var_decl { base; attrs; entities } ->
            List.find_map
              (fun (e : Ast.entity) ->
                if e.Ast.ent_name <> name then None
                else if attrs = [] && e.Ast.ent_dims = None && e.Ast.ent_deferred = None then
                  Some (of_base base)
                else Some None)
              entities
          | Ast.Common (_, names) when List.mem name names -> Some None
          | _ -> None)
        sp.Ast.sub_decls
    in
    match declared with
    | Some t -> t
    | None -> of_base (Option.value rt ~default:Ast.Real8))

(* --- leaf inlining plan -------------------------------------------------- *)

(* Body size cap for inlining, in statements (nested included). *)
let inline_max_stmts = 8

(* Shape of an inlinable leaf: straight-line numeric/logical code
   (Assign / IF / RETURN only), scalar dummies and locals, every
   designator a single scalar part or an intrinsic call.  [lf_heads]
   are the intrinsic heads, which the per-site check verifies are not
   shadowed by the callee's module scope. *)
type leaf_shape = { lf_heads : string list }

let leaf_memo : leaf_shape option Phys_sub.t = Phys_sub.create 32

let leaf_shape : Ast.subprogram -> leaf_shape option =
  memo Phys_sub.find_opt Phys_sub.replace leaf_memo @@ fun sp ->
    let ok = ref true in
    let nstmts = Ast.fold_stmts (fun n _ -> n + 1) 0 sp.Ast.sub_body in
    if nstmts > inline_max_stmts then ok := false;
    if List.mem sp.Ast.sub_name sp.Ast.sub_args then ok := false;
    let locals = Hashtbl.create 8 in
    let declared = Hashtbl.create 8 in
    List.iter
      (function
        | Ast.Var_decl { base; attrs = []; entities }
          when base = Ast.Integer || base = Ast.Real || base = Ast.Real8
               || base = Ast.Logical ->
          List.iter
            (fun (e : Ast.entity) ->
              if
                e.Ast.ent_dims <> None
                || e.Ast.ent_deferred <> None
                || e.Ast.ent_init <> None
                || Hashtbl.mem declared e.Ast.ent_name
              then ok := false;
              Hashtbl.replace declared e.Ast.ent_name ();
              if not (List.mem e.Ast.ent_name sp.Ast.sub_args) then
                Hashtbl.replace locals e.Ast.ent_name ())
            entities
        | Ast.Implicit_none | Ast.Decl_comment _ -> ()
        | _ -> ok := false)
      sp.Ast.sub_decls;
    let known h =
      List.mem h sp.Ast.sub_args
      || Hashtbl.mem locals h
      || (sp.Ast.sub_kind <> `Subroutine && h = sp.Ast.sub_name)
    in
    let intr_heads = ref [] in
    let check_expr e =
      Ast.fold_expr
        (fun () e ->
          match e with
          | Ast.Implied_do _ | Ast.Section _ -> ok := false
          | Ast.Desig [ (h, args) ] ->
            if known h then begin
              if args <> [] then ok := false
            end
            else if Hashtbl.mem Intrinsics.tbl (String.lowercase_ascii h)
            then intr_heads := h :: !intr_heads
            else ok := false
          | Ast.Desig _ -> ok := false
          | _ -> ())
        () e
    in
    Ast.fold_stmts
      (fun () s ->
        match s with
        | Ast.Assign (d, e) ->
          (match d with
          | [ (h, []) ] when known h -> ()
          | _ -> ok := false);
          check_expr e
        | Ast.If_arith (c, _) -> check_expr c
        | Ast.If_block (branches, _) ->
          List.iter (fun (c, _) -> check_expr c) branches
        | Ast.Return | Ast.Continue | Ast.Comment _ -> ()
        | _ -> ok := false)
      () sp.Ast.sub_body;
    if !ok then Some { lf_heads = !intr_heads } else None

(* Inside the callee, an intrinsic head resolves only after the scope
   chain misses; a module variable of the same name would win.  The
   expansion emits the intrinsic directly, so refuse to inline when the
   callee's module scope (if initialized) shadows any head — and when
   the module is not initialized yet, refuse too (cannot verify). *)
let inline_shadowed env mod_name (shape : leaf_shape) : bool =
  match mod_name with
  | None -> false
  | Some m -> (
    match env.e_module_scope m with
    | None -> shape.lf_heads <> []
    | Some msc ->
      List.exists (fun h -> Storage.lookup msc h <> None) shape.lf_heads)

(* Whether a call of [sp] with [actuals], compiled in [ctx], expands
   inline ({!compile_inline_call}) rather than marshalling a call: the
   callee is a leaf whose module shadows none of its intrinsic heads,
   and every actual is a whole scalar variable of the scope.  Arity and
   function-versus-subroutine use are checked by the call compiler. *)
let inlines ctx (sp : Ast.subprogram) mod_name actuals =
  ctx.inline = None
  && (match leaf_shape sp with
     | Some shape -> not (inline_shadowed ctx.env mod_name shape)
     | None -> false)
  && List.for_all
       (function
         | Ast.Desig [ (n, []) ] -> (
           match Storage.lookup ctx.scope n with
           | Some { Storage.entry = Storage.Scalar _; _ } -> true
           | _ -> false)
         | _ -> false)
       actuals

(* Whether the inlined leaf [sp] may read its dummy [dummy] straight
   from the register of an actual declared [base]: the leaf never
   assigns the dummy, and declares it with that base, so the REAL
   redeclaration quirk has nothing to rewrite in a register that holds
   its declared kind. *)
let reads_in_place (sp : Ast.subprogram) dummy base =
  (not
     (Ast.fold_stmts
        (fun w s -> w || match s with Ast.Assign ((h, _) :: _, _) -> h = dummy | _ -> false)
        false sp.Ast.sub_body))
  && List.exists
       (function
         | Ast.Var_decl { base = b; entities; _ } ->
           b = base && List.exists (fun (e : Ast.entity) -> e.Ast.ent_name = dummy) entities
         | _ -> false)
       sp.Ast.sub_decls

(* --- private scalars ------------------------------------------------------ *)

(* The scalars of [sp] its declarations make register candidates:
   declared once, INTEGER, REAL, REAL*8 or LOGICAL, with no attribute,
   dimension or initializer; not a dummy, the function result, a COMMON
   member or an EXTERNAL. *)
let sub_candidates (sp : Ast.subprogram) : (string * Ast.base_type) list =
  let excluded = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  let exclude n = Hashtbl.replace excluded n () in
  let cands = ref [] in
  List.iter exclude sp.Ast.sub_args;
  exclude sp.Ast.sub_name;
  exclude (String.lowercase_ascii sp.Ast.sub_name);
  List.iter
    (function
      | Ast.Var_decl { base; attrs; entities } ->
        List.iter
          (fun (e : Ast.entity) ->
            let n = e.Ast.ent_name in
            if Hashtbl.mem seen n then exclude n;
            Hashtbl.replace seen n ();
            match base with
            | (Ast.Integer | Ast.Real | Ast.Real8 | Ast.Logical)
              when attrs = [] && e.Ast.ent_dims = None && e.Ast.ent_deferred = None
                   && e.Ast.ent_init = None ->
              cands := (n, base) :: !cands
            | _ -> exclude n)
          entities
      | Ast.Common (_, names) | Ast.External names -> List.iter exclude names
      | _ -> ())
    sp.Ast.sub_decls;
  List.filter (fun (n, _) -> not (Hashtbl.mem excluded n)) (List.rev !cands)

(* Walk the nest of the parallel DO [l]: [name] sees every name it
   mentions (DO variables, clause lists, NUM_THREADS, bounds and body),
   [call is_stmt head args] every CALL and designator. *)
let omp_do_walk (l : Ast.do_loop) ~name ~call =
  let expr =
    Ast.fold_expr
      (fun () e ->
        match e with
        | Ast.Desig ((h, args) :: _) ->
          name h;
          call false h args
        | Ast.Implied_do (_, v, _, _) -> name v
        | _ -> ())
      ()
  in
  Ast.fold_stmts
    (fun () s ->
      List.iter expr (stmt_exprs s);
      match s with
      | Ast.Do { do_var; do_omp; _ } ->
        name do_var;
        Option.iter
          (fun (d : Ast.omp_do) ->
            List.iter name (d.omp_private @ d.omp_firstprivate @ d.omp_shared @ d.omp_copyprivate);
            List.iter (fun (_, ns) -> List.iter name ns) d.omp_reduction;
            Option.iter expr d.omp_num_threads)
          do_omp
      | Ast.Call (h, args) -> call true h args
      | _ -> ())
    () [ Ast.Do l ]

(* The candidates [cands] (name, declared base) that [body] and the
   declaration expressions [decls] never bind by reference — not named
   by ALLOCATE, DEALLOCATE or allocated(), not mentioned by a parallel
   DO (the region's scope clones reach it through its slot), and not a
   bare actual of a call or function reference, except of a site that
   inlines ({!inlines}) into a leaf that reads that dummy in place
   ({!reads_in_place}); a REAL DO variable, which holds raw Ints
   mid-loop, never goes to a leaf in place — and that the scope binds
   to a non-PARAMETER scalar slot of that base.  Every read and write
   of such a name is then a statement of [body], so a register holds
   it exactly: a subprogram's locals ({!sub_candidates}, DESIGN.md
   section 20) and a parallel-DO chunk's own scalars (section 24).
   Names resolve as [compile_desig_load] resolves them: a head the
   scope binds is a variable, then allocated(), intrinsics, user
   functions. *)
let private_scalars ctx ~cands ?(decls = []) (body : Ast.stmt list) : (string * Ast.base_type) list =
  let excluded = Hashtbl.create 16 in
  let exclude n = Hashtbl.replace excluded n () in
  let bare = function Ast.Desig [ (n, []) ] -> exclude n | _ -> () in
  let in_place = Hashtbl.create 8 and real_dovars = Hashtbl.create 8 in
  (* the actuals of a call site: kept only when read in place by an
     inlined leaf *)
  let site callee args =
    match callee with
    | Some (f, mod_name)
      when List.length args = List.length f.Ast.sub_args && inlines ctx f mod_name args ->
      List.iter2
        (fun dummy a ->
          match a with
          | Ast.Desig [ (n, []) ] -> (
            match List.assoc_opt n cands with
            | Some base when reads_in_place f dummy base -> Hashtbl.replace in_place n ()
            | _ -> exclude n)
          | _ -> ())
        f.Ast.sub_args args
    | _ -> List.iter bare args
  in
  let visit ~decl =
    Ast.fold_expr
      (fun () e ->
        match e with
        | Ast.Desig ((h, args) :: rest)
          when Storage.lookup ctx.scope h = None
               && not (Hashtbl.mem Intrinsics.tbl (String.lowercase_ascii h)) -> (
          (* a user function, or allocated() *)
          match Hashtbl.find_opt ctx.env.e_subs h with
          | Some ((f, _) as callee)
            when (not decl) && rest = [] && h <> "allocated" && f.Ast.sub_kind <> `Subroutine ->
            site (Some callee) args
          | _ -> List.iter bare args)
        | _ -> ())
      ()
  in
  List.iter (visit ~decl:true) decls;
  Ast.fold_stmts
    (fun () s ->
      (match s with
      | Ast.Call (name, args) ->
        site (Hashtbl.find_opt ctx.env.e_subs (String.lowercase_ascii name)) args
      | Ast.Do l when l.Ast.do_omp <> None -> omp_do_walk l ~name:exclude ~call:(fun _ _ _ -> ())
      | Ast.Do l -> (
        match List.assoc_opt l.Ast.do_var cands with
        | Some (Ast.Real | Ast.Real8) -> Hashtbl.replace real_dovars l.Ast.do_var ()
        | _ -> ())
      | Ast.Allocate allocs -> List.iter (fun (d, _) -> exclude (Ast.desig_name d)) allocs
      | Ast.Deallocate ds -> List.iter (fun d -> exclude (Ast.desig_name d)) ds
      | _ -> ());
      List.iter (visit ~decl:false) (stmt_exprs s))
    () body;
  Hashtbl.iter (fun n () -> if Hashtbl.mem in_place n then exclude n) real_dovars;
  List.filter
    (fun (n, base) ->
      (not (Hashtbl.mem excluded n))
      &&
      match Storage.lookup ctx.scope n with
      | Some { Storage.entry = Storage.Scalar _; base = b; is_param = false } -> b = base
      | _ -> false)
    cands

(* Give each private scalar of [sp] a home register, set to what
   [setup_scope] gives a fresh local. *)
let promote_privates ctx sp =
  List.iter
    (fun (n, base) ->
      let k = ty_of_base base in
      let h = fresh ctx k in
      Hashtbl.replace ctx.homes n (h, base);
      emit_zero ctx k h)
    (private_scalars ctx ~cands:(sub_candidates sp) ~decls:(decl_exprs sp) sp.Ast.sub_body)

(* The operand of home [(h, base)]. *)
let home_opnd (h, base) = { r = h; k = ty_of_base base; role = Var }

(* Whether [body] assigns the scalar [v] itself or uses it as a DO
   variable. *)
let assigns body v =
  Ast.fold_stmts
    (fun w s ->
      w
      ||
      match s with
      | Ast.Assign ((h, _) :: _, _) -> h = v
      | Ast.Do l -> l.Ast.do_var = v
      | _ -> false)
    false body

(* --- expressions --------------------------------------------------------- *)

(* Each construct is typed where it is compiled: a bail tree-walks, so
   the compiler can afford to be picky — anything whose semantics
   depends on a runtime value kind (integer ** with a variable
   exponent, Value polymorphism over Str/Arr, calls whose effects could
   change a slot's kind) bails rather than being approximated.

   Soundness (DESIGN.md §16): every typed opcode performs the same
   primitive float/int operation the tree-walker's [Value] function
   performs, in the same order.  The subtleties are the comparison and
   min/max orders: Value.compare_values goes through OCaml's polymorphic
   compare on floats, which is Float.compare's total order (NaN below
   everything, NaN = NaN) — NOT native float (<), so typed comparisons
   use Float.compare too; variadic_minmax picks with (>)/(<), false
   against a NaN, as the typed max/min do.  Int min/max comparisons go
   through float_of_int first, exactly like variadic_minmax's
   to_float. *)

(* The compiler has no instruction for a whole-array value or a rank-3
   or higher element. *)
let whole_or_rank3 = "whole-array or rank>2 access"

let has_section args =
  List.exists (function Ast.Section _ -> true | _ -> false) args

(* Element kind of an array slot, and whether it is unallocated now. *)
let array_elem (slot : Storage.slot) =
  match slot.Storage.entry with
  | Storage.Array a -> (a.Farray.elem, false)
  | Storage.Unalloc (elem, _) -> (elem, true)
  | _ -> bail "designator-shape"

(* The bank an array's elements are loaded into and stored from. *)
let elem_ty = function
  | Farray.Efloat -> TF
  | Farray.Eint -> TI
  | _ -> bail "array of another element kind"

let nint_of x = int_of_float (Float.round x)
let floor_of x = int_of_float (Float.floor x)
let ceil_of x = int_of_float (Float.ceil x)
let fmod x y = Float.rem x y

(* Operand conversions into a fresh temp; the conversions are total
   (float_of_int / int_of_float never raise), exactly like to_float /
   to_int on numeric Values. *)
let as_f ctx o =
  match o.k with
  | TF -> o.r
  | TI ->
    let t = fresh ctx TF in
    emit ctx (Ti2f (t, o.r));
    t
  | TB -> bail "logical used as a number"

let as_i_trunc ctx o =
  match o.k with
  | TI -> o.r
  | TF ->
    let t = fresh ctx TI in
    emit ctx (Tf2i (t, o.r));
    t
  | TB -> bail "logical used as a number"

(* [to_int] of [o] into an int register of its own. *)
let to_int_reg ctx o =
  let d = fresh ctx TI in
  emit ctx (match o.k with TI -> TmovI (d, o.r) | TF -> Tf2i (d, o.r) | TB -> bail "int() of a logical");
  d

let as_cond o = match o.k with TI | TB -> o.r | TF -> bail "real used as a condition"

(* to_bool-normalized 0/1 operand, for Eqv/Neqv *)
let as_bool ctx o =
  match o.k with
  | TB -> o.r
  | TI ->
    let t = fresh ctx TI in
    emit ctx (Tbool (t, o.r));
    t
  | TF -> bail "real used as a logical"

let cmp_of = function
  | Ast.Lt -> Clt
  | Ast.Le -> Cle
  | Ast.Gt -> Cgt
  | Ast.Ge -> Cge
  | Ast.Eq -> Ceq
  | Ast.Ne -> Cne
  | _ -> invalid_arg "cmp_of"

(* The operands of comparison [op]: in the int bank ([false]) or, for
   mixed numerics, through to_float like compare_values. *)
let cmp_operands ctx op a b =
  match (a.k, b.k) with
  | TI, TI -> (false, a.r, b.r)
  | (TF | TI), (TF | TI) ->
    let av = as_f ctx a in
    let bv = as_f ctx b in
    (true, av, bv)
  | TB, TB when op = Ast.Eq || op = Ast.Ne -> (false, a.r, b.r)
  | _ -> bail "comparison of mixed kinds"

(* [d] <- [s] for an assignment to a register variable declared with
   [d]'s kind, coerced like the tree-walker's slot store; nothing when
   [s] was computed in [d]. *)
let assign_reg ctx d s =
  match (d.k, s.k) with
  | TF, TF -> if s.r <> d.r then emit ctx (TmovF (d.r, s.r))
  | TI, TI | TB, TB -> if s.r <> d.r then emit ctx (TmovI (d.r, s.r))
  | TI, TF -> emit ctx (Tf2i (d.r, s.r))
  | TF, TI -> emit ctx (Ti2f (d.r, s.r))
  | _ -> bail "assignment of another kind"

(* Scalar slot [sid], holding kind [k], <- [s], coerced to the slot's
   declared base. *)
let store_scalar ctx (sid, k) s =
  emit ctx
    (match (k, s.k) with
    | TF, TF -> TstsF (sid, s.r)
    | TF, TI -> TstsF_ofI (sid, s.r)
    | TI, TI -> TstsI (sid, s.r)
    | TI, TF -> TstsI_ofF (sid, s.r)
    | TB, TB -> TstsB (sid, s.r)
    | _ -> bail "assignment of another kind")

(* Load scalar slot [sid] of kind [k].  A load into a temp is one
   {!hoist_loads} may move. *)
let load_scalar ctx ?dst (sid, k) =
  let d = result ctx ?dst k in
  (match dst with Some h when h.k = k -> () | _ -> Hashtbl.replace ctx.movable (here ctx) ());
  emit ctx (match k with TF -> TldsF (d.r, sid) | TI -> TldsI (d.r, sid) | TB -> TldsB (d.r, sid));
  d

(* Arithmetic, comparison and .eqv./.neqv. of compiled operands. *)
let compile_binop ctx ?dst op a b =
  let float_op mk =
    let av = as_f ctx a in
    let bv = as_f ctx b in
    let d = result ctx ?dst TF in
    emit ctx (mk d.r av bv);
    d
  in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
    match (a.k, b.k) with
    | TI, TI ->
      let d = result ctx ?dst TI in
      emit ctx
        (match op with
        | Ast.Add -> TaddI (d.r, a.r, b.r)
        | Ast.Sub -> TsubI (d.r, a.r, b.r)
        | Ast.Mul -> TmulI (d.r, a.r, b.r)
        | _ -> TdivI (d.r, a.r, b.r));
      d
    | (TF | TI), (TF | TI) ->
      float_op (fun d av bv ->
          match op with
          | Ast.Add -> TaddF (d, av, bv)
          | Ast.Sub -> TsubF (d, av, bv)
          | Ast.Mul -> TmulF (d, av, bv)
          | _ -> TdivF (d, av, bv))
    | _ -> bail "logical arithmetic")
  | Ast.Pow -> (
    match (a.k, b.k, b.role) with
    (* Value.pow: an int loop for k >= 0, a real power for k < 0; a
       variable exponent decides the result's kind at run time *)
    | TI, TI, Const (Value.Int k) when k >= 0 ->
      let d = result ctx ?dst TI in
      emit ctx (TpowI (d.r, a.r, k));
      d
    | TI, TI, Const _ | (TF | TI), TF, _ | TF, TI, _ -> float_op (fun d av bv -> TpowF (d, av, bv))
    | TI, TI, _ -> bail "integer **"
    | _ -> bail "logical arithmetic")
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
    let fl, av, bv = cmp_operands ctx op a b in
    let d = result ctx ?dst TB in
    emit ctx (if fl then TcmpF (cmp_of op, d.r, av, bv) else TcmpI (cmp_of op, d.r, av, bv));
    d
  | Ast.Eqv | Ast.Neqv ->
    let av = as_bool ctx a in
    let bv = as_bool ctx b in
    let d = result ctx ?dst TB in
    emit ctx (TcmpI ((if op = Ast.Eqv then Ceq else Cne), d.r, av, bv));
    d
  | Ast.Concat | Ast.And | Ast.Or -> bail "character or unshortened logical operator"

(* Intrinsic [name] (lowercase) of the compiled [args]. *)
let compile_intrinsic ctx ?dst name (args : opnd list) =
  let arg1 () = match args with [ a ] -> a | _ -> bail ("arity of intrinsic " ^ name) in
  let arg2 () = match args with [ a; b ] -> (a, b) | _ -> bail ("arity of intrinsic " ^ name) in
  let into k mk =
    let d = result ctx ?dst k in
    emit ctx (mk d.r);
    d
  in
  let un1 f =
    let av = as_f ctx (arg1 ()) in
    into TF (fun d -> Tin1F (name, f, d, av))
  in
  let un2 f =
    let x, y = arg2 () in
    let av = as_f ctx x in
    let bv = as_f ctx y in
    into TF (fun d -> Tin2F (name, f, d, av, bv))
  in
  let fni f =
    let av = as_f ctx (arg1 ()) in
    into TI (fun d -> TfniF (name, f, d, av))
  in
  (* max/min: int args stay ints; otherwise all_int is false, so the
     tree-walker's result is Real (to_float best): converting both
     first and picking in float is the same value *)
  let pick ~what mki mkf =
    let x, y = arg2 () in
    match (x.k, y.k) with
    | TI, TI -> into TI (fun d -> mki d x.r y.r)
    | (TF | TI), (TF | TI) ->
      let av = as_f ctx x in
      let bv = as_f ctx y in
      into TF (fun d -> mkf d av bv)
    | _ -> bail (what ^ " of a logical")
  in
  match name with
  | "sqrt" | "dsqrt" -> un1 sqrt
  | "exp" | "dexp" -> un1 exp
  | "log" | "alog" | "dlog" -> un1 log
  | "log10" | "alog10" -> un1 log10
  | "sin" -> un1 sin
  | "cos" -> un1 cos
  | "tan" -> un1 tan
  | "asin" -> un1 asin
  | "acos" -> un1 acos
  | "atan" -> un1 atan
  | "sinh" -> un1 sinh
  | "cosh" -> un1 cosh
  | "tanh" -> un1 tanh
  | "dabs" -> un1 Float.abs
  | "atan2" -> un2 atan2
  | "sign" | "dsign" -> un2 Intrinsics.sign_val
  | "abs" -> (
    let a = arg1 () in
    match a.k with
    | TI -> into TI (fun d -> TabsI (d, a.r))
    | TF -> into TF (fun d -> TabsF (d, a.r))
    | TB -> bail "abs of a logical")
  | "iabs" ->
    let av = as_i_trunc ctx (arg1 ()) in
    into TI (fun d -> TabsI (d, av))
  | "mod" -> (
    let x, y = arg2 () in
    match (x.k, y.k) with
    | TI, TI -> into TI (fun d -> TmodI (d, x.r, y.r))
    | (TF | TI), (TF | TI) -> un2 fmod
    | _ -> bail "mod of a logical")
  | "int" | "ifix" -> (
    let a = arg1 () in
    match a.k with
    | TI -> into TI (fun d -> TmovI (d, a.r))
    | TF -> into TI (fun d -> Tf2i (d, a.r))
    | TB -> bail "int() of a logical")
  | "nint" -> fni nint_of
  | "floor" -> fni floor_of
  | "ceiling" -> fni ceil_of
  | "real" | "float" | "dble" | "sngl" -> (
    let a = arg1 () in
    match a.k with
    | TF -> into TF (fun d -> TmovF (d, a.r))
    | TI -> into TF (fun d -> Ti2f (d, a.r))
    | TB -> bail "real() of a logical")
  | "max" | "amax1" | "dmax1" | "max0" ->
    pick ~what:"max" (fun d a b -> TmaxI (d, a, b)) (fun d a b -> TmaxF (d, a, b))
  | "min" | "amin1" | "dmin1" | "min0" ->
    pick ~what:"min" (fun d a b -> TminI (d, a, b)) (fun d a b -> TminF (d, a, b))
  | "huge" -> (
    match (arg1 ()).k with
    | TI -> into TI (fun d -> TconstI (d, max_int))
    | TF -> into TF (fun d -> TconstF (d, Float.max_float))
    | TB -> bail "huge of a logical")
  | "tiny" ->
    if (arg1 ()).k <> TF then bail "tiny of a non-real";
    into TF (fun d -> TconstF (d, Float.min_float))
  | "epsilon" ->
    if (arg1 ()).k <> TF then bail "epsilon of a non-real";
    into TF (fun d -> TconstF (d, epsilon_float))
  | _ -> bail ("intrinsic " ^ name)

(* [dst], when given, is the home or inlined local the statement
   assigns the value to ({!result}): the construct that computes the
   value last computes it there. *)
let rec compile_expr ?dst ctx (e : Ast.expr) : opnd =
  match static_eval e with
  | Some v -> const_reg ctx v
  | None -> (
    match e with
    | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Str_lit _ ->
      assert false (* handled by static_eval *)
    | Ast.Unop (Ast.Pos, a) -> compile_expr ?dst ctx a
    | Ast.Unop (Ast.Neg, a) -> (
      let a = compile_expr ctx a in
      match a.k with
      | TF ->
        let d = result ctx ?dst TF in
        emit ctx (TnegF (d.r, a.r));
        d
      | TI ->
        let d = result ctx ?dst TI in
        emit ctx (TnegI (d.r, a.r));
        d
      | TB -> bail "negated logical")
    | Ast.Unop (Ast.Not, a) ->
      let sv = as_cond (compile_expr ctx a) in
      let d = result ctx ?dst TB in
      emit ctx (Tnot (d.r, sv));
      d
    | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
      (* short-circuit, like the tree-walker's (&&)/(||): [a] decides
         alone when it is false for .and., true for .or.; the result
         register has two definitions, so it takes no hint *)
      let ra = as_cond (compile_expr ctx a) in
      let decided = emit_patchable ctx (if op = Ast.And then Tjf (ra, 0) else Tjt (ra, 0)) in
      let rb = as_cond (compile_expr ctx b) in
      let d = fresh ctx TB in
      emit ctx (Tbool (d, rb));
      let jend = emit_patchable ctx (Tjmp 0) in
      patch_here ctx [ decided ];
      emit ctx (TconstI (d, if op = Ast.And then 0 else 1));
      patch_here ctx [ jend ];
      { r = d; k = TB; role = Temp }
    | Ast.Binop (op, a, b) ->
      let a = compile_expr ctx a in
      let b = compile_expr ctx b in
      compile_binop ctx ?dst op a b
    | Ast.Desig parts -> compile_desig_load ?dst ctx parts
    | Ast.Implied_do _ -> bail "implied-do"
    | Ast.Section _ -> bail "section")

(* Subscripts of an array that may be unallocated: the tree-walker
   raises before evaluating them, the VM's access instruction only after
   they ran.  Literals and plain variables cannot raise or call, so the
   order is only observable for anything else, which gets an explicit
   check first. *)
and compile_checked_subscripts ctx aid ~store args =
  if has_section args then bail "section";
  let trivial = function
    | Ast.Int_lit _ -> true
    | Ast.Desig [ (n, []) ] -> (
      match Storage.lookup ctx.scope n with
      | Some { Storage.entry = Storage.Scalar _; _ } -> true
      | _ -> false)
    | _ -> false
  in
  if (array_ref ctx aid).amaybe && not (List.for_all trivial args) then
    emit ctx (Tcheck_alloc (aid, store));
  List.map (compile_expr ctx) args

and compile_elem_load ?dst ctx ~unalloc elem name path args =
  if List.length args > 2 then bail whole_or_rank3;
  let aid = array_id ctx ~unalloc elem name path (List.length args) in
  let idx = compile_checked_subscripts ctx aid ~store:false args in
  let k = elem_ty elem in
  let iv = List.map (as_i_trunc ctx) idx in
  let d = result ctx ?dst k in
  emit ctx
    (match (k, iv) with
    | TF, [ i ] -> Tld1F (d.r, aid, i)
    | TF, [ i; j ] -> Tld2F (d.r, aid, i, j)
    | _, [ i ] -> Tld1I (d.r, aid, i)
    | _, [ i; j ] -> Tld2I (d.r, aid, i, j)
    | _ -> assert false);
  d

and emit_intrinsic ?dst ctx lname args =
  if has_section args then bail "section";
  let args = List.map (compile_expr ctx) args in
  compile_intrinsic ctx ?dst lname args

(* Walk a designator chain against the compile-time scope.  Only the
   shapes the tree-walker's [eval_slot_access] supports without side
   effects are compiled; everything else bails. *)
and compile_slot_load ?dst ctx (slot : Storage.slot) name path args rest : opnd =
  match (slot.Storage.entry, args, rest) with
  | Storage.Scalar v, [], [] ->
    if slot.Storage.is_param then begin
      (* PARAMETER values are fixed by the declarations; inline them.
         Bodies that write a parameter bail, and Vm.bind re-verifies
         the folded value against the executing scope (checks). *)
      match v with
      | Value.Arr _ -> bail "array-parameter"
      | v ->
        note_check ctx slot name path v;
        const_reg ctx v
    end
    else load_scalar ctx ?dst (scalar_id ctx slot name path)
  | (Storage.Array _ | Storage.Unalloc _), [], [] -> bail whole_or_rank3
  | (Storage.Array _ | Storage.Unalloc _), _ :: _, [] ->
    let elem, unalloc = array_elem slot in
    compile_elem_load ?dst ctx ~unalloc elem name path args
  | Storage.Struct obj, [], (fname, fargs) :: frest -> (
    match Hashtbl.find_opt obj fname with
    | Some fslot ->
      compile_slot_load ?dst ctx fslot name (path @ [ fname ]) fargs frest
    | None -> bail "component")
  | _ -> bail "designator-shape"

and compile_desig_load ?dst ctx (parts : Ast.designator) : opnd =
  match ctx.inline with
  | Some fr -> (
    (* inside an inlined leaf: names are dummies/locals/result (the
       planner guarantees single scalar parts) or intrinsics resolved
       directly, bypassing the caller's scope *)
    match parts with
    | [ (h, args) ] -> (
      match Hashtbl.find_opt fr.imap h with
      | Some (Ib_slot (sid, k)) ->
        if args <> [] then bail "inline-shape";
        load_scalar ctx ?dst (sid, k)
      | Some (Ib_reg (r, base)) ->
        if args <> [] then bail "inline-shape";
        home_opnd (r, base)
      | None ->
        if Hashtbl.mem Intrinsics.tbl (String.lowercase_ascii h) then
          emit_intrinsic ?dst ctx (String.lowercase_ascii h) args
        else bail "inline-shape")
    | _ -> bail "inline-shape")
  | None -> (
    match parts with
    | [] -> bail "designator-shape"
    | (name, args) :: rest when Hashtbl.mem ctx.homes name ->
      if args <> [] || rest <> [] then bail "designator-shape";
      home_opnd (Hashtbl.find ctx.homes name)
    | (name, args) :: rest -> (
      match Storage.lookup ctx.scope name with
      | Some slot -> compile_slot_load ?dst ctx slot name [] args rest
      | None -> (
        if name = "allocated" then compile_allocated ?dst ctx args
        else
          match
            Hashtbl.find_opt Intrinsics.tbl (String.lowercase_ascii name)
          with
          | Some _ ->
            if rest <> [] then bail "designator-shape";
            note_negative ctx name;
            emit_intrinsic ?dst ctx (String.lowercase_ascii name) args
          | None -> (
            (* user function: the tree-walker's eval_desig evaluates
               every argument once (vals), finds the subprogram, then
               re-evaluates them through bind_actual *)
            match Hashtbl.find_opt ctx.env.e_subs name with
            | Some (sp, mod_name) ->
              if has_section args then bail "section";
              note_negative ctx name;
              List.iter (fun a -> ignore (compile_expr ctx a)) args;
              if rest <> [] then bail "fn-parts";
              Option.get (compile_user_call ?dst ctx sp mod_name name args ~is_fn:true)
            | None -> bail "unknown-name"))))

(* allocated(v): the tree-walker's eval_desig checks the slot kind at
   run time (ignoring any component parts after the call). *)
and compile_allocated ?dst ctx args =
  let rid, vname = allocated_arg ctx args in
  let d = result ctx ?dst TB in
  emit ctx (Tallocated (d.r, rid, vname));
  d

(* The raw slot and name allocated()'s argument names. *)
and allocated_arg ctx args =
  match args with
  | [ Ast.Desig [ (vname, []) ] ] when Storage.lookup ctx.scope vname <> None ->
    note_negative ctx "allocated";
    (raw_id ctx vname, vname)
  | _ -> bail "allocated()"

(* Whether the designator head [name] is allocated() at this point, as
   [compile_desig_load] resolves it. *)
and is_allocated ctx name =
  name = "allocated" && ctx.inline = None
  && (not (Hashtbl.mem ctx.homes name))
  && Storage.lookup ctx.scope name = None

(* A condition in branch context: the code jumps when [e] is [jump_if]
   and falls through otherwise; returns the jumps' patch sites.  A
   comparison or allocated() is one fused jump, [.not.] swaps the
   sense, [.and.]/[.or.] short-circuit left to right like the
   tree-walker's (&&)/(||); any other condition is a value tested by
   [Tjt]/[Tjf], which apply [to_bool] as the tree-walker's IF does.
   Comparisons negate exactly: the tree-walker compares with a total
   order ([compare], NaN below everything), so [not (a < b)] is
   [a >= b]. *)
and compile_branch ctx (e : Ast.expr) ~jump_if : int list =
  match e with
  | _ when static_eval e <> None -> compile_test ctx e ~jump_if
  | Ast.Unop (Ast.Not, a) -> compile_branch ctx a ~jump_if:(not jump_if)
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
    (* [a] decides alone when it is false for .and., true for .or. *)
    let decides = op = Ast.Or in
    if jump_if = decides then
      let ja = compile_branch ctx a ~jump_if in
      ja @ compile_branch ctx b ~jump_if
    else begin
      let skip = compile_branch ctx a ~jump_if:decides in
      let jb = compile_branch ctx b ~jump_if in
      patch_here ctx skip;
      jb
    end
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b) ->
    let a = compile_expr ctx a in
    let b = compile_expr ctx b in
    let op =
      if jump_if then op
      else
        match op with
        | Ast.Lt -> Ast.Ge
        | Ast.Le -> Ast.Gt
        | Ast.Gt -> Ast.Le
        | Ast.Ge -> Ast.Lt
        | Ast.Eq -> Ast.Ne
        | _ -> Ast.Eq
    in
    let fl, av, bv = cmp_operands ctx op a b in
    [ emit_patchable ctx (if fl then TjcmpF (cmp_of op, av, bv, 0) else TjcmpI (cmp_of op, av, bv, 0)) ]
  | Ast.Desig [ (h, args) ] when is_allocated ctx h ->
    let rid, vname = allocated_arg ctx args in
    [ emit_patchable ctx (Tjalloc (rid, vname, jump_if, 0)) ]
  | _ -> compile_test ctx e ~jump_if

and compile_test ctx e ~jump_if =
  let r = as_cond (compile_expr ctx e) in
  [ emit_patchable ctx (if jump_if then Tjt (r, 0) else Tjf (r, 0)) ]

(* --- compiled calls ------------------------------------------------------ *)

(* Compile a call to [sp] (statement CALL when [is_fn] is false,
   function reference otherwise).  Returns a function's result.  Inline
   when the callee is a leaf and every actual is a whole scalar
   variable; otherwise marshal a [Tcall].  Anything the marshalling
   cannot express bails — the tree-walker then replays the whole body
   from scratch, so partial effects never leak. *)
and compile_user_call ?dst ctx sp mod_name name actuals ~is_fn : opnd option =
  if List.length actuals <> List.length sp.Ast.sub_args then bail "call-arity";
  if is_fn && sp.Ast.sub_kind = `Subroutine then bail "sub-as-fn";
  if inlines ctx sp mod_name actuals then compile_inline_call ctx sp actuals
  else compile_marshalled_call ?dst ctx sp mod_name name actuals ~is_fn

(* A typed call may not change the kind of a slot this frame reads (see
   [effects]).  An alias actual the callee may rewrite Int -> Real must
   not hold an Int at bind; one it may store a raw Int into must hold
   one ([t_raw_int]).  Slots the frame reads keep their kind until such
   a call, so the call then leaves them alone, under any name. *)
and compile_marshalled_call ?dst ctx sp mod_name name actuals ~is_fn : opnd option =
  if ctx.inline <> None then bail "inline-shape";
  let written = written_dummies sp in
  let sname = sp.Ast.sub_name in
  let fx =
    match Hashtbl.find_opt (unit_effects ctx.env).ue_subs (String.lowercase_ascii sname) with
    | Some fx -> fx
    | None -> bail ("call of " ^ sname ^ " has no effects summary")
  in
  let alias k rid =
    let real = fx.fx_real.(k) and int = fx.fx_int.(k) in
    if real && int then bail ("call of " ^ sname ^ " may make an actual real or integer");
    if real || int then ctx.raw_int <- (rid, int) :: ctx.raw_int;
    Ta_alias rid
  in
  let copy a =
    let o = compile_expr ctx a in
    match o.k with TF -> Ta_f o.r | TI -> Ta_i o.r | TB -> Ta_b o.r
  in
  let args =
    List.mapi
      (fun k (dummy, a) ->
        match a with
        | Ast.Desig [ (n, []) ] when Hashtbl.mem ctx.homes n ->
          (* private_scalars promotes an actual only for a site that
             inlines; a callee cannot alias a register *)
          bail "home-actual"
        | Ast.Desig [ (n, []) ] -> (
          match Storage.lookup ctx.scope n with
          | Some slot ->
            if slot.Storage.is_param && Hashtbl.mem written dummy then
              (* the callee may write through the alias; our folded
                 PARAMETER constants would go stale *)
              bail "writes-parameter-arg"
            else alias k (raw_id ctx n)
          | None -> bail "implicit-arg")
        | Ast.Desig ((n, args) :: rest) -> (
          match Storage.lookup ctx.scope n with
          | Some { Storage.entry = Storage.Array _; _ }
            when rest = [] && args <> [] && not (has_section args) ->
            (* copy-in/copy-out array element: the copy-out targets the
               element resolved before the call *)
            bail "array-element actual"
          | Some _ -> bail "arg-shape"
          | None ->
            (* head not in scope: bind_actual's resolve_lvalue fails
               and it falls back to a plain evaluated copy (which may
               itself be a function call) *)
            copy a)
        | a -> copy a)
      (List.combine sp.Ast.sub_args actuals)
  in
  let res =
    if not is_fn then None
    else
      match result_ty sp fx with
      | Some t -> Some (result ctx ?dst t)
      | None -> bail ("result of " ^ sname ^ " has no fixed kind")
  in
  let idx = ctx.ncalls in
  ctx.ncalls <- idx + 1;
  ctx.has_call <- true;
  emit ctx
    (Tcall
       {
         tc_site =
           {
             cs_sub = sp;
             cs_mod = mod_name;
             cs_name = name;
             cs_idx = idx;
             cs_reval = may_realloc_for ctx sp;
             cs_plan = Plan_unknown;
           };
         tc_args = Array.of_list args;
         tc_res =
           (match res with
           | None -> Tr_none
           | Some { r; k = TF; _ } -> Tr_f r
           | Some { r; k = TI; _ } -> Tr_i r
           | Some { r; k = TB; _ } -> Tr_b r);
       });
  res

(* Expand a leaf callee into the caller's instruction stream.  Every
   actual is a whole scalar variable ({!inlines}), so dummies alias
   caller slots (same scalar-id space — two dummies aliasing one
   variable share an id, like two aliases of one slot) or read a
   promoted actual's home register in place ({!reads_in_place}), and
   locals/result live in registers.  Declaration processing follows
   setup_scope's order, including the dummy-redeclaration quirk: REAL
   over an aliased Int rewrites the slot in place, which typed code
   reads as Real already, so only an INTEGER slot bails.  Returns a
   function's result register. *)
and compile_inline_call ctx sp actuals : opnd option =
  let written = written_dummies sp in
  let frame = { imap = Hashtbl.create 8; iret = [] } in
  List.iter2
    (fun dummy a ->
      match a with
      | Ast.Desig [ (n, []) ] -> (
        match Hashtbl.find_opt ctx.homes n with
        | Some (h, base) ->
          if not (reads_in_place sp dummy base) then bail "home-actual";
          Hashtbl.replace frame.imap dummy (Ib_reg (h, base))
        | None ->
          let slot = Option.get (Storage.lookup ctx.scope n) in
          if slot.Storage.is_param && Hashtbl.mem written dummy then
            bail "writes-parameter-arg";
          let sid, k = scalar_id ctx slot n [] in
          Hashtbl.replace frame.imap dummy (Ib_slot (sid, k)))
      | _ -> assert false)
    sp.Ast.sub_args actuals;
  (* declarations, in setup_scope order *)
  let local n base =
    let k = ty_of_base base in
    let r = fresh ctx k in
    emit_zero ctx k r;
    Hashtbl.replace frame.imap n (Ib_reg (r, base));
    { r; k; role = Temp }
  in
  List.iter
    (function
      | Ast.Var_decl { base; entities; _ } ->
        List.iter
          (fun (e : Ast.entity) ->
            let n = e.Ast.ent_name in
            match Hashtbl.find_opt frame.imap n with
            | Some (Ib_slot (_, k)) ->
              if (base = Ast.Real || base = Ast.Real8) && k = TI then bail "INTEGER dummy redeclared REAL"
            | Some (Ib_reg _) when List.mem n sp.Ast.sub_args ->
              () (* a home of the declared base: a Real already *)
            | Some (Ib_reg _) -> bail "inline-shape"
            | None -> ignore (local n base))
          entities
      | _ -> ())
    sp.Ast.sub_decls;
  (* function result register (setup_scope creates the slot
     zero-initialized when not declared) *)
  let res =
    match sp.Ast.sub_kind with
    | `Function rt -> (
      match Hashtbl.find_opt frame.imap sp.Ast.sub_name with
      | Some (Ib_reg (r, base)) -> Some { r; k = ty_of_base base; role = Temp }
      | Some (Ib_slot _) -> bail "inline-shape"
      | None -> Some (local sp.Ast.sub_name (Option.value rt ~default:Ast.Real8)))
    | `Subroutine -> None
  in
  ctx.inline <- Some frame;
  (match List.iter (compile_stmt ctx) sp.Ast.sub_body with
  | () -> ctx.inline <- None
  | exception e ->
    ctx.inline <- None;
    raise e);
  patch_here ctx frame.iret;
  res

(* --- lvalues ------------------------------------------------------------- *)

(* RHS [rv] is already evaluated (the tree-walker evaluates the RHS
   before resolving the lvalue's subscripts). *)
and compile_slot_store ctx (slot : Storage.slot) name path args rest rv =
  match (slot.Storage.entry, args, rest) with
  | Storage.Scalar _, [], [] ->
    if slot.Storage.is_param then bail "parameter-store";
    store_scalar ctx (scalar_id ctx slot name path) rv
  | (Storage.Array _ | Storage.Unalloc _), [], [] -> bail whole_or_rank3
  | (Storage.Array _ | Storage.Unalloc _), _ :: _, [] -> (
    if List.length args > 2 then bail whole_or_rank3;
    let elem, unalloc = array_elem slot in
    let aid = array_id ctx ~unalloc elem name path (List.length args) in
    let idx = compile_checked_subscripts ctx aid ~store:true args in
    let k = elem_ty elem in
    let iv = List.map (as_i_trunc ctx) idx in
    (* set_linear coerces Ci -> float_of_int, same as Ti2f *)
    let v = if k = TF then as_f ctx rv else as_i_trunc ctx rv in
    match (k, iv) with
    | TF, [ i ] -> emit ctx (Tst1F (aid, i, v))
    | TF, [ i; j ] -> emit ctx (Tst2F (aid, i, j, v))
    | _, [ i ] -> emit ctx (Tst1I (aid, i, v))
    | _, [ i; j ] -> emit ctx (Tst2I (aid, i, j, v))
    | _ -> assert false)
  | Storage.Struct obj, [], (fname, fargs) :: frest -> (
    match Hashtbl.find_opt obj fname with
    | Some fslot ->
      compile_slot_store ctx fslot name (path @ [ fname ]) fargs frest rv
    | None -> bail "component")
  | _ -> bail "designator-shape"

(* The register variable an assignment to [parts] writes, when it is
   one: a home, or an inlined leaf's local or result. *)
and assign_target ctx (parts : Ast.designator) =
  match (ctx.inline, parts) with
  | Some fr, [ (h, []) ] -> (
    match Hashtbl.find_opt fr.imap h with Some (Ib_reg (r, base)) -> Some (home_opnd (r, base)) | _ -> None)
  | None, [ (name, []) ] -> Option.map home_opnd (Hashtbl.find_opt ctx.homes name)
  | _ -> None

and compile_desig_store ctx (parts : Ast.designator) rv =
  match ctx.inline with
  | Some fr -> (
    match parts with
    | [ (h, []) ] -> (
      match Hashtbl.find_opt fr.imap h with
      | Some (Ib_slot (sid, k)) -> store_scalar ctx (sid, k) rv
      | Some (Ib_reg (r, base)) -> assign_reg ctx (home_opnd (r, base)) rv
      | None -> bail "inline-shape")
    | _ -> bail "inline-shape")
  | None -> (
    match parts with
    | [] -> bail "designator-shape"
    | (name, args) :: rest when Hashtbl.mem ctx.homes name ->
      if args <> [] || rest <> [] then bail "designator-shape";
      assign_reg ctx (home_opnd (Hashtbl.find ctx.homes name)) rv
    | (name, args) :: rest -> (
      match Storage.lookup ctx.scope name with
      | Some slot -> compile_slot_store ctx slot name [] args rest rv
      | None -> bail "implicit-decl"
      (* implicit declaration on assignment: tree-walk *)))

(* --- statements ---------------------------------------------------------- *)

(* Release the CRITICAL locks held above [target_depth] (EXIT/CYCLE
   jumping out of a critical section must unlock on the way, like the
   tree-walker's Fun.protect unwinding does). *)
and emit_unlocks ctx target_depth =
  for _ = target_depth + 1 to ctx.crit do
    emit ctx Tcrit_exit
  done

and compile_stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Assign (d, e) ->
    let rv = compile_expr ?dst:(assign_target ctx d) ctx e in
    compile_desig_store ctx d rv
  | Ast.If_arith (c, s) ->
    let jends = compile_branch ctx c ~jump_if:false in
    compile_stmt ctx s;
    patch_here ctx jends
  | Ast.If_block (branches, else_) ->
    let jends = ref [] in
    List.iter
      (fun (c, body) ->
        let jnexts = compile_branch ctx c ~jump_if:false in
        List.iter (compile_stmt ctx) body;
        jends := emit_patchable ctx (Tjmp 0) :: !jends;
        patch_here ctx jnexts)
      branches;
    List.iter (compile_stmt ctx) else_;
    patch_here ctx !jends
  | Ast.Do l -> if l.Ast.do_omp = None then compile_serial_do ctx l else compile_omp_do ctx l
  | Ast.Do_while (c, body) ->
    let head = here ctx in
    let jends = compile_branch ctx c ~jump_if:false in
    emit ctx Tpoll;
    let lctx =
      {
        exit_patches = [];
        cont_patches = [];
        cont_target = Some head;
        crit_at_entry = ctx.crit;
      }
    in
    ctx.loops <- lctx :: ctx.loops;
    List.iter (compile_stmt ctx) body;
    ctx.loops <- List.tl ctx.loops;
    emit ctx (Tjmp head);
    patch_here ctx (jends @ lctx.exit_patches)
  | Ast.Exit -> (
    match ctx.loops with
    | lctx :: _ ->
      emit_unlocks ctx lctx.crit_at_entry;
      lctx.exit_patches <- emit_patchable ctx (Tjmp 0) :: lctx.exit_patches
    | [] ->
      if ctx.sub <> None then
        (* a bare EXIT in a subprogram body raises Loop_exit into the
           caller's loop: let the tree-walker own that behaviour *)
        bail "exit-outside-loop"
      else begin
        (* EXIT from the chunk loop the program itself drives *)
        emit_unlocks ctx 0;
        emit ctx Texit
      end)
  | Ast.Cycle -> (
    match ctx.loops with
    | lctx :: _ -> (
      emit_unlocks ctx lctx.crit_at_entry;
      match lctx.cont_target with
      | Some t -> emit ctx (Tjmp t)
      | None ->
        lctx.cont_patches <- emit_patchable ctx (Tjmp 0) :: lctx.cont_patches)
    | [] ->
      if ctx.sub <> None then bail "cycle-outside-loop"
      else begin
        emit_unlocks ctx 0;
        ctx.end_patches <- emit_patchable ctx (Tjmp 0) :: ctx.end_patches
      end)
  | Ast.Return -> (
    match ctx.inline with
    | Some fr -> fr.iret <- emit_patchable ctx (Tjmp 0) :: fr.iret
    | None -> emit ctx Treturn)
  | Ast.Print _ | Ast.Stop _ -> bail "PRINT or STOP"
  | Ast.Continue | Ast.Comment _ | Ast.Omp_barrier -> ()
  | Ast.Omp_atomic s -> compile_critical ctx [ s ]
  | Ast.Omp_critical body -> compile_critical ctx body
  | Ast.Call (name, actuals) -> (
    match Hashtbl.find_opt ctx.env.e_subs (String.lowercase_ascii name) with
    | None -> bail "unknown-call"
    | Some (sp, mod_name) ->
      ignore (compile_user_call ctx sp mod_name name actuals ~is_fn:false))
  | Ast.Allocate allocs ->
    (* one variable at a time, each one's bounds evaluated just before
       it is allocated; a [lo:hi] bound evaluates hi first, like the
       tree-walker's tuple *)
    List.iter
      (fun (d, exprs) ->
        let name = Ast.desig_name d in
        if Storage.lookup ctx.scope name = None then bail "allocate";
        let int_of e = to_int_reg ctx (compile_expr ctx e) in
        let bounds =
          List.map
            (function
              | Ast.Section (Some lo, Some hi) ->
                let rhi = int_of hi in
                (int_of lo, rhi)
              | Ast.Section _ -> bail "section"
              | e ->
                let rhi = int_of e in
                ((const_reg ctx (Value.Int 1)).r, rhi))
            exprs
        in
        emit ctx
          (Tallocate
             {
               ta_raw = raw_id ctx name;
               ta_name = name;
               ta_bounds = Array.of_list bounds;
             }))
      allocs
  | Ast.Deallocate ds ->
    List.iter
      (fun d ->
        let name = Ast.desig_name d in
        if Storage.lookup ctx.scope name = None then bail "deallocate";
        emit ctx (Tdealloc (raw_id ctx name, name)))
      ds

(* ATOMIC or CRITICAL: [body] under the global lock. *)
and compile_critical ctx body =
  if ctx.crit > 0 then bail "nested-critical";
  emit ctx Tcrit_enter;
  ctx.crit <- ctx.crit + 1;
  List.iter (compile_stmt ctx) body;
  ctx.crit <- ctx.crit - 1;
  emit ctx Tcrit_exit

(* [to_int] of a DO bound: a temp or constant INTEGER is its own, a
   variable's register is copied (a bound must not move when the body
   assigns the variable it came from), a REAL converts into a fresh
   register like [Value.to_int]'s [int_of_float]. *)
and compile_int ctx e =
  let o = compile_expr ctx e in
  match (o.k, o.role) with
  | TI, (Temp | Const _) -> o
  | _ -> { r = to_int_reg ctx o; k = TI; role = Temp }

(* The DO variable [v] of a loop compiled in [ctx]: its home, or the
   scalar slot each iteration stores it raw into. *)
and do_var ctx v =
  let not_integer () = bail ("DO variable " ^ v ^ " is not integer") in
  match Hashtbl.find_opt ctx.homes v with
  | Some (h, base) ->
    if ty_of_base base <> TI then not_integer ();
    `Home h
  | None -> (
    match Storage.lookup ctx.scope v with
    | Some slot when slot.Storage.is_param -> bail "parameter-store"
    | Some slot ->
      let sid, k = scalar_id ctx slot v [] in
      if k <> TI then not_integer ();
      `Slot sid
    | None -> `None)

and compile_serial_do ctx (l : Ast.do_loop) =
  (* the DO variable: a scalar slot, or a promoted variable's home *)
  let var =
    match ctx.inline with
    | Some _ -> bail "inline-shape" (* leaves contain no DO loops *)
    | None -> (
      match do_var ctx l.Ast.do_var with
      | `Home h -> `Home h
      | `Slot sid -> `Slot sid
      | `None -> bail "implicit-decl" (* implicit DO-variable declaration *))
  in
  (* Bounds evaluate once, in the tree-walker's order (lo, hi, step),
     then the zero-step check fires before any iteration. *)
  let rlo = (compile_int ctx l.Ast.do_lo).r in
  let rhi = (compile_int ctx l.Ast.do_hi).r in
  let step =
    match l.Ast.do_step with
    | Some e -> compile_int ctx e
    | None -> const_reg ctx (Value.Int 1)
  in
  (match step.role with
  | Const (Value.Int k) when k <> 0 -> ()
  | _ -> emit ctx (Tcheck_step step.r));
  let rstep = step.r in
  (* A home the body never assigns is the counter itself; otherwise the
     counter is private and each iteration stores it raw, like the
     tree-walker's per-iteration slot write. *)
  let ri =
    match var with
    | `Home h when not (assigns l.Ast.do_body l.Ast.do_var) -> h
    | _ -> fresh ctx TI
  in
  (* Rotated: the header tests and polls once, for the first iteration;
     the continue point increments, tests and, when the loop goes on,
     polls and jumps back past the header.  One poll per iteration. *)
  emit ctx (TmovI (ri, rlo));
  let jfini =
    emit_patchable ctx (Tloop_test { t_ireg = ri; t_hireg = rhi; t_stepreg = rstep; t_target = 0 })
  in
  emit ctx Tpoll;
  let top = here ctx in
  (match var with
  | `Slot sid -> emit ctx (TstsI_raw (sid, ri))
  | `Home h -> if h <> ri then emit ctx (TmovI (h, ri)));
  let lctx =
    {
      exit_patches = [];
      cont_patches = [];
      cont_target = None;
      crit_at_entry = ctx.crit;
    }
  in
  ctx.loops <- lctx :: ctx.loops;
  List.iter (compile_stmt ctx) l.Ast.do_body;
  ctx.loops <- List.tl ctx.loops;
  (* continue point: CYCLE lands on the increment *)
  patch_here ctx lctx.cont_patches;
  emit ctx (Tloop_next { t_ireg = ri; t_hireg = rhi; t_stepreg = rstep; t_target = top });
  patch ctx jfini (here ctx);
  emit ctx
    (match var with
    | `Home dst -> Tloop_fini_reg { t_dst = dst; t_loreg = rlo; t_hireg = rhi; t_stepreg = rstep }
    | `Slot sid -> Tloop_fini { t_sid = sid; t_loreg = rlo; t_hireg = rhi; t_stepreg = rstep });
  (* EXIT jumps here, past Tloop_fini: the DO variable retains its
     value at the point of EXIT (the satellite DO/EXIT fix, native to
     the bytecode path) *)
  patch_here ctx lctx.exit_patches

(* A parallel DO: one instruction, the loop left to the region entry.
   Its names are scope slots here ({!private_scalars}); what the typed
   bind must check is collected as for a call's alias actuals, and
   rule 3 of DESIGN.md section 13 checks the loop's kind effects like a
   call's, on alias actuals and (in {!finish}) module and COMMON
   scalars. *)
and compile_omp_do ctx (l : Ast.do_loop) =
  let fx = (unit_effects ctx.env).ue_subs and kinds = ref [] in
  let need ~int n = if Storage.lookup ctx.scope n <> None then kinds := (raw_id ctx n, int) :: !kinds in
  List.iter (fun (l : Ast.do_loop) -> need ~int:true l.Ast.do_var) (Ast.loops [ Ast.Do l ]);
  omp_do_walk l ~name:ignore ~call:(fun is_stmt h args ->
      match Hashtbl.find_opt fx (String.lowercase_ascii h) with
      | Some f when is_stmt || Storage.lookup ctx.scope h = None ->
        List.iteri
          (fun k a ->
            match a with
            | Ast.Desig [ (n, []) ] when k < Array.length f.fx_real - 1 ->
              if f.fx_real.(k) then need ~int:false n;
              if f.fx_int.(k) then need ~int:true n
            | _ -> ())
          args
      | _ -> ());
  let kinds = !kinds in
  if List.exists (fun (rid, int) -> List.mem (rid, not int) kinds) kinds then
    bail "parallel DO may make a variable real or integer";
  ctx.raw_int <- kinds @ ctx.raw_int;
  ctx.has_call <- true;
  emit ctx (Tomp_do { od_loop = l; od_kinds = kinds })

(* --- layout -------------------------------------------------------------- *)

(* [code] laid out again with [place k] in place of instruction [k]; a
   jump to [k] lands on the first instruction placed for it, or on the
   next one placed after it. *)
let relayout (code : tinstr array) (place : int -> tinstr list) =
  let placed = Array.init (Array.length code) place in
  let pos = Array.make (Array.length code + 1) 0 in
  Array.iteri (fun k is -> pos.(k + 1) <- pos.(k) + List.length is) placed;
  Array.of_list (List.concat_map (List.map (retarget (fun t -> pos.(t)))) (Array.to_list placed))

(* An instruction that writes a scalar slot, makes a call or runs a
   parallel DO: with one, a slot may change under the frame. *)
let writes_or_calls = function
  | Tcall _ | Tomp_do _ | TstsF _ | TstsF_ofI _ | TstsI _ | TstsI_ofF _ | TstsB _ | TstsI_raw _ | Tloop_fini _ -> true
  | _ -> false

(* Move slot loads out of serial DO loops (DESIGN.md section 27).  A
   load moves before the header of the outermost enclosing loop whose
   body neither calls, runs a parallel DO, (de)allocates nor stores a
   scalar slot: nothing this frame runs changes a slot there.  Across
   CRITICAL or ATOMIC another thread may, so a loop holding one moves
   only the loads of the frame's fresh locals ([fresh] scalar ids),
   which no other thread can reach.  Only loads into temps move
   ([movable] typed indices): a temp is defined once, before every
   read of it, and the move keeps that. *)
let hoist_loads ~movable ~fresh (code : tinstr array) =
  let target = Array.make (Array.length code) (-1) in
  Array.iteri
    (fun k ins ->
      match ins with
      | Tloop_test { t_target = fini; _ } ->
        let body = Array.sub code (k + 1) (fini - k - 1) in
        let blocks ins = writes_or_calls ins || match ins with Tallocate _ | Tdealloc _ -> true | _ -> false in
        let crit = Array.exists (function Tcrit_enter | Tcrit_exit -> true | _ -> false) body in
        if not (Array.exists blocks body) then
          Array.iteri
            (fun j ins ->
              let j = k + 1 + j in
              match ins with
              | TldsF (_, sid) | TldsI (_, sid) | TldsB (_, sid)
                when target.(j) < 0 && movable j && ((not crit) || fresh sid) ->
                target.(j) <- k
              | _ -> ())
            body
      | _ -> ())
    code;
  let hoisted = Array.make (Array.length code) [] in
  for j = Array.length code - 1 downto 0 do
    if target.(j) >= 0 then hoisted.(target.(j)) <- code.(j) :: hoisted.(target.(j))
  done;
  relayout code (fun k -> if target.(k) >= 0 then [] else hoisted.(k) @ [ code.(k) ])

(* Drop every jump to the next instruction, until none is left. *)
let rec drop_next_jumps code =
  let code' = relayout code (fun k -> match code.(k) with Tjmp t when t = k + 1 -> [] | ins -> [ ins ]) in
  if Array.length code' = Array.length code then code else drop_next_jumps code'

(* The names [sp] binds to slots of each call's own: its declared
   variables, less the dummies, SAVE and COMMON members; none for a
   chunk program, whose scalars belong to the enclosing scope. *)
let fresh_locals (sub : Ast.subprogram option) =
  let own = Hashtbl.create 16 in
  Option.iter
    (fun (sp : Ast.subprogram) ->
      List.iter
        (function
          | Ast.Var_decl { attrs; entities; _ } when not (List.mem Ast.Save attrs) ->
            List.iter (fun (e : Ast.entity) -> Hashtbl.replace own e.Ast.ent_name ()) entities
          | _ -> ())
        sp.Ast.sub_decls;
      List.iter (Hashtbl.remove own) sp.Ast.sub_args;
      List.iter (function Ast.Common (_, names) -> List.iter (Hashtbl.remove own) names | _ -> ()) sp.Ast.sub_decls)
    sub;
  own

(* --- entry points -------------------------------------------------------- *)

let make_ctx env scope ?sub () =
  {
    env;
    scope;
    sub;
    homes = Hashtbl.create 8;
    ncalls = 0;
    const_ids = Hashtbl.create 16;
    movable = Hashtbl.create 16;
    raw_int = [];
    has_call = false;
    code = Array.make 64 Tpoll;
    len = 0;
    nf = 0;
    ni = 0;
    scalar_ids = Hashtbl.create 16;
    scalar_refs = [];
    array_ids = Hashtbl.create 16;
    array_refs = [];
    raw_ids = Hashtbl.create 8;
    raw_refs = [];
    check_ids = Hashtbl.create 8;
    checks = [];
    negs = Hashtbl.create 8;
    loops = [];
    crit = 0;
    end_patches = [];
    inline = None;
    dealloc_names =
      lazy
        (let tbl = Hashtbl.create 8 in
         Hashtbl.iter
           (fun _ ((sp : Ast.subprogram), _) ->
             Ast.fold_stmts
               (fun () s ->
                 match s with
                 | Ast.Deallocate ds ->
                   List.iter (fun d -> Hashtbl.replace tbl (Ast.desig_name d) ()) ds
                 | _ -> ())
               () sp.Ast.sub_body)
           env.e_subs;
         tbl);
  }

(* The program [ctx] compiled: its slot loads moved out of the loops
   that cannot change them, jumps to the next instruction dropped, the
   banks' templates taken from the constant table.  Raises {!Bail} when
   a call or parallel DO could change the kind of a module or COMMON
   scalar the program reads ([effects]). *)
let finish ?(chunk_args = [||]) ?(chunk_homes = [||]) ctx : program =
  let scalars = Array.of_list (List.rev ctx.scalar_refs) in
  let sty = Array.map (fun r -> ty_of_base r.sbase) scalars in
  if ctx.has_call then begin
    let ue = unit_effects ctx.env in
    Array.iteri
      (fun i (r : scalar_ref) ->
        if r.spath = [] then
          match sty.(i) with
          | TI -> if Hashtbl.mem ue.ue_real r.sname then bail ("integer " ^ r.sname ^ " may be made real by a call")
          | TF | TB ->
            if Hashtbl.mem ue.ue_int r.sname then bail ("real or logical " ^ r.sname ^ " may be made integer by a call"))
      scalars
  end;
  let fresh = fresh_locals ctx.sub in
  let tcode =
    Array.sub ctx.code 0 ctx.len
    |> hoist_loads ~movable:(Hashtbl.mem ctx.movable) ~fresh:(fun sid ->
           scalars.(sid).spath = [] && Hashtbl.mem fresh scalars.(sid).sname)
    |> drop_next_jumps
  in
  let finit = Array.make (max 1 ctx.nf) 0.0 and iinit = Array.make (max 1 ctx.ni) 0 in
  Hashtbl.iter
    (fun _ o ->
      match o.role with
      | Const (Value.Real x) -> finit.(o.r) <- x
      | Const (Value.Int x) -> iinit.(o.r) <- x
      | Const (Value.Bool b) -> iinit.(o.r) <- Bool.to_int b
      | _ -> ())
    ctx.const_ids;
  {
    scalars;
    arrays = Array.of_list (List.rev ctx.array_refs);
    raws = Array.of_list (List.rev ctx.raw_refs);
    checks = Array.of_list (List.rev ctx.checks);
    negatives = Array.of_list (Hashtbl.fold (fun n () acc -> n :: acc) ctx.negs []);
    ncalls = ctx.ncalls;
    promoted = Array.of_list (Hashtbl.fold (fun n _ acc -> n :: acc) ctx.homes [] |> List.sort compare);
    chunk_homes;
    typed =
      {
        tcode;
        t_finit = finit;
        t_iinit = iinit;
        t_sty = sty;
        t_chunk_args = chunk_args;
        t_raw_int = Array.of_list (List.rev ctx.raw_int);
      };
  }

(* Program cache: structural digest key, namespaced by unit,
   FIFO-bounded.  Compiles run outside the
   lock; a racing domain's first insert wins. *)
let cache : (string, (program, string) result) Hashtbl.t = Hashtbl.create 64
let cache_order : string Queue.t = Queue.create ()
let cache_cap = 512

let cache_key env kind digest =
  env.e_unit ^ "|" ^ kind ^ digest

let cached_compile key (compile : unit -> (program, string) result) :
    (program, string) result =
  match locked (fun () -> Hashtbl.find_opt cache key) with
  | Some r -> r
  | None -> (
    let r = compile () in
    locked (fun () ->
        match Hashtbl.find_opt cache key with
        | Some prev -> prev
        | None ->
          Hashtbl.replace cache key r;
          Queue.push key cache_order;
          while Queue.length cache_order > cache_cap do
            let doomed = Queue.pop cache_order in
            Hashtbl.remove cache doomed
          done;
          r))

(** Compile a whole subprogram body against a representative callee
    scope (the first call's).  Returns the program (None = bail,
    recorded as the site's reason) and the site itself so the caller
    can count runs and bind-time bails.  Later calls bind against their
    own scopes; kind or folded-constant mismatches fail the bind and
    tree-walk that call only. *)
let compile_sub env ~scope (sp : Ast.subprogram) : program option * Stats.site
    =
  let dg = sub_digest sp in
  let label = "sub " ^ String.lowercase_ascii sp.Ast.sub_name in
  let site = Stats.get ~unit_key:env.e_unit ~id:label ~label in
  let r =
    cached_compile (cache_key env "s" dg) (fun () ->
        let ctx = make_ctx env scope ~sub:sp () in
        match
          promote_privates ctx sp;
          List.iter (compile_stmt ctx) sp.Ast.sub_body;
          finish ctx
        with
        | p -> Ok p
        | exception Bail reason -> Error reason)
  in
  match r with
  | Ok p -> (Some p, site)
  | Error reason ->
    Stats.set_reason site reason;
    (None, site)

(* --- parallel-DO chunks ---------------------------------------------------- *)

(* How a chunk's scope clone binds a name the loop's clauses list: a
   fresh zeroed slot (the DO variables and PRIVATE), a fresh copy of
   the shared slot (FIRSTPRIVATE) or the thread's reduction
   accumulator, which every chunk of the thread continues.  A shared
   scalar is the enclosing scope's own slot. *)
type chunk_kind = Ck_private | Ck_first | Ck_red | Ck_shared

(* The body's homes would load a shared scalar once per chunk although
   the body may write it: compile again without. *)
exception Unsound_hoist

(* The scalar the compile-time scope binds [n] to, when a home could
   stand for it: not a PARAMETER, INTEGER, REAL, REAL*8 or LOGICAL. *)
let home_slot ctx n =
  match Storage.lookup ctx.scope n with
  | Some ({ Storage.entry = Storage.Scalar _; is_param = false; base; _ } as slot) -> (
    match base with Ast.Integer | Ast.Real | Ast.Real8 | Ast.Logical -> Some slot | _ -> None)
  | _ -> None

(* The chunk's candidates for a home, (name, slot, kind), by name: its
   clause scalars (INTEGER DO variables only, and no name listed under
   two kinds, whose binding the clause order decides) and, with
   [hoist], every scalar [body] reads as a bare name and never assigns. *)
let chunk_candidates ctx ~hoist ~dovars (d : Ast.omp_do) body =
  let clauses =
    List.map (fun n -> (n, Ck_private)) (dovars @ d.Ast.omp_private)
    @ List.map (fun n -> (n, Ck_first)) d.Ast.omp_firstprivate
    @ List.concat_map (fun (_, ns) -> List.map (fun n -> (n, Ck_red)) ns) d.Ast.omp_reduction
  in
  let named = List.sort_uniq compare (List.map fst clauses) in
  let kinds n = List.sort_uniq compare (List.filter_map (fun (m, k) -> if m = n then Some k else None) clauses) in
  let own =
    List.filter_map
      (fun n ->
        match (kinds n, home_slot ctx n) with
        | [ k ], Some slot when slot.Storage.base = Ast.Integer || not (List.mem n dovars) -> Some (n, slot, k)
        | _ -> None)
      named
  in
  let shared =
    if not hoist then []
    else
      let reads = Hashtbl.create 16 in
      Ast.fold_stmts
        (fun () s ->
          List.iter
            (Ast.fold_expr (fun () e -> match e with Ast.Desig [ (n, []) ] -> Hashtbl.replace reads n () | _ -> ()) ())
            (stmt_exprs s))
        () body;
      Hashtbl.fold
        (fun n () acc ->
          match home_slot ctx n with
          | Some slot when (not (List.mem n named)) && not (assigns body n) -> (n, slot, Ck_shared) :: acc
          | _ -> acc)
        reads []
      |> List.sort compare
  in
  own @ shared

(* One parallel DO's chunk as a program that loops over the chunk
   itself (DESIGN.md section 24).  Argument registers (set by
   {!Vm.run_chunk}) come first, then the homes: each clause scalar and
   hoisted shared scalar [private_scalars] keeps, a PRIVATE one zeroed
   and the others loaded from their slot in a prologue.  The loop is
   [compile_serial_do]'s rotated loop over [clo, chi]; each iteration
   sets the DO variable (for COLLAPSE(2), both, from the linear
   counter [k]: [lo + (k-1)/isize] and [ilo + (k-1) mod isize]), in its
   home or raw into its slot.  A top-level CYCLE continues the chunk,
   EXIT and RETURN end the pass; the epilogue of a normally finished
   chunk stores each reduction home back into the thread's slot. *)
let compile_chunk_raw env ~scope ~hoist (l : Ast.do_loop) (d : Ast.omp_do) (inner : Ast.do_loop option) :
    (program, string) result =
  let ctx = make_ctx env scope () in
  let body = match inner with Some i -> i.Ast.do_body | None -> l.Ast.do_body in
  let dovars = l.Ast.do_var :: (match inner with Some i -> [ i.Ast.do_var ] | None -> []) in
  match
    let arg () = { r = fresh ctx TI; k = TI; role = Temp } in
    let clo = arg () in
    let chi = arg () in
    let shape = match inner with Some _ -> Array.init 3 (fun _ -> arg ()) | None -> [||] in
    let cands = chunk_candidates ctx ~hoist ~dovars d body in
    let kept = private_scalars ctx ~cands:(List.map (fun (n, slot, _) -> (n, slot.Storage.base)) cands) body in
    let homes = List.filter (fun (n, _, _) -> List.mem_assoc n kept) cands in
    List.iter
      (fun (n, (slot : Storage.slot), k) ->
        let base = slot.Storage.base in
        let h = fresh ctx (ty_of_base base) in
        Hashtbl.replace ctx.homes n (h, base);
        match k with
        | Ck_private -> if not (List.mem n dovars) then emit_zero ctx (ty_of_base base) h
        | Ck_first | Ck_red | Ck_shared ->
          emit ctx
            (match scalar_id ctx slot n [] with
            | sid, TF -> TldsF (h, sid)
            | sid, TI -> TldsI (h, sid)
            | sid, TB -> TldsB (h, sid)))
      homes;
    (* where DO variable [v]'s value goes: its home, raw into its slot,
       or nowhere when the scope has no such name (the body cannot read
       it then) *)
    let set v r =
      match do_var ctx v with
      | `Home h -> if h <> r then emit ctx (TmovI (h, r))
      | `Slot sid -> emit ctx (TstsI_raw (sid, r))
      | `None -> ()
    in
    let one = const_reg ctx (Value.Int 1) in
    let counter =
      match (inner, do_var ctx l.Ast.do_var) with
      | None, `Home h when not (assigns body l.Ast.do_var) ->
        emit ctx (TmovI (h, clo.r));
        h
      | _ -> clo.r
    in
    let jfini =
      emit_patchable ctx (Tloop_test { t_ireg = counter; t_hireg = chi.r; t_stepreg = one.r; t_target = 0 })
    in
    emit ctx Tpoll;
    let top = here ctx in
    (match inner with
    | None -> set l.Ast.do_var counter
    | Some i ->
      let km1 = compile_binop ctx Ast.Sub clo one in
      let q = compile_binop ctx Ast.Div km1 shape.(2) in
      let oi = compile_binop ctx Ast.Add shape.(0) q in
      let qs = compile_binop ctx Ast.Mul q shape.(2) in
      let rem = compile_binop ctx Ast.Sub km1 qs in
      let ii = compile_binop ctx Ast.Add shape.(1) rem in
      set l.Ast.do_var oi.r;
      set i.Ast.do_var ii.r);
    let body_start = here ctx in
    List.iter (compile_stmt ctx) body;
    let cont = here ctx in
    (* a hoisted shared scalar is loaded once per chunk: sound only when
       the body writes no slot and calls nothing that could *)
    if List.exists (fun (_, _, k) -> k = Ck_shared) homes then
      for pc = body_start to cont - 1 do
        if writes_or_calls ctx.code.(pc) then raise Unsound_hoist
      done;
    patch_here ctx ctx.end_patches;
    ctx.end_patches <- [];
    emit ctx (Tloop_next { t_ireg = counter; t_hireg = chi.r; t_stepreg = one.r; t_target = top });
    patch ctx jfini (here ctx);
    List.iter
      (fun (n, slot, k) ->
        if k = Ck_red then store_scalar ctx (scalar_id ctx slot n []) (home_opnd (Hashtbl.find ctx.homes n)))
      homes;
    let home_ref (n, (slot : Storage.slot), _) = { sname = n; spath = []; sbase = slot.Storage.base } in
    finish ctx
      ~chunk_args:(Array.map (fun o -> o.r) (Array.append [| clo; chi |] shape))
      ~chunk_homes:(Array.of_list (List.map home_ref homes))
  with
  | p -> Ok p
  | exception Bail reason -> Error reason

(** Compile the chunk program of the parallel DO [l] (clauses [d]; for
    COLLAPSE(2), [inner] is the fused inner DO), cached on the loop's
    digest.  Returns it (None = bail, recorded as the site's reason)
    and its "omp-do" stats site, which counts one run per chunk. *)
let compile_chunk env ~scope (l : Ast.do_loop) (d : Ast.omp_do) ~inner : program option * Stats.site =
  let dg = loop_digest l in
  let site = Stats.get ~unit_key:env.e_unit ~id:("omp-do@" ^ String.sub dg 0 8) ~label:"omp-do" in
  let r =
    cached_compile (cache_key env "c" dg) (fun () ->
        try compile_chunk_raw env ~scope ~hoist:true l d inner
        with Unsound_hoist -> compile_chunk_raw env ~scope ~hoist:false l d inner)
  in
  match r with
  | Ok p -> (Some p, site)
  | Error reason ->
    Stats.set_reason site reason;
    (None, site)

(* --- frame plans --------------------------------------------------------- *)

exception No_plan

let plan_uids = Atomic.make 0

(* The entry [setup_scope]'s make_slot (plus the initializer) gives a
   plain local on every call.  Only static shapes and initializers are
   planned; anything evaluated at run time keeps the scope path. *)
let local_init base attrs (e : Ast.entity) : local_init =
  let static_int x =
    match static_eval x with
    | Some v -> ( try Value.to_int v with Value.Runtime_error _ -> raise No_plan)
    | None -> raise No_plan
  in
  (match base with Ast.Derived _ -> raise No_plan | _ -> ());
  let dims =
    match e.Ast.ent_dims with
    | Some d -> Some d
    | None -> List.find_map (function Ast.Dimension d -> Some d | _ -> None) attrs
  in
  let allocatable = List.mem Ast.Allocatable attrs in
  let deferred =
    match e.Ast.ent_deferred with
    | Some r -> Some r
    | None -> if allocatable then Option.map List.length dims else None
  in
  let elem = Farray.elem_of_base base in
  let entry =
    match (deferred, dims) with
    | Some rank, _ when allocatable || e.Ast.ent_deferred <> None ->
      L_unalloc (elem, rank)
    | _, None -> L_scalar (Storage.Scalar (Value.zero_of base))
    | _, Some ds ->
      L_array
        ( elem,
          Array.of_list
            (List.map
               (fun (lo, hi) ->
                 let lo = match lo with Some l -> static_int l | None -> 1 in
                 (lo, static_int hi))
               ds) )
  in
  match e.Ast.ent_init with
  | None -> entry
  | Some ie -> (
    match static_eval ie with
    | Some v -> (
      try L_scalar (Storage.Scalar (Value.coerce base v)) with Value.Runtime_error _ -> raise No_plan)
    | None -> raise No_plan)

(* Classify every name of [p] the way [setup_scope] would bind it in a
   scope for [sp]: dummies, fresh locals, SAVE and COMMON members by
   declaration, everything else through the module scopes. *)
let build_plan (sp : Ast.subprogram) (p : program) site : frame_plan option =
  try
    (* a reused frame has no scope for a parallel DO's region (rule 2
       of DESIGN.md section 13): such a callee takes the scope path *)
    if Array.exists (function Tomp_do _ -> true | _ -> false) p.typed.tcode then raise No_plan;
    let arg_idx = Hashtbl.create 8 in
    List.iteri
      (fun k n ->
        if Hashtbl.mem arg_idx n then raise No_plan;
        Hashtbl.replace arg_idx n k)
      sp.Ast.sub_args;
    let commons = Hashtbl.create 8 in
    List.iter
      (function
        | Ast.Common (_, names) -> List.iter (fun n -> Hashtbl.replace commons n ()) names
        | _ -> ())
      sp.Ast.sub_decls;
    let kinds = Hashtbl.create 16 in
    let locals = ref [] and nlocals = ref 0 and real_dummies = ref [] in
    let add_local n init =
      Hashtbl.replace kinds n (Src_local !nlocals);
      locals := (n, init) :: !locals;
      incr nlocals
    in
    List.iter
      (function
        | Ast.Var_decl { base; attrs; entities } ->
          List.iter
            (fun (e : Ast.entity) ->
              let n = e.Ast.ent_name in
              match Hashtbl.find_opt arg_idx n with
              | Some k ->
                if base = Ast.Real || base = Ast.Real8 then
                  real_dummies := k :: !real_dummies
              | None ->
                if Hashtbl.mem kinds n then raise No_plan;
                if Hashtbl.mem commons n then Hashtbl.replace kinds n Src_stable
                else if List.mem Ast.Save attrs then Hashtbl.replace kinds n Src_save
                else if Array.mem n p.promoted then
                  () (* a register of the program: nothing to reset *)
                else add_local n (local_init base attrs e))
            entities
        | _ -> ())
      sp.Ast.sub_decls;
    let result =
      match sp.Ast.sub_kind with
      | `Subroutine -> None
      | `Function rt -> (
        let n = sp.Ast.sub_name in
        match (Hashtbl.find_opt arg_idx n, Hashtbl.find_opt kinds n) with
        | Some k, _ -> Some (Src_arg k)
        | None, Some (Src_local _ as s) -> Some s
        | None, Some _ -> raise No_plan
        | None, None ->
          let base = Option.value rt ~default:Ast.Real8 in
          let zero =
            try Value.zero_of base with Value.Runtime_error _ -> raise No_plan
          in
          add_local n (L_scalar (Storage.Scalar zero));
          Hashtbl.find_opt kinds n)
    in
    let src_of name path =
      match Hashtbl.find_opt arg_idx name with
      | Some k -> Src_arg k
      | None -> (
        match Hashtbl.find_opt kinds name with
        | Some (Src_local _) when path <> [] -> raise No_plan
        | Some s -> s
        | None -> Src_stable)
    in
    let scalar_src = Array.map (fun r -> src_of r.sname r.spath) p.scalars in
    let from_args srcs =
      Array.of_list
        (List.concat
           (List.mapi (fun i -> function Src_arg k -> [ (i, k) ] | _ -> []) (Array.to_list srcs)))
    in
    Some
      {
        fp_uid = Atomic.fetch_and_add plan_uids 1;
        fp_prog = p;
        fp_site = site;
        fp_nargs = List.length sp.Ast.sub_args;
        fp_arg_scalars = from_args scalar_src;
        fp_arg_arrays = from_args (Array.map (fun r -> src_of r.aname r.apath) p.arrays);
        fp_arg_raws = from_args (Array.map (fun n -> src_of n []) p.raws);
        fp_kind_scalars =
          Array.of_list
            (List.filter
               (fun i -> match scalar_src.(i) with Src_local _ -> false | _ -> true)
               (List.init (Array.length scalar_src) Fun.id));
        fp_locals = Array.of_list (List.rev !locals);
        fp_real_dummies = Array.of_list (List.rev !real_dummies);
        fp_arg_checks =
          Array.of_list
            (List.filter_map
               (fun ((r : scalar_ref), v) ->
                 Option.map (fun k -> (k, r.spath, v)) (Hashtbl.find_opt arg_idx r.sname))
               (Array.to_list p.checks));
        fp_result = result;
      }
  with No_plan -> None

(* Plan registry, keyed like the program cache so [purge_unit] drops a
   unit's plans with its programs. *)
let plans : (string, frame_plan option) Hashtbl.t = Hashtbl.create 32

(** The frame plan of [sp] compiled as [p] in [env]'s unit, built on
    first use.  The registry is only consulted on a call site's first
    finished call; the site then caches the answer in [cs_plan]. *)
let frame_plan env (sp : Ast.subprogram) (p : program) site : frame_plan option =
  let key = env.e_unit ^ "|p|" ^ sub_digest sp in
  match locked (fun () -> Hashtbl.find_opt plans key) with
  | Some r -> r
  | None ->
    let r = build_plan sp p site in
    locked (fun () ->
        match Hashtbl.find_opt plans key with
        | Some prev -> prev
        | None ->
          Hashtbl.replace plans key r;
          r)

(** The stats site of [p]'s callee, re-registered after a stats reset. *)
let plan_site p =
  let s = p.fp_site in
  if s.Stats.sk_gen = Atomic.get Stats.generation then s
  else begin
    let s' = Stats.get ~unit_key:s.Stats.sk_unit ~id:s.Stats.sk_id ~label:s.Stats.sk_label in
    p.fp_site <- s';
    s'
  end

(** The plan a call site can use before any call through it finished:
    known once some call compiled the callee in this unit,
    [Plan_unknown] until then. *)
let known_plan env (sp : Ast.subprogram) : plan_state =
  let key = cache_key env "s" (sub_digest sp) in
  match locked (fun () -> Hashtbl.find_opt cache key) with
  | None -> Plan_unknown
  | Some (Error _) -> Plan_none
  | Some (Ok p) -> (
    let label = "sub " ^ String.lowercase_ascii sp.Ast.sub_name in
    match frame_plan env sp p (Stats.get ~unit_key:env.e_unit ~id:label ~label) with
    | Some plan -> Plan plan
    | None -> Plan_none)

(** The program [sp] compiled to in [env]'s unit, once a call compiled
    it (for tests and diagnostics). *)
let compiled_sub env (sp : Ast.subprogram) : program option =
  let key = cache_key env "s" (sub_digest sp) in
  match locked (fun () -> Hashtbl.find_opt cache key) with
  | Some (Ok p) -> Some p
  | _ -> None

let has_prefix u k =
  String.length k > String.length u && String.sub k 0 (String.length u) = u

(** Frame plans registered for unit [u] (for tests and diagnostics). *)
let plan_count u =
  locked (fun () -> Hashtbl.fold (fun k _ n -> if has_prefix u k then n + 1 else n) plans 0)

(** Drop every cached program, frame plan, call-effects summary and
    stats site of the unit [cu], and the memo entries of its ASTs (the
    listener calls this when it evicts a script from its own cache, so
    long-lived serve processes don't accumulate them for dead
    scripts). *)
let purge_unit (cu : Ast.compilation_unit) =
  let u = unit_key cu in
  let forget_body body =
    Ast.fold_stmts
      (fun () s ->
        match s with
        | Ast.Do l -> Phys_loop.remove loop_digest_tbl l
        | _ -> ())
      () body
  in
  locked (fun () ->
      let doomed tbl = Hashtbl.fold (fun k _ acc -> if has_prefix u k then k :: acc else acc) tbl [] in
      List.iter (Hashtbl.remove cache) (doomed cache);
      List.iter (Hashtbl.remove plans) (doomed plans);
      Hashtbl.remove effects_memo u;
      Phys_cu.remove unit_key_tbl cu;
      List.iter
        (function
          | Ast.Main m -> forget_body m.Ast.main_body
          | pu ->
            List.iter
              (fun sp ->
                Phys_sub.remove sub_digest_tbl sp;
                Phys_sub.remove written_memo sp;
                Phys_sub.remove leaf_memo sp;
                forget_body sp.Ast.sub_body)
              (Ast.subprograms_of pu))
        cu);
  Stats.purge_unit u

(** Entries of the AST-keyed memo tables: bounded by the units not yet
    purged, however many a listener has served. *)
let memo_entries () =
  locked (fun () ->
      Phys_loop.length loop_digest_tbl + Phys_sub.length sub_digest_tbl
      + Phys_sub.length written_memo + Phys_sub.length leaf_memo + Phys_cu.length unit_key_tbl)
