(** Loop dependence analysis — GLAF's parallelism-detection back-end.

    For a candidate loop over index [i], the loop is parallelizable
    when every pair of accesses that could touch the same grid cell
    from different iterations is disproved:

    - array accesses are compared dimension-wise with a strong-SIV
      test on subscripts affine in [i];
    - scalars written inside the body must be recognized as private
      (written before read, lexically) or as reductions
      ([s = s op e], one op, no other uses);
    - function-local temporary arrays whose subscripts never involve
      [i] are privatized (the FUN3D pattern: per-iteration scratch);
    - calls are checked against {!Summary} — writes to non-local state
      block parallelization, written actual arguments are treated as
      writes at the call site. *)

open Glaf_ir

(** Names of every function of [program]: the calls {!classify}
    counts as control. *)
let user_functions program =
  let set = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace set f.Func.name ())
    (Ir_module.all_functions program);
  set

(** What one analysis pass over [program] shares between all its
    functions and loops: the effect summaries and the function-name
    set are built once, here. *)
type context = {
  program : Ir_module.program;
  pure : string list;
  summaries : (string, Summary.t) Hashtbl.t;
  user_fns : (string, unit) Hashtbl.t;
}

let context ?(pure = []) program =
  {
    program;
    pure;
    summaries = Summary.of_program ~pure program;
    user_fns = user_functions program;
  }

type env = {
  ctx : context;
  enclosing : Ir_module.t;
  func : Func.t;
  grids : (string, Grid.t option) Hashtbl.t;
      (** every name resolved so far: [func] is immutable, so each
          name is looked up once per environment *)
}

(** The analysis environment of [func] inside [enclosing]. *)
let env ctx enclosing func = { ctx; enclosing; func; grids = Hashtbl.create 16 }

let lookup_grid env name =
  match Hashtbl.find_opt env.grids name with
  | Some g -> g
  | None ->
    let g = Ir_module.resolve_grid env.ctx.program env.enclosing env.func name in
    Hashtbl.add env.grids name g;
    g

let is_scalar_name env name =
  match lookup_grid env name with
  | Some g -> Grid.is_scalar g
  | None -> true (* loop index or implicit scalar *)

let is_local_grid env name =
  match lookup_grid env name with
  | Some g -> g.Grid.storage = Grid.Local
  | None -> true

(** {1 Reduction shapes} *)

(* Recognize s := s op e (or commuted, or a sum chain s + e1 + e2);
   returns the op and the non-s operands. *)
let reduction_shape sname (e : Expr.t) : (Stmt.red_op * Expr.t list) option =
  let is_s = function
    | Expr.Ref { Expr.grid; field = None; indices = [] } -> grid = sname
    | _ -> false
  in
  let lower = String.lowercase_ascii in
  (* recognize sum chains with s on the leftmost spine:
     s + e1, s + e1 + e2, s - e1 + e2, ... *)
  let rec sum_chain e =
    if is_s e then Some []
    else
      match e with
      | Expr.Binop ((Expr.Add | Expr.Sub), a, b)
        when not (Expr.mentions sname b) -> (
        match sum_chain a with
        | Some parts -> Some (b :: parts)
        | None -> None)
      | _ -> None
  in
  match e with
  | Expr.Binop ((Expr.Add | Expr.Sub), _, _) when sum_chain e <> Some [] -> (
    match sum_chain e with
    | Some (_ :: _ as parts) -> Some (Stmt.Rsum, parts)
    | Some [] | None -> (
      match e with
      | Expr.Binop (Expr.Add, a, b) when is_s b && not (Expr.mentions sname a)
        ->
        Some (Stmt.Rsum, [ a ])
      | _ -> None))
  | Expr.Binop (Expr.Mul, a, b) when is_s a && not (Expr.mentions sname b) ->
    Some (Stmt.Rprod, [ b ])
  | Expr.Binop (Expr.Mul, a, b) when is_s b && not (Expr.mentions sname a) ->
    Some (Stmt.Rprod, [ a ])
  | Expr.Call (f, [ a; b ])
    when (lower f = "max" || lower f = "dmax1" || lower f = "amax1")
         && is_s a
         && not (Expr.mentions sname b) ->
    Some (Stmt.Rmax, [ b ])
  | Expr.Call (f, [ a; b ])
    when (lower f = "max" || lower f = "dmax1" || lower f = "amax1")
         && is_s b
         && not (Expr.mentions sname a) ->
    Some (Stmt.Rmax, [ a ])
  | Expr.Call (f, [ a; b ])
    when (lower f = "min" || lower f = "dmin1" || lower f = "amin1")
         && is_s a
         && not (Expr.mentions sname b) ->
    Some (Stmt.Rmin, [ b ])
  | Expr.Call (f, [ a; b ])
    when (lower f = "min" || lower f = "dmin1" || lower f = "amin1")
         && is_s b
         && not (Expr.mentions sname a) ->
    Some (Stmt.Rmin, [ a ])
  | _ -> None

(** {1 Access collection} *)

type kind =
  | R
  | W
  | Red of Stmt.red_op  (** scalar reduction update [s = s op e] *)

type access = {
  aref : Expr.gref;
  akind : kind;
  seq : int;  (** lexical order *)
}

type collected = {
  accesses : access list;  (** lexical order *)
  obstacles : Loop_info.obstacle list;
  inner_indices : string list;  (** indices of nested serial loops *)
}

let collect env (loop : Stmt.loop) : collected =
  let seq = ref 0 in
  let accesses = ref [] in
  let obstacles = ref [] in
  let inner = ref [] in
  let push akind r =
    incr seq;
    accesses := { aref = r; akind; seq = !seq } :: !accesses
  in
  let rec scan_expr e =
    (* reads + calls inside expressions *)
    (match e with
    | Expr.Call (callee, args) ->
      handle_call callee args;
      (* arguments scanned by handle_call *)
      ()
    | Expr.Ref r ->
      push R r;
      List.iter scan_expr r.Expr.indices
    | Expr.Unop (_, a) -> scan_expr a
    | Expr.Binop (_, a, b) ->
      scan_expr a;
      scan_expr b
    | Expr.Int_lit _ | Expr.Real_lit _ | Expr.Bool_lit _ | Expr.Str_lit _ ->
      ())
  and handle_call callee args =
    if List.mem callee env.ctx.pure then List.iter scan_expr args
    else
      match Hashtbl.find_opt env.ctx.summaries callee with
      | None -> obstacles := Loop_info.Unsafe_call callee :: !obstacles
      | Some s ->
        if s.Summary.writes_external <> [] || s.Summary.calls_unknown <> []
        then obstacles := Loop_info.Unsafe_call callee :: !obstacles
        else
          List.iteri
            (fun pos arg ->
              (match arg with
              | Expr.Ref r when List.mem pos s.Summary.writes_params ->
                (* by-reference in/out: the callee may read the dummy
                   before writing it, and its final value is live-out,
                   so record both a read and a write at the call site *)
                push R r;
                push W r
              | _ ->
                if List.mem pos s.Summary.writes_params then
                  obstacles := Loop_info.Unsafe_call callee :: !obstacles);
              scan_expr arg)
            args
  and walk ~depth stmts =
    List.iter
      (fun (s : Stmt.t) ->
        match s with
        | Stmt.Assign (r, e) -> (
          List.iter scan_expr r.Expr.indices;
          match (r.Expr.indices, r.Expr.field) with
          | [], None -> (
            (* scalar assignment: reduction update? *)
            match reduction_shape r.Expr.grid e with
            | Some (op, others) ->
              List.iter scan_expr others;
              push (Red op) r
            | None ->
              scan_expr e;
              push W r)
          | _ ->
            scan_expr e;
            push W r)
        | Stmt.Atomic (r, e) ->
          (* atomic updates are race-free by construction: register
             neither a read nor a write dependence on the target *)
          List.iter scan_expr r.Expr.indices;
          (match reduction_shape r.Expr.grid e with
          | Some (_, others) -> List.iter scan_expr others
          | None -> scan_expr e)
        | Stmt.If (branches, else_) ->
          List.iter
            (fun (c, body) ->
              scan_expr c;
              walk ~depth body)
            branches;
          walk ~depth else_
        | Stmt.For l ->
          inner := l.Stmt.index :: !inner;
          scan_expr l.Stmt.lo;
          scan_expr l.Stmt.hi;
          scan_expr l.Stmt.step;
          push W { Expr.grid = l.Stmt.index; field = None; indices = [] };
          walk ~depth:(depth + 1) l.Stmt.body
        | Stmt.While (c, body) ->
          scan_expr c;
          walk ~depth:(depth + 1) body
        | Stmt.Call (callee, args) -> handle_call callee args
        | Stmt.Return _ -> obstacles := Loop_info.Early_exit :: !obstacles
        | Stmt.Exit_loop ->
          if depth = 0 then obstacles := Loop_info.Early_exit :: !obstacles
        | Stmt.Cycle_loop -> ()
        | Stmt.Critical _body ->
          (* executed under a global lock: contents cannot race *)
          ()
        | Stmt.Comment _ -> ())
      stmts
  in
  walk ~depth:0 loop.Stmt.body;
  {
    accesses = List.rev !accesses;
    obstacles = List.rev !obstacles;
    inner_indices = List.sort_uniq String.compare !inner;
  }

(** {1 Scalar roles} *)

type scalar_role =
  | Read_only
  | Private
  | Reduction of Stmt.red_op
  | Dependent

let scalar_role ~index (c : collected) sname : scalar_role =
  if sname = index then Read_only
  else
    let touches =
      List.filter (fun a -> a.aref.Expr.grid = sname) c.accesses
    in
    let has_plain_write = List.exists (fun a -> a.akind = W) touches in
    let red_ops =
      List.filter_map
        (fun a -> match a.akind with Red op -> Some op | _ -> None)
        touches
    in
    if (not has_plain_write) && red_ops = [] then Read_only
    else if red_ops <> [] && not has_plain_write then begin
      (* pure reduction if a single op and no other reads *)
      let same_op =
        match red_ops with
        | [] -> None
        | op :: rest -> if List.for_all (( = ) op) rest then Some op else None
      in
      let other_reads = List.exists (fun a -> a.akind = R) touches in
      match same_op with
      | Some op when not other_reads -> Reduction op
      | _ -> Dependent
    end
    else
      (* plain writes involved: private iff first touch is a write *)
      match touches with
      | { akind = W; _ } :: _ -> Private
      | _ -> Dependent

(** {1 Array dependence} *)

(* Disambiguate a pair of accesses to the same grid across iterations
   of loop [index].  Returns true when provably independent. *)
let independent_pair ~index (a : Expr.gref) (b : Expr.gref) =
  let rank = max (List.length a.Expr.indices) (List.length b.Expr.indices) in
  if List.length a.Expr.indices <> List.length b.Expr.indices then false
  else begin
    let ok = ref false in
    for d = 0 to rank - 1 do
      let sa = List.nth a.Expr.indices d and sb = List.nth b.Expr.indices d in
      match
        (Expr.affinity_of ~var:index sa, Expr.affinity_of ~var:index sb)
      with
      | Expr.Identity, Expr.Identity -> ok := true
      | Expr.Affine (ca, oa), Expr.Affine (cb, ob)
        when ca = cb && ca <> 0 && oa = ob ->
        ok := true
      | Expr.Identity, Expr.Affine (1, 0) | Expr.Affine (1, 0), Expr.Identity ->
        ok := true
      | _ -> ()
    done;
    !ok
  end

(* Distinct fields of a record grid never alias. *)
let may_alias (a : Expr.gref) (b : Expr.gref) =
  a.Expr.grid = b.Expr.grid
  &&
  match (a.Expr.field, b.Expr.field) with
  | Some fa, Some fb -> fa = fb
  | _ -> true

(** {1 Whole-loop analysis} *)

let constant_trip (loop : Stmt.loop) =
  match (loop.Stmt.lo, loop.Stmt.hi, loop.Stmt.step) with
  | Expr.Int_lit lo, Expr.Int_lit hi, Expr.Int_lit 1 -> Some (hi - lo + 1)
  | _ -> None

(* Is expression free of the loop index and of anything written in the
   body? (used for collapse legality of inner bounds) *)
let outer_invariant ~index c e =
  (not (Expr.mentions index e))
  && List.for_all
       (fun g ->
         not
           (List.exists
              (fun a -> a.akind <> R && a.aref.Expr.grid = g)
              c.accesses))
       (Expr.grids_read e)

(* Loop classes follow the paper's Table 2 wording: v1 targets
   zero-initializations and single-value loads; v2 targets "all
   remaining single loops of the code ... as well as loops that
   contain reductions" — i.e. any non-nested loop; v3 targets
   "double-nested loops that contain one or a few statements without
   including any control structure".  What survives all removals is
   the class of control-carrying nests (the two large
   longwave_entropy_model loops).  [user_fns] is
   {!user_functions} of the program that holds the loop. *)
let classify user_fns (loop : Stmt.loop) : Loop_info.loop_class =
  let body = loop.Stmt.body in
  let is_user_fn name = Hashtbl.mem user_fns name in
  let expr_calls_user e =
    Expr.fold
      (fun acc e ->
        match e with
        | Expr.Call (f, _) -> acc || is_user_fn f
        | _ -> acc)
      false e
  in
  let has_control =
    Stmt.exists
      (function
        | Stmt.If _ | Stmt.While _ | Stmt.Call _ | Stmt.Critical _ -> true
        | s -> List.exists expr_calls_user (Stmt.shallow_exprs s))
      body
  in
  let depth = 1 + Stmt.loop_depth body in
  match body with
  | [ Stmt.Assign (r, rhs) ]
    when r.Expr.indices <> []
         && (rhs = Expr.Int_lit 0 || rhs = Expr.Real_lit 0.0) ->
    Loop_info.Init_zero
  | [ Stmt.Assign (r, (Expr.Ref _ | Expr.Int_lit _ | Expr.Real_lit _)) ]
    when r.Expr.indices <> [] ->
    Loop_info.Init_broadcast
  | _ ->
    if depth = 1 then Loop_info.Simple_single
    else if depth = 2 && not has_control then Loop_info.Simple_double
    else Loop_info.Complex

let rec analyze env (loop : Stmt.loop) : Loop_info.t =
  let index = loop.Stmt.index in
  let c = collect env loop in
  let obstacles = ref c.obstacles in
  (* scalar names touched *)
  let scalar_names =
    List.filter_map
      (fun a ->
        if a.aref.Expr.indices = [] && a.aref.Expr.field = None
           && is_scalar_name env a.aref.Expr.grid
        then Some a.aref.Expr.grid
        else None)
      c.accesses
    |> List.sort_uniq String.compare
  in
  let reductions = ref [] in
  let private_vars = ref [] in
  List.iter
    (fun s ->
      match scalar_role ~index c s with
      | Read_only -> ()
      | Private -> private_vars := s :: !private_vars
      | Reduction op ->
        reductions := { Loop_info.red_var = s; red_op = op } :: !reductions
      | Dependent ->
        obstacles := Loop_info.Scalar_dependence s :: !obstacles)
    scalar_names;
  (* inner loop indices are always private *)
  private_vars :=
    List.sort_uniq String.compare (c.inner_indices @ !private_vars);
  (* array accesses *)
  let array_accesses =
    List.filter
      (fun a ->
        a.aref.Expr.indices <> [] || not (is_scalar_name env a.aref.Expr.grid))
      c.accesses
  in
  (* privatizable local scratch arrays: local storage, no subscript
     mentions the loop index anywhere, first access is a write *)
  let scratch =
    let grids =
      List.map (fun a -> a.aref.Expr.grid) array_accesses
      |> List.sort_uniq String.compare
    in
    List.filter
      (fun g ->
        is_local_grid env g
        && (not (is_scalar_name env g))
        && List.for_all
             (fun a ->
               a.aref.Expr.grid <> g
               || List.for_all
                    (fun ix -> not (Expr.mentions index ix))
                    a.aref.Expr.indices)
             array_accesses
        &&
        match List.find_opt (fun a -> a.aref.Expr.grid = g) array_accesses with
        | Some { akind = W; _ } -> true
        | _ -> false)
      grids
  in
  private_vars := List.sort_uniq String.compare (scratch @ !private_vars);
  let checked =
    List.filter (fun a -> not (List.mem a.aref.Expr.grid scratch)) array_accesses
  in
  let writes = List.filter (fun a -> a.akind <> R) checked in
  let flag_carried g =
    if
      not
        (List.exists
           (function Loop_info.Loop_carried g' -> g' = g | _ -> false)
           !obstacles)
    then obstacles := Loop_info.Loop_carried g :: !obstacles
  in
  (* every (write, other-access) pair on a potentially aliasing cell
     must be disproved *)
  List.iter
    (fun w ->
      List.iter
        (fun a ->
          if
            a.seq <> w.seq
            && may_alias w.aref a.aref
            && not (independent_pair ~index w.aref a.aref)
          then flag_carried w.aref.Expr.grid)
        checked)
    writes;
  let obstacles = List.sort_uniq compare !obstacles in
  let parallel = obstacles = [] in
  let collapsible =
    (* the fused space is only valid if BOTH loops are independently
       parallel: a serial inner recurrence (e.g. a per-band cumulative
       sweep) must not be collapsed *)
    parallel
    &&
    match loop.Stmt.body with
    | [ Stmt.For inner ] ->
      inner.Stmt.step = Expr.Int_lit 1
      && outer_invariant ~index c inner.Stmt.lo
      && outer_invariant ~index c inner.Stmt.hi
      && (analyze env inner).Loop_info.parallel
    | _ -> false
  in
  {
    Loop_info.parallel;
    obstacles;
    reductions = List.rev !reductions;
    private_vars = !private_vars;
    classification = classify env.ctx.user_fns loop;
    collapsible;
    trip_count = constant_trip loop;
  }
