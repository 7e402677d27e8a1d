(** Statements of the grid IR.

    A GLAF step body is a list of statements.  Loops carry an optional
    parallelization [directive]; the auto-parallelization back-end
    ({!Glaf_analysis}) fills these in and the optimizer
    ({!Glaf_optimizer}) may prune them again (versions v0..v3 of the
    paper's Table 2). *)

type red_op =
  | Rsum
  | Rprod
  | Rmax
  | Rmin
[@@deriving show { with_path = false }, eq, ord]

(** Loop schedule, mirroring OpenMP's [SCHEDULE] clause (the subset
    the runtime pool implements). *)
type sched =
  | Sched_static  (** contiguous per-thread blocks; the default *)
  | Sched_static_chunk of int  (** [schedule(static, k)] round-robin *)
  | Sched_dynamic of int  (** [schedule(dynamic, k)] work pulling *)
  | Sched_guided of int  (** [schedule(guided, k)] decaying chunks *)
[@@deriving show { with_path = false }, eq, ord]

(** An OpenMP-style parallel-loop directive, as attached by the
    auto-parallelizer.  [collapse = 1] means no COLLAPSE clause;
    [schedule = None] leaves the runtime default (static). *)
type directive = {
  private_vars : string list;
  reductions : (red_op * string) list;
  collapse : int;
  num_threads : int option;
  schedule : sched option;
}
[@@deriving show { with_path = false }, eq, ord]

type t =
  | Assign of Expr.gref * Expr.t
  | If of (Expr.t * t list) list * t list
      (** if/elseif chain with else branch (possibly empty) *)
  | For of loop
  | While of Expr.t * t list
  | Call of string * Expr.t list  (** subroutine call *)
  | Return of Expr.t option
  | Exit_loop
  | Cycle_loop
  | Atomic of Expr.gref * Expr.t
      (** atomic update of a shared grid element *)
  | Critical of t list  (** critical section *)
  | Comment of string

and loop = {
  index : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  body : t list;
  directive : directive option;
  schedule : sched option;
      (** user schedule hint (the GPI [schedule] clause); folded into
          the directive by the auto-parallelizer if the loop is
          parallelized *)
}
[@@deriving show { with_path = false }, eq, ord]

let assign gref e = Assign (gref, e)

let assign_var name e =
  Assign ({ Expr.grid = name; field = None; indices = [] }, e)

let assign_idx name indices e =
  Assign ({ Expr.grid = name; field = None; indices }, e)

let for_ ?directive ?schedule ?(step = Expr.int 1) index ~lo ~hi body =
  For { index; lo; hi; step; body; directive; schedule }

let if_ cond then_ else_ = If ([ (cond, then_) ], else_)

(** {1 Traversal} *)

(** [fold_stmts f acc stmts] folds [f] over every statement, pre-order,
    descending into nested bodies. *)
let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | Assign _ | Call _ | Return _ | Exit_loop | Cycle_loop | Atomic _
      | Comment _ ->
        acc
      | If (branches, else_) ->
        let acc =
          List.fold_left (fun acc (_, body) -> fold_stmts f acc body) acc
            branches
        in
        fold_stmts f acc else_
      | For l -> fold_stmts f acc l.body
      | While (_, body) -> fold_stmts f acc body
      | Critical body -> fold_stmts f acc body)
    acc stmts

(** [map_loops f stmts] rewrites every [For] loop bottom-up with [f]. *)
let rec map_loops f stmts =
  let map_stmt s =
    match s with
    | Assign _ | Call _ | Return _ | Exit_loop | Cycle_loop | Atomic _
    | Comment _ ->
      s
    | If (branches, else_) ->
      If
        ( List.map (fun (c, body) -> (c, map_loops f body)) branches,
          map_loops f else_ )
    | For l -> For (f { l with body = map_loops f l.body })
    | While (c, body) -> While (c, map_loops f body)
    | Critical body -> Critical (map_loops f body)
  in
  List.map map_stmt stmts

(** All expressions evaluated by a statement (not descending into
    nested statements; loop bounds count). *)
let shallow_exprs = function
  | Assign (r, e) | Atomic (r, e) -> Expr.Ref r :: (e :: r.indices)
  | If (branches, _) -> List.map fst branches
  | For l -> [ l.lo; l.hi; l.step ]
  | While (c, _) -> [ c ]
  | Call (_, args) -> args
  | Return (Some e) -> [ e ]
  | Return None | Exit_loop | Cycle_loop | Comment _ -> []
  | Critical _ -> []

(** Grids written (assigned or atomically updated) anywhere in
    [stmts], with the writing references. *)
let writes stmts =
  let collect acc = function
    | Assign (r, _) | Atomic (r, _) -> r :: acc
    | _ -> acc
  in
  List.rev (fold_stmts collect [] stmts)

(** Grid references read anywhere in [stmts]: right-hand sides,
    conditions, index expressions of written refs, loop bounds and call
    arguments. *)
let reads stmts =
  let collect acc s =
    let exprs =
      match s with
      | Assign (r, e) | Atomic (r, e) -> e :: r.indices
      | If (branches, _) -> List.map fst branches
      | For l -> [ l.lo; l.hi; l.step ]
      | While (c, _) -> [ c ]
      | Call (_, args) -> args
      | Return (Some e) -> [ e ]
      | Return None | Exit_loop | Cycle_loop | Comment _ | Critical _ -> []
    in
    List.fold_left (fun acc e -> List.rev_append (Expr.refs e) acc) acc exprs
  in
  List.rev (fold_stmts collect [] stmts)

(** Names of grids written / read in [stmts]. *)
let grids_written stmts =
  List.sort_uniq String.compare (List.map (fun r -> r.Expr.grid) (writes stmts))

let grids_read stmts =
  List.sort_uniq String.compare (List.map (fun r -> r.Expr.grid) (reads stmts))

(** Subroutines called anywhere in [stmts]. *)
let calls stmts =
  let collect acc = function
    | Call (name, _) -> name :: acc
    | _ -> acc
  in
  let from_exprs acc s =
    List.fold_left
      (fun acc e ->
        Expr.fold
          (fun acc e ->
            match e with
            | Expr.Call (name, _) -> name :: acc
            | _ -> acc)
          acc e)
      acc (shallow_exprs s)
  in
  let acc = fold_stmts collect [] stmts in
  let acc = fold_stmts from_exprs acc stmts in
  List.sort_uniq String.compare acc

(** Number of statements, counting nested ones. *)
let count stmts = fold_stmts (fun n _ -> n + 1) 0 stmts

(** Does any statement in [stmts] satisfy [p]? *)
let exists p stmts = fold_stmts (fun acc s -> acc || p s) false stmts

(** Immediate nesting depth of loops in [stmts]. *)
let rec loop_depth stmts =
  List.fold_left
    (fun d s ->
      let d' =
        match s with
        | For l -> 1 + loop_depth l.body
        | If (branches, else_) ->
          let branch_depth =
            List.fold_left (fun m (_, b) -> max m (loop_depth b)) 0 branches
          in
          max branch_depth (loop_depth else_)
        | While (_, body) -> loop_depth body
        | Critical body -> loop_depth body
        | _ -> 0
      in
      max d d')
    0 stmts
