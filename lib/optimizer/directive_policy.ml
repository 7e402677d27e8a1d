(** Directive-pruning policies — the paper's Table 2.

    GLAF-parallel v0 keeps OpenMP directives on every parallelizable
    loop.  v1–v3 progressively remove directives from loop classes
    that the compiler serves better with SIMD/memset/unrolling:

    - v1: remove from zero-initializations and single-value loads,
    - v2: additionally from simple single loops (incl. reductions),
    - v3: additionally from simple double loops.

    The paper performs this removal manually and argues for automating
    it; here it {e is} automated, driven by {!Glaf_analysis}'s loop
    classification. *)

open Glaf_ir
open Glaf_analysis

type t =
  | V0
  | V1
  | V2
  | V3
[@@deriving show { with_path = false }, eq]

let all = [ V0; V1; V2; V3 ]

let name = function
  | V0 -> "GLAF-parallel v0"
  | V1 -> "GLAF-parallel v1"
  | V2 -> "GLAF-parallel v2"
  | V3 -> "GLAF-parallel v3"

let description = function
  | V0 -> "OMP directives in all parallelizable loops"
  | V1 -> "v0 minus directives on zero-init and single-value-load loops"
  | V2 -> "v1 minus directives on simple single loops"
  | V3 -> "v2 minus directives on simple double loops"

(** Loop classes whose directives the policy removes. *)
let removed_classes = function
  | V0 -> []
  | V1 -> [ Loop_info.Init_zero; Loop_info.Init_broadcast ]
  | V2 ->
    [ Loop_info.Init_zero; Loop_info.Init_broadcast; Loop_info.Simple_single ]
  | V3 ->
    [
      Loop_info.Init_zero;
      Loop_info.Init_broadcast;
      Loop_info.Simple_single;
      Loop_info.Simple_double;
    ]

(** Apply the policy to an annotated program: strip directives from
    loops whose classification is in the policy's removal set.  The
    classification reads only the loop and the program's function
    names, so no dependence test or effect summary is needed here.
    [pure] is unused; it stays only for callers that still pass it. *)
let apply ?pure:(_ : string list option) policy (p : Ir_module.program) :
    Ir_module.program =
  let removed = removed_classes policy in
  let user_fns = Depend.user_functions p in
  let prune_loop (l : Stmt.loop) =
    match l.Stmt.directive with
    | Some _ when List.mem (Depend.classify user_fns l) removed ->
      { l with Stmt.directive = None }
    | _ -> l
  in
  let prune_function (f : Func.t) =
    let steps =
      List.map
        (fun (st : Func.step) ->
          { st with Func.body = Stmt.map_loops prune_loop st.Func.body })
        f.Func.steps
    in
    { f with Func.steps }
  in
  {
    p with
    Ir_module.modules =
      List.map
        (fun m ->
          { m with Ir_module.functions = List.map prune_function m.Ir_module.functions })
        p.Ir_module.modules;
  }

(** Count remaining directives (for reports and tests). *)
let directive_count (p : Ir_module.program) =
  List.fold_left
    (fun acc (f : Func.t) ->
      Stmt.fold_stmts
        (fun acc s ->
          match s with
          | Stmt.For { Stmt.directive = Some _; _ } -> acc + 1
          | _ -> acc)
        acc (Func.all_stmts f))
    0
    (Ir_module.all_functions p)
