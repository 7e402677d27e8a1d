(* Tests for the auto-parallelization analysis (lib/analysis). *)

open Glaf_ir
open Glaf_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_slist = Alcotest.(check (list string))

(* Build a one-function program and return (env, the first loop). *)
let loop_env ?(extra_funcs = []) ~grids body =
  let f = Func.make "kernel" ~grids ~steps:[ Func.step "s" body ] in
  let m = Ir_module.make "module1" ~functions:(f :: extra_funcs) in
  let p = Ir_module.program "p" ~modules:[ m ] in
  let env = Depend.env (Depend.context p) m f in
  let loop =
    match body with
    | [ Stmt.For l ] -> l
    | _ -> Alcotest.fail "test body must be a single loop"
  in
  (env, loop)

let d8 n = Grid.array Glaf_ir.Types.T_real8 ~dims:[ Grid.dim (Grid.Sym "n") ] n
let scal n = Grid.scalar Glaf_ir.Types.T_real8 n
let iscal n = Grid.scalar Glaf_ir.Types.T_int n

let analyze ?extra_funcs ~grids body =
  let env, loop = loop_env ?extra_funcs ~grids body in
  Depend.analyze env loop

(* --- parallel loops ---------------------------------------------------- *)

let test_elementwise_parallel () =
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; d8 "b" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "a" [ Expr.var "i" ]
              Expr.(idx "b" [ var "i" ] * real 2.0);
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  check_bool "no obstacles" true (info.Loop_info.obstacles = [])

let test_stencil_not_parallel () =
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 2) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "a" [ Expr.var "i" ]
              Expr.(idx "a" [ var "i" - int 1 ] + real 1.0);
          ];
      ]
  in
  check_bool "not parallel" false info.Loop_info.parallel;
  check_bool "loop carried on a" true
    (List.mem (Loop_info.Loop_carried "a") info.Loop_info.obstacles)

let test_offset_write_parallel () =
  (* a(i+1) = b(i): write and read touch different grids: parallel *)
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; d8 "b" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "a" [ Expr.(var "i" + int 1) ]
              Expr.(idx "b" [ var "i" ]);
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel

let test_same_array_shifted_rw () =
  (* a(i) = a(i+1): read of a future iteration's cell: anti-dependence *)
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "a" [ Expr.var "i" ]
              Expr.(idx "a" [ var "i" + int 1 ]);
          ];
      ]
  in
  check_bool "not parallel" false info.Loop_info.parallel

let test_reduction_detected () =
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; scal "s" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_var "s" Expr.(var "s" + idx "a" [ var "i" ]);
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  (match info.Loop_info.reductions with
  | [ { Loop_info.red_var = "s"; red_op = Stmt.Rsum } ] -> ()
  | _ -> Alcotest.fail "expected sum reduction on s")

let test_multi_reduction () =
  (* two reduction outputs in one loop — the FUN3D case in §4.2.1 *)
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; scal "s1"; scal "s2" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_var "s1" Expr.(var "s1" + idx "a" [ var "i" ]);
            Stmt.assign_var "s2"
              Expr.(var "s2" + (idx "a" [ var "i" ] * idx "a" [ var "i" ]));
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  check_int "two reductions" 2 (List.length info.Loop_info.reductions)

let test_max_reduction () =
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; scal "m" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_var "m"
              (Expr.call "max" [ Expr.var "m"; Expr.idx "a" [ Expr.var "i" ] ]);
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  (match info.Loop_info.reductions with
  | [ { Loop_info.red_op = Stmt.Rmax; _ } ] -> ()
  | _ -> Alcotest.fail "expected max reduction")

let test_private_scalar () =
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; d8 "b"; scal "tmp" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_var "tmp" Expr.(idx "b" [ var "i" ] * real 3.0);
            Stmt.assign_idx "a" [ Expr.var "i" ] Expr.(var "tmp" + real 1.0);
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  check_bool "tmp private" true (List.mem "tmp" info.Loop_info.private_vars)

let test_scalar_dependence () =
  (* tmp read before written each iteration: genuine dependence *)
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a"; scal "tmp" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.var "tmp");
            Stmt.assign_var "tmp" (Expr.idx "a" [ Expr.var "i" ]);
          ];
      ]
  in
  check_bool "not parallel" false info.Loop_info.parallel;
  check_bool "scalar obstacle" true
    (List.mem (Loop_info.Scalar_dependence "tmp") info.Loop_info.obstacles)

let test_inner_loop_index_private () =
  let info =
    analyze
      ~grids:[ iscal "n"; iscal "m"; Grid.array Glaf_ir.Types.T_real8
                 ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "m") ] "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "m")
              [
                Stmt.assign_idx "a" [ Expr.var "i"; Expr.var "j" ] (Expr.real 0.0);
              ];
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  check_bool "j private" true (List.mem "j" info.Loop_info.private_vars);
  check_bool "collapsible" true info.Loop_info.collapsible

let test_collapse_requires_invariant_bounds () =
  (* inner bound depends on i: legal loop but not collapsible *)
  let info =
    analyze
      ~grids:[ iscal "n"; Grid.array Glaf_ir.Types.T_real8
                 ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "n") ] "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "i")
              [
                Stmt.assign_idx "a" [ Expr.var "i"; Expr.var "j" ] (Expr.real 1.0);
              ];
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  check_bool "not collapsible" false info.Loop_info.collapsible

let test_collapse_requires_parallel_inner () =
  (* outer loop over bands is parallel, but the inner sweep is a
     recurrence: the nest must NOT be collapsible *)
  let info =
    analyze
      ~grids:
        [
          iscal "n"; iscal "m";
          Grid.array Glaf_ir.Types.T_real8
            ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "m") ] "f";
        ]
      [
        Stmt.for_ "ib" ~lo:(Expr.int 1) ~hi:(Expr.var "m")
          [
            Stmt.for_ "k" ~lo:(Expr.int 2) ~hi:(Expr.var "n")
              [
                Stmt.assign_idx "f" [ Expr.var "k"; Expr.var "ib" ]
                  (Expr.idx "f" [ Expr.(var "k" - int 1); Expr.var "ib" ]);
              ];
          ];
      ]
  in
  check_bool "outer parallel" true info.Loop_info.parallel;
  check_bool "not collapsible (serial inner)" false info.Loop_info.collapsible

let test_early_exit_blocks () =
  let info =
    analyze
      ~grids:[ iscal "n"; d8 "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.if_
              Expr.(idx "a" [ var "i" ] > real 10.0)
              [ Stmt.Exit_loop ] [];
            Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 0.0);
          ];
      ]
  in
  check_bool "not parallel" false info.Loop_info.parallel;
  check_bool "early exit" true
    (List.mem Loop_info.Early_exit info.Loop_info.obstacles)

let test_scratch_array_privatized () =
  (* FUN3D pattern: local scratch array indexed only by inner index *)
  let info =
    analyze
      ~grids:
        [
          iscal "n";
          d8 "out";
          Grid.array Glaf_ir.Types.T_real8 ~dims:[ Grid.dim (Grid.Fixed 4) ] "scratch";
        ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.for_ "k" ~lo:(Expr.int 1) ~hi:(Expr.int 4)
              [ Stmt.assign_idx "scratch" [ Expr.var "k" ] (Expr.real 1.0) ];
            Stmt.assign_idx "out" [ Expr.var "i" ]
              Expr.(idx "scratch" [ int 1 ] + idx "scratch" [ int 2 ]);
          ];
      ]
  in
  check_bool "parallel" true info.Loop_info.parallel;
  check_bool "scratch private" true
    (List.mem "scratch" info.Loop_info.private_vars)

let test_shared_scratch_blocks_when_not_local () =
  (* same pattern but module-scope scratch: must NOT privatize *)
  let info =
    analyze
      ~grids:
        [
          iscal "n";
          d8 "out";
          Grid.array ~storage:Grid.Module_scope Glaf_ir.Types.T_real8
            ~dims:[ Grid.dim (Grid.Fixed 4) ] "scratch";
        ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "scratch" [ Expr.int 1 ] (Expr.real 1.0);
            Stmt.assign_idx "out" [ Expr.var "i" ] (Expr.idx "scratch" [ Expr.int 1 ]);
          ];
      ]
  in
  check_bool "not parallel" false info.Loop_info.parallel

let test_trip_count () =
  let info =
    analyze ~grids:[ d8 "a"; iscal "n" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.int 60)
          [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 0.0) ];
      ]
  in
  check_bool "trip count" true (info.Loop_info.trip_count = Some 60)

(* --- classification ----------------------------------------------------- *)

let classify ~grids body =
  (analyze ~grids body).Loop_info.classification

let test_classification () =
  let init_zero =
    classify ~grids:[ iscal "n"; d8 "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 0.0) ];
      ]
  in
  Alcotest.(check string) "init zero" "Init_zero"
    (Loop_info.show_loop_class init_zero);
  let broadcast =
    classify ~grids:[ iscal "n"; d8 "a"; d8 "b" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.idx "b" [ Expr.var "i" ]) ];
      ]
  in
  Alcotest.(check string) "broadcast" "Init_broadcast"
    (Loop_info.show_loop_class broadcast);
  let simple =
    classify ~grids:[ iscal "n"; d8 "a"; d8 "b" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.assign_idx "a" [ Expr.var "i" ]
              Expr.(idx "b" [ var "i" ] * idx "b" [ var "i" ] + real 1.0);
          ];
      ]
  in
  Alcotest.(check string) "simple single" "Simple_single"
    (Loop_info.show_loop_class simple);
  let double =
    classify
      ~grids:[ iscal "n"; Grid.array Glaf_ir.Types.T_real8
                 ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "n") ] "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
              [
                Stmt.assign_idx "a" [ Expr.var "i"; Expr.var "j" ]
                  Expr.(var "i" * var "j" * real 1.0);
              ];
          ];
      ]
  in
  Alcotest.(check string) "simple double" "Simple_double"
    (Loop_info.show_loop_class double);
  (* per the paper's Table 2, ANY non-nested loop is in the v2 removal
     class, branches or not *)
  let single_with_if =
    classify ~grids:[ iscal "n"; d8 "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.if_
              Expr.(idx "a" [ var "i" ] > real 0.0)
              [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 1.0) ]
              [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real (-1.0)) ];
          ];
      ]
  in
  Alcotest.(check string) "single with if" "Simple_single"
    (Loop_info.show_loop_class single_with_if);
  (* a double nest carrying control flow survives every removal *)
  let complex =
    classify
      ~grids:[ iscal "n"; Grid.array Glaf_ir.Types.T_real8
                 ~dims:[ Grid.dim (Grid.Fixed 2); Grid.dim (Grid.Sym "n") ] "f2" ]
      [
        Stmt.for_ "d" ~lo:(Expr.int 1) ~hi:(Expr.int 2)
          [
            Stmt.for_ "k" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
              [
                Stmt.if_
                  Expr.(var "d" = int 1)
                  [ Stmt.assign_idx "f2" [ Expr.var "d"; Expr.var "k" ] (Expr.real 1.0) ]
                  [ Stmt.assign_idx "f2" [ Expr.var "d"; Expr.var "k" ] (Expr.real 2.0) ];
              ];
          ];
      ]
  in
  Alcotest.(check string) "complex" "Complex" (Loop_info.show_loop_class complex)

(* --- calls & summaries --------------------------------------------------- *)

let make_callee ~writes_arg =
  (* subroutine callee(x, y): writes y if writes_arg *)
  let grids =
    [
      Grid.scalar ~storage:(Grid.Arg 0) Glaf_ir.Types.T_real8 "x";
      Grid.scalar ~storage:(Grid.Arg 1) Glaf_ir.Types.T_real8 "y";
    ]
  in
  let body =
    if writes_arg then [ Stmt.assign_var "y" Expr.(var "x" * real 2.0) ]
    else [ Stmt.assign_var "x" (Expr.var "x") ]
  in
  Func.make "callee" ~params:[ "x"; "y" ] ~grids
    ~steps:[ Func.step "s" body ]

let test_call_written_arg_indexed_ok () =
  let callee = make_callee ~writes_arg:true in
  let info =
    analyze ~extra_funcs:[ callee ]
      ~grids:[ iscal "n"; d8 "a"; d8 "b" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.Call
              ( "callee",
                [ Expr.idx "b" [ Expr.var "i" ]; Expr.idx "a" [ Expr.var "i" ] ] );
          ];
      ]
  in
  check_bool "parallel (write through indexed actual)" true
    info.Loop_info.parallel

let test_call_written_scalar_arg_blocks () =
  let callee = make_callee ~writes_arg:true in
  let info =
    analyze ~extra_funcs:[ callee ]
      ~grids:[ iscal "n"; d8 "b"; scal "acc" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [
            Stmt.Call ("callee", [ Expr.idx "b" [ Expr.var "i" ]; Expr.var "acc" ]);
          ];
      ]
  in
  check_bool "not parallel (shared scalar written via call)" false
    info.Loop_info.parallel

let test_call_module_write_blocks () =
  let callee =
    Func.make "dirty"
      ~grids:[ Grid.scalar ~storage:Grid.Module_scope Glaf_ir.Types.T_real8 "gstate" ]
      ~steps:[ Func.step "s" [ Stmt.assign_var "gstate" (Expr.real 1.0) ] ]
  in
  let info =
    analyze ~extra_funcs:[ callee ]
      ~grids:[ iscal "n"; d8 "a" ]
      [
        Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
          [ Stmt.Call ("dirty", []) ];
      ]
  in
  check_bool "not parallel" false info.Loop_info.parallel;
  check_bool "unsafe call obstacle" true
    (List.exists
       (function Loop_info.Unsafe_call "dirty" -> true | _ -> false)
       info.Loop_info.obstacles)

(* --- summaries ------------------------------------------------------------ *)

let test_summary_transitive () =
  let leaf =
    Func.make "leaf"
      ~grids:[ Grid.scalar ~storage:Grid.Module_scope Glaf_ir.Types.T_real8 "g" ]
      ~steps:[ Func.step "s" [ Stmt.assign_var "g" (Expr.real 1.0) ] ]
  in
  let mid =
    Func.make "mid" ~grids:[]
      ~steps:[ Func.step "s" [ Stmt.Call ("leaf", []) ] ]
  in
  let m = Ir_module.make "m" ~functions:[ leaf; mid ] in
  let p = Ir_module.program "p" ~modules:[ m ] in
  let summaries = Summary.of_program p in
  let mid_summary = Hashtbl.find summaries "mid" in
  check_slist "transitive external write" [ "g" ]
    mid_summary.Summary.writes_external

let test_summary_params () =
  let callee = make_callee ~writes_arg:true in
  let m = Ir_module.make "m" ~functions:[ callee ] in
  let p = Ir_module.program "p" ~modules:[ m ] in
  let summaries = Summary.of_program p in
  let s = Hashtbl.find summaries "callee" in
  check_bool "writes param 1" true (List.mem 1 s.Summary.writes_params);
  check_bool "reads param 0" true (List.mem 0 s.Summary.reads_params)

(* f writes module-scope x and calls g, g calls f: g's summary must
   carry f's write in either declaration order, so k's loop, which
   calls g, stays serial. *)
let test_summary_mutual_recursion () =
  let f =
    Func.make "f"
      ~grids:[ Grid.scalar ~storage:Grid.Module_scope Glaf_ir.Types.T_real8 "x" ]
      ~steps:
        [ Func.step "s" [ Stmt.assign_var "x" (Expr.real 1.0); Stmt.Call ("g", []) ] ]
  in
  let g = Func.make "g" ~grids:[] ~steps:[ Func.step "s" [ Stmt.Call ("f", []) ] ] in
  let loop =
    Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
      [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 0.0); Stmt.Call ("g", []) ]
  in
  let k = Func.make "k" ~grids:[ iscal "n"; d8 "a" ] ~steps:[ Func.step "s" [ loop ] ] in
  let l = match loop with Stmt.For l -> l | _ -> assert false in
  List.iter
    (fun (order, functions) ->
      let m = Ir_module.make "m" ~functions in
      let ctx = Depend.context (Ir_module.program "p" ~modules:[ m ]) in
      check_slist (order ^ ": g writes x") [ "x" ]
        (Hashtbl.find ctx.Depend.summaries "g").Summary.writes_external;
      let info = Depend.analyze (Depend.env ctx m k) l in
      check_bool (order ^ ": k's loop serial") false info.Loop_info.parallel;
      Alcotest.(check (list string))
        (order ^ ": obstacle")
        [ Loop_info.obstacle_to_string (Loop_info.Unsafe_call "g") ]
        (List.map Loop_info.obstacle_to_string info.Loop_info.obstacles))
    [ ("f g k", [ f; g; k ]); ("g f k", [ g; f; k ]) ]

(* Directive_policy.apply classifies loops without re-running the
   dependence test; it must strip exactly the directives that a full
   per-loop analysis would. *)
let test_policy_matches_analysis () =
  let module Policy = Glaf_optimizer.Directive_policy in
  let pure = Glaf_runtime.Intrinsics.names () in
  let annotated, _ = Autopar.run ~pure (Glaf_workloads.Sarb_glaf.program ()) in
  let ctx = Depend.context ~pure annotated in
  let reference policy =
    let removed = Policy.removed_classes policy in
    let prune m (f : Func.t) =
      let env = Depend.env ctx m f in
      let prune_loop (l : Stmt.loop) =
        match l.Stmt.directive with
        | Some _
          when List.mem (Depend.analyze env l).Loop_info.classification removed ->
          { l with Stmt.directive = None }
        | _ -> l
      in
      {
        f with
        Func.steps =
          List.map
            (fun (st : Func.step) ->
              { st with Func.body = Stmt.map_loops prune_loop st.Func.body })
            f.Func.steps;
      }
    in
    {
      annotated with
      Ir_module.modules =
        List.map
          (fun m ->
            { m with Ir_module.functions = List.map (prune m) m.Ir_module.functions })
          annotated.Ir_module.modules;
    }
  in
  let count = Policy.directive_count in
  List.iter
    (fun policy ->
      let name = Policy.name policy in
      let got = Policy.apply policy annotated in
      check_bool (name ^ " = per-loop analysis") true (got = reference policy);
      check_int (name ^ " directives") (count (reference policy)) (count got))
    Policy.all;
  check_bool "policies remove directives" true
    (count (Policy.apply Policy.V3 annotated) < count annotated)

(* --- autopar pass ---------------------------------------------------------- *)

let test_autopar_annotates () =
  let grids = [ iscal "n"; d8 "a"; d8 "b"; scal "s" ] in
  let f =
    Func.make "kernel" ~grids
      ~steps:
        [
          Func.step "zero"
            [
              Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
                [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 0.0) ];
            ];
          Func.step "acc"
            [
              Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
                [ Stmt.assign_var "s" Expr.(var "s" + idx "a" [ var "i" ]) ];
            ];
          Func.step "stencil"
            [
              Stmt.for_ "i" ~lo:(Expr.int 2) ~hi:(Expr.var "n")
                [
                  Stmt.assign_idx "a" [ Expr.var "i" ]
                    (Expr.idx "a" [ Expr.(var "i" - int 1) ]);
                ];
            ];
        ]
  in
  let m = Ir_module.make "m" ~functions:[ f ] in
  let p = Ir_module.program "p" ~modules:[ m ] in
  let p', report = Autopar.run p in
  check_int "three loops analyzed" 3 (List.length report);
  let f' = List.hd (Ir_module.all_functions p') in
  let directives =
    Stmt.fold_stmts
      (fun acc s ->
        match s with
        | Stmt.For { Stmt.directive = Some d; _ } -> d :: acc
        | _ -> acc)
      [] (Func.all_stmts f')
  in
  check_int "two annotated" 2 (List.length directives);
  check_bool "reduction directive present" true
    (List.exists (fun d -> d.Stmt.reductions <> []) directives)

let test_autopar_descends_into_serial_outer () =
  (* outer loop has a dependence; inner is parallel: directive must land
     on the inner loop *)
  let grids =
    [
      iscal "n";
      Grid.array Glaf_ir.Types.T_real8
        ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "n") ] "a";
    ]
  in
  let f =
    Func.make "sweep" ~grids
      ~steps:
        [
          Func.step "s"
            [
              Stmt.for_ "t" ~lo:(Expr.int 2) ~hi:(Expr.var "n")
                [
                  Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
                    [
                      Stmt.assign_idx "a" [ Expr.var "t"; Expr.var "j" ]
                        (Expr.idx "a" [ Expr.(var "t" - int 1); Expr.var "j" ]);
                    ];
                ];
            ];
        ]
  in
  let m = Ir_module.make "m" ~functions:[ f ] in
  let p = Ir_module.program "p" ~modules:[ m ] in
  let p', _ = Autopar.run p in
  let f' = List.hd (Ir_module.all_functions p') in
  (match Func.all_stmts f' with
  | [ Stmt.For outer ] -> (
    check_bool "outer serial" true (outer.Stmt.directive = None);
    match outer.Stmt.body with
    | [ Stmt.For innr ] ->
      check_bool "inner parallel" true (innr.Stmt.directive <> None)
    | _ -> Alcotest.fail "inner loop missing")
  | _ -> Alcotest.fail "unexpected shape")

let suites =
  [
    ( "analysis.depend",
      [
        Alcotest.test_case "elementwise parallel" `Quick test_elementwise_parallel;
        Alcotest.test_case "stencil blocked" `Quick test_stencil_not_parallel;
        Alcotest.test_case "offset write ok" `Quick test_offset_write_parallel;
        Alcotest.test_case "shifted anti-dep" `Quick test_same_array_shifted_rw;
        Alcotest.test_case "sum reduction" `Quick test_reduction_detected;
        Alcotest.test_case "multi reduction" `Quick test_multi_reduction;
        Alcotest.test_case "max reduction" `Quick test_max_reduction;
        Alcotest.test_case "private scalar" `Quick test_private_scalar;
        Alcotest.test_case "scalar dependence" `Quick test_scalar_dependence;
        Alcotest.test_case "inner index private + collapse" `Quick test_inner_loop_index_private;
        Alcotest.test_case "collapse invariant bounds" `Quick test_collapse_requires_invariant_bounds;
        Alcotest.test_case "collapse needs parallel inner" `Quick test_collapse_requires_parallel_inner;
        Alcotest.test_case "early exit" `Quick test_early_exit_blocks;
        Alcotest.test_case "scratch array privatized" `Quick test_scratch_array_privatized;
        Alcotest.test_case "shared scratch blocks" `Quick test_shared_scratch_blocks_when_not_local;
        Alcotest.test_case "trip count" `Quick test_trip_count;
        Alcotest.test_case "classification" `Quick test_classification;
      ] );
    ( "analysis.calls",
      [
        Alcotest.test_case "indexed written actual" `Quick test_call_written_arg_indexed_ok;
        Alcotest.test_case "scalar written actual" `Quick test_call_written_scalar_arg_blocks;
        Alcotest.test_case "module write blocks" `Quick test_call_module_write_blocks;
        Alcotest.test_case "summary transitive" `Quick test_summary_transitive;
        Alcotest.test_case "summary params" `Quick test_summary_params;
        Alcotest.test_case "summary mutual recursion" `Quick
          test_summary_mutual_recursion;
      ] );
    ( "analysis.autopar",
      [
        Alcotest.test_case "annotates program" `Quick test_autopar_annotates;
        Alcotest.test_case "descends into serial outer" `Quick test_autopar_descends_into_serial_outer;
        Alcotest.test_case "policy = per-loop analysis" `Quick
          test_policy_matches_analysis;
      ] );
  ]
