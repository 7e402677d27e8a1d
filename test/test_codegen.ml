(* Tests for the builder front-end, Fortran/C code generation, the
   optimizer, and end-to-end pipelines through the interpreter. *)

open Glaf_ir
open Glaf_builder
open Glaf_fortran
open Glaf_runtime
open Glaf_interp
open Glaf_analysis
open Glaf_optimizer
open Glaf_codegen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* A small GLAF program used across tests: zero-init + scaled copy +
   reduction, written via the builder exactly as GPI actions. *)
let sample_program () =
  let b = Build.create "demo" in
  Build.add_module b "module1";
  Build.start_function b "process" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_int "n");
  Build.add_param b
    (Grid.array Types.T_real8 ~dims:[ Grid.dim (Grid.Sym "n") ] "input");
  Build.add_grid b
    (Grid.array Types.T_real8 ~dims:[ Grid.dim (Grid.Sym "n") ] "work");
  Build.add_grid b (Grid.scalar Types.T_real8 "total");
  Build.start_step b "zero";
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [ Stmt.assign_idx "work" [ Expr.var "i" ] (Expr.real 0.0) ]);
  Build.start_step b "scale";
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [
         Stmt.assign_idx "work" [ Expr.var "i" ]
           Expr.(idx "input" [ var "i" ] * real 2.0);
       ]);
  Build.start_step b "reduce";
  Build.add_stmt b (Stmt.assign_var "total" (Expr.real 0.0));
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [ Stmt.assign_var "total" Expr.(var "total" + idx "work" [ var "i" ]) ]);
  Build.add_stmt b (Stmt.Return (Some (Expr.var "total")));
  Build.finish b

(* --- builder ----------------------------------------------------------- *)

let test_builder_basic () =
  let p = sample_program () in
  check_int "one module" 1 (List.length p.Ir_module.modules);
  let f = List.hd (Ir_module.all_functions p) in
  check_str "name" "process" f.Func.name;
  check_int "params" 2 (List.length f.Func.params);
  check_int "steps" 3 (List.length f.Func.steps)

let test_builder_rejects_invalid () =
  let b = Build.create "bad" in
  Build.add_module b "m";
  Build.start_function b "f";
  Build.start_step b "s";
  Build.add_stmt b (Stmt.assign_var "ghost" (Expr.int 1));
  match Build.finish b with
  | _ -> Alcotest.fail "expected Build_error"
  | exception Build.Build_error _ -> ()

let test_builder_storage_helpers () =
  let g = Grid.scalar Types.T_real8 "pp" in
  let g1 = Build.grid_from_module ~module_name:"fuinput" g in
  check_bool "external module" true
    (g1.Grid.storage = Grid.External_module "fuinput");
  let g2 = Build.grid_from_module ~module_name:"fuoutput" ~type_var:"fo" g in
  check_bool "type element" true
    (g2.Grid.storage = Grid.Type_element ("fuoutput", "fo"));
  let g3 = Build.grid_in_common ~block:"radblk" g in
  check_bool "common" true (g3.Grid.storage = Grid.Common "radblk")

(* --- GPI script --------------------------------------------------------- *)

let script_source =
  {|
program scripted
module module1
function weighted_sum returns real8
  param n integer
  param a real8 dims(n)
  param w real8 dims(n)
  grid s real8
  step init
    set s = 0.0
  step accumulate
    foreach i = 1, n
      set s = s + a(i) * w(i)
    end foreach
    return s
end program
|}

let test_gpi_script_runs () =
  let p = Gpi_script.run script_source in
  let f = List.hd (Ir_module.all_functions p) in
  check_str "name" "weighted_sum" f.Func.name;
  check_int "steps" 2 (List.length f.Func.steps)

let test_gpi_script_control_flow () =
  let p =
    Gpi_script.run
      {|
program branching
module m
function classify returns integer
  param x real8
  grid c integer
  step decide
    if x > 1.0
      set c = 1
    elseif x > 0.0
      set c = 2
    else
      set c = 3
    end if
    return c
end program
|}
  in
  let f = List.hd (Ir_module.all_functions p) in
  match Func.all_stmts f with
  | [ Stmt.If (branches, else_); Stmt.Return _ ] ->
    check_int "branches" 2 (List.length branches);
    check_int "else stmts" 1 (List.length else_)
  | _ -> Alcotest.fail "unexpected body shape"

let test_gpi_script_integration_grids () =
  let p =
    Gpi_script.run
      {|
program integrated
module m
function kernel returns void
  grid pp real8 usemodule fuinput
  grid fds real8 usemodule fuoutput typevar fo
  grid tau0 real8 common radblk
  step work
    set tau0 = pp * 2.0
    set fds = tau0
end program
|}
  in
  let f = List.hd (Ir_module.all_functions p) in
  check_bool "subroutine (§3.4)" true (Func.is_subroutine f);
  Alcotest.(check (list string))
    "used modules" [ "fuinput"; "fuoutput" ] (Func.used_modules f);
  check_int "common blocks" 1 (List.length (Func.common_blocks f))

let test_gpi_script_while_and_loops () =
  let p =
    Gpi_script.run
      {|
program looping
module m
function collatz returns integer
  param n0 integer
  grid n integer
  grid steps integer
  step iterate
    set n = n0
    set steps = 0
    while n /= 1
      if mod(n, 2) == 0
        set n = n / 2
      else
        set n = 3 * n + 1
      end if
      set steps = steps + 1
    end while
    return steps
end program
|}
  in
  (* run it through the full pipeline *)
  let src = Fortran_gen.to_source ~opts:{ Fortran_gen.default_options with emit_omp = false } p in
  let st = Interp.make_state (Parser.parse_string src) in
  match Interp.call st "collatz" [ Ast.Int_lit 6 ] with
  | Some v -> check_int "collatz(6)" 8 (Value.to_int v)
  | None -> Alcotest.fail "no result"

let test_gpi_script_scopes_and_clauses () =
  let p =
    Gpi_script.run
      {|
program scoped
globalgrid gconst real8 init 2.5
module m
modulegrid shared_arr real8 dims(8)
function fill returns void
  param n integer
  grid tmp real8 dims(n) save
  step work
    foreach i = 1, n
      set shared_arr(i) = gconst * i
      set tmp(i) = shared_arr(i)
    end foreach
function total returns real8
  param n integer
  grid s real8
  step sum_up
    set s = 0.0
    foreach i = 1, n
      set s = s + shared_arr(i)
    end foreach
    return s
end program
|}
  in
  check_int "one global" 1 (List.length p.Ir_module.globals);
  let m = List.hd p.Ir_module.modules in
  check_int "one module grid" 1 (List.length m.Ir_module.module_grids);
  let fill =
    Option.get (Ir_module.find_function m "fill")
  in
  (match Func.find_grid fill "tmp" with
  | Some g -> check_bool "save clause" true g.Grid.save
  | None -> Alcotest.fail "tmp missing");
  (* execute: fill then total via generated code *)
  let annotated, _ = Autopar.run p in
  let src = Fortran_gen.to_source annotated in
  let st = Interp.make_state (Parser.parse_string src) in
  Interp.set_threads st 2;
  ignore (Interp.call st "fill" [ Ast.Int_lit 8 ]);
  match Interp.call st "total" [ Ast.Int_lit 8 ] with
  | Some v ->
    (* 2.5 * (1+..+8) = 90 *)
    Alcotest.(check (float 1e-9)) "total" 90.0 (Value.to_float v)
  | None -> Alcotest.fail "no result"

let test_gpi_script_errors_with_line () =
  match Gpi_script.run "program p\nmodule m\nbogus action here\n" with
  | _ -> Alcotest.fail "expected script error"
  | exception Gpi_script.Script_error (3, _) -> ()
  | exception Gpi_script.Script_error (n, m) ->
    Alcotest.failf "wrong line %d: %s" n m

(* --- fortran codegen ----------------------------------------------------- *)

let test_codegen_emits_integration_features () =
  let p =
    Gpi_script.run
      {|
program integrated
module m
function kernel returns void
  grid pp real8 usemodule fuinput
  grid fds real8 usemodule fuoutput typevar fo
  grid tau0 real8 common radblk
  step work
    set tau0 = pp * 2.0
    set fds = tau0
end program
|}
  in
  let src = Fortran_gen.to_source p in
  check_bool "USE fuinput" true (contains src "use fuinput");
  check_bool "USE fuoutput" true (contains src "use fuoutput");
  check_bool "COMMON line" true (contains src "common /radblk/ tau0");
  check_bool "subroutine" true (contains src "subroutine kernel()");
  check_bool "type element prefix" true (contains src "fo%fds");
  check_bool "no declaration of pp" false (contains src ":: pp")

let test_codegen_roundtrip_parses () =
  let p = sample_program () in
  let src = Fortran_gen.to_source p in
  match Parser.parse_string src with
  | cu -> check_int "one module unit" 1 (List.length cu)
  | exception Parser.Parse_error (line, msg) ->
    Alcotest.failf "generated code does not parse at line %d: %s\n%s" line msg src

(* Full pipeline: IR -> Fortran source -> parse -> interpret. *)
let run_generated ?(threads = 1) ?(policy = None) ?(parallel = false) p fname args =
  let p =
    if parallel then begin
      let annotated, _ = Autopar.run p in
      match policy with
      | Some pol -> Directive_policy.apply pol annotated
      | None -> annotated
    end
    else p
  in
  let opts = { Fortran_gen.default_options with emit_omp = parallel } in
  let src = Fortran_gen.to_source ~opts p in
  let st = Interp.make_state (Parser.parse_string src) in
  Interp.set_threads st threads;
  match Interp.call st fname args with
  | Some v -> Value.to_float v
  | None -> Alcotest.fail "expected function result"

let test_pipeline_serial () =
  let p = sample_program () in
  (* process(n, input) = sum(2 * input); drive via a wrapper that
     builds the input array *)
  let src = Fortran_gen.to_source ~opts:{ Fortran_gen.default_options with emit_omp = false } p in
  let wrapper =
    {|
real*8 function driver(n)
  integer :: n
  real*8, allocatable :: buf(:)
  integer :: i
  allocate(buf(n))
  do i = 1, n
    buf(i) = i * 1.0d0
  end do
  driver = process(n, buf)
end function driver
|}
  in
  let st = Interp.make_state (Parser.parse_string (src ^ "\n" ^ wrapper)) in
  match Interp.call st "driver" [ Ast.Int_lit 10 ] with
  | Some v -> check_float "2 * (1+..+10)" 110.0 (Value.to_float v)
  | None -> Alcotest.fail "no result"

let test_pipeline_parallel_matches_serial () =
  let p = sample_program () in
  let annotated, report = Autopar.run p in
  check_int "three loops" 3 (List.length report);
  check_bool "all parallel" true
    (List.for_all
       (fun e -> e.Autopar.re_info.Loop_info.parallel)
       report);
  let src_serial =
    Fortran_gen.to_source
      ~opts:{ Fortran_gen.default_options with emit_omp = false }
      annotated
  in
  let src_par = Fortran_gen.to_source annotated in
  check_bool "directives emitted" true (contains src_par "!$omp parallel do");
  let wrapper =
    {|
real*8 function driver(n)
  integer :: n
  real*8, allocatable :: buf(:)
  integer :: i
  allocate(buf(n))
  do i = 1, n
    buf(i) = i * 0.5d0
  end do
  driver = process(n, buf)
end function driver
|}
  in
  let run src threads =
    let st = Interp.make_state (Parser.parse_string (src ^ "\n" ^ wrapper)) in
    Interp.set_threads st threads;
    match Interp.call st "driver" [ Ast.Int_lit 200 ] with
    | Some v -> Value.to_float v
    | None -> Alcotest.fail "no result"
  in
  let serial = run src_serial 1 in
  let par = run src_par 4 in
  check_float "parallel == serial" serial par

let test_codegen_save_allocation () =
  (* no-realloc transform: generated code must guard the allocate *)
  let p = sample_program () in
  let p = No_realloc.apply p in
  let src = Fortran_gen.to_source p in
  check_bool "guarded allocate" true (contains src "if (.not. allocated(work))");
  check_bool "save attr" true (contains src ", save :: work")

let test_codegen_collapse_clause () =
  let b = Build.create "cdemo" in
  Build.add_module b "m";
  Build.start_function b "mat";
  Build.add_param b (Grid.scalar Types.T_int "n");
  Build.add_grid b
    (Grid.array Types.T_real8
       ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "n") ]
       "a");
  Build.start_step b "s";
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [
         Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
           [
             Stmt.assign_idx "a" [ Expr.var "i"; Expr.var "j" ]
               Expr.(var "i" + var "j" + real 0.0);
           ];
       ]);
  let p = Build.finish b in
  let annotated, _ = Autopar.run p in
  let src = Fortran_gen.to_source annotated in
  check_bool "collapse(2) emitted" true (contains src "collapse(2)")

(* --- C codegen ------------------------------------------------------------ *)

let test_c_codegen () =
  let p = sample_program () in
  let annotated, _ = Autopar.run p in
  let src = C_gen.gen_program annotated in
  check_bool "pragma" true (contains src "#pragma omp parallel for");
  check_bool "function sig" true
    (contains src "double process(int n, double *restrict input)");
  check_bool "zero-based indexing" true (contains src "[(i) - 1]");
  check_bool "calloc for dynamic" true (contains src "calloc(n, sizeof(double))")

(* Cross-language parity: compile the generated C with gcc, run it,
   and compare the result against the interpreter running the
   generated Fortran on the same input. *)
let test_c_execution_parity () =
  if Sys.command "which gcc > /dev/null 2>&1" <> 0 then ()
  else begin
    let p = sample_program () in
    let annotated, _ = Autopar.run p in
    (* interpreter reference through the Fortran backend *)
    let fsrc =
      Fortran_gen.to_source annotated
      ^ {|
real*8 function c_parity_driver(n)
  integer :: n
  real*8, allocatable :: buf(:)
  integer :: i
  allocate(buf(n))
  do i = 1, n
    buf(i) = i * 0.5d0
  end do
  c_parity_driver = process(n, buf)
end function c_parity_driver
|}
    in
    let st = Interp.make_state (Parser.parse_string fsrc) in
    let expected =
      match Interp.call st "c_parity_driver" [ Ast.Int_lit 50 ] with
      | Some v -> Value.to_float v
      | None -> Alcotest.fail "no interpreter result"
    in
    (* C side: generated translation unit + a driver main *)
    let csrc =
      C_gen.gen_program annotated
      ^ {|
#include <stdio.h>
int main(void) {
  double buf[50];
  for (int i = 1; i <= 50; i++) buf[i - 1] = i * 0.5;
  printf("%.12f\n", process(50, buf));
  return 0;
}
|}
    in
    let file = Filename.temp_file "oglaf_c_parity" ".c" in
    let oc = open_out file in
    output_string oc csrc;
    close_out oc;
    let exe = file ^ ".exe" in
    let rc =
      Sys.command
        (Printf.sprintf "gcc -std=c99 -O1 -fopenmp %s -o %s -lm 2> %s.log"
           (Filename.quote file) (Filename.quote exe) (Filename.quote file))
    in
    if rc <> 0 then Alcotest.fail "gcc failed on parity driver";
    let out = Filename.temp_file "oglaf_c_parity" ".out" in
    let rc =
      Sys.command
        (Printf.sprintf "%s > %s" (Filename.quote exe) (Filename.quote out))
    in
    if rc <> 0 then Alcotest.fail "compiled C program crashed";
    let ic = open_in out in
    let line = input_line ic in
    close_in ic;
    let got = float_of_string (String.trim line) in
    Alcotest.(check (float 1e-9)) "C executable matches interpreter" expected got
  end

(* --- OpenCL codegen --------------------------------------------------------- *)

let test_opencl_kernels () =
  let p = sample_program () in
  let annotated, _ = Autopar.run p in
  let m = List.hd annotated.Ir_module.modules in
  let f = List.hd m.Ir_module.functions in
  let out = Opencl_gen.gen_function annotated m f in
  check_int "three kernels (zero, scale, reduce)" 3 (List.length out.Opencl_gen.kernels);
  let reduce_k = List.nth out.Opencl_gen.kernels 2 in
  check_bool "reduction partial buffer" true
    (contains reduce_k.Opencl_gen.k_source "total_partial[get_global_id(0)]");
  check_bool "global id indexing" true
    (contains reduce_k.Opencl_gen.k_source "get_global_id(0) + (1)");
  check_bool "host enqueues in order" true
    (contains out.Opencl_gen.host_source "enqueue process_k1");
  let full = Opencl_gen.gen_program annotated in
  check_bool "fp64 pragma" true (contains full "cl_khr_fp64")

let test_opencl_collapse_2d () =
  let b = Build.create "cl2d" in
  Build.add_module b "m";
  Build.start_function b "mat";
  Build.add_param b (Grid.scalar Types.T_int "n");
  Build.add_grid b
    (Grid.array Types.T_real8
       ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "n") ] "a");
  Build.start_step b "s";
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [
         Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
           [
             Stmt.assign_idx "a" [ Expr.var "i"; Expr.var "j" ]
               Expr.(var "i" + var "j" + real 0.0);
           ];
       ]);
  let p = Build.finish b in
  let annotated, _ = Autopar.run p in
  let m = List.hd annotated.Ir_module.modules in
  let f = List.hd m.Ir_module.functions in
  let out = Opencl_gen.gen_function annotated m f in
  match out.Opencl_gen.kernels with
  | [ k ] ->
    check_int "2-D NDRange" 2 k.Opencl_gen.k_ndrange;
    check_bool "second dimension id" true
      (contains k.Opencl_gen.k_source "get_global_id(1)")
  | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks)

(* The generated C must actually compile: gcc is available in the
   build environment, so smoke-compile the OpenMP C translation unit. *)
let test_c_output_compiles () =
  match Sys.command "which gcc > /dev/null 2>&1" with
  | 0 ->
    let p = sample_program () in
    let annotated, _ = Autopar.run p in
    let src = C_gen.gen_program annotated in
    let file = Filename.temp_file "oglaf_c_test" ".c" in
    let oc = open_out file in
    output_string oc src;
    close_out oc;
    let rc =
      Sys.command
        (Printf.sprintf "gcc -std=c99 -fopenmp -c %s -o %s.o 2> %s.log"
           (Filename.quote file) (Filename.quote file) (Filename.quote file))
    in
    if rc <> 0 then begin
      let log = file ^ ".log" in
      let ic = open_in log in
      let msg = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.failf "gcc rejected generated C:\n%s\n%s" msg src
    end
  | _ -> () (* no gcc: skip *)

(* --- optimizer -------------------------------------------------------------- *)

let classified_program () =
  (* one loop of each class, all parallelizable *)
  let b = Build.create "classes" in
  Build.add_module b "m";
  Build.start_function b "kinds";
  Build.add_param b (Grid.scalar Types.T_int "n");
  Build.add_grid b (Grid.array Types.T_real8 ~dims:[ Grid.dim (Grid.Sym "n") ] "a");
  Build.add_grid b (Grid.array Types.T_real8 ~dims:[ Grid.dim (Grid.Sym "n") ] "bsrc");
  Build.add_grid b
    (Grid.array Types.T_real8
       ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "n") ] "m2");
  Build.add_grid b (Grid.scalar Types.T_real8 "s");
  Build.start_step b "all";
  (* init zero *)
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.real 0.0) ]);
  (* broadcast *)
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [ Stmt.assign_idx "a" [ Expr.var "i" ] (Expr.idx "bsrc" [ Expr.var "i" ]) ]);
  (* simple single (reduction) *)
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [ Stmt.assign_var "s" Expr.(var "s" + idx "a" [ var "i" ]) ]);
  (* simple double *)
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [
         Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
           [
             Stmt.assign_idx "m2" [ Expr.var "i"; Expr.var "j" ]
               Expr.(var "i" * var "j" * real 1.0);
           ];
       ]);
  (* complex: a double nest with control flow (the longwave pattern) *)
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [
         Stmt.for_ "j" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
           [
             Stmt.if_
               Expr.(idx "bsrc" [ var "j" ] > real 0.0)
               [
                 Stmt.assign_idx "m2" [ Expr.var "i"; Expr.var "j" ]
                   (Expr.real 1.0);
               ]
               [
                 Stmt.assign_idx "m2" [ Expr.var "i"; Expr.var "j" ]
                   (Expr.real 2.0);
               ];
           ];
       ]);
  Build.finish b

let test_directive_policies () =
  let p = classified_program () in
  let annotated, _ = Autopar.run p in
  let count pol =
    Directive_policy.directive_count (Directive_policy.apply pol annotated)
  in
  check_int "v0 keeps all" 5 (count Directive_policy.V0);
  check_int "v1 drops init+broadcast" 3 (count Directive_policy.V1);
  check_int "v2 also drops simple single" 2 (count Directive_policy.V2);
  check_int "v3 keeps only complex" 1 (count Directive_policy.V3)

let test_policy_preserves_semantics () =
  let p = classified_program () in
  let annotated, _ = Autopar.run p in
  let src_of pol =
    Fortran_gen.to_source (Directive_policy.apply pol annotated)
  in
  let wrapper =
    {|
real*8 function driver(n)
  integer :: n
  real*8 :: r
  call kinds(n)
  r = 1.0d0
  driver = r
end function driver
|}
  in
  (* kinds is generated as subroutine (no return): just make sure each
     variant parses and runs without error *)
  List.iter
    (fun pol ->
      let src = src_of pol in
      let st = Interp.make_state (Parser.parse_string (src ^ "\n" ^ wrapper)) in
      Interp.set_threads st 4;
      match Interp.call st "driver" [ Ast.Int_lit 30 ] with
      | Some v -> check_float (Directive_policy.name pol) 1.0 (Value.to_float v)
      | None -> Alcotest.fail "no result")
    Directive_policy.all

let test_layout_soa () =
  let b = Build.create "layout" in
  Build.add_module b "m";
  Build.start_function b "sweep";
  Build.add_param b (Grid.scalar Types.T_int "n");
  Build.add_grid b
    (Grid.record
       [ ("x", Types.T_real8); ("y", Types.T_real8) ]
       ~dims:[ Grid.dim (Grid.Sym "n") ] "pts");
  Build.add_grid b (Grid.scalar Types.T_real8 "acc");
  Build.start_step b "s";
  Build.add_stmt b
    (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
       [
         Stmt.Assign
           ( { Expr.grid = "pts"; field = Some "y"; indices = [ Expr.var "i" ] },
             Expr.(fld "pts" "x" [ var "i" ] * real 2.0) );
       ]);
  let p = Build.finish b in
  let soa = Layout.to_soa p in
  (match Validate.program soa with
  | [] -> ()
  | errs ->
    Alcotest.failf "SoA program invalid: %s"
      (String.concat "; " (List.map Validate.error_to_string errs)));
  let f = List.hd (Ir_module.all_functions soa) in
  check_bool "split grids present" true
    (Func.find_grid f "pts_x" <> None && Func.find_grid f "pts_y" <> None);
  check_bool "record gone" true (Func.find_grid f "pts" = None);
  let src = Fortran_gen.to_source soa in
  check_bool "no derived type" false (contains src "type :: pts_t");
  (* AoS version keeps the record *)
  let src_aos = Fortran_gen.to_source p in
  check_bool "AoS derived type" true (contains src_aos "type :: pts_t")

let test_autopar_idempotent () =
  let p = classified_program () in
  let once, _ = Autopar.run p in
  let twice, _ = Autopar.run once in
  check_bool "second pass changes nothing" true
    (Ir_module.equal_program once twice)

let test_policy_monotone () =
  let p = classified_program () in
  let annotated, _ = Autopar.run p in
  let counts =
    List.map
      (fun pol -> Directive_policy.directive_count (Directive_policy.apply pol annotated))
      Directive_policy.all
  in
  check_bool "v0 >= v1 >= v2 >= v3" true
    (match counts with
    | [ a; b; c; d ] -> a >= b && b >= c && c >= d
    | _ -> false)

let test_soa_execution_equal () =
  (* the SoA transform must not change results *)
  let build () =
    let b = Build.create "soaexec" in
    Build.add_module b "m";
    Build.start_function b "energy" ~return:Types.T_real8;
    Build.add_param b (Grid.scalar Types.T_int "n");
    Build.add_grid b
      (Grid.record
         [ ("x", Types.T_real8); ("v", Types.T_real8) ]
         ~dims:[ Grid.dim (Grid.Sym "n") ] "pt");
    Build.add_grid b (Grid.scalar Types.T_real8 "e");
    Build.start_step b "init";
    Build.add_stmt b
      (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
         [
           Stmt.Assign
             ( { Expr.grid = "pt"; field = Some "x"; indices = [ Expr.var "i" ] },
               Expr.(var "i" * real 0.5) );
           Stmt.Assign
             ( { Expr.grid = "pt"; field = Some "v"; indices = [ Expr.var "i" ] },
               Expr.(real 3.0 / var "i") );
         ]);
    Build.start_step b "sum";
    Build.add_stmt b (Stmt.assign_var "e" (Expr.real 0.0));
    Build.add_stmt b
      (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
         [
           Stmt.assign_var "e"
             Expr.(var "e" + fld "pt" "x" [ var "i" ] * fld "pt" "v" [ var "i" ]);
         ]);
    Build.add_stmt b (Stmt.Return (Some (Expr.var "e")));
    Build.finish b
  in
  let run p =
    let src =
      Fortran_gen.to_source
        ~opts:{ Fortran_gen.default_options with emit_omp = false }
        p
    in
    let st = Interp.make_state (Parser.parse_string src) in
    match Interp.call st "energy" [ Ast.Int_lit 32 ] with
    | Some v -> Value.to_float v
    | None -> Alcotest.fail "no result"
  in
  let aos = build () in
  let soa = Layout.to_soa aos in
  check_float "AoS = SoA" (run aos) (run soa)

let test_loop_interchange () =
  let p = classified_program () in
  let m = List.hd p.Ir_module.modules in
  let f = List.hd m.Ir_module.functions in
  let env = Depend.env (Depend.context p) m f in
  let nest =
    Stmt.
      {
        index = "i";
        lo = Expr.int 1;
        hi = Expr.var "n";
        step = Expr.int 1;
        body =
          [
            Stmt.For
              {
                index = "j";
                lo = Expr.int 1;
                hi = Expr.var "n";
                step = Expr.int 1;
                body =
                  [
                    Stmt.assign_idx "m2" [ Expr.var "i"; Expr.var "j" ]
                      Expr.(var "i" + var "j" + real 0.0);
                  ];
                directive = None;
                schedule = None;
              };
          ];
        directive = None;
                schedule = None;
      }
  in
  match Loop_opt.interchange env nest with
  | Some swapped ->
    check_str "outer index now j" "j" swapped.Stmt.index;
    (match swapped.Stmt.body with
    | [ Stmt.For inner ] -> check_str "inner index now i" "i" inner.Stmt.index
    | _ -> Alcotest.fail "bad shape")
  | None -> Alcotest.fail "interchange refused legal nest"

let test_manual_collapse_semantics () =
  (* collapse transform preserves results through the interpreter *)
  let nest =
    Stmt.
      {
        index = "i";
        lo = Expr.int 1;
        hi = Expr.var "n";
        step = Expr.int 1;
        body =
          [
            Stmt.For
              {
                index = "j";
                lo = Expr.int 1;
                hi = Expr.var "m";
                step = Expr.int 1;
                body =
                  [
                    Stmt.assign_idx "a" [ Expr.var "i"; Expr.var "j" ]
                      Expr.(var "i" * int 100 + var "j" + real 0.0);
                  ];
                directive = None;
                schedule = None;
              };
          ];
        directive = None;
                schedule = None;
      }
  in
  let collapsed =
    match Loop_opt.collapse ~fresh_index:"k" nest with
    | Some l -> l
    | None -> Alcotest.fail "collapse refused"
  in
  let build_with loop =
    let b = Build.create "cp" in
    Build.add_module b "m";
    Build.start_function b "fill" ~return:Types.T_real8;
    Build.add_param b (Grid.scalar Types.T_int "n");
    Build.add_param b (Grid.scalar Types.T_int "m");
    Build.add_grid b
      (Grid.array Types.T_real8
         ~dims:[ Grid.dim (Grid.Sym "n"); Grid.dim (Grid.Sym "m") ] "a");
    Build.add_grid b (Grid.scalar Types.T_real8 "s");
    Build.add_grid b (Grid.scalar Types.T_int "i");
    Build.add_grid b (Grid.scalar Types.T_int "j");
    Build.start_step b "s";
    Build.add_stmt b (Stmt.For loop);
    Build.add_stmt b (Stmt.assign_var "s" (Expr.real 0.0));
    Build.add_stmt b
      (Stmt.for_ "i2" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
         [
           Stmt.for_ "j2" ~lo:(Expr.int 1) ~hi:(Expr.var "m")
             [
               Stmt.assign_var "s"
                 Expr.(var "s" + idx "a" [ var "i2"; var "j2" ]);
             ];
         ]);
    Build.add_stmt b (Stmt.Return (Some (Expr.var "s")));
    Build.finish b
  in
  let run p =
    let src = Fortran_gen.to_source ~opts:{ Fortran_gen.default_options with emit_omp = false } p in
    let st = Interp.make_state (Parser.parse_string src) in
    match Interp.call st "fill" [ Ast.Int_lit 7; Ast.Int_lit 5 ] with
    | Some v -> Value.to_float v
    | None -> Alcotest.fail "no result"
  in
  check_float "collapse preserves semantics"
    (run (build_with nest))
    (run (build_with collapsed))

(* --- property: pipeline equivalence over random programs ----------------- *)

let arb_simple_kernel =
  (* random straight-line elementwise kernels: a(i) = affine(b(i), i) *)
  let open QCheck in
  let gen =
    Gen.(
      map3
        (fun c1 c2 n -> (c1, c2, n))
        (float_range (-4.0) 4.0) (float_range (-4.0) 4.0) (int_range 1 64))
  in
  make ~print:(fun (c1, c2, n) -> Printf.sprintf "(%g, %g, %d)" c1 c2 n) gen

let prop_pipeline_matches_direct =
  QCheck.Test.make ~name:"generated code equals direct evaluation" ~count:30
    arb_simple_kernel (fun (c1, c2, n) ->
      let b = Build.create "prop" in
      Build.add_module b "m";
      Build.start_function b "kern" ~return:Types.T_real8;
      Build.add_param b (Grid.scalar Types.T_int "n");
      Build.add_grid b
        (Grid.array Types.T_real8 ~dims:[ Grid.dim (Grid.Sym "n") ] "a");
      Build.add_grid b (Grid.scalar Types.T_real8 "s");
      Build.start_step b "s";
      Build.add_stmt b
        (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
           [
             Stmt.assign_idx "a" [ Expr.var "i" ]
               Expr.((real c1 * var "i") + real c2);
           ]);
      Build.add_stmt b (Stmt.assign_var "s" (Expr.real 0.0));
      Build.add_stmt b
        (Stmt.for_ "i" ~lo:(Expr.int 1) ~hi:(Expr.var "n")
           [ Stmt.assign_var "s" Expr.(var "s" + idx "a" [ var "i" ]) ]);
      Build.add_stmt b (Stmt.Return (Some (Expr.var "s")));
      let p = Build.finish b in
      let annotated, _ = Autopar.run p in
      let src = Fortran_gen.to_source annotated in
      let st = Interp.make_state (Parser.parse_string src) in
      Interp.set_threads st 4;
      let got =
        match Interp.call st "kern" [ Ast.Int_lit n ] with
        | Some v -> Value.to_float v
        | None -> nan
      in
      let expected = ref 0.0 in
      for i = 1 to n do
        expected := !expected +. ((c1 *. float_of_int i) +. c2)
      done;
      Float.abs (got -. !expected) < 1e-6 *. (1.0 +. Float.abs !expected))

let suites =
  [
    ( "builder",
      [
        Alcotest.test_case "basic" `Quick test_builder_basic;
        Alcotest.test_case "rejects invalid" `Quick test_builder_rejects_invalid;
        Alcotest.test_case "storage helpers" `Quick test_builder_storage_helpers;
      ] );
    ( "gpi_script",
      [
        Alcotest.test_case "runs" `Quick test_gpi_script_runs;
        Alcotest.test_case "control flow" `Quick test_gpi_script_control_flow;
        Alcotest.test_case "integration grids" `Quick test_gpi_script_integration_grids;
        Alcotest.test_case "while + control flow" `Quick test_gpi_script_while_and_loops;
        Alcotest.test_case "scopes and clauses" `Quick test_gpi_script_scopes_and_clauses;
        Alcotest.test_case "errors with line" `Quick test_gpi_script_errors_with_line;
      ] );
    ( "codegen.fortran",
      [
        Alcotest.test_case "integration features" `Quick test_codegen_emits_integration_features;
        Alcotest.test_case "roundtrip parses" `Quick test_codegen_roundtrip_parses;
        Alcotest.test_case "pipeline serial" `Quick test_pipeline_serial;
        Alcotest.test_case "pipeline parallel" `Quick test_pipeline_parallel_matches_serial;
        Alcotest.test_case "save allocation" `Quick test_codegen_save_allocation;
        Alcotest.test_case "collapse clause" `Quick test_codegen_collapse_clause;
        QCheck_alcotest.to_alcotest prop_pipeline_matches_direct;
      ] );
    ( "codegen.c",
      [
        Alcotest.test_case "c output" `Quick test_c_codegen;
        Alcotest.test_case "gcc compiles output" `Quick test_c_output_compiles;
        Alcotest.test_case "C execution parity" `Quick test_c_execution_parity;
      ] );
    ( "codegen.opencl",
      [
        Alcotest.test_case "kernels" `Quick test_opencl_kernels;
        Alcotest.test_case "collapse 2d" `Quick test_opencl_collapse_2d;
      ] );
    ( "optimizer",
      [
        Alcotest.test_case "directive policies" `Quick test_directive_policies;
        Alcotest.test_case "policies preserve semantics" `Quick test_policy_preserves_semantics;
        Alcotest.test_case "SoA layout" `Quick test_layout_soa;
        Alcotest.test_case "SoA execution equal" `Quick test_soa_execution_equal;
        Alcotest.test_case "autopar idempotent" `Quick test_autopar_idempotent;
        Alcotest.test_case "policy monotone" `Quick test_policy_monotone;
        Alcotest.test_case "loop interchange" `Quick test_loop_interchange;
        Alcotest.test_case "manual collapse" `Quick test_manual_collapse_semantics;
      ] );
  ]
