(* Differential tests for the reverse path (lib/lift): legacy Fortran
   → dependence analysis → OMP directives / grid-IR kernels, with
   original-vs-rewritten runs required to be bit-identical. *)

open Glaf_fortran
open Glaf_lift
module Sarb_legacy = Glaf_workloads.Sarb_legacy
module Fun3d_legacy = Glaf_workloads.Fun3d_legacy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pure = Glaf_runtime.Intrinsics.names ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let sarb_cu = lazy (Sarb_legacy.parse ())
let fun3d_cu = lazy (Parser.parse_string Fun3d_legacy.full_source)

let sarb_setup = [ ("sarb_init_profiles", []) ]

let entropy_call_args =
  [ Ast.Real_lit (1.5, true); Ast.Real_lit (1.02, true) ]

let ok_or_fail = function
  | Ok n -> n
  | Error msg -> Alcotest.fail msg

(* --- directives mode ---------------------------------------------------- *)

let sarb_annotated = lazy (Autopar_fortran.run ~pure (Lazy.force sarb_cu))

let test_directives_annotates () =
  let r = Lazy.force sarb_annotated in
  check_bool "many loops annotated" true (Autopar_fortran.annotated_count r > 40);
  (* at least one reduction nest got a reduction clause in the source *)
  let src = Pp_ast.to_string r.Autopar_fortran.annotated in
  check_bool "reduction clause emitted" true
    (contains src "reduction(+:colq)");
  check_bool "collapse clause emitted" true
    (contains src "collapse(2)")

let test_directives_source_reparses () =
  let r = Lazy.force sarb_annotated in
  let src = Pp_ast.to_string r.Autopar_fortran.annotated in
  let cu2 = Parser.parse_string src in
  check_int "same unit count" (List.length r.Autopar_fortran.annotated)
    (List.length cu2)

(* carried-dependence recurrences must be reported, never annotated *)
let test_directives_negative_recurrences () =
  let r = Lazy.force sarb_annotated in
  let serial_on grid =
    List.exists
      (fun (e : Autopar_fortran.entry) ->
        match e.Autopar_fortran.e_status with
        | Autopar_fortran.Serial info ->
          List.exists
            (fun o -> o = Glaf_analysis.Loop_info.Loop_carried grid)
            info.Glaf_analysis.Loop_info.obstacles
        | _ -> false)
      r.Autopar_fortran.entries
  in
  check_bool "cum recurrence serial" true (serial_on "cum");
  check_bool "cum9 recurrence serial" true (serial_on "cum9");
  check_bool "tsw recurrence serial" true (serial_on "tsw");
  (* and the annotated AST really carries no directive on those loops *)
  let offenders = ref 0 in
  let rec scan_stmts stmts = List.iter scan_stmt stmts
  and scan_stmt = function
    | Ast.Do l ->
      (if l.Ast.do_omp <> None then
         let writes_cum =
           List.exists
             (function
               | Ast.Assign ((("cum" | "cum9" | "tsw"), _) :: _, _) -> true
               | _ -> false)
             l.Ast.do_body
         in
         if writes_cum then incr offenders);
      scan_stmts l.Ast.do_body
    | Ast.If_block (branches, else_) ->
      List.iter (fun (_, b) -> scan_stmts b) branches;
      scan_stmts else_
    | Ast.Do_while (_, b) | Ast.Omp_critical b -> scan_stmts b
    | _ -> ()
  in
  List.iter
    (function
      | Ast.Standalone sp -> scan_stmts sp.Ast.sub_body
      | Ast.Module m ->
        List.iter (fun sp -> scan_stmts sp.Ast.sub_body) m.Ast.mod_contains
      | Ast.Main m -> scan_stmts m.Ast.main_body)
    (Lazy.force sarb_annotated).Autopar_fortran.annotated;
  check_int "no directive on recurrence loops" 0 !offenders

let test_directives_equivalent_sarb () =
  let r = Lazy.force sarb_annotated in
  let n =
    ok_or_fail
      (Verify.equivalent ~setup:sarb_setup ~args:entropy_call_args
         ~original:(Lazy.force sarb_cu, "entropy_interface")
         ~variant:(r.Autopar_fortran.annotated, "entropy_interface")
         ())
  in
  check_int "all schedules checked" (List.length Verify.schedules) n

(* loops without floating reductions are bit-identical even at 2
   threads: disjoint writes commute *)
let test_directives_equivalent_threads2 () =
  let r = Lazy.force sarb_annotated in
  let n =
    ok_or_fail
      (Verify.equivalent ~threads:[ 1; 2 ]
         ~original:(Lazy.force sarb_cu, "sarb_init_profiles")
         ~variant:(r.Autopar_fortran.annotated, "sarb_init_profiles")
         ())
  in
  check_int "schedules x threads" (2 * List.length Verify.schedules) n

let test_directives_equivalent_under_injection () =
  (* delay-chunk perturbs timing, never values: the annotated run must
     still be bit-identical *)
  (match Glaf_runtime.Faultinject.parse_plan "delay-chunk:0:1" with
  | Ok plan -> Glaf_runtime.Faultinject.set_plan plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Glaf_runtime.Faultinject.clear (fun () ->
      let r = Lazy.force sarb_annotated in
      ignore
        (ok_or_fail
           (Verify.equivalent ~setup:sarb_setup ~args:entropy_call_args
              ~original:(Lazy.force sarb_cu, "entropy_interface")
              ~variant:(r.Autopar_fortran.annotated, "entropy_interface")
              ())))

let test_directives_fun3d () =
  let cu = Lazy.force fun3d_cu in
  let r = Autopar_fortran.run ~pure cu in
  check_bool "fun3d loops annotated" true (Autopar_fortran.annotated_count r > 5);
  (* the manual directive in jacobian_fill_manual is kept untouched *)
  check_bool "existing directive kept" true
    (List.exists
       (fun (e : Autopar_fortran.entry) ->
         e.Autopar_fortran.e_sub = "jacobian_fill_manual"
         && e.Autopar_fortran.e_status = Autopar_fortran.Preexisting)
       r.Autopar_fortran.entries);
  let n =
    ok_or_fail
      (Verify.equivalent
         ~setup:[ ("fun3d_init_mesh", [ Ast.Int_lit 40 ]) ]
         ~original:(cu, "jacobian_fill")
         ~variant:(r.Autopar_fortran.annotated, "jacobian_fill")
         ())
  in
  check_bool "fun3d verified" true (n > 0)

(* --- lift mode ----------------------------------------------------------- *)

let lift_and_verify ?(setup = []) ?(args = []) cu name =
  let lifted = Lift_kernel.lift ~pure cu name in
  let n =
    ok_or_fail
      (Verify.equivalent ~setup ~args ~original:(cu, name)
         ~variant:(lifted.Lift_kernel.combined, lifted.Lift_kernel.kernel)
         ())
  in
  check_int "all schedules checked" (List.length Verify.schedules) n;
  lifted

let test_lift_adjust2 () =
  let lifted =
    lift_and_verify ~setup:sarb_setup ~args:entropy_call_args
      (Lazy.force sarb_cu) "adjust2"
  in
  check_bool "kernel renamed" true
    (String.equal lifted.Lift_kernel.kernel "adjust2_lifted");
  (* the colq reduction nest is annotated in the lifted IR *)
  check_bool "reduction found" true
    (List.exists
       (fun (e : Glaf_analysis.Autopar.report_entry) ->
         List.exists
           (fun (r : Glaf_analysis.Loop_info.reduction) ->
             String.equal r.Glaf_analysis.Loop_info.red_var "colq")
           e.Glaf_analysis.Autopar.re_info.Glaf_analysis.Loop_info.reductions)
       lifted.Lift_kernel.report)

let test_lift_longwave () =
  (* the big one: COMMON block, TYPE elements, collapse(2) nests,
     module-variable reductions, serial recurrences *)
  let lifted =
    lift_and_verify ~setup:sarb_setup (Lazy.force sarb_cu)
      "longwave_entropy_model"
  in
  let parallel, serial =
    List.partition
      (fun (e : Glaf_analysis.Autopar.report_entry) ->
        e.Glaf_analysis.Autopar.re_info.Glaf_analysis.Loop_info.parallel)
      lifted.Lift_kernel.report
  in
  check_bool "many parallel loops" true (List.length parallel > 20);
  check_bool "recurrences stay serial" true (List.length serial >= 2)

let test_lift_function_result () =
  let lifted =
    lift_and_verify ~setup:sarb_setup (Lazy.force sarb_cu) "sarb_checksum"
  in
  check_bool "lifted as function" true
    (lifted.Lift_kernel.func.Glaf_ir.Func.return <> None)

let test_lift_fun3d_rms () =
  let cu = Lazy.force fun3d_cu in
  let lifted =
    lift_and_verify
      ~setup:
        [ ("fun3d_init_mesh", [ Ast.Int_lit 40 ]); ("jacobian_fill", []) ]
      cu "fun3d_rms"
  in
  (* collapse(2) + reduction survives the full round trip *)
  check_bool "collapse reduction nest" true
    (List.exists
       (fun (e : Glaf_analysis.Autopar.report_entry) ->
         let i = e.Glaf_analysis.Autopar.re_info in
         i.Glaf_analysis.Loop_info.collapsible
         && i.Glaf_analysis.Loop_info.reductions <> [])
       lifted.Lift_kernel.report)

(* Lift annotates only the kernel; its function and report must equal
   what whole-program Autopar produces for <name>_lifted. *)
let test_lift_matches_whole_program () =
  let module Autopar = Glaf_analysis.Autopar in
  let check cu name =
    let lifted = Lift_kernel.lift ~pure cu name in
    let kernel = name ^ "_lifted" in
    let sp = Option.get (Ast.find_subprogram cu name) in
    let others =
      List.filter
        (fun (f : Glaf_ir.Func.t) -> f.Glaf_ir.Func.name <> name)
        (List.map fst (fst (Lower.lower_all cu)))
    in
    let m =
      Glaf_ir.Ir_module.make
        ~functions:(others @ [ Lower.lower_subprogram ~rename:kernel cu sp ])
        "glaf_lift"
    in
    let p, report =
      Autopar.run ~pure (Glaf_ir.Ir_module.program ~modules:[ m ] "glaf_lift")
    in
    let func =
      Lift_kernel.strip_nonunit_func
        (Option.get (Glaf_ir.Ir_module.find_program_function p kernel))
    in
    let report =
      List.filter (fun (e : Autopar.report_entry) -> e.Autopar.re_function = kernel) report
    in
    check_bool (name ^ " func") true (lifted.Lift_kernel.func = func);
    check_bool (name ^ " report") true (lifted.Lift_kernel.report = report);
    check_bool (name ^ " report non-empty") true (report <> [])
  in
  check (Lazy.force sarb_cu) "adjust2";
  check (Lazy.force sarb_cu) "longwave_entropy_model";
  check (Lazy.force fun3d_cu) "fun3d_rms";
  (* the fixtures' kernels call nothing inside a loop; here the first
     loop is parallel only through setv's summary, the second serial
     only through bump's *)
  check
    (Parser.parse_string
       "module state\n  real*8 :: acc\nend module state\n\n\
        subroutine setv(x, v)\n  real*8 :: x, v\n  x = v\nend subroutine setv\n\n\
        subroutine bump(x)\n  use state\n  real*8 :: x\n  acc = acc + x\n\
        end subroutine bump\n\n\
        subroutine kern(a, n)\n  integer :: n, i\n  real*8 :: a(100)\n\
        \  do i = 1, n\n    call setv(a(i), 2.0d0)\n  end do\n\
        \  do i = 1, n\n    call bump(a(i))\n  end do\nend subroutine kern\n")
    "kern"

(* The lift lowers and summarizes only the kernel's transitive
   callees: a subprogram outside that call graph, even one that does
   not lower, changes neither the report nor the generated kernel, and
   a callee of the kernel that does not lower still blocks its loop. *)
let test_lift_callee_set () =
  let module Autopar = Glaf_analysis.Autopar in
  let module Loop_info = Glaf_analysis.Loop_info in
  (* kern's loop is parallel only through scale's summary, which is
     pure only through store's *)
  let reached =
    "subroutine store(x, v)\n  real*8 :: x, v\n  x = v\nend subroutine store\n\n\
     subroutine scale(x, y)\n  real*8 :: x, y\n  call store(y, 2.0d0 * x)\n\
     end subroutine scale\n\n\
     subroutine kern(a, b, n)\n  integer :: n, i\n  real*8 :: a(100), b(100)\n\
     \  do i = 1, n\n    call scale(a(i), b(i))\n  end do\nend subroutine kern\n"
  in
  (* a derived-type dummy argument does not lower *)
  let unrelated =
    "module shapes\n  type pt_t\n    real*8 :: x\n  end type pt_t\nend module shapes\n\n\
     subroutine unrelated(p)\n  use shapes\n  type(pt_t) :: p\n  p%x = 1.0d0\n\
     end subroutine unrelated\n\n"
  in
  let report (l : Lift_kernel.t) = Format.asprintf "%a" Autopar.pp_report l.Lift_kernel.report in
  (* the generated module; the rest of [source] is the unit as parsed *)
  let generated (l : Lift_kernel.t) =
    let src = l.Lift_kernel.source and needle = "module glaf_lift" in
    let rec find i =
      if i + String.length needle > String.length src then Alcotest.fail "no glaf_lift module"
      else if String.sub src i (String.length needle) = needle then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub src i (String.length src - i)
  in
  let cu_alone = Parser.parse_string reached in
  let cu_with = Parser.parse_string (unrelated ^ reached) in
  check_bool "unrelated does not lower" true
    (List.mem_assoc "unrelated" (snd (Lower.lower_all cu_with)));
  let alone = Lift_kernel.lift ~pure cu_alone "kern" in
  let with_ = Lift_kernel.lift ~pure cu_with "kern" in
  Alcotest.(check string) "report" (report alone) (report with_);
  Alcotest.(check string) "generated kernel" (generated alone) (generated with_);
  check_bool "source is the unit, then the kernel" true
    (String.starts_with ~prefix:(Pp_ast.to_string cu_with) with_.Lift_kernel.source
    && String.ends_with ~suffix:(generated alone) with_.Lift_kernel.source);
  check_bool "callees summarized" true
    (alone.Lift_kernel.report <> []
    && List.for_all
         (fun (e : Autopar.report_entry) -> e.Autopar.re_info.Loop_info.parallel)
         alone.Lift_kernel.report);
  let blocked =
    Lift_kernel.lift ~pure
      (Parser.parse_string
         "subroutine noisy(x)\n  real*8 :: x\n  print *, x\nend subroutine noisy\n\n\
          subroutine kern(a, n)\n  integer :: n, i\n  real*8 :: a(100)\n\
          \  do i = 1, n\n    call noisy(a(i))\n  end do\nend subroutine kern\n")
      "kern"
  in
  check_bool "unlowered callee is Unsafe_call" true
    (List.exists
       (fun (e : Autopar.report_entry) ->
         List.mem (Loop_info.Unsafe_call "noisy") e.Autopar.re_info.Loop_info.obstacles)
       blocked.Lift_kernel.report)

let test_lift_unknown_kernel () =
  match Lift_kernel.lift ~pure (Lazy.force sarb_cu) "nosuch" with
  | _ -> Alcotest.fail "expected Lift_error"
  | exception Lift_kernel.Lift_error msg ->
    check_bool "names the kernel" true
      (contains msg "nosuch")

let test_verify_rejects_broken_baseline () =
  match
    Verify.equivalent
      ~setup:[ ("no_such_setup", []) ]
      ~original:(Lazy.force sarb_cu, "sarb_checksum")
      ~variant:(Lazy.force sarb_cu, "sarb_checksum")
      ()
  with
  | (exception Lift_kernel.Lift_error _) -> ()
  | Ok _ -> Alcotest.fail "expected baseline rejection"
  | Error _ -> Alcotest.fail "expected Lift_error, got comparison failure"

(* verification catches a genuinely wrong rewrite: annotate the tsw
   recurrence by hand and watch the differ refuse it *)
let test_verify_catches_bad_directive () =
  let cu = Lazy.force sarb_cu in
  let broken =
    List.map
      (fun (u : Ast.program_unit) ->
        match u with
        | Ast.Standalone sp
          when String.equal sp.Ast.sub_name "sw_spectral_integration" ->
          let rec force stmts = List.map force_stmt stmts
          and force_stmt = function
            | Ast.Do l ->
              let writes_tsw =
                List.exists
                  (function
                    | Ast.Assign (("tsw", _) :: _, _) -> true
                    | _ -> false)
                  l.Ast.do_body
              in
              if writes_tsw then
                Ast.Do { l with Ast.do_omp = Some Ast.omp_do_default }
              else Ast.Do { l with Ast.do_body = force l.Ast.do_body }
            | s -> s
          in
          Ast.Standalone { sp with Ast.sub_body = force sp.Ast.sub_body }
        | u -> u)
      cu
  in
  (* threads:2 so the recurrence actually races across chunk boundaries;
     schedules partition 60 iterations differently from serial order *)
  match
    Verify.equivalent ~threads:[ 2 ] ~setup:sarb_setup
      ~args:entropy_call_args
      ~original:(cu, "entropy_interface")
      ~variant:(broken, "entropy_interface")
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a mismatch on the forced recurrence"

(* --- fixtures on disk ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_fixture_files_in_sync () =
  (* the checked-in .f90 files must stay byte-identical to the embedded
     sources the workloads and tests use *)
  Alcotest.(check string)
    "sarb fixture" Sarb_legacy.full_source
    (read_file (Filename.concat Test_paths.fortran "sarb_kernels.f90"));
  Alcotest.(check string)
    "fun3d fixture" Fun3d_legacy.full_source
    (read_file (Filename.concat Test_paths.fortran "fun3d_kernels.f90"))

let suites =
  [
    ( "lift.directives",
      [
        Alcotest.test_case "annotates sarb" `Quick test_directives_annotates;
        Alcotest.test_case "source reparses" `Quick test_directives_source_reparses;
        Alcotest.test_case "recurrences not annotated" `Quick
          test_directives_negative_recurrences;
        Alcotest.test_case "sarb bit-identical" `Quick
          test_directives_equivalent_sarb;
        Alcotest.test_case "bit-identical at 2 threads" `Quick
          test_directives_equivalent_threads2;
        Alcotest.test_case "bit-identical under injection" `Quick
          test_directives_equivalent_under_injection;
        Alcotest.test_case "fun3d annotate+verify" `Quick test_directives_fun3d;
      ] );
    ( "lift.kernels",
      [
        Alcotest.test_case "adjust2" `Quick test_lift_adjust2;
        Alcotest.test_case "longwave" `Quick test_lift_longwave;
        Alcotest.test_case "function result" `Quick test_lift_function_result;
        Alcotest.test_case "fun3d rms" `Quick test_lift_fun3d_rms;
        Alcotest.test_case "unknown kernel" `Quick test_lift_unknown_kernel;
        Alcotest.test_case "broken baseline rejected" `Quick
          test_verify_rejects_broken_baseline;
        Alcotest.test_case "bad directive caught" `Quick
          test_verify_catches_bad_directive;
        Alcotest.test_case "kernel-only = whole-program autopar" `Quick
          test_lift_matches_whole_program;
        Alcotest.test_case "only reached callees" `Quick test_lift_callee_set;
      ] );
    ( "lift.fixtures",
      [ Alcotest.test_case "files in sync" `Quick test_fixture_files_in_sync ] );
  ]
