(* Tests for the Fortran substrate: line scanner, lexer, parser,
   pretty-printer round-trip, SLOC. *)

open Glaf_fortran

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- line scanner ----------------------------------------------------- *)

let test_scan_basic () =
  let lines =
    Line_scanner.scan "x = 1\n\n! comment only\ny = 2  ! trailing\n"
  in
  check_int "two logical lines" 2 (List.length lines);
  check_str "first" "x = 1" (List.nth lines 0).Line_scanner.text;
  check_str "second" "y = 2" (List.nth lines 1).Line_scanner.text

let test_scan_continuation () =
  let lines = Line_scanner.scan "x = 1 + &\n    2 + &\n    3\n" in
  check_int "one logical line" 1 (List.length lines);
  check_str "joined" "x = 1 + 2 + 3" (List.hd lines).Line_scanner.text

let test_scan_continuation_leading_amp () =
  let lines = Line_scanner.scan "call foo(a, &\n   & b)\n" in
  check_int "one line" 1 (List.length lines);
  check_str "joined" "call foo(a, b)" (List.hd lines).Line_scanner.text

let test_scan_omp () =
  let lines = Line_scanner.scan "!$omp parallel do private(i)\ndo i = 1, n\nend do\n" in
  check_int "three lines" 3 (List.length lines);
  check_bool "directive flag" true (List.hd lines).Line_scanner.is_directive;
  check_str "directive text" "parallel do private(i)"
    (List.hd lines).Line_scanner.text

let test_scan_semicolons () =
  let lines = Line_scanner.scan "a = 1; b = 2\n" in
  check_int "split" 2 (List.length lines)

let test_scan_string_bang () =
  let lines = Line_scanner.scan "msg = 'hello ! world'\n" in
  check_str "bang kept in string" "msg = 'hello ! world'"
    (List.hd lines).Line_scanner.text

(* --- lexer ------------------------------------------------------------ *)

let tok_list s = Array.to_list (Lexer.tokenize s)

let test_lex_numbers () =
  (match tok_list "42" with
  | [ Lexer.Int 42; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "int");
  (match tok_list "1.5" with
  | [ Lexer.Real (x, false); Lexer.Eof ] when x = 1.5 -> ()
  | _ -> Alcotest.fail "real");
  (match tok_list "1.0d0" with
  | [ Lexer.Real (x, true); Lexer.Eof ] when x = 1.0 -> ()
  | _ -> Alcotest.fail "double");
  (match tok_list "2.5e-3" with
  | [ Lexer.Real (x, false); Lexer.Eof ] when abs_float (x -. 0.0025) < 1e-12 -> ()
  | _ -> Alcotest.fail "exponent");
  match tok_list "1.0_8" with
  | [ Lexer.Real (x, true); Lexer.Eof ] when x = 1.0 -> ()
  | _ -> Alcotest.fail "kind suffix"

let test_lex_dotted_vs_number () =
  match tok_list "1.and.2" with
  | [ Lexer.Int 1; Lexer.And_tok; Lexer.Int 2; Lexer.Eof ] -> ()
  | toks ->
    Alcotest.failf "got %s"
      (String.concat " " (List.map (Format.asprintf "%a" Lexer.pp_token) toks))

let test_lex_operators () =
  match tok_list "a**2 // b .ne. c" with
  | [
   Lexer.Ident "a"; Lexer.Dstar; Lexer.Int 2; Lexer.Dslash; Lexer.Ident "b";
   Lexer.Ne_tok; Lexer.Ident "c"; Lexer.Eof;
  ] ->
    ()
  | _ -> Alcotest.fail "operators"

let test_lex_string_escape () =
  match tok_list "'it''s'" with
  | [ Lexer.Str "it's"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "escaped quote"

let test_lex_case_insensitive () =
  match tok_list "CALL Foo(X)" with
  | [ Lexer.Ident "call"; Lexer.Ident "foo"; Lexer.Lparen; Lexer.Ident "x";
      Lexer.Rparen; Lexer.Eof ] ->
    ()
  | _ -> Alcotest.fail "case folding"

(* --- expression parsing ----------------------------------------------- *)

let parse_expr s = Parser.parse_expr_string s

let test_parse_precedence () =
  let e = parse_expr "1 + 2 * 3" in
  check_str "prec" "1 + 2 * 3" (Pp_ast.expr_to_string e);
  match e with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "mul binds tighter"

let test_parse_power_right_assoc () =
  match parse_expr "2 ** 3 ** 2" with
  | Ast.Binop (Ast.Pow, Ast.Int_lit 2, Ast.Binop (Ast.Pow, _, _)) -> ()
  | _ -> Alcotest.fail "right assoc"

let test_parse_designator () =
  match parse_expr "fo%fds(k, ib)" with
  | Ast.Desig [ ("fo", []); ("fds", [ _; _ ]) ] -> ()
  | _ -> Alcotest.fail "part-ref chain"

let test_parse_section () =
  match parse_expr "sum(a(1:n))" with
  | Ast.Desig [ ("sum", [ Ast.Desig [ ("a", [ Ast.Section (Some _, Some _) ]) ] ]) ] ->
    ()
  | _ -> Alcotest.fail "section"

let test_parse_logical () =
  match parse_expr "a > 1 .and. .not. done" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Gt, _, _), Ast.Unop (Ast.Not, _)) -> ()
  | _ -> Alcotest.fail "logical"

(* --- statement/unit parsing -------------------------------------------- *)

let parse_units = Parser.parse_string

let simple_subroutine =
  {|
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n
  real*8 :: a
  real*8, dimension(n) :: x, y
  integer :: i
  do i = 1, n
    y(i) = a * x(i) + y(i)
  end do
end subroutine saxpy
|}

let test_parse_subroutine () =
  match parse_units simple_subroutine with
  | [ Ast.Standalone sp ] ->
    check_str "name" "saxpy" sp.Ast.sub_name;
    check_int "args" 4 (List.length sp.Ast.sub_args);
    check_int "decls" 5 (List.length sp.Ast.sub_decls);
    check_int "body" 1 (List.length sp.Ast.sub_body)
  | _ -> Alcotest.fail "expected one subroutine"

let test_parse_module_with_common_and_type () =
  let src =
    {|
module legacy_mod
  implicit none
  type :: atom_t
    real*8 :: charge
    real*8, dimension(3) :: pos
  end type atom_t
  integer :: nzones
  real*8, dimension(60) :: pressure
  common /radblk/ tau0, omega0
  real*8 :: tau0, omega0
contains
  subroutine zero_pressure()
    integer :: k
    do k = 1, 60
      pressure(k) = 0.0d0
    end do
  end subroutine zero_pressure
end module legacy_mod
|}
  in
  match parse_units src with
  | [ Ast.Module m ] ->
    check_str "name" "legacy_mod" m.Ast.mod_name;
    check_int "contains" 1 (List.length m.Ast.mod_contains);
    check_bool "has type def" true
      (List.exists
         (function Ast.Type_def _ -> true | _ -> false)
         m.Ast.mod_decls);
    check_bool "has common" true
      (List.exists
         (function Ast.Common ("radblk", [ "tau0"; "omega0" ]) -> true | _ -> false)
         m.Ast.mod_decls)
  | _ -> Alcotest.fail "expected one module"

let test_parse_if_elseif () =
  let src =
    {|
subroutine classify(x, c)
  real*8 :: x
  integer :: c
  if (x > 1.0) then
    c = 1
  else if (x > 0.0) then
    c = 2
  elseif (x > -1.0) then
    c = 3
  else
    c = 4
  end if
end subroutine classify
|}
  in
  match parse_units src with
  | [ Ast.Standalone sp ] -> (
    match sp.Ast.sub_body with
    | [ Ast.If_block (branches, else_) ] ->
      check_int "branches" 3 (List.length branches);
      check_int "else" 1 (List.length else_)
    | _ -> Alcotest.fail "expected if block")
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_logical_if () =
  let src = "subroutine f(x)\nreal*8 :: x\nif (x > 3.0) return\nend subroutine f" in
  match parse_units src with
  | [ Ast.Standalone sp ] -> (
    match sp.Ast.sub_body with
    | [ Ast.If_arith (_, Ast.Return) ] -> ()
    | _ -> Alcotest.fail "expected logical if")
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_omp_do () =
  let src =
    {|
subroutine f(n, a)
  integer :: n
  real*8, dimension(n) :: a
  integer :: i
  real*8 :: s
  s = 0.0d0
!$omp parallel do private(i) reduction(+:s) collapse(1) schedule(static)
  do i = 1, n
    s = s + a(i)
  end do
!$omp end parallel do
end subroutine f
|}
  in
  match parse_units src with
  | [ Ast.Standalone sp ] -> (
    match List.rev sp.Ast.sub_body with
    | Ast.Do l :: _ -> (
      match l.Ast.do_omp with
      | Some d ->
        Alcotest.(check (list string)) "private" [ "i" ] d.Ast.omp_private;
        check_int "reductions" 1 (List.length d.Ast.omp_reduction);
        check_bool "schedule" true (d.Ast.omp_schedule = Some Ast.Static)
      | None -> Alcotest.fail "missing omp clause")
    | _ -> Alcotest.fail "expected do loop last")
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_omp_schedule_chunks () =
  (* schedule clauses with literal chunk sizes survive the
     parse -> pretty-print round trip *)
  let directive_of clause =
    let src =
      Printf.sprintf
        "subroutine f(n, a)\n\
        \  integer :: n\n\
        \  real*8, dimension(n) :: a\n\
        \  integer :: i\n\
         !$omp parallel do %s\n\
        \  do i = 1, n\n\
        \    a(i) = 0.0d0\n\
        \  end do\n\
         !$omp end parallel do\n\
         end subroutine f\n"
        clause
    in
    match parse_units src with
    | [ Ast.Standalone sp ] -> (
      match List.rev sp.Ast.sub_body with
      | Ast.Do l :: _ -> (
        match l.Ast.do_omp with
        | Some d -> (d.Ast.omp_schedule, Pp_ast.to_string [ Ast.Standalone sp ])
        | None -> Alcotest.fail "missing omp clause")
      | _ -> Alcotest.fail "expected do loop last")
    | _ -> Alcotest.fail "expected subroutine"
  in
  let sched, pp = directive_of "schedule(static, 4)" in
  check_bool "static chunk" true (sched = Some (Ast.Static_chunk 4));
  check_bool "static chunk round-trips" true
    (let n = String.length pp in
     let rec go i =
       i + 19 <= n && (String.sub pp i 19 = "schedule(static, 4)" || go (i + 1))
     in
     go 0);
  let sched, _ = directive_of "schedule(dynamic, 8)" in
  check_bool "dynamic chunk" true (sched = Some (Ast.Dynamic 8));
  let sched, _ = directive_of "schedule(dynamic)" in
  check_bool "dynamic default chunk" true (sched = Some (Ast.Dynamic 1));
  let sched, pp = directive_of "schedule(guided, 2)" in
  check_bool "guided chunk" true (sched = Some (Ast.Guided 2));
  check_bool "guided chunk round-trips" true
    (let n = String.length pp in
     let rec go i =
       i + 19 <= n && (String.sub pp i 19 = "schedule(guided, 2)" || go (i + 1))
     in
     go 0);
  let sched, _ = directive_of "schedule(guided)" in
  check_bool "guided default floor" true (sched = Some (Ast.Guided 1))

let test_parse_omp_atomic_critical () =
  let src =
    {|
subroutine f(a, n)
  integer :: n
  real*8, dimension(n) :: a
  integer :: i
!$omp parallel do private(i)
  do i = 1, n
!$omp atomic
    a(1) = a(1) + 1.0d0
!$omp critical
    a(2) = a(2) + 2.0d0
!$omp end critical
  end do
!$omp end parallel do
end subroutine f
|}
  in
  match parse_units src with
  | [ Ast.Standalone sp ] -> (
    match sp.Ast.sub_body with
    | [ Ast.Do l ] -> (
      match l.Ast.do_body with
      | [ Ast.Omp_atomic (Ast.Assign _); Ast.Omp_critical [ Ast.Assign _ ] ] ->
        ()
      | _ -> Alcotest.fail "expected atomic + critical")
    | _ -> Alcotest.fail "expected one loop")
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_allocate_save () =
  let src =
    {|
subroutine f(n)
  integer :: n
  real*8, allocatable, save :: tmp(:)
  allocate(tmp(n))
  tmp(1) = 0.0d0
  deallocate(tmp)
end subroutine f
|}
  in
  match parse_units src with
  | [ Ast.Standalone sp ] ->
    check_bool "has save attr" true
      (List.exists
         (function
           | Ast.Var_decl { attrs; _ } -> List.mem Ast.Save attrs
           | _ -> false)
         sp.Ast.sub_decls);
    check_bool "allocate stmt" true
      (List.exists (function Ast.Allocate _ -> true | _ -> false) sp.Ast.sub_body);
    check_bool "deallocate stmt" true
      (List.exists (function Ast.Deallocate _ -> true | _ -> false) sp.Ast.sub_body)
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_do_while_exit_cycle () =
  let src =
    {|
subroutine f(n)
  integer :: n
  integer :: i
  i = 0
  do while (i < n)
    i = i + 1
    if (i == 3) cycle
    if (i > 10) exit
  end do
end subroutine f
|}
  in
  match parse_units src with
  | [ Ast.Standalone sp ] ->
    check_bool "do while present" true
      (List.exists
         (function Ast.Do_while _ -> true | _ -> false)
         sp.Ast.sub_body)
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_function_unit () =
  let src =
    {|
real*8 function norm2(n, x)
  integer :: n
  real*8, dimension(n) :: x
  integer :: i
  norm2 = 0.0d0
  do i = 1, n
    norm2 = norm2 + x(i) * x(i)
  end do
  norm2 = sqrt(norm2)
end function norm2
|}
  in
  match parse_units src with
  | [ Ast.Standalone sp ] ->
    check_bool "is function" true (sp.Ast.sub_kind = `Function (Some Ast.Real8))
  | _ -> Alcotest.fail "expected function"

let test_parse_main_program () =
  let src =
    "program driver\nimplicit none\ninteger :: i\ni = 1\nprint *, i\nend program driver"
  in
  match parse_units src with
  | [ Ast.Main m ] ->
    check_str "name" "driver" m.Ast.main_name;
    check_int "body" 2 (List.length m.Ast.main_body)
  | _ -> Alcotest.fail "expected main"

let test_parse_use_only () =
  let src = "subroutine f()\nuse fuinput, only: pp, ptop\nreturn\nend subroutine f" in
  match parse_units src with
  | [ Ast.Standalone sp ] -> (
    match sp.Ast.sub_decls with
    | [ Ast.Use ("fuinput", [ "pp"; "ptop" ]) ] -> ()
    | _ -> Alcotest.fail "expected use-only")
  | _ -> Alcotest.fail "expected subroutine"

let test_parse_error_reports_line () =
  let src = "subroutine f()\nx = = 1\nend subroutine f" in
  match parse_units src with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error (line, _) -> check_int "error line" 2 line

(* A lex error is reported at the line that holds it, with the lexer's
   message, whether it sits in a body, a declaration or an END line. *)
let test_parse_lex_error_lines () =
  let expect what src line msg =
    match parse_units src with
    | _ -> Alcotest.failf "%s: expected parse error" what
    | exception Parser.Parse_error (l, m) ->
      check_int (what ^ " line") line l;
      check_str (what ^ " message") msg m
  in
  expect "body"
    "subroutine f(x)\n  real :: x\n  x = 1.0 @ 2.0\nend subroutine f"
    3 "unexpected character '@'";
  expect "declaration"
    "subroutine f(x)\n  real :: x\n  integer :: n $\n  x = 1.0\nend subroutine f"
    3 "unexpected character '$'";
  expect "end line"
    "subroutine f(x)\n  real :: x\n  x = 1.0\nend subroutine f .q\n" 4
    "stray '.'"

(* --- round trips ------------------------------------------------------- *)

let roundtrip src =
  let cu = parse_units src in
  let printed = Pp_ast.to_string cu in
  let cu2 = parse_units printed in
  Alcotest.check
    (Alcotest.testable
       (fun ppf cu -> Fmt.pf ppf "%d units" (List.length cu))
       (fun a b -> List.for_all2 Ast.equal_program_unit a b))
    "roundtrip equal" cu cu2

let test_roundtrip_saxpy () = roundtrip simple_subroutine

(* the rewriter in lib/lift regenerates legacy sources from the AST:
   print/parse must be a fixed point on everything we ship *)
let test_roundtrip_legacy_sarb () =
  roundtrip Glaf_workloads.Sarb_legacy.full_source

let test_roundtrip_legacy_fun3d () =
  roundtrip Glaf_workloads.Fun3d_legacy.full_source

let test_roundtrip_rich () =
  roundtrip
    {|
module rich
  implicit none
  integer, parameter :: nv = 60
  real*8, dimension(nv) :: profile
contains
  subroutine work(niter, acc)
    integer :: niter
    real*8 :: acc
    integer :: i, j
    real*8 :: local
    common /blk/ shared_val
    real*8 :: shared_val
    local = 0.0d0
!$omp parallel do private(i, j) reduction(+:local) collapse(2)
    do i = 1, niter
      do j = 1, nv
        local = local + profile(j) * (1.0d0 / (i + j))
      end do
    end do
!$omp end parallel do
    if (local > 0.0d0) then
      acc = acc + local
    else
      acc = acc - local
    end if
  end subroutine work
end module rich
|}

(* property: pretty-print of random expressions reparses to equal AST *)

let gen_fexpr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun n -> Ast.Int_lit (abs n)) small_int;
                map (fun x -> Ast.Real_lit (Float.abs x, false)) (float_bound_inclusive 1000.0);
                map (fun x -> Ast.Real_lit (Float.abs x, true)) (float_bound_inclusive 1000.0);
                map (fun b -> Ast.Logical_lit b) bool;
                oneofl [ Ast.var "a"; Ast.var "b"; Ast.var "zz" ];
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) sub sub;
                map2 (fun a b -> Ast.Binop (Ast.Sub, a, b)) sub sub;
                map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) sub sub;
                map2 (fun a b -> Ast.Binop (Ast.Div, a, b)) sub sub;
                map2 (fun a b -> Ast.Binop (Ast.Pow, a, b)) sub sub;
                map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
                map (fun a -> Ast.Desig [ ("arr", [ a ]) ]) (self (n - 1));
                map2
                  (fun a b -> Ast.Desig [ ("f2", [ a; b ]) ])
                  sub sub;
              ])
        (min n 10))

let arb_fexpr = QCheck.make ~print:Pp_ast.expr_to_string gen_fexpr

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"fortran expr print/parse roundtrip" ~count:300
    arb_fexpr (fun e ->
      let s = Pp_ast.expr_to_string e in
      match Parser.parse_expr_string s with
      | e' -> Ast.equal_expr e e'
      | exception _ -> false)

(* property: pretty-print of random SUBPROGRAMS reparses to equal AST *)

let gen_stmt =
  let open QCheck.Gen in
  let gen_sexpr =
    oneof
      [
        map (fun n -> Ast.Int_lit (abs n)) small_int;
        map (fun x -> Ast.Real_lit (Float.abs x, true)) (float_bound_inclusive 100.0);
        oneofl [ Ast.var "a"; Ast.var "b"; Ast.var "n" ];
        map (fun e -> Ast.Desig [ ("arr", [ e ]) ]) (oneofl [ Ast.var "i"; Ast.Int_lit 1 ]);
        map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (oneofl [ Ast.var "a" ]) (oneofl [ Ast.var "b" ]);
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          let assign =
            map2
              (fun d e -> Ast.Assign ([ (d, []) ], e))
              (oneofl [ "a"; "b" ])
              gen_sexpr
          in
          let arr_assign =
            map2
              (fun ix e -> Ast.Assign ([ ("arr", [ ix ]) ], e))
              (oneofl [ Ast.var "i"; Ast.Int_lit 2 ])
              gen_sexpr
          in
          if n <= 0 then oneof [ assign; arr_assign; return Ast.Cycle ]
          else
            oneof
              [
                assign;
                arr_assign;
                map2
                  (fun c body -> Ast.If_block ([ (c, [ body ]) ], []))
                  (map2 (fun a b -> Ast.Binop (Ast.Gt, a, b)) gen_sexpr gen_sexpr)
                  (self (n / 2));
                map2
                  (fun c (b1, b2) -> Ast.If_block ([ (c, [ b1 ]) ], [ b2 ]))
                  (map2 (fun a b -> Ast.Binop (Ast.Le, a, b)) gen_sexpr gen_sexpr)
                  (pair (self (n / 2)) (self (n / 2)));
                map
                  (fun body ->
                    Ast.Do
                      {
                        Ast.do_var = "i";
                        do_lo = Ast.Int_lit 1;
                        do_hi = Ast.var "n";
                        do_step = None;
                        do_body = [ body ];
                        do_omp = None;
                      })
                  (self (n / 2));
                map
                  (fun body ->
                    Ast.Do
                      {
                        Ast.do_var = "i";
                        do_lo = Ast.Int_lit 1;
                        do_hi = Ast.Int_lit 8;
                        do_step = None;
                        do_body = [ body ];
                        do_omp =
                          Some
                            {
                              Ast.omp_do_default with
                              Ast.omp_private = [ "i" ];
                            };
                      })
                  (self (n / 2));
              ])
        (min n 8))

let gen_subprogram =
  QCheck.Gen.(
    map
      (fun stmts ->
        {
          Ast.sub_name = "randsub";
          sub_kind = `Subroutine;
          sub_args = [ "n"; "arr" ];
          sub_decls =
            [
              Ast.Implicit_none;
              Ast.Var_decl
                {
                  base = Ast.Integer;
                  attrs = [];
                  entities =
                    [
                      { Ast.ent_name = "n"; ent_dims = None; ent_deferred = None; ent_init = None };
                      { Ast.ent_name = "i"; ent_dims = None; ent_deferred = None; ent_init = None };
                    ];
                };
              Ast.Var_decl
                {
                  base = Ast.Real8;
                  attrs = [];
                  entities =
                    [
                      {
                        Ast.ent_name = "arr";
                        ent_dims = Some [ (None, Ast.var "n") ];
                        ent_deferred = None;
                        ent_init = None;
                      };
                      { Ast.ent_name = "a"; ent_dims = None; ent_deferred = None; ent_init = None };
                      { Ast.ent_name = "b"; ent_dims = None; ent_deferred = None; ent_init = None };
                    ];
                };
            ];
          sub_body = stmts;
        })
      (list_size (int_range 1 6) gen_stmt))

let arb_subprogram =
  QCheck.make
    ~print:(fun sp -> Pp_ast.to_string [ Ast.Standalone sp ])
    gen_subprogram

let prop_subprogram_roundtrip =
  QCheck.Test.make ~name:"fortran subprogram print/parse roundtrip" ~count:150
    arb_subprogram (fun sp ->
      let src = Pp_ast.to_string [ Ast.Standalone sp ] in
      match Parser.parse_string src with
      | [ Ast.Standalone sp' ] -> Ast.equal_subprogram sp sp'
      | _ -> false
      | exception _ -> false)

(* --- sloc --------------------------------------------------------------- *)

let test_sloc () =
  check_int "sloc ignores comments/blanks" 2
    (Sloc.of_source "! header\n\nx = 1\n\n  ! note\ny = 2\n");
  match parse_units simple_subroutine with
  | [ Ast.Standalone sp ] ->
    check_bool "subprogram sloc sensible" true (Sloc.of_subprogram sp >= 8)
  | _ -> Alcotest.fail "parse failed"

let suites =
  [
    ( "fortran.scanner",
      [
        Alcotest.test_case "basic" `Quick test_scan_basic;
        Alcotest.test_case "continuation" `Quick test_scan_continuation;
        Alcotest.test_case "leading ampersand" `Quick test_scan_continuation_leading_amp;
        Alcotest.test_case "omp sentinel" `Quick test_scan_omp;
        Alcotest.test_case "semicolons" `Quick test_scan_semicolons;
        Alcotest.test_case "bang in string" `Quick test_scan_string_bang;
      ] );
    ( "fortran.lexer",
      [
        Alcotest.test_case "numbers" `Quick test_lex_numbers;
        Alcotest.test_case "dotted vs number" `Quick test_lex_dotted_vs_number;
        Alcotest.test_case "operators" `Quick test_lex_operators;
        Alcotest.test_case "string escape" `Quick test_lex_string_escape;
        Alcotest.test_case "case insensitive" `Quick test_lex_case_insensitive;
      ] );
    ( "fortran.expr",
      [
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "power right assoc" `Quick test_parse_power_right_assoc;
        Alcotest.test_case "designator" `Quick test_parse_designator;
        Alcotest.test_case "section" `Quick test_parse_section;
        Alcotest.test_case "logical ops" `Quick test_parse_logical;
        QCheck_alcotest.to_alcotest prop_expr_roundtrip;
      ] );
    ( "fortran.units",
      [
        Alcotest.test_case "subroutine" `Quick test_parse_subroutine;
        Alcotest.test_case "module/common/type" `Quick test_parse_module_with_common_and_type;
        Alcotest.test_case "if/elseif" `Quick test_parse_if_elseif;
        Alcotest.test_case "logical if" `Quick test_parse_logical_if;
        Alcotest.test_case "omp parallel do" `Quick test_parse_omp_do;
        Alcotest.test_case "omp schedule chunks" `Quick
          test_parse_omp_schedule_chunks;
        Alcotest.test_case "omp atomic/critical" `Quick test_parse_omp_atomic_critical;
        Alcotest.test_case "allocate/save" `Quick test_parse_allocate_save;
        Alcotest.test_case "do while/exit/cycle" `Quick test_parse_do_while_exit_cycle;
        Alcotest.test_case "function unit" `Quick test_parse_function_unit;
        Alcotest.test_case "main program" `Quick test_parse_main_program;
        Alcotest.test_case "use only" `Quick test_parse_use_only;
        Alcotest.test_case "error line number" `Quick test_parse_error_reports_line;
        Alcotest.test_case "lex error line and message" `Quick
          test_parse_lex_error_lines;
      ] );
    ( "fortran.roundtrip",
      [
        Alcotest.test_case "saxpy" `Quick test_roundtrip_saxpy;
        Alcotest.test_case "rich module" `Quick test_roundtrip_rich;
        Alcotest.test_case "legacy sarb" `Quick test_roundtrip_legacy_sarb;
        Alcotest.test_case "legacy fun3d" `Quick test_roundtrip_legacy_fun3d;
        QCheck_alcotest.to_alcotest prop_subprogram_roundtrip;
      ] );
    ("fortran.sloc", [ Alcotest.test_case "counting" `Quick test_sloc ]);
  ]
