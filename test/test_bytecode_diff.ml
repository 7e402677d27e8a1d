(* Differential tests of the two execution engines: every program is
   run twice — bytecode VM (the default) and the tree-walking
   interpreter ([--no-bytecode]) — and the observable results must be
   bit-identical: function values compared on their IEEE-754 bit
   patterns, arrays cell by cell, PRINT output and runtime-error
   messages as exact strings.  Coverage spans the shipped example
   scripts, the SARB and FUN3D case-study workloads, all four loop
   schedules, concurrent batch serving and fault-injection plans. *)

open Glaf_fortran
open Glaf_runtime
open Glaf_interp
open Glaf_workloads
open Glaf_optimizer
module Serve = Glaf_service.Serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let scripts = Test_paths.scripts

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Bit-exact value equality: reals compare on their bit patterns, so
   +0.0 vs -0.0 or any ULP drift between the engines is a failure. *)
let value_eq a b =
  match (a, b) with
  | Value.Real x, Value.Real y -> Int64.bits_of_float x = Int64.bits_of_float y
  | a, b -> a = b

let value_opt_eq a b =
  match (a, b) with
  | Some a, Some b -> value_eq a b
  | None, None -> true
  | _ -> false

let pp_value_opt = function
  | Some v -> Value.to_string v
  | None -> "(none)"

(* --- one call, both engines --------------------------------------------- *)

type run_out = {
  r_value : Value.t option option;  (** [None] when the call raised *)
  r_output : string;
  r_error : string option;
}

let run_engine ~bytecode ?(threads = 1) ?sched cu fname args =
  let buf = Buffer.create 64 in
  let st = Interp.make_state ~printer:(Buffer.add_string buf) cu in
  Interp.set_threads st threads;
  (match sched with Some s -> Interp.set_schedule st s | None -> ());
  Interp.set_bytecode st bytecode;
  let finish value error =
    { r_value = value; r_output = Buffer.contents buf; r_error = error }
  in
  match Interp.call st fname args with
  | v -> finish (Some v) None
  | exception Interp.Fortran_error m -> finish None (Some ("fortran: " ^ m))
  | exception Value.Runtime_error m -> finish None (Some ("value: " ^ m))
  | exception Farray.Bounds_error m -> finish None (Some ("bounds: " ^ m))
  | exception Faultinject.Injected m -> finish None (Some ("inject: " ^ m))
  | exception Interp.Loop_exit -> finish None (Some "EXIT left the call")

(* [a] printed, raised and returned exactly what [b] did. *)
let check_same name ~expected:b a =
  check_string (name ^ ": printed output") b.r_output a.r_output;
  (match (a.r_error, b.r_error) with
  | None, None -> ()
  | Some ea, Some eb -> check_string (name ^ ": error message") eb ea
  | Some e, None ->
    Alcotest.fail (name ^ ": only bytecode raised: " ^ e)
  | None, Some e ->
    Alcotest.fail (name ^ ": only tree-walk raised: " ^ e));
  match (a.r_value, b.r_value) with
  | Some va, Some vb ->
    if not (value_opt_eq va vb) then
      Alcotest.fail
        (Printf.sprintf "%s: results differ: bytecode=%s tree-walk=%s" name
           (pp_value_opt va) (pp_value_opt vb))
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": one engine raised, the other returned")

let assert_same name ?threads ?sched cu fname args =
  let a = run_engine ~bytecode:true ?threads ?sched cu fname args in
  let b = run_engine ~bytecode:false ?threads ?sched cu fname args in
  check_same name ~expected:b a

let all_scheds =
  [
    ("default", None);
    ("static", Some Sched.Static);
    ("chunk:8", Some (Sched.Static_chunked 8));
    ("dynamic", Some (Sched.Dynamic 1));
    ("guided", Some (Sched.Guided 2));
  ]

(* --- construct battery --------------------------------------------------- *)

(* One function exercising every construct the bytecode compiler
   covers: negative-step and EXIT/CYCLE loops, DO WHILE, short-circuit
   logic, a COLLAPSE(2) array-write nest, an integer reduction plus a
   CRITICAL counter (both exact under any schedule and thread count),
   PRINT, and intrinsic calls. *)
let battery_src =
  {|
module diffmod
  implicit none
  real*8 :: grid2(24, 17)
  real*8 :: vec(400)
  integer :: hits
end module diffmod

real*8 function battery(n, t)
  use diffmod
  implicit none
  integer :: n, t
  integer :: i, j, k, steps
  real*8 :: acc, x
  do i = 400, 1, -3
    vec(i) = i * 0.125d0
  end do
  do i = 1, n
    if (mod(i, 7) == 0) cycle
    if (i > 350) exit
    vec(i) = vec(i) + 1.0d0 / (1.0d0 + i)
  end do
  steps = 0
  x = 1.0d0
  do while (x < 1000.0d0 .and. steps < 64)
    x = x * 1.7d0
    steps = steps + 1
  end do
!$omp parallel do private(i, j) collapse(2) num_threads(t)
  do i = 1, 24
    do j = 1, 17
      grid2(i, j) = exp(i * 0.01d0) * (j + 0.5d0) + i * 1000.0d0
    end do
  end do
!$omp end parallel do
  hits = 0
  k = 0
!$omp parallel do private(i) reduction(+:k) num_threads(t)
  do i = 1, n
    k = k + mod(i * i, 13)
!$omp critical
    hits = hits + 1
!$omp end critical
  end do
!$omp end parallel do
  acc = 0.0d0
  do i = 1, 400
    acc = acc + vec(i)
  end do
  do i = 1, 24
    do j = 1, 17
      acc = acc + grid2(i, j) * 1.0d-3
    end do
  end do
  print *, 'battery', steps, hits
  battery = acc + x + steps + k + hits
end function battery
|}

let test_battery_diff () =
  let cu = Parser.parse_string battery_src in
  List.iter
    (fun (sname, sched) ->
      List.iter
        (fun threads ->
          assert_same
            (Printf.sprintf "battery %s t=%d" sname threads)
            ~threads ?sched cu "battery"
            [ Ast.Int_lit 397; Ast.Int_lit threads ])
        [ 1; 4 ])
    all_scheds

(* Error paths must surface the same message through either engine. *)
let test_error_diff () =
  let cu =
    Parser.parse_string
      {|
real*8 function oob(i)
  integer :: i
  real*8 :: a(10)
  a(3) = 1.0d0
  oob = a(i)
end function oob

integer function zdiv(d)
  integer :: d
  zdiv = 7 / d
end function zdiv
|}
  in
  assert_same "oob high" cu "oob" [ Ast.Int_lit 500 ];
  assert_same "oob low" cu "oob" [ Ast.Int_lit 0 ];
  assert_same "oob ok" cu "oob" [ Ast.Int_lit 3 ];
  assert_same "zdiv" cu "zdiv" [ Ast.Int_lit 0 ]

(* --- user-call battery ---------------------------------------------------- *)

(* Every flavor of compiled call in one program: inlined branch-free
   and branching leaves, a marshalled call at the inline size boundary,
   by-reference scalar and array-element mutation through a subroutine,
   subroutine recursion (tree-walk fallback at the call site), and a
   mixed chain where an allocating subroutine falls back while the
   loops and callees inside it still run compiled. *)
let calls_src =
  {|
module callmod
  implicit none
  real*8 :: stash(64)
end module callmod

real*8 function scale2(a, b)
  implicit none
  real*8 :: a, b
  scale2 = a * 2.0d0 + b * 0.5d0
end function scale2

real*8 function clampv(x, lim)
  implicit none
  real*8 :: x, lim
  if (x > lim) then
    clampv = lim + (x - lim) * 0.25d0
  else
    clampv = x
  end if
end function clampv

real*8 function leaf8(x)
  implicit none
  real*8 :: x, t
  t = x + 1.0d0
  t = t * 1.5d0
  t = t - 0.25d0
  t = t * t
  t = t + x
  t = t * 0.5d0
  t = t + 2.0d0
  leaf8 = t
end function leaf8

real*8 function leaf9(x)
  implicit none
  real*8 :: x, t
  t = x + 1.0d0
  t = t * 1.5d0
  t = t - 0.25d0
  t = t * t
  t = t + x
  t = t * 0.5d0
  t = t + 2.0d0
  t = t - 0.125d0
  leaf9 = t
end function leaf9

subroutine bump(v, arr, i)
  use callmod
  implicit none
  real*8 :: v
  real*8 :: arr(64)
  integer :: i
  v = v + 1.25d0
  arr(i) = arr(i) + v
  stash(i) = v
end subroutine bump

subroutine rsum(n, acc)
  implicit none
  integer :: n
  real*8 :: acc
  if (n > 0) then
    acc = acc + n * 1.0d0
    call rsum(n - 1, acc)
  end if
end subroutine rsum

subroutine mixed(n, outv)
  implicit none
  integer :: n, i
  real*8 :: outv
  real*8, allocatable :: tmp(:)
  allocate(tmp(n))
  do i = 1, n
    tmp(i) = leaf9(i * 0.3d0)
  end do
  outv = 0.0d0
  do i = 1, n
    outv = outv + tmp(i)
  end do
  deallocate(tmp)
end subroutine mixed

real*8 function drive_calls(n, t)
  use callmod
  implicit none
  integer :: n, t
  integer :: i
  real*8 :: acc, v, av, bv, mx
  real*8 :: arr(64)
  do i = 1, 64
    arr(i) = i * 0.75d0
    stash(i) = 0.0d0
  end do
  v = 0.5d0
  do i = 1, 10
    call bump(v, arr, i)
  end do
  acc = 0.0d0
!$omp parallel do private(i, av, bv) reduction(+:acc) num_threads(t)
  do i = 1, n
    av = arr(mod(i, 64) + 1)
    bv = clampv(i * 0.1d0, 3.0d0)
    acc = acc + scale2(av, bv)
    acc = acc + scale2(arr(mod(i + 7, 64) + 1), 1.0d0)
  end do
!$omp end parallel do
  call rsum(12, acc)
  call mixed(20, mx)
  acc = acc + leaf9(v) + mx
  do i = 1, 4
    av = v + i * 0.5d0
    acc = acc + leaf8(av)
  end do
  do i = 1, 64
    acc = acc + stash(i)
  end do
  call say_calls(n)
  drive_calls = acc
end function drive_calls

subroutine say_calls(n)
  implicit none
  integer :: n
  print *, 'calls', n
end subroutine say_calls
|}

let test_calls_diff () =
  let cu = Parser.parse_string calls_src in
  (* float +-reduction: deterministic per engine at one thread under
     every schedule, at any thread count under static *)
  List.iter
    (fun (sname, sched) ->
      assert_same ("calls " ^ sname) ~threads:1 ?sched cu "drive_calls"
        [ Ast.Int_lit 300; Ast.Int_lit 1 ])
    all_scheds;
  List.iter
    (fun threads ->
      assert_same
        (Printf.sprintf "calls static t=%d" threads)
        ~threads ~sched:Sched.Static cu "drive_calls"
        [ Ast.Int_lit 300; Ast.Int_lit threads ])
    [ 2; 4 ]

(* Under an installed fault plan the call-bearing program must fail (or
   merely slow down) identically through either engine. *)
let test_calls_inject_diff () =
  let cu = Parser.parse_string calls_src in
  let with_plan spec f =
    let plan =
      match Faultinject.parse_plan spec with
      | Ok p -> p
      | Error m -> Alcotest.fail ("bad plan: " ^ m)
    in
    Faultinject.set_plan plan;
    Fun.protect ~finally:(fun () -> Faultinject.clear ()) f
  in
  let run bytecode spec =
    with_plan spec (fun () ->
        run_engine ~bytecode ~threads:2 ~sched:Sched.Static cu "drive_calls"
          [ Ast.Int_lit 300; Ast.Int_lit 2 ])
  in
  (* fail-region:1 kills the one parallel region in drive_calls *)
  let a = run true "fail-region:1" and b = run false "fail-region:1" in
  check_bool "inject failed the call" true (a.r_error <> None);
  (match (a.r_error, b.r_error) with
  | Some ea, Some eb -> check_string "inject error identical" eb ea
  | _ -> Alcotest.fail "fail-region outcome differs between engines");
  (* delay-chunk:0 slows every region without changing results *)
  let a = run true "delay-chunk:0:1" and b = run false "delay-chunk:0:1" in
  check_string "delayed output identical" b.r_output a.r_output;
  if not (match (a.r_value, b.r_value) with
          | Some va, Some vb -> value_opt_eq va vb
          | _ -> false)
  then Alcotest.fail "delay-chunk values differ between engines"

(* White-box coverage: which call sites compiled, inlined, or fell
   back.  Leaves at or under the size cap leave no per-sub site at all
   (no frame is ever built); the boundary +1 function is a marshalled
   compiled call; recursion and ALLOCATE run compiled too. *)
let test_calls_stats () =
  let cu = Parser.parse_string calls_src in
  Interp.reset_bytecode_stats ();
  let st = Interp.make_state ~printer:ignore cu in
  ignore (Interp.call st "drive_calls" [ Ast.Int_lit 300; Ast.Int_lit 1 ]);
  let rows = Interp.bytecode_stats_for st in
  let find lbl = List.filter (fun r -> r.Interp.r_label = lbl) rows in
  let runs lbl =
    List.fold_left (fun a r -> a + r.Interp.r_runs) 0 (find lbl)
  and bails lbl =
    List.fold_left (fun a r -> a + r.Interp.r_bails) 0 (find lbl)
  in
  (* inlined leaves never become call frames *)
  check_bool "scale2 inlined or marshalled, never bailed" true
    (bails "sub scale2" = 0);
  check_int "leaf8 fully inlined: no site" 0 (List.length (find "sub leaf8"));
  check_bool "leaf9 (one past the cap) ran as compiled frames" true
    (runs "sub leaf9" > 0);
  check_int "leaf9 never bailed" 0 (bails "sub leaf9");
  check_bool "bump ran compiled with by-ref args" true (runs "sub bump" > 0);
  check_int "bump never bailed" 0 (bails "sub bump");
  (* recursion: the busy frame sends each nested activation down the
     scope path, which still runs it compiled *)
  check_bool "rsum ran compiled" true (runs "sub rsum" >= 13);
  check_int "rsum never bailed" 0 (bails "sub rsum");
  (* ALLOCATE/DEALLOCATE compile: the allocating sub runs on the VM *)
  check_bool "mixed ran compiled" true (runs "sub mixed" > 0);
  check_int "mixed never bailed" 0 (bails "sub mixed")

(* The acceptance gate of this PR: the case-study exchange subprograms
   run fully compiled — zero bails — and their factored-out leaf
   helpers vanish into their callers. *)
let test_workload_bytecode_coverage () =
  Interp.reset_bytecode_stats ();
  ignore (Sarb.run ~threads:1 ~bytecode:true Sarb.Glaf_serial);
  ignore (Fun3d.run ~threads:1 ~ncell:40 ~bytecode:true
            (Fun3d.Glaf Fun3d_glaf.serial_options));
  let rows = Interp.bytecode_stats () in
  let find lbl = List.filter (fun r -> r.Interp.r_label = lbl) rows in
  List.iter
    (fun lbl ->
      let rs = find ("sub " ^ lbl) in
      if rs = [] then Alcotest.fail ("no bytecode site for " ^ lbl);
      List.iter
        (fun r ->
          check_bool (lbl ^ " ran compiled") true (r.Interp.r_runs > 0);
          check_int (lbl ^ " zero bails") 0 r.Interp.r_bails)
        rs)
    [ "ent_exchange"; "lw_exchange_up"; "lw_exchange_dn" ];
  check_int "ent_contrib inlined away" 0 (List.length (find "sub ent_contrib"));
  check_int "combine_flux inlined away" 0
    (List.length (find "sub combine_flux"))

(* --- reused callee frames -------------------------------------------------- *)

(* Compiled calls run in a per-domain frame that is reset, not rebuilt,
   between calls.  Each driver below calls its callees several times so
   the later calls take the reused frame; every result, printed line
   and error text must match the tree-walker's fresh scopes. *)
let frames_src =
  {|
module frmod
  implicit none
  real*8, allocatable :: marr(:)
  integer :: ncalls
end module frmod

real*8 function readfirst(x)
  implicit none
  real*8 :: x
  real*8 :: acc
  real*8 :: buf(3)
  integer :: k
  acc = acc + x
  buf(2) = buf(2) + x
  k = k + 1
  readfirst = acc + buf(2) + k
end function readfirst

real*8 function drive_fresh(n)
  implicit none
  integer :: n, i
  real*8 :: s
  s = 0.0d0
  do i = 1, n
    s = s + readfirst(i * 1.5d0)
  end do
  drive_fresh = s
end function drive_fresh

real*8 function twice(v)
  implicit none
  real*8 :: v
  integer :: j
  do j = 1, 2
    v = v * 1.5d0
  end do
  twice = v
end function twice

real*8 function halfit(m)
  implicit none
  integer :: m
  integer :: j
  halfit = 0.0d0
  do j = 1, 2
    halfit = halfit + m / 2
  end do
end function halfit

real*8 function twiceb(v)
  implicit none
  real*8 :: v
  twiceb = v / 2 + halfit(2)
  v = v * 1.5d0
end function twiceb

real*8 function drive_kinds(n)
  implicit none
  integer :: n, k
  real*8 :: r, a
  k = n
  r = n * 0.25d0
  a = twice(n + 1) + twice(r) + twice(n * 0.5d0) + twice(n + 3)
  a = a + halfit(7) + halfit(7.5d0) + halfit(n) + halfit(r)
  a = a + twice(k) + k
  a = a + twiceb(n + 1) + twiceb(r) + twiceb(n + 2) + twiceb(k) + k
  print *, a, k
  drive_kinds = a
end function drive_kinds

subroutine setup_marr(n)
  use frmod
  implicit none
  integer :: n, i
  if (allocated(marr)) then
    deallocate(marr)
  end if
  allocate(marr(0:n))
  do i = 0, n
    marr(i) = i * 0.5d0 + n
  end do
end subroutine setup_marr

real*8 function sum_marr(n)
  use frmod
  implicit none
  integer :: n, i
  real*8 :: s
  s = 0.0d0
  do i = 0, n
    s = s + marr(i)
  end do
  sum_marr = s
end function sum_marr

real*8 function sum_marr_mixed(n)
  use frmod
  implicit none
  integer :: n, i
  real*8 :: s
  s = 0.0d0
  do i = 0, n
    s = s + marr(i)
  end do
  sum_marr_mixed = s + twice(0.5d0)
end function sum_marr_mixed

real*8 function drive_realloc(n)
  use frmod
  implicit none
  integer :: n
  real*8 :: a, b
  call setup_marr(n)
  a = sum_marr(n) + marr(n) + sum_marr_mixed(n)
  call setup_marr(n + 5)
  b = sum_marr(n + 5) + marr(n + 5) + sum_marr_mixed(n + 5)
  drive_realloc = a * 1000.0d0 + b
end function drive_realloc

real*8 function drive_shrunk(n)
  implicit none
  integer :: n
  real*8 :: a
  call setup_marr(n)
  a = sum_marr(n)
  call setup_marr(n - 3)
  drive_shrunk = a + sum_marr(n)
end function drive_shrunk

integer function drive_dealloc(n)
  use frmod
  implicit none
  integer :: n, r
  r = 0
  call setup_marr(n)
  if (allocated(marr)) r = r + 1
  deallocate(marr)
  if (.not. allocated(marr)) r = r + 10
  call setup_marr(n)
  if (allocated(marr)) r = r + 100
  drive_dealloc = r
end function drive_dealloc

real*8 function drive_use_after(n)
  use frmod
  implicit none
  integer :: n
  call setup_marr(n)
  deallocate(marr)
  drive_use_after = marr(2)
end function drive_use_after

subroutine badrank()
  use frmod
  implicit none
  allocate(marr(3, 4))
end subroutine badrank

subroutine badtarget()
  use frmod
  implicit none
  allocate(ncalls(3))
end subroutine badtarget

integer function drive_badrank(n)
  implicit none
  integer :: n
  if (n > 1) then
    call badrank()
  end if
  drive_badrank = n
end function drive_badrank

integer function drive_badtarget(n)
  implicit none
  integer :: n
  call badtarget()
  drive_badtarget = n
end function drive_badtarget

subroutine rfact(n, res)
  implicit none
  integer :: n, res
  integer :: t, sub
  t = n
  if (n <= 1) then
    res = 1
  else
    call rfact(n - 1, sub)
    res = sub * t
  end if
end subroutine rfact

integer function drive_rec(n)
  implicit none
  integer :: n, a, b, c
  call rfact(n, a)
  call rfact(n - 2, b)
  call rfact(n, c)
  drive_rec = a + b * 1000 + c
end function drive_rec
|}

let test_frames_fresh_locals () =
  assert_same "fresh locals" (Parser.parse_string frames_src) "drive_fresh"
    [ Ast.Int_lit 7 ]

let test_frames_arg_kinds () =
  assert_same "int then real actuals" (Parser.parse_string frames_src)
    "drive_kinds" [ Ast.Int_lit 9 ]

let test_frames_realloc () =
  let cu = Parser.parse_string frames_src in
  assert_same "module array re-allocated" cu "drive_realloc" [ Ast.Int_lit 6 ];
  assert_same "re-allocated smaller, read past it" cu "drive_shrunk"
    [ Ast.Int_lit 8 ]

let test_frames_dealloc () =
  let cu = Parser.parse_string frames_src in
  assert_same "allocated() after deallocate" cu "drive_dealloc" [ Ast.Int_lit 4 ];
  assert_same "read after deallocate" cu "drive_use_after" [ Ast.Int_lit 4 ]

let test_frames_alloc_errors () =
  let cu = Parser.parse_string frames_src in
  let err fname args =
    let a = run_engine ~bytecode:true cu fname args in
    check_bool (fname ^ " raised") true (a.r_error <> None);
    assert_same fname cu fname args
  in
  err "drive_badrank" [ Ast.Int_lit 2 ];
  err "badrank" [];
  err "drive_badtarget" [ Ast.Int_lit 2 ]

let test_frames_recursion () =
  let cu = Parser.parse_string frames_src in
  assert_same "self-recursive calls" cu "drive_rec" [ Ast.Int_lit 6 ];
  (* every activation ran compiled: the outer ones in the reused frame,
     the nested ones (frame busy) in fresh scopes *)
  Interp.reset_bytecode_stats ();
  let st = Interp.make_state ~printer:ignore cu in
  ignore (Interp.call st "drive_rec" [ Ast.Int_lit 6 ]);
  let rows =
    List.filter (fun r -> r.Interp.r_label = "sub rfact") (Interp.bytecode_stats_for st)
  in
  check_int "rfact activations compiled" 16
    (List.fold_left (fun a r -> a + r.Interp.r_runs) 0 rows);
  check_int "rfact never bailed" 0
    (List.fold_left (fun a r -> a + r.Interp.r_bails) 0 rows)

(* --- typed calls and allocation -------------------------------------------- *)

(* Typed frames run compiled calls, ALLOCATE/DEALLOCATE/allocated() and
   arrays that may be unallocated.  Each driver is compared against the
   tree-walker (values on bit patterns, errors as exact text, ALLOCATE
   counts), and the per-site counters say which VM ran it. *)
let typed_src =
  {|
module tcmod
  implicit none
  real*8, allocatable :: buf(:)
  real*8 :: gx
end module tcmod

integer function icount(n)
  implicit none
  integer :: n
  integer :: k
  icount = 0
  do k = 1, n
    icount = icount + k
  end do
end function icount

real*8 function rhalf(x)
  implicit none
  real*8 :: x
  integer :: k
  rhalf = 0.0d0
  do k = 1, 2
    rhalf = rhalf + x * 0.25d0
  end do
end function rhalf

logical function isodd(n)
  implicit none
  integer :: n
  integer :: k
  isodd = .false.
  do k = 1, n
    isodd = .not. isodd
  end do
end function isodd

real*8 function drive_fns(n)
  implicit none
  integer :: n, i, c
  real*8 :: s
  logical :: odd
  s = 0.0d0
  c = 0
  do i = 1, n
    c = c + icount(i)
    s = s + rhalf(s + i) + icount(i) / 2
    odd = isodd(i)
    if (odd) c = c + 1
    if (isodd(i + 1) .and. c > 3) s = s - 0.5d0
  end do
  drive_fns = s + c
end function drive_fns

integer function pass_on(c)
  implicit none
  integer :: c
  integer :: k
  pass_on = 0
  do k = 1, 2
    pass_on = pass_on + icount(c)
  end do
end function pass_on

integer function drive_pass_on(n)
  implicit none
  integer :: n, a, b
  a = n
  b = n + 3
  drive_pass_on = pass_on(a) * 1000 + pass_on(b) * 10 + pass_on(a)
end function drive_pass_on

subroutine fill_buf(n)
  use tcmod
  implicit none
  integer :: n, k
  allocate(buf(n))
  do k = 1, n
    buf(k) = k * 0.5d0
  end do
end subroutine fill_buf

subroutine drop_buf()
  use tcmod
  implicit none
  deallocate(buf)
end subroutine drop_buf

subroutine regrow(m)
  use tcmod
  implicit none
  integer :: m
  integer :: k
  deallocate(buf)
  allocate(buf(0:m))
  do k = 0, m
    buf(k) = k * 1.5d0
  end do
end subroutine regrow

subroutine rerank()
  use tcmod
  implicit none
  allocate(buf(2, 3))
end subroutine rerank

real*8 function drive_drop_read(n)
  use tcmod
  implicit none
  integer :: n
  real*8 :: s
  call fill_buf(n)
  s = buf(n)
  call drop_buf()
  drive_drop_read = s + buf(n)
end function drive_drop_read

real*8 function drive_drop_checked(n)
  use tcmod
  implicit none
  integer :: n
  real*8 :: s
  call fill_buf(n)
  s = buf(icount(2))
  call drop_buf()
  drive_drop_checked = s + buf(icount(2))
end function drive_drop_checked

real*8 function drive_drop_write(n)
  use tcmod
  implicit none
  integer :: n
  call fill_buf(n)
  buf(1) = 2.0d0
  call drop_buf()
  buf(1) = 3.0d0
  drive_drop_write = 1.0d0
end function drive_drop_write

real*8 function drive_regrow(n)
  use tcmod
  implicit none
  integer :: n, i
  real*8 :: s
  call fill_buf(n)
  s = buf(n)
  call regrow(n + 3)
  s = s + buf(0) + buf(n + 3)
  call regrow(2)
  do i = 0, 2
    s = s + buf(i)
  end do
  if (allocated(buf)) s = s + 100.0d0
  deallocate(buf)
  if (.not. allocated(buf)) s = s + 1000.0d0
  allocate(buf(n))
  buf(n) = 7.0d0
  drive_regrow = s + buf(n)
end function drive_regrow

real*8 function drive_regrow_past(n)
  use tcmod
  implicit none
  integer :: n
  real*8 :: s
  call fill_buf(n)
  s = buf(n)
  call regrow(2)
  drive_regrow_past = s + buf(n)
end function drive_regrow_past

real*8 function drive_rerank(n)
  use tcmod
  implicit none
  integer :: n
  real*8 :: s
  call fill_buf(n)
  s = buf(n)
  call rerank()
  drive_rerank = s + buf(1)
end function drive_rerank

real*8 function saved_sum(n)
  implicit none
  integer :: n
  real*8, allocatable, save :: w(:)
  integer :: k
  if (.not. allocated(w)) then
    allocate(w(4))
  end if
  do k = 1, 4
    w(k) = w(k) + n
  end do
  saved_sum = w(1) + w(4)
end function saved_sum

real*8 function drive_saved(n)
  implicit none
  integer :: n, i
  real*8 :: s
  s = 0
  do i = 1, n
    s = s + saved_sum(i)
  end do
  drive_saved = s
end function drive_saved

real*8 function rpeek(v)
  implicit none
  real*8 :: v
  integer :: j
  rpeek = 0.0d0
  do j = 1, 2
    rpeek = rpeek + v * 0.5d0
  end do
end function rpeek

real*8 function drive_quirk(n)
  implicit none
  integer :: n, k
  real*8 :: a
  k = n
  a = rpeek(k)
  a = a + k
  drive_quirk = a + k / 2
end function drive_quirk

subroutine count_into(j)
  implicit none
  integer :: j
  integer :: t
  t = 0
  do j = 1, 3
    t = t + j
  end do
end subroutine count_into

real*8 function drive_do_alias(n)
  implicit none
  integer :: n
  real*8 :: x
  x = n * 0.5d0
  call count_into(x)
  drive_do_alias = x / 2
end function drive_do_alias

subroutine spin_gx()
  use tcmod
  implicit none
  integer :: t
  t = 0
  do gx = 1, 3
    t = t + 1
  end do
end subroutine spin_gx

real*8 function drive_global_do(n)
  use tcmod
  implicit none
  integer :: n
  gx = n * 0.5d0
  call spin_gx()
  drive_global_do = gx / 2
end function drive_global_do

subroutine spin_cv()
  implicit none
  common /tcblk/ cv
  real*8 :: cv
  integer :: t
  t = 0
  do cv = 1, 3
    t = t + 1
  end do
end subroutine spin_cv

real*8 function drive_common_do(n)
  implicit none
  integer :: n
  common /tcblk/ cv
  real*8 :: cv
  cv = n * 0.5d0
  call spin_cv()
  drive_common_do = cv / 2
end function drive_common_do

real*8 function rthrice(v)
  implicit none
  real*8 :: v
  integer :: j
  do j = 1, 3
    v = v * 1.5d0
  end do
  rthrice = v
end function rthrice

real*8 function drive_copy_kinds(n)
  implicit none
  integer :: n
  real*8 :: r, a
  r = n * 0.25d0
  a = rthrice(r) + rthrice(n + 1) + rthrice(r) + rthrice(n + 1)
  drive_copy_kinds = a
end function drive_copy_kinds

subroutine rsumarr(n, res)
  implicit none
  integer :: n
  real*8 :: res
  real*8, allocatable :: tmp(:)
  real*8 :: sub
  integer :: k
  allocate(tmp(n))
  do k = 1, n
    tmp(k) = k * 0.5d0
  end do
  res = 0.0d0
  do k = 1, n
    res = res + tmp(k)
  end do
  if (n > 1) then
    call rsumarr(n - 1, sub)
    res = res + sub
  end if
  deallocate(tmp)
end subroutine rsumarr

real*8 function drive_rsumarr(n)
  implicit none
  integer :: n
  real*8 :: a, b
  call rsumarr(n, a)
  call rsumarr(n - 2, b)
  drive_rsumarr = a * 1000.0d0 + b
end function drive_rsumarr
|}

(* Run [fname] on the VM with fresh counters: the unit's stats rows and
   the state's ALLOCATE count. *)
let vm_run cu fname args =
  Interp.reset_bytecode_stats ();
  let st = Interp.make_state ~printer:ignore cu in
  (try ignore (Interp.call st fname args) with Interp.Fortran_error _ | Farray.Bounds_error _ -> ());
  (Interp.bytecode_stats_for st, Interp.allocations st)

let site_count field rows lbl =
  List.fold_left (fun a r -> if r.Interp.r_label = lbl then a + field r else a) 0 rows

(* Same result (or error) and ALLOCATE count on both engines, and the
   driver's own body ran on the VM ([on_vm]) or bailed to the
   tree-walker. *)
let assert_typed_same ?(on_vm = true) name cu fname args =
  assert_same name cu fname args;
  let rows, allocs = vm_run cu fname args in
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_bytecode st false;
  (try ignore (Interp.call st fname args) with Interp.Fortran_error _ | Farray.Bounds_error _ -> ());
  check_int (name ^ ": ALLOCATE count") (Interp.allocations st) allocs;
  let lbl = "sub " ^ fname in
  check_int (name ^ ": runs") (if on_vm then 1 else 0) (site_count (fun r -> r.Interp.r_runs) rows lbl);
  check_int (name ^ ": bails") (if on_vm then 0 else 1) (site_count (fun r -> r.Interp.r_bails) rows lbl);
  rows

let typed_cu () = Parser.parse_string typed_src

let test_typed_fn_results () =
  let rows = assert_typed_same "int/real/logical results" (typed_cu ()) "drive_fns" [ Ast.Int_lit 9 ] in
  List.iter
    (fun callee ->
      check_int (callee ^ " never bailed") 0 (site_count (fun r -> r.Interp.r_bails) rows ("sub " ^ callee));
      check_bool (callee ^ " ran compiled") true (site_count (fun r -> r.Interp.r_runs) rows ("sub " ^ callee) > 0))
    [ "icount"; "rhalf"; "isodd" ];
  (* a reused typed frame passes its own dummy on: the alias must follow
     each call's actual *)
  ignore (assert_typed_same "dummy passed on" (typed_cu ()) "drive_pass_on" [ Ast.Int_lit 4 ])

let test_typed_dealloc () =
  let cu = typed_cu () in
  ignore (assert_typed_same "read after callee DEALLOCATE" cu "drive_drop_read" [ Ast.Int_lit 5 ]);
  ignore (assert_typed_same "checked read after DEALLOCATE" cu "drive_drop_checked" [ Ast.Int_lit 5 ]);
  ignore (assert_typed_same "store after callee DEALLOCATE" cu "drive_drop_write" [ Ast.Int_lit 5 ]);
  let err = (run_engine ~bytecode:true cu "drive_drop_write" [ Ast.Int_lit 5 ]).r_error in
  check_bool "store raised the tree-walker's text" true
    (err = Some "fortran: cannot assign to buf this way")

let test_typed_realloc () =
  let cu = typed_cu () in
  ignore (assert_typed_same "callee re-ALLOCATEs new bounds" cu "drive_regrow" [ Ast.Int_lit 6 ]);
  ignore (assert_typed_same "read past the shrunk array" cu "drive_regrow_past" [ Ast.Int_lit 6 ]);
  ignore (assert_typed_same "callee re-ALLOCATEs another rank" cu "drive_rerank" [ Ast.Int_lit 6 ]);
  let err = (run_engine ~bytecode:true cu "drive_rerank" [ Ast.Int_lit 6 ]).r_error in
  check_bool "rank error raised" true
    (match err with Some e -> String.length e > 7 && String.sub e 0 7 = "bounds:" | None -> false)

let test_typed_save_guard () =
  let cu = typed_cu () in
  let rows = assert_typed_same "SAVE + allocated() guard" cu "drive_saved" [ Ast.Int_lit 5 ] in
  check_int "saved_sum compiled from the first call" 5 (site_count (fun r -> r.Interp.r_runs) rows "sub saved_sum");
  check_int "saved_sum never bailed" 0 (site_count (fun r -> r.Interp.r_bails) rows "sub saved_sum")

let test_typed_kind_rule () =
  let cu = typed_cu () in
  (* the REAL dummy rewrites the caller's INTEGER k in place: typing
     the caller would leave it reading an Int slot that holds a Real,
     so it bails *)
  ignore (assert_typed_same ~on_vm:false "INTEGER actual to REAL dummy" cu "drive_quirk" [ Ast.Int_lit 7 ]);
  (* a DO loop stores raw Ints into its variable: a REAL actual aliased
     to it, or a module REAL some callee loops over, ends up an Int *)
  ignore (assert_typed_same ~on_vm:false "REAL actual as callee DO variable" cu "drive_do_alias" [ Ast.Int_lit 7 ]);
  ignore (assert_typed_same ~on_vm:false "module REAL as callee DO variable" cu "drive_global_do" [ Ast.Int_lit 7 ]);
  ignore (assert_typed_same ~on_vm:false "COMMON REAL as callee DO variable" cu "drive_common_do" [ Ast.Int_lit 7 ]);
  (* a copied-in Int gets an Integer-based slot the quirk turns Real:
     rthrice's typed frame, specialized for a REAL slot, must not take
     it, or its stores would skip the slot's INTEGER coercion *)
  assert_same "copied Int to REAL dummy after a Real" cu "drive_copy_kinds" [ Ast.Int_lit 9 ]

let test_typed_recursion () =
  let cu = typed_cu () in
  let rows = assert_typed_same "recursion with local ALLOCATE" cu "drive_rsumarr" [ Ast.Int_lit 6 ] in
  (* 6 + 4 activations: the second chain's outer call reuses the frame
     the first left behind, nested calls (frame busy) take the scope
     path — all compiled *)
  check_int "rsumarr activations compiled" 10 (site_count (fun r -> r.Interp.r_runs) rows "sub rsumarr");
  check_int "rsumarr never bailed" 0 (site_count (fun r -> r.Interp.r_bails) rows "sub rsumarr")

(* --- private scalars in registers ------------------------------------------ *)

(* A compiled subprogram keeps its private scalars (declared INTEGER,
   REAL or LOGICAL, no attribute, not a dummy, COMMON member or result,
   never bound by reference) in registers.  Each case is a function
   called three times from a typed driver — the second and third calls
   run in the reused frame, with an aliased and a copied actual — and
   compared against the tree-walker. *)
let promo_src =
  {|
subroutine bump(k)
  implicit none
  integer :: k
  integer :: j
  do j = 1, 2
    k = k + j
  end do
end subroutine bump

integer function incf(k)
  implicit none
  integer :: k
  integer :: j
  do j = 1, 1
    k = k + 5
  end do
  incf = k
end function incf

subroutine halve_add(x)
  implicit none
  real*8 :: x
  x = x * 0.5d0 + 2.5d0
end subroutine halve_add

real*8 function bumpf(x)
  implicit none
  real*8 :: x
  x = x + 1.0d0
  bumpf = x * 2.0d0
end function bumpf

integer function p_actual(n)
  implicit none
  integer :: n
  integer :: k, i, k2
  k = n
  k2 = 1
  do i = 1, 3
    call bump(k)
    k = k + incf(k2)
  end do
  p_actual = k * 100 + k2 * 10 + i
end function p_actual

real*8 function p_leaf(n)
  implicit none
  integer :: n
  real*8 :: t, u
  integer :: i
  t = n * 1.5d0
  u = n * 0.25d0
  do i = 1, n
    call halve_add(t)
    t = t + bumpf(u)
  end do
  p_leaf = t + u * 1000.0d0 + i
end function p_leaf

integer function p_dovar(n)
  implicit none
  integer :: n
  integer :: i, s
  s = 0
  do i = 1, n
    s = s + i
    i = i * 2
    s = s * 3 + i
  end do
  p_dovar = s * 100 + i
end function p_dovar

real*8 function p_bound(n)
  implicit none
  integer :: n
  integer :: m, i, s
  real*8 :: hb
  m = n
  hb = n + 0.75d0
  s = 0
  do i = 1, m
    m = m - 1
    s = s + i * m
  end do
  do i = 1, hb, 2
    hb = hb * 0.5d0
    s = s + i
  end do
  p_bound = s * 1000 + m * 10 + i + hb
end function p_bound

integer function p_exit(n)
  implicit none
  integer :: n
  integer :: i, j, s
  s = 0
  do i = 1, 100
    if (i > n) exit
    do j = 1, i
      if (j == 3) exit
      s = s + j
    end do
    s = s + j
  end do
  p_exit = s * 1000 + i * 10 + j
end function p_exit

real*8 function p_uninit(n)
  implicit none
  integer :: n
  integer :: iu, k
  real*8 :: ru, r
  logical :: lu
  r = iu + ru
  if (lu) r = r + 1000.0d0
  do k = 1, 2
    iu = n + k
    ru = n * 2.5d0
    lu = .true.
  end do
  p_uninit = r + iu + ru
end function p_uninit

integer function p_init(n)
  implicit none
  integer :: n
  integer :: cnt = 5
  integer :: k
  do k = 1, n
    cnt = cnt + 1
  end do
  p_init = cnt
end function p_init

function p_result(n)
  implicit none
  integer :: n
  real*8 :: p_result
  integer :: k
  p_result = 0.5d0
  do k = 1, n
    p_result = p_result * 1.5d0 + k
  end do
end function p_result

integer function p_logical(n)
  implicit none
  integer :: n
  integer :: k, c
  logical :: odd, seen
  c = 0
  seen = .false.
  do k = 1, n
    odd = mod(k, 2) == 1
    if (odd .and. .not. seen) c = c + 100
    if (odd) seen = .true.
    if (.not. odd) c = c + k
  end do
  if (seen) c = c + 1
  p_logical = c
end function p_logical

real*8 function p_realbnd(n)
  implicit none
  integer :: n
  integer :: i, s
  real*8 :: y
  y = 0.75d0
  s = 0
  do i = 1, y * n
    s = s + i
  end do
  do i = -y * n, n * 0.5d0
    s = s + 3 * i
  end do
  do i = n, y - 2.5d0, -1.5d0 * y
    s = s + 7 * i
  end do
  do i = y * n, -y
    s = s + 1000
  end do
  p_realbnd = s * 10 + i
end function p_realbnd

real*8 function p_realdo(n)
  implicit none
  integer :: n
  real*8 :: x, s
  s = 0.0d0
  do x = 1, n
    s = s + x * 0.5d0
  end do
  p_realdo = s + x
end function p_realdo

subroutine rtri(n, res)
  implicit none
  integer :: n, res
  integer :: k, acc, sub
  acc = 0
  do k = 1, n
    acc = acc + k
  end do
  if (n > 1) then
    call rtri(n - 1, sub)
    acc = acc * 2 + sub
  end if
  res = acc + k
end subroutine rtri

subroutine sgrow(n, depth, res)
  implicit none
  integer :: n, depth
  real*8 :: res
  real*8, allocatable, save :: buf(:)
  integer :: k
  real*8 :: sub
  if (allocated(buf)) then
    deallocate(buf)
  end if
  allocate(buf(n))
  do k = 1, n
    buf(k) = k * 1.5d0 + depth
  end do
  sub = 0.0d0
  if (depth > 0) then
    call sgrow_via(n + 3, depth - 1, sub)
  end if
  res = sub + buf(n) * 100.0d0
end subroutine sgrow

subroutine sgrow_via(n, depth, res)
  implicit none
  integer :: n, depth
  real*8 :: res
  integer :: j
  do j = 1, 1
    call sgrow(n, depth, res)
  end do
end subroutine sgrow_via

subroutine hsave(n, depth, res)
  implicit none
  integer :: n, depth
  real*8 :: res
  real*8, allocatable, save :: hb(:)
  integer :: k
  if (allocated(hb)) then
    deallocate(hb)
  end if
  allocate(hb(n))
  do k = 1, n
    hb(k) = k * 0.5d0 + depth
  end do
  res = hb(1)
  if (depth > 0) then
    call fdum(hb, n, depth, res)
  end if
end subroutine hsave

subroutine fdum(a, n, depth, res)
  implicit none
  integer :: n, depth
  real*8 :: a(n)
  real*8 :: res
  real*8 :: sub
  sub = 0.0d0
  call hsave(n + 2, depth - 1, sub)
  res = sub + a(1) * 1000.0d0
end subroutine fdum

real*8 function drive_sgrow(n)
  implicit none
  integer :: n
  real*8 :: a, b
  call sgrow(n, 2, a)
  call hsave(n, 2, b)
  drive_sgrow = a + b * 1.0d6
end function drive_sgrow

real*8 function drive_actual(n)
  implicit none
  integer :: n
  drive_actual = p_actual(n) + p_actual(n + 1) * 1000.0d0 + p_actual(n) * 1.0d6
end function drive_actual

real*8 function drive_leaf(n)
  implicit none
  integer :: n
  drive_leaf = p_leaf(n) + p_leaf(n + 1) * 1000.0d0 + p_leaf(n) * 1.0d6
end function drive_leaf

real*8 function drive_dovar(n)
  implicit none
  integer :: n
  drive_dovar = p_dovar(n) + p_dovar(n + 1) * 1000.0d0 + p_dovar(n) * 1.0d6
end function drive_dovar

real*8 function drive_bound(n)
  implicit none
  integer :: n
  drive_bound = p_bound(n) + p_bound(n + 1) * 1000.0d0 + p_bound(n) * 1.0d6
end function drive_bound

real*8 function drive_exit(n)
  implicit none
  integer :: n
  drive_exit = p_exit(n) + p_exit(n + 1) * 1000.0d0 + p_exit(n) * 1.0d6
end function drive_exit

real*8 function drive_uninit(n)
  implicit none
  integer :: n
  drive_uninit = p_uninit(n) + p_uninit(n + 1) * 1000.0d0 + p_uninit(n) * 1.0d6
end function drive_uninit

real*8 function drive_init(n)
  implicit none
  integer :: n
  drive_init = p_init(n) + p_init(n + 1) * 1000.0d0 + p_init(n) * 1.0d6
end function drive_init

real*8 function drive_result(n)
  implicit none
  integer :: n
  drive_result = p_result(n) + p_result(n + 1) * 1000.0d0 + p_result(n) * 1.0d6
end function drive_result

real*8 function drive_logical(n)
  implicit none
  integer :: n
  drive_logical = p_logical(n) + p_logical(n + 1) * 1000.0d0 + p_logical(n) * 1.0d6
end function drive_logical

real*8 function drive_realbnd(n)
  implicit none
  integer :: n
  drive_realbnd = p_realbnd(n) + p_realbnd(n + 1) * 1000.0d0 + p_realbnd(n) * 1.0d6
end function drive_realbnd

real*8 function drive_realdo(n)
  implicit none
  integer :: n
  drive_realdo = p_realdo(n) + p_realdo(n + 1) * 1000.0d0 + p_realdo(n) * 1.0d6
end function drive_realdo

real*8 function drive_rtri(n)
  implicit none
  integer :: n
  integer :: a, b
  call rtri(n, a)
  call rtri(n - 1, b)
  drive_rtri = a * 1000.0d0 + b
end function drive_rtri
|}

(* Same results as the tree-walker, the driver ran on the VM, and
   [callee] ran [runs] times on the VM ([on_vm]) or bailed [runs]
   times to the tree-walker. *)
let assert_promo ?(on_vm = true) ?(runs = 3) name callee =
  let cu = Parser.parse_string promo_src in
  let rows = assert_typed_same name cu ("drive_" ^ name) [ Ast.Int_lit 5 ] in
  let out = run_engine ~bytecode:true cu ("drive_" ^ name) [ Ast.Int_lit 5 ] in
  check_bool (name ^ ": ran without error") true (out.r_error = None);
  let lbl = "sub " ^ callee in
  let ran, bailed = if on_vm then (runs, 0) else (0, runs) in
  check_int (name ^ ": " ^ callee ^ " runs") ran (site_count (fun r -> r.Interp.r_runs) rows lbl);
  check_int (name ^ ": " ^ callee ^ " bails") bailed (site_count (fun r -> r.Interp.r_bails) rows lbl);
  rows

let test_promo_by_reference () =
  (* a local passed as an actual stays a slot, so the callee's writes
     reach it; likewise an inlined leaf writing its dummy *)
  ignore (assert_promo "actual" "p_actual");
  ignore (assert_promo "leaf" "p_leaf")

let test_promo_do () =
  (* the body assigns its own DO variable: the count is unaffected, the
     variable holds what the body wrote until the next iteration *)
  ignore (assert_promo "dovar" "p_dovar");
  (* bounds read from variables the body assigns (an INTEGER one and a
     REAL one converted to an integer bound) are fixed at entry *)
  ignore (assert_promo "bound" "p_bound");
  (* REAL bounds and steps computed by an expression truncate like
     [Value.to_int]: fractional, negative, and a zero-trip loop *)
  ignore (assert_promo "realbnd" "p_realbnd");
  (* EXIT keeps the variable's value at the EXIT, a completed loop
     leaves the loop-completed value *)
  ignore (assert_promo "exit" "p_exit");
  (* a REAL DO variable holds raw integers mid-loop: it bails, and the
     tree-walker runs it *)
  let rows = assert_promo ~on_vm:false "realdo" "p_realdo" in
  List.iter
    (fun r ->
      if r.Interp.r_label = "sub p_realdo" then
        Alcotest.(check (option string)) "p_realdo says why it bailed" (Some "DO variable x is not integer") r.Interp.r_reason)
    rows

let test_promo_locals () =
  (* every call starts from setup_scope's zero, also in a reused frame *)
  ignore (assert_promo "uninit" "p_uninit");
  (* an initialized local and the function result keep their slots *)
  ignore (assert_promo "init" "p_init");
  ignore (assert_promo "result" "p_result");
  ignore (assert_promo "logical" "p_logical")

let test_call_reval () =
  (* a nested activation re-allocates a SAVE array the outer frame
     binds — its own (sgrow through sgrow_via) or, through an array
     dummy, its caller's (fdum's [a] is hsave's [hb]): the frame must
     re-read it after the call *)
  ignore (assert_promo ~runs:3 "sgrow" "sgrow")

let test_promo_recursion () =
  (* nested activations (frame busy) run in fresh scope-path frames with
     registers of their own: 5 + 4 activations, all typed *)
  ignore (assert_promo ~runs:9 "rtri" "rtri")

(* --- constructs the typed registers do not cover ------------------------------ *)

(* One unit per construct the compiler has no
   typed instruction for (the [boxed:] cases, named for the register
   bank they used to run on).  Each driver's named sites bail to the
   tree-walker, the construct named as the bail reason, and results
   and PRINT text are bit-identical to the tree-walker at 1 and 4
   threads. *)

(* the rank-3 store runs in a parallel chunk body, the read in the
   driver's own compiled body *)
let rank3_src =
  {|
module r3mod
  implicit none
  real*8 :: cube(5, 4, 3)
end module r3mod

subroutine fill_cube(n)
  use r3mod
  implicit none
  integer :: n, i, j, k
!$omp parallel do private(j, k)
  do i = 1, 5
    do j = 1, 4
      do k = 1, 3
        cube(i, j, k) = i * 100.0d0 + j * 10.0d0 + k + n * 0.125d0
      end do
    end do
  end do
!$omp end parallel do
end subroutine fill_cube

real*8 function rank3(n)
  use r3mod
  implicit none
  integer :: n, i, j, k
  real*8 :: s
  call fill_cube(n)
  s = 0.0d0
  do k = 1, 3
    do j = 1, 4
      do i = 1, 5
        s = s + cube(i, j, k) * (i + n) * 1.0d-2
      end do
    end do
  end do
  rank3 = s
end function rank3
|}

let whole_src =
  {|
real*8 function wholearr(n)
  implicit none
  integer :: n, i
  real*8 :: a(6), b(6), s
  do i = 1, 6
    b(i) = i * 0.5d0 + n
  end do
  a = b
  b = 2.5d0
  s = 0.0d0
  do i = 1, 6
    s = s + a(i) * 10.0d0 + b(i)
  end do
  wholearr = s
end function wholearr
|}

let ipow_src =
  {|
integer function ipow(n)
  implicit none
  integer :: n, i, s
  s = 0
  do i = 1, n
    s = s + i ** 2 + 2 ** (i - 1)
  end do
  ipow = s
end function ipow
|}

let elem_src =
  {|
subroutine addto(x, y)
  implicit none
  real*8 :: x, y
  x = x + y
end subroutine addto

real*8 function elemact(n)
  implicit none
  integer :: n, i
  real*8 :: a(8), s
  do i = 1, 8
    a(i) = i * 1.5d0
  end do
  do i = 1, 8
    call addto(a(i), i * 0.25d0 + n)
  end do
  s = 0.0d0
  do i = 1, 8
    s = s + a(i)
  end do
  elemact = s
end function elemact
|}

let charcat_src =
  {|
real*8 function charcat(n)
  implicit none
  integer :: n, i
  real*8 :: s
  character(len=8) :: tag
  tag = 'step'
  s = 0.0d0
  do i = 1, n
    s = s + i * 0.5d0
    print *, tag // ' no', i, s
  end do
  charcat = s
end function charcat
|}

let realdo_src =
  {|
real*8 function realdo(n)
  implicit none
  integer :: n
  real*8 :: x, s
  s = 0.0d0
  do x = 1, n
    s = s + x * 0.5d0
  end do
  realdo = s + x
end function realdo
|}

(* Both engines agree on [fname] at 1 and 4 threads, then every site
   labelled in [sites] bailed for [reason] and never ran compiled. *)
let assert_bails name src fname sites reason =
  let cu = Parser.parse_string src in
  List.iter
    (fun t -> assert_same (Printf.sprintf "%s, %d threads" name t) ~threads:t cu fname [ Ast.Int_lit 6 ])
    [ 1; 4 ];
  Interp.reset_bytecode_stats ();
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st 4;
  ignore (Interp.call st fname [ Ast.Int_lit 6 ]);
  let rows = Interp.bytecode_stats_for st in
  List.iter
    (fun lbl ->
      check_bool (name ^ ": " ^ lbl ^ " bailed") true (site_count (fun r -> r.Interp.r_bails) rows lbl >= 1);
      check_int (name ^ ": " ^ lbl ^ " runs") 0 (site_count (fun r -> r.Interp.r_runs) rows lbl);
      List.iter
        (fun r ->
          if r.Interp.r_label = lbl then
            Alcotest.(check (option string)) (name ^ ": " ^ lbl ^ " reason") (Some reason) r.Interp.r_reason)
        rows)
    sites

let rank3_reason = "whole-array or rank>2 access"

let test_boxed_rank3 () = assert_bails "rank-3 access" rank3_src "rank3" [ "sub rank3"; "omp-do" ] rank3_reason
let test_boxed_whole () = assert_bails "whole-array copy and fill" whole_src "wholearr" [ "sub wholearr" ] rank3_reason

(* [i ** 2] types; [2 ** (i - 1)], a variable exponent, bails: the
   kind of its result depends on the exponent's sign *)
let test_boxed_ipow () = assert_bails "integer **" ipow_src "ipow" [ "sub ipow" ] "integer **"

let test_boxed_elem () =
  assert_bails "array-element actual" elem_src "elemact" [ "sub elemact" ] "array-element actual"

let test_boxed_charcat () =
  assert_bails "character constant" charcat_src "charcat" [ "sub charcat" ] "character or array constant"

let test_boxed_realdo () =
  assert_bails "REAL DO variable" realdo_src "realdo" [ "sub realdo" ] "DO variable x is not integer"

(* An INTEGER base to a constant INTEGER power runs typed:
   [Value.pow]'s repeated multiply for k >= 0 (so [x ** 0] is 1 and an
   overflowing power wraps), a real power for k < 0.  The exponent is
   a literal, a negated literal or a folded PARAMETER. *)
let ipow_const_src =
  {|
integer function ipow0(b)
  implicit none
  integer :: b
  ipow0 = b ** 0
end function ipow0

integer function ipow3(b)
  implicit none
  integer :: b
  ipow3 = b ** 3
end function ipow3

integer function ipowk(b)
  implicit none
  integer, parameter :: k = 3
  integer :: b
  ipowk = b ** k + b ** 1
end function ipowk

real*8 function ipowm2(b)
  implicit none
  integer :: b
  ipowm2 = b ** (-2)
end function ipowm2

real*8 function ipow_loop(n)
  implicit none
  integer :: n, i, s
  real*8 :: r
  s = 0
  r = 0.0d0
  do i = 1, n
    s = s + i ** 3 - (-i) ** 2 + i ** 0
    r = r + i ** (-2)
  end do
  ipow_loop = s + r
end function ipow_loop
|}

let test_typed_ipow_const () =
  let cu = Parser.parse_string ipow_const_src in
  let bases = [ 0; -1; 2; 3_000_000 ] in
  List.iter
    (fun fname ->
      List.iter
        (fun b ->
          let what = Printf.sprintf "%s(%d)" fname b in
          List.iter
            (fun t -> assert_same (Printf.sprintf "%s, %d threads" what t) ~threads:t cu fname [ Ast.Int_lit b ])
            [ 1; 4 ];
          let rows, _ = vm_run cu fname [ Ast.Int_lit b ] in
          check_int (what ^ ": runs") 1 (site_count (fun r -> r.Interp.r_runs) rows ("sub " ^ fname));
          check_int (what ^ ": bails") 0 (site_count (fun r -> r.Interp.r_bails) rows ("sub " ^ fname)))
        (if fname = "ipow_loop" then [ 9 ] else bases))
    [ "ipow0"; "ipow3"; "ipowk"; "ipowm2"; "ipow_loop" ];
  (* the overflowing power wraps exactly like the tree-walker's, and
     the k < 0 power of 0 is a real infinity *)
  check_bool "3e6 ** 3 wraps" true
    ((run_engine ~bytecode:true cu "ipow3" [ Ast.Int_lit 3_000_000 ]).r_value
    = Some (Some (Value.Int (3_000_000 * 3_000_000 * 3_000_000))));
  check_bool "0 ** -2 is infinity" true
    ((run_engine ~bytecode:true cu "ipowm2" [ Ast.Int_lit 0 ]).r_value = Some (Some (Value.Real Float.infinity)))

(* One compiled subprogram, bound in two scopes: a REAL actual gives
   its slot the kind the typed code was specialized for, an INTEGER one
   (rewritten to Real in place by the REAL redeclaration quirk) keeps an
   INTEGER slot, which the bind refuses, so that call tree-walks; the
   caller passing it is refused too, for its alias actual. *)
let variants_src =
  {|
subroutine scale2(x, n)
  implicit none
  real*8 :: x
  integer :: n
  integer :: i
  do i = 1, n
    x = x * 1.5d0 + i
  end do
end subroutine scale2

real*8 function both_real(n)
  implicit none
  integer :: n
  real*8 :: r
  r = 0.25d0
  call scale2(r, n)
  both_real = r
end function both_real

real*8 function both_int(n)
  implicit none
  integer :: n
  integer :: k
  k = 3
  call scale2(k, n)
  both_int = k
end function both_int

real*8 function both(n)
  implicit none
  integer :: n
  both = both_real(n) + both_int(n) * 1000.0d0 + both_real(n + 1) * 1.0d6
end function both
|}

let test_one_program_both_variants () =
  let cu = Parser.parse_string variants_src in
  List.iter (fun t -> assert_same (Printf.sprintf "both variants, %d threads" t) ~threads:t cu "both" [ Ast.Int_lit 5 ]) [ 1; 4 ];
  let rows, _ = vm_run cu "both" [ Ast.Int_lit 5 ] in
  let reason lbl =
    List.fold_left (fun a r -> if r.Interp.r_label = lbl then r.Interp.r_reason else a) None rows
  in
  check_int "scale2 runs" 2 (site_count (fun r -> r.Interp.r_runs) rows "sub scale2");
  check_int "scale2 bails" 1 (site_count (fun r -> r.Interp.r_bails) rows "sub scale2");
  Alcotest.(check (option string)) "scale2 reason" (Some "bind: scalar x has another kind") (reason "sub scale2");
  check_int "both_int runs" 0 (site_count (fun r -> r.Interp.r_runs) rows "sub both_int");
  check_int "both_int bails" 1 (site_count (fun r -> r.Interp.r_bails) rows "sub both_int");
  Alcotest.(check (option string))
    "both_int reason" (Some "bind: alias actual has another kind") (reason "sub both_int");
  check_int "both_real runs" 2 (site_count (fun r -> r.Interp.r_runs) rows "sub both_real");
  check_int "both_real bails" 0 (site_count (fun r -> r.Interp.r_bails) rows "sub both_real")

(* --- constant registers, rotated DO loops, leaf actuals, RETURN ------------ *)

(* Literals and folded PARAMETERs live in preloaded constant registers,
   DO loops test and poll at their continue point, an inlined leaf
   reads a promoted actual's register in place, and RETURN ends the
   pass without an exception.  Each case runs in two variants: as
   written (compiled wherever the typed registers cover it) and with
   every [!BAIL(v)] line replaced by a never-taken STOP, which sends its
   subprogram or chunk to the tree-walker.  Both must match the
   tree-walker at 1 and 4 threads, with exact run/bail counts per
   site. *)
let lean_src =
  {|
module leanmod
  implicit none
  integer, parameter :: two = 2
  real*8, parameter :: half = 0.5d0
  integer :: tot
end module leanmod

real*8 function lsum(a, b)
  implicit none
  real*8 :: a, b
  lsum = a * 2.0d0 + b
  return
end function lsum

subroutine lbump(a)
  implicit none
  real*8 :: a
  a = a + 1.0d0
end subroutine lbump

real*8 function lhalf(a)
  implicit none
  real*8 :: a
  lhalf = a * 0.5d0
end function lhalf

integer function lread(k)
  implicit none
  integer :: k
  lread = k * 3 + 1
end function lread

subroutine lwrite(k)
  implicit none
  integer :: k
  k = k + 100
end subroutine lwrite

subroutine crit_ret(k)
  use leanmod
  implicit none
  integer :: k
!BAIL(k)
!$omp critical
  tot = tot + k
  if (mod(k, 2) == 0) return
  tot = tot + 1000
!$omp end critical
end subroutine crit_ret

real*8 function k_zeros(n)
  implicit none
  integer :: n, i
  real*8 :: a, b, s
!BAIL(n)
  a = 0.0d0
  b = -0.0d0
  s = 0.0d0
  do i = 1, n
    s = s + sign(1.0d0, -0.0d0) * i + sign(2.0d0, 0.0d0)
  end do
  k_zeros = s + 1.0d0 / b + sign(3.0d0, a) * 1.0d6
end function k_zeros

real*8 function k_kinds(n)
  implicit none
  integer :: n, i, k
  real*8 :: x
!BAIL(n)
  k = 0
  x = 1.0d0
  do i = 1, n
    k = k + 2
    x = x * 2 + 2.0d0 / i + 2
  end do
  k_kinds = x + k
end function k_kinds

real*8 function k_param(n)
  use leanmod
  implicit none
  integer :: n, i, k
  real*8 :: x
!BAIL(n)
  k = 0
  x = 0.0d0
  do i = 1, n
    k = k + two * 2 + 2
    x = x + half * i + 0.5d0 * two
  end do
  k_param = x * 1000.0d0 + k
end function k_param

integer function k_logic(n)
  implicit none
  integer :: n, i, k
  logical :: l, m
!BAIL(n)
  k = 0
  do i = 1, n
    l = .true. .and. (i > 2)
    m = (i < 3) .or. .false.
    if (.false. .or. l) k = k + 1
    if (m .and. .true.) k = k + 10
    if (.true. .or. m) k = k + 100
  end do
  k_logic = k
end function k_logic

integer function k_zerotrip(n)
  implicit none
  integer :: n, i, j, k
!BAIL(n)
  k = 0
  do i = 5, 1
    k = k + 1
  end do
  do j = 1, n, -1
    k = k + 10
  end do
  k_zerotrip = i * 1000 + j * 10 + k
end function k_zerotrip

integer function k_steps(n)
  implicit none
  integer :: n, i, j, st, k
!BAIL(n)
  k = 0
  do i = n, 1, -2
    k = k + i
  end do
  st = n / 2 + 1
  do j = 1, 3 * n, st
    k = k * 3 + j
  end do
  st = -st
  do j = 3 * n, -n, st
    k = k - j
  end do
  k_steps = k * 100 + i + j
end function k_steps

integer function k_exits(n)
  implicit none
  integer :: n, i, j, k
!BAIL(n)
  k = 0
  do i = 1, n
    if (mod(i, 3) == 0) cycle
    do j = 1, n
      if (j > i) exit
      if (mod(j, 2) == 0) cycle
      k = k + i * 10 + j
    end do
    if (i > n - 2) exit
  end do
  k_exits = k * 10000 + i * 100 + j
end function k_exits

real*8 function k_ret(n)
  integer :: n, i
  real*8 :: s
  zz = 1.5d0
  s = 0.0d0
  do i = 1, n
    s = s + zz * i
    if (i == 3) then
      k_ret = s
      return
    end if
  end do
  k_ret = -s
end function k_ret

real*8 function k_twice(n)
  implicit none
  integer :: n, i
  real*8 :: x, s
!BAIL(n)
  s = 0.0d0
  do i = 1, n
    x = i * 0.25d0
    s = s + lsum(x, x)
  end do
  k_twice = s
end function k_twice

real*8 function k_bump(n)
  implicit none
  integer :: n, i
  real*8 :: x, s
!BAIL(n)
  s = 0.0d0
  x = 0.5d0
  do i = 1, n
    call lbump(x)
    s = s + x * i
  end do
  k_bump = s
end function k_bump

real*8 function k_intreal(n)
  implicit none
  integer :: n, i, k
  real*8 :: s
!BAIL(n)
  s = 0.0d0
  do i = 1, n
    k = i * 3
    s = s + lhalf(k) + k / 2
  end do
  k_intreal = s
end function k_intreal

real*8 function k_dovar(n)
  implicit none
  integer :: n, i, j
  real*8 :: s
!BAIL(n)
  s = 0.0d0
  do i = 1, n
    s = s + lread(i)
  end do
  do j = 1, n
    call lwrite(j)
    s = s + j * 0.5d0
  end do
  k_dovar = s * 1000.0d0 + i + j
end function k_dovar

real*8 function k_realdo(n)
  implicit none
  integer :: n
  real*8 :: x, s
!BAIL(n)
  s = 0.0d0
  do x = 1, n
    s = s + lhalf(x)
    s = s + x / 2
  end do
  k_realdo = s + x
end function k_realdo

integer function k_crit(n)
  use leanmod
  implicit none
  integer :: n, i
  tot = 0
!$omp parallel do
  do i = 1, n
    call crit_ret(i)
  end do
!$omp end parallel do
  k_crit = tot
end function k_crit
|}

(* [src] with each [!BAIL(v)] line dropped ([bail = false]) or turned
   into a never-taken STOP, which the compiler has no instruction
   for. *)
let bail_variant ~bail src =
  String.split_on_char '\n' src
  |> List.map (fun line ->
         let t = String.trim line in
         if String.length t > 6 && String.sub t 0 6 = "!BAIL(" then
           if bail then Printf.sprintf "  if (%s ** 2 < 0) stop" (String.sub t 6 (String.length t - 7)) else ""
         else line)
  |> String.concat "\n"

(* A case: its driver, and per variant the (site label, runs, bails)
   counts of one call at 1 thread. *)
type lean_case = {
  lc_fn : string;
  lc_plain : (string * int * int) list;
  lc_bail : (string * int * int) list;
}

let lean_cases =
  let own ?(on_vm = true) fn = [ ("sub " ^ fn, (if on_vm then 1 else 0), if on_vm then 0 else 1) ] in
  let case ?on_vm fn = { lc_fn = fn; lc_plain = own ?on_vm fn; lc_bail = own ~on_vm:false fn } in
  [
    case "k_zeros";
    case "k_kinds";
    case "k_param";
    case "k_logic";
    case "k_zerotrip";
    case "k_steps";
    case "k_exits";
    (* the body bails on the implicit declaration of [zz] and
       tree-walks whole, its DO loop and RETURN included *)
    { lc_fn = "k_ret"; lc_plain = [ ("sub k_ret", 0, 1) ]; lc_bail = [ ("sub k_ret", 0, 1) ] };
    case "k_twice";
    case "k_bump";
    (* the REAL dummy rewrites the INTEGER local in place: it bails *)
    case ~on_vm:false "k_intreal";
    case "k_dovar";
    (* a REAL DO variable holds raw Ints, which the leaf's REAL dummy
       rewrites in place: it stays a slot, and the body bails *)
    case ~on_vm:false "k_realdo";
    (* RETURN inside CRITICAL, from a parallel loop's chunk body; the
       driver compiles, its parallel DO one region-entry instruction *)
    {
      lc_fn = "k_crit";
      lc_plain = [ ("sub k_crit", 1, 0); ("omp-do", 1, 0); ("sub crit_ret", 9, 0) ];
      lc_bail = [ ("sub k_crit", 1, 0); ("omp-do", 1, 0); ("sub crit_ret", 0, 9) ];
    };
  ]

let test_lean_battery () =
  List.iter
    (fun bail ->
      let cu = Parser.parse_string (bail_variant ~bail lean_src) in
      let variant = if bail then "bail" else "plain" in
      List.iter
        (fun c ->
          List.iter
            (fun t ->
              assert_same (Printf.sprintf "%s (%s), %d threads" c.lc_fn variant t) ~threads:t cu c.lc_fn
                [ Ast.Int_lit 9 ])
            [ 1; 4 ];
          Interp.reset_bytecode_stats ();
          let st = Interp.make_state ~printer:ignore cu in
          Interp.set_threads st 1;
          ignore (Interp.call st c.lc_fn [ Ast.Int_lit 9 ]);
          let rows = Interp.bytecode_stats_for st in
          List.iter
            (fun (lbl, runs, bails) ->
              let what = Printf.sprintf "%s (%s): %s" c.lc_fn variant lbl in
              check_int (what ^ " runs") runs (site_count (fun r -> r.Interp.r_runs) rows lbl);
              check_int (what ^ " bails") bails (site_count (fun r -> r.Interp.r_bails) rows lbl))
            (if bail then c.lc_bail else c.lc_plain))
        lean_cases)
    [ false; true ]

(* --- parallel-DO chunk programs -------------------------------------------- *)

(* A parallel DO's chunk runs as one program that loops over the chunk,
   its DO variables, privates, reduction accumulators and the shared
   scalars it only reads in registers (DESIGN.md section 24).  Each case
   has one parallel DO; [!BAIL(v)] lines work as in [lean_src]
   ({!bail_variant}).  The
   leaves [half] (reads its dummy in place) and [setv] (writes its
   dummy) inline, [twice] and [peek] do not. *)
let chunk_src =
  {|
module chunkmod
  implicit none
  real*8 :: racc
  real*8 :: vec(64)
  real*8 :: grid2(7, 5)
end module chunkmod

real*8 function half(x)
  implicit none
  real*8 :: x
  half = x * 0.5d0
end function half

subroutine setv(x, v)
  implicit none
  real*8 :: x, v
  x = v
end subroutine setv

subroutine twice(t, n)
  implicit none
  real*8 :: t
  integer :: n, j
  do j = 1, n
    t = t * 2.0d0 + j
  end do
end subroutine twice

real*8 function peek(x)
  use chunkmod
  implicit none
  real*8 :: x
  peek = x * 0.5d0 + racc
end function peek

real*8 function c_sum(n)
  implicit none
  integer :: n, i
  real*8 :: acc, h
  h = 1.0d0 / n
  acc = 0.25d0
!$omp parallel do reduction(+:acc)
  do i = 1, n
!BAIL(i)
    acc = acc + 4.0d0 / (1.0d0 + ((i - 0.5d0) * h) ** 2) + half(h)
  end do
!$omp end parallel do
  c_sum = acc * h
end function c_sum

real*8 function c_prod(n)
  implicit none
  integer :: n, i, ip
  real*8 :: p
  p = 1.0d0
  ip = 3
!$omp parallel do reduction(*:p, ip)
  do i = 1, n
!BAIL(i)
    p = p * (1.0d0 + 1.0d0 / (i + 3))
    if (mod(i, 5) == 0) ip = ip * 2
  end do
!$omp end parallel do
  c_prod = p + ip
end function c_prod

real*8 function c_maxmin(n)
  implicit none
  integer :: n, i, kmax, kmin
  real*8 :: xmax, xmin
  xmax = -1.0d0
  xmin = 1.0d9
  kmax = -5
  kmin = 1000
!$omp parallel do reduction(max:xmax, kmax) reduction(min:xmin, kmin)
  do i = 1, n
!BAIL(i)
    xmax = max(xmax, sin(i * 0.37d0))
    xmin = min(xmin, cos(i * 0.11d0))
    kmax = max(kmax, mod(i * 7, 23))
    kmin = min(kmin, mod(i * 5, 17) - 3)
  end do
!$omp end parallel do
  c_maxmin = xmax + xmin * 10.0d0 + kmax * 100.0d0 + kmin * 1000.0d0
end function c_maxmin

real*8 function c_priv(n)
  use chunkmod
  implicit none
  integer :: n, i, m
  real*8 :: t, off, s
  off = 2.5d0
  t = 99.0d0
  m = 7
!$omp parallel do private(t, m) firstprivate(off)
  do i = 1, n
!BAIL(i)
    t = t + i
    m = i * 3
    off = off + 0.5d0
    vec(i) = t + off + m
  end do
!$omp end parallel do
  s = 0.0d0
  do i = 1, n
    s = s + vec(i) * i
  end do
  c_priv = s + t + off + m
end function c_priv

real*8 function c_coll(n)
  use chunkmod
  implicit none
  integer :: n, i, j
  real*8 :: s, w
  w = 0.5d0 + n
  s = 0.0d0
!$omp parallel do collapse(2) reduction(+:s)
  do i = 1, 7
    do j = 1, 5
!BAIL(j)
      if (mod(i + j, 3) == 0) cycle
      grid2(i, j) = i * 10.0d0 + j + w
      s = s + grid2(i, j)
    end do
  end do
!$omp end parallel do
  c_coll = s + grid2(7, 5) + grid2(2, 1) * 1000.0d0
end function c_coll

real*8 function c_exit(n)
  implicit none
  integer :: n, i, k
  real*8 :: s
  s = 0.5d0
  do k = 1, 3
!$omp parallel do reduction(+:s)
    do i = 1, n
!BAIL(i)
      s = s + i
      if (i == 5) exit
    end do
!$omp end parallel do
  end do
  c_exit = s + k * 100.0d0
end function c_exit

real*8 function c_exit_top(n)
  implicit none
  integer :: n, i
  real*8 :: s
  s = 0.5d0
!$omp parallel do reduction(+:s)
  do i = 1, n
!BAIL(i)
    s = s + i
    if (i == 5) exit
  end do
!$omp end parallel do
  c_exit_top = s
end function c_exit_top

real*8 function c_ret(n)
  implicit none
  integer :: n, i, k
  real*8 :: s
  s = 0.5d0
  c_ret = 7.0d0
  do k = 1, 3
!$omp parallel do reduction(+:s)
    do i = 1, n
!BAIL(i)
      s = s + i
      if (i == 5) return
    end do
!$omp end parallel do
  end do
  c_ret = s
end function c_ret

real*8 function c_actual(n)
  use chunkmod
  implicit none
  integer :: n, i
  real*8 :: t, s
!$omp parallel do private(t)
  do i = 1, n
!BAIL(i)
    t = i * 0.25d0
    call twice(t, 2)
    vec(i) = t
  end do
!$omp end parallel do
  s = 0.0d0
  do i = 1, n
    s = s + vec(i) * i
  end do
  c_actual = s
end function c_actual

real*8 function c_modred(n)
  use chunkmod
  implicit none
  integer :: n, i
  racc = 1.5d0
!$omp parallel do reduction(+:racc)
  do i = 1, n
!BAIL(i)
    racc = racc + peek(i * 1.0d0)
  end do
!$omp end parallel do
  c_modred = racc
end function c_modred

subroutine alias_loop(a, b, n, res)
  implicit none
  real*8 :: a, b, res
  integer :: n, i
  res = 0.0d0
!$omp parallel do reduction(+:res)
  do i = 1, n
!BAIL(i)
!$omp critical
    b = b + 1.0d0
    res = res + a
!$omp end critical
  end do
!$omp end parallel do
end subroutine alias_loop

real*8 function c_alias(n)
  implicit none
  integer :: n
  real*8 :: x, r
  x = 0.5d0
  call alias_loop(x, x, n, r)
  c_alias = r + x * 1000.0d0
end function c_alias

real*8 function c_leafw(n)
  implicit none
  integer :: n, i
  real*8 :: y, z, w, s
  y = 1.0d0
  z = 3.0d0
  s = 0.0d0
!$omp parallel do private(w) reduction(+:s)
  do i = 1, n
!BAIL(i)
    w = z + i
!$omp critical
    call setv(y, w)
    s = s + y * z
!$omp end critical
  end do
!$omp end parallel do
  c_leafw = s
end function c_leafw
|}

(* The VM matches the tree-walker: bit for bit at 1 thread, and at 4
   within the [verify] tolerance (a schedule that hands chunks to
   threads dynamically may reassociate a floating-point reduction). *)
let assert_chunk_same what ~threads ~sched cu fname =
  let args = [ Ast.Int_lit 23 ] in
  if threads = 1 then assert_same what ~sched cu fname args
  else
    let a = run_engine ~bytecode:true ~threads ~sched cu fname args in
    let b = run_engine ~bytecode:false ~threads ~sched cu fname args in
    Alcotest.(check (option string)) (what ^ ": error") b.r_error a.r_error;
    match (a.r_value, b.r_value) with
    | Some (Some (Value.Real x)), Some (Some (Value.Real y)) ->
      check_bool (Printf.sprintf "%s: %.17g ~ %.17g" what x y) true
        (Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs y))
    | _ -> check_bool (what ^ ": both raised") true (a.r_value = None && b.r_value = None)

(* Per case: the "omp-do" (runs, bails) counts of one call at 1 thread,
   as written; the [!BAIL] variant swaps them.  The
   EXIT and RETURN cases branch out of the region, which OpenMP
   forbids: both engines raise the named error at every thread count
   and schedule. *)
let exit_error = Some "EXIT branches out of a PARALLEL DO region"
let return_error = Some "RETURN branches out of a PARALLEL DO region"

let chunk_cases =
  [
    ("c_sum", (1, 0), None);
    ("c_prod", (1, 0), None);
    ("c_maxmin", (1, 0), None);
    ("c_priv", (1, 0), None);
    ("c_coll", (1, 0), None);
    ("c_exit", (1, 0), exit_error);
    ("c_exit_top", (1, 0), exit_error);
    ("c_ret", (1, 0), return_error);
    ("c_actual", (1, 0), None);
    ("c_modred", (1, 0), None);
    ("c_alias", (1, 0), None);
    ("c_leafw", (1, 0), None);
  ]

let chunk_scheds =
  [
    ("static", Sched.Static);
    ("chunk:4", Sched.Static_chunked 4);
    ("dynamic:3", Sched.Dynamic 3);
    ("guided:2", Sched.Guided 2);
  ]

let test_chunk_battery () =
  List.iter
    (fun bail ->
      let cu = Parser.parse_string (bail_variant ~bail chunk_src) in
      let variant = if bail then "bail" else "plain" in
      List.iter
        (fun (fname, (runs, bails), error) ->
          List.iter
            (fun (sname, sched) ->
              List.iter
                (fun threads ->
                  let what = Printf.sprintf "%s (%s, %s), %d threads" fname variant sname threads in
                  assert_chunk_same what ~threads ~sched cu fname;
                  if error <> None then
                    Alcotest.(check (option string)) (what ^ ": structured error")
                      (Option.map (( ^ ) "fortran: ") error)
                      (run_engine ~bytecode:false ~threads ~sched cu fname [ Ast.Int_lit 23 ]).r_error)
                [ 1; 4 ])
            chunk_scheds;
          Interp.reset_bytecode_stats ();
          let st = Interp.make_state ~printer:ignore cu in
          Interp.set_threads st 1;
          let what = Printf.sprintf "%s (%s): omp-do" fname variant in
          Alcotest.(check (option string)) (what ^ " error") error
            (match Interp.call st fname [ Ast.Int_lit 23 ] with
            | _ -> None
            | exception Interp.Fortran_error m -> Some m);
          let rows = Interp.bytecode_stats_for st in
          let runs, bails = if bail then (bails, runs) else (runs, bails) in
          check_int (what ^ " runs") runs (site_count (fun r -> r.Interp.r_runs) rows "omp-do");
          check_int (what ^ " bails") bails (site_count (fun r -> r.Interp.r_bails) rows "omp-do"))
        chunk_cases)
    [ false; true ]

(* --- nested parallel regions ------------------------------------------------- *)

(* Subroutines that hold a PARALLEL DO, called from a PARALLEL DO's
   body.  The inner regions run with a team of one (OpenMP's default
   nesting, {!Pool.team_size}), even under an inner NUM_THREADS clause,
   so each seeds its reductions from the shared value and folds in
   serial order.  The outer loops combine only exact reductions (max,
   integer +) and write disjoint array cells, so at any thread count
   the result is bit-identical to the 1-thread tree-walker.  Each inner
   result lands in its own module array cell: a sum over all of them
   would round away a last-bit difference.  At 2
   threads under the static schedule, outer iterations 1..8 run on the
   master's chunk and 9..16 on a worker's. *)
let nest_src =
  {|
module nestmod
  implicit none
  real*8 :: av(16), bv(16), cv(16), dv(16)
  real*8 :: rowv(12, 16)
end module nestmod

subroutine inner_sum(k, m, s)
  implicit none
  integer :: k, m, j
  real*8 :: s
  s = 0.125d0 * k
!$omp parallel do reduction(+:s)
  do j = 1, m
    s = s + 1.0d0 / (j + k * 0.37d0)
  end do
!$omp end parallel do
end subroutine inner_sum

subroutine inner_max(k, m, x, kk)
  implicit none
  integer :: k, m, j, kk
  real*8 :: x
  x = -2.0d0
  kk = -100
!$omp parallel do reduction(max:x, kk)
  do j = 1, m
    x = max(x, sin(j * 0.31d0 + k))
    kk = max(kk, mod(j * 7 + k, 19))
  end do
!$omp end parallel do
end subroutine inner_max

subroutine inner_priv(k, m, off, r)
  use nestmod
  implicit none
  integer :: k, m, j
  real*8 :: off, r, t
  r = 0.0d0
  t = 5.0d0
!$omp parallel do private(t) firstprivate(off) reduction(+:r)
  do j = 1, m
    t = j * 0.5d0 + k
    off = off + 0.25d0
    rowv(j, k) = t * off
    r = r + rowv(j, k) / 3.0d0
  end do
!$omp end parallel do
  r = r + t + off
end subroutine inner_priv

subroutine inner_nt(k, m, s)
  implicit none
  integer :: k, m, j
  real*8 :: s
  s = 1.0d0
!$omp parallel do reduction(+:s) num_threads(4)
  do j = 1, m
    s = s + sqrt(j * 1.0d0 + k) / (j + 2)
  end do
!$omp end parallel do
end subroutine inner_nt

real*8 function n_drive(n)
  use nestmod
  implicit none
  integer :: n, k, kk, cnt
  real*8 :: a, b, c, d, big, total
  big = -1.0d0
  cnt = 0
!$omp parallel do private(a, b, c, d, kk) reduction(max:big) reduction(+:cnt)
  do k = 1, n
    call inner_sum(k, 37, a)
    call inner_max(k, 23, b, kk)
    call inner_priv(k, 12, 0.5d0 * k, c)
    call inner_nt(k, 29, d)
    av(k) = a
    bv(k) = b
    cv(k) = c
    dv(k) = d
    big = max(big, a + d)
    cnt = cnt + kk
  end do
!$omp end parallel do
  n_drive = big * 1000.0d0 + cnt
end function n_drive

real*8 function n_firstp(n)
  use nestmod
  implicit none
  integer :: n, k
  real*8 :: base, c
  base = 0.75d0
!$omp parallel do private(c) firstprivate(base) schedule(dynamic, 1)
  do k = 1, n
    call inner_priv(k, 12, base + k, c)
    cv(k) = c
  end do
!$omp end parallel do
  n_firstp = base
end function n_firstp
|}

(* One call: the function value and the module arrays, as bit
   patterns, plus the number of regions that reached the pool. *)
let nest_run ~bytecode ~threads cu fname =
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st threads;
  Interp.set_bytecode st bytecode;
  Pool.reset_stats ();
  let v = Interp.call st fname [ Ast.Int_lit 16 ] in
  let pooled = (Pool.stats ()).Pool.regions in
  let bits var =
    Farray.fold
      (fun acc c ->
        match c with Farray.Cf x -> Int64.bits_of_float x :: acc | _ -> acc)
      [] (Interp.module_array st ~module_name:"nestmod" ~var)
  in
  ( (match v with Some (Value.Real x) -> Int64.bits_of_float x | _ -> 0L),
    List.map bits [ "av"; "bv"; "cv"; "dv"; "rowv" ],
    pooled )

(* Both engines at 1, 2 and 4 threads match the 1-thread tree-walker
   bit for bit, and only the outer region ever reaches the pool. *)
let test_nested_battery () =
  let cu = Parser.parse_string nest_src in
  List.iter
    (fun fname ->
      let ref_value, ref_arrays, _ = nest_run ~bytecode:false ~threads:1 cu fname in
      List.iter
        (fun threads ->
          List.iter
            (fun bytecode ->
              let what =
                Printf.sprintf "%s (%s), %d threads" fname
                  (if bytecode then "bytecode" else "tree-walk") threads
              in
              let value, arrays, pooled = nest_run ~bytecode ~threads cu fname in
              check_bool (what ^ ": value bits") true (Int64.equal ref_value value);
              check_bool (what ^ ": module array bits") true (ref_arrays = arrays);
              check_int (what ^ ": pooled regions") (if threads > 1 then 1 else 0) pooled)
            [ true; false ])
        [ 1; 2; 4 ])
    [ "n_drive"; "n_firstp" ]

(* --- parallel DO inside compiled code ------------------------------------------ *)

(* A parallel DO inside a compiled body, a subprogram or a chunk
   program, is one instruction that hands the loop to the region entry
   on the frame's scope (DESIGN.md section 13).  Every result here is
   schedule-independent (exact sums, disjoint writes), so at 1, 2 and 4
   threads, under every schedule, both engines must match the 1-thread
   tree-walker bit for bit.  [o_kind]: the REAL dummy of [lhalfk]
   rewrites the INTEGER local [k] in place, so the frame that reads [k]
   after the loop may not run typed.  [o_nest]: a parallel DO directly
   inside another's body, so the outer chunk program holds the
   instruction.  [o_after]: typed code reads a REDUCTION result and a
   FIRSTPRIVATE source after the loop.  [o_serial]: the instruction
   inside a serial DO, next to a register home the loop never names.
   [o_alloc]: the loop ALLOCATEs a module and a local array that the
   frame then fills and reads.  [o_exit] and [o_ret] branch out of the
   region. *)
let omp_src =
  {|
module ompmod
  implicit none
  real*8, allocatable :: buf(:)
  real*8 :: tri(16, 16)
end module ompmod

real*8 function lhalfk(a)
  real*8 :: a
  lhalfk = a * 0.5d0
end function lhalfk

real*8 function o_kind(n)
  integer :: n, i, k
  real*8 :: s
!BAIL(n)
  k = 2
  s = 0.0d0
!$omp parallel do reduction(+:s)
  do i = 1, n
    s = s + i + lhalfk(k)
  end do
!$omp end parallel do
  o_kind = s + k / 2 + mod(k, 2) * 1000
end function o_kind

real*8 function o_nest(n)
  use ompmod
  implicit none
  integer :: n, i, j
  real*8 :: s, t
!BAIL(n)
  s = 0.0d0
!$omp parallel do private(t) reduction(+:s)
  do i = 1, n
    t = 0.0d0
!$omp parallel do reduction(+:t)
    do j = 1, i
      t = t + j * 0.5d0
      tri(j, i) = t + i
    end do
!$omp end parallel do
    s = s + t + tri(1, i)
  end do
!$omp end parallel do
  o_nest = s
end function o_nest

real*8 function o_after(n)
  implicit none
  integer :: n, i, cnt, k
  real*8 :: s, base, x
!BAIL(n)
  s = 1.5d0
  base = 0.25d0
  cnt = 0
!$omp parallel do firstprivate(base) private(x) reduction(+:s, cnt)
  do i = 1, n
    x = base * i
    s = s + x
    cnt = cnt + i
  end do
!$omp end parallel do
  k = 0
  do i = 1, 3
    k = k + cnt
  end do
  o_after = s * 1000.0d0 + base + k + i
end function o_after

real*8 function o_serial(n)
  implicit none
  integer :: n, i, k, m
  real*8 :: s
!BAIL(n)
  s = 0.0d0
  m = 0
  do k = 1, 3
    m = m + k
!$omp parallel do reduction(+:s)
    do i = 1, n
      s = s + k * i
    end do
!$omp end parallel do
  end do
  o_serial = s + m * 1000 + k * 100000
end function o_serial

real*8 function o_alloc(n)
  use ompmod
  implicit none
  integer :: n, i
  real*8 :: s
  real*8, allocatable :: w(:)
!BAIL(n)
  s = 0.0d0
!$omp parallel do
  do i = 1, n
    if (i == n) then
      allocate(buf(n))
    end if
    if (i == 1) then
      allocate(w(2 * n))
    end if
  end do
!$omp end parallel do
  do i = 1, n
    buf(i) = i * 0.5d0
    w(2 * i) = buf(i) * 3.0d0
  end do
  do i = 1, n
    s = s + buf(i) + w(2 * i)
  end do
  deallocate(buf)
  o_alloc = s
end function o_alloc

integer function o_exit(n)
  implicit none
  integer :: n, i, k
!BAIL(n)
  k = 0
!$omp parallel do reduction(+:k)
  do i = 1, n
    k = k + i
    if (i == 3) exit
  end do
!$omp end parallel do
  o_exit = k
end function o_exit

integer function o_ret(n)
  implicit none
  integer :: n, i, k
!BAIL(n)
  k = 0
!$omp parallel do reduction(+:k)
  do i = 1, n
    k = k + i
    if (i == 3) return
  end do
!$omp end parallel do
  o_ret = k
end function o_ret
|}

(* Per driver: whether its own body runs on the VM as written, the
   bails of its other sites, and the error both engines raise, if any.
   [o_kind] passes its INTEGER [k] to [lhalfk]'s REAL dummy, which the
   redeclaration quirk makes Real: the driver's bind is refused, its
   chunk program (with [lhalfk] inlined) does not compile, and each of
   the 16 tree-walked calls of [lhalfk] is refused its bind — 17 bails
   besides its own.  No site of any other driver bails, so [o_nest]'s
   outer chunk program compiles with the inner loop's instruction in
   it. *)
let omp_cases =
  [
    ("o_kind", false, 17, None);
    ("o_nest", true, 0, None);
    ("o_after", true, 0, None);
    ("o_serial", true, 0, None);
    ("o_alloc", true, 0, None);
    ("o_exit", true, 0, exit_error);
    ("o_ret", true, 0, return_error);
  ]

let test_omp_do_battery () =
  List.iter
    (fun bail ->
      let cu = Parser.parse_string (bail_variant ~bail omp_src) in
      let variant = if bail then "bail" else "plain" in
      List.iter
        (fun (fname, on_vm, other_bails, error) ->
          let args = [ Ast.Int_lit 16 ] in
          let reference = run_engine ~bytecode:false ~threads:1 cu fname args in
          Alcotest.(check (option string)) (fname ^ ": reference error")
            (Option.map (( ^ ) "fortran: ") error) reference.r_error;
          List.iter
            (fun (sname, sched) ->
              List.iter
                (fun threads ->
                  List.iter
                    (fun bytecode ->
                      let what =
                        Printf.sprintf "%s (%s, %s, %s), %d threads" fname variant sname
                          (if bytecode then "bytecode" else "tree-walk") threads
                      in
                      let r = run_engine ~bytecode ~threads ~sched cu fname args in
                      Alcotest.(check (option string)) (what ^ ": error") reference.r_error r.r_error;
                      check_bool (what ^ ": value bits") true
                        (match (reference.r_value, r.r_value) with
                        | Some a, Some b -> value_opt_eq a b
                        | None, None -> true
                        | _ -> false))
                    [ true; false ])
                [ 1; 2; 4 ])
            chunk_scheds;
          let rows, _ = vm_run cu fname args in
          let on_vm = on_vm && not bail in
          let own = "sub " ^ fname in
          let what = Printf.sprintf "%s (%s): %s" fname variant own in
          check_int (what ^ " runs") (if on_vm then 1 else 0) (site_count (fun r -> r.Interp.r_runs) rows own);
          check_int (what ^ " bails") (if on_vm then 0 else 1) (site_count (fun r -> r.Interp.r_bails) rows own);
          check_int (fname ^ ": bails at any other site") other_bails
            (List.fold_left (fun a r -> if r.Interp.r_label = own then a else a + r.Interp.r_bails) 0 rows))
        omp_cases)
    [ false; true ]

(* --- allocation per compiled call ------------------------------------------ *)

(* A FUN3D-shaped callee (cf. edge_loop): two array dummies, two
   INTEGER actuals aliased from the caller, a dozen private scalars and
   SAVE allocatables behind an allocated() guard, called from a compiled
   loop.  Once its frame exists, a call stages the aliases into the
   frame's dummy slots, runs the typed body and leaves nothing behind
   on the heap. *)
let edge_src =
  {|
module edge_mesh
  implicit none
  integer, parameter :: nq = 5
  real*8, allocatable :: qsum(:)
end module edge_mesh

subroutine edge_like(c, e, qn, grad)
  use edge_mesh
  implicit none
  integer :: c
  integer :: e
  real*8 :: qn(nq, 4)
  real*8 :: grad(3, nq)
  real*8, allocatable, save :: fl(:)
  real*8, allocatable, save :: df(:)
  integer :: p1, p2, n1, n2, i, k
  real*8 :: w, a, b, t, u, v
  if (.not. allocated(fl)) then
    allocate(fl(nq))
  end if
  if (.not. allocated(df)) then
    allocate(df(nq))
  end if
  p1 = mod(e, 4) + 1
  p2 = mod(e + 1, 4) + 1
  n1 = c + p1
  n2 = c + p2
  w = 0.5d0 * p1 + 0.25d0 * p2
  k = 0
  do i = 1, nq
    a = qn(i, p1)
    b = qn(i, p2)
    t = 0.5d0 * (a + b)
    u = b - a
    v = grad(1, i) * 0.31d0 + grad(2, i) * 0.21d0 - grad(3, i) * 0.11d0
    fl(i) = t * w + v
    df(i) = u * 0.05d0 + fl(i)
    k = k + n1 - n2
    qn(i, p1) = qn(i, p1) + df(i) * 1.0d-6 + k * 1.0d-9
  end do
end subroutine edge_like

real*8 function drive_edges(n)
  use edge_mesh
  implicit none
  integer :: n
  real*8 :: qn(nq, 4)
  real*8 :: grad(3, nq)
  integer :: c, e, i, p
  real*8 :: s
  do p = 1, 4
    do i = 1, nq
      qn(i, p) = i * 0.5d0 + p
    end do
  end do
  do i = 1, nq
    grad(1, i) = i * 0.1d0
    grad(2, i) = i * 0.2d0
    grad(3, i) = i * 0.3d0
  end do
  do c = 1, n
    e = mod(c, 6) + 1
    call edge_like(c, e, qn, grad)
  end do
  s = 0.0d0
  do p = 1, 4
    do i = 1, nq
      s = s + qn(i, p)
    end do
  end do
  drive_edges = s
end function drive_edges
|}

(* A FUN3D flux sweep (cf. edge_loop's flux step): four locals loaded
   from arrays and passed to an inlined read-only leaf (cf.
   combine_flux) on every iteration of a DO.  The leaf reads the
   locals' registers in place, so an iteration stores nothing on the
   heap. *)
let flux_src =
  {|
real*8 function comb(flv, wrv, wlv, dissv)
  implicit none
  real*8 :: flv, wrv, wlv, dissv
  comb = (flv + wrv) / wlv + dissv * 0.0d0
  return
end function comb

real*8 function flux_sweep(n)
  implicit none
  integer :: n
  real*8 :: fl(8), wr(8), wl(8), diss(8), df(8)
  integer :: i, k
  real*8 :: flv, wrv, wlv, dissv, s
  do i = 1, 8
    fl(i) = i * 0.5d0
    wr(i) = i * 0.25d0 + 1.0d0
    wl(i) = 1.0d0 + i
    diss(i) = 0.05d0 * i
  end do
  s = 0.0d0
  do k = 1, n
    do i = 1, 8
      flv = fl(i)
      wrv = wr(i)
      wlv = wl(i)
      dissv = diss(i)
      df(i) = comb(flv, wrv, wlv, dissv)
    end do
    s = s + df(k - (k - 1) / 8 * 8)
  end do
  flux_sweep = s
end function flux_sweep
|}

(* Minor-heap words per flux-sweep iteration the sweep must stay
   under.  0 are measured; when the leaf's actuals were scope slots,
   each of the four local stores boxed a float into a slot, 24 words
   an iteration. *)
let words_per_iteration_bound = 2.0

(* Minor-heap words per compiled call the call path must stay under.
   About 8 are measured, all of them the caller's stores of its two
   actuals; marshalling each call through binding lists and slot
   stores cost about 480. *)
let words_per_call_bound = 16.0

let test_call_allocation () =
  let cu = Parser.parse_string edge_src in
  let rows = assert_typed_same "FUN3D-shaped calls" cu "drive_edges" [ Ast.Int_lit 40 ] in
  check_int "edge_like never bailed" 0 (site_count (fun r -> r.Interp.r_bails) rows "sub edge_like");
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st 1;
  (* the first call compiles, plans and leaves the callee's frame *)
  ignore (Interp.call st "drive_edges" [ Ast.Int_lit 2 ]);
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  ignore (Interp.call st "drive_edges" [ Ast.Int_lit calls ]);
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  check_bool
    (Printf.sprintf "%.1f minor words per call <= %.0f" per_call words_per_call_bound)
    true
    (per_call <= words_per_call_bound);
  let cu = Parser.parse_string flux_src in
  let rows = assert_typed_same "flux sweep" cu "flux_sweep" [ Ast.Int_lit 30 ] in
  check_int "comb inlined" 0 (site_count (fun r -> r.Interp.r_runs + r.Interp.r_bails) rows "sub comb");
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st 1;
  ignore (Interp.call st "flux_sweep" [ Ast.Int_lit 2 ]);
  let sweeps = 5_000 in
  let w0 = Gc.minor_words () in
  ignore (Interp.call st "flux_sweep" [ Ast.Int_lit sweeps ]);
  let per_iter = (Gc.minor_words () -. w0) /. float_of_int (8 * sweeps) in
  check_bool
    (Printf.sprintf "%.2f minor words per flux iteration <= %.0f" per_iter words_per_iteration_bound)
    true
    (per_iter <= words_per_iteration_bound)

(* --- example scripts ----------------------------------------------------- *)

(* The script functions take array parameters the calls-file syntax
   cannot express, so each gets a Fortran driver appended to the
   generated source that fills the arrays and forwards the call. *)

let script_unit ?(prelude = "") name driver =
  let compiled = Serve.compile (read_file (Filename.concat scripts name)) in
  Parser.parse_string (prelude ^ compiled.Serve.co_source ^ driver)

let test_saxpy_diff () =
  let cu =
    script_unit "saxpy.gpi"
      {|
real*8 function drive_axpy(n)
  use m
  implicit none
  integer :: n
  integer :: i
  real*8 :: x(n)
  real*8 :: y(n)
  do i = 1, n
    x(i) = i * 0.5d0
    y(i) = (n - i) * 0.25d0
  end do
  drive_axpy = axpy(n, 2.0d0, x, y) + y(1) + y(n)
end function drive_axpy
|}
  in
  (* axpy carries a float +-reduction: deterministic per engine at one
     thread under every schedule, and at any thread count under the
     static schedules (fixed chunk->thread map, fixed combine order). *)
  List.iter
    (fun (sname, sched) ->
      assert_same ("saxpy " ^ sname) ~threads:1 ?sched cu "drive_axpy"
        [ Ast.Int_lit 1000 ])
    all_scheds;
  List.iter
    (fun threads ->
      assert_same
        (Printf.sprintf "saxpy static t=%d" threads)
        ~threads ~sched:Sched.Static cu "drive_axpy" [ Ast.Int_lit 1000 ])
    [ 2; 4 ]

let test_point_charge_diff () =
  let cu =
    script_unit "point_charge.gpi"
      {|
real*8 function drive_charge(n)
  use module1
  implicit none
  integer :: n
  integer :: i
  real*8 :: charge(n)
  real*8 :: xs(n)
  do i = 1, n
    charge(i) = (mod(i, 5) - 2) * 1.0d-9
    xs(i) = i * 0.01d0
  end do
  drive_charge = calc_point_charge(n, charge, xs, 1.2345d0)
end function drive_charge
|}
  in
  List.iter
    (fun (sname, sched) ->
      assert_same ("point_charge " ^ sname) ~threads:1 ?sched cu "drive_charge"
        [ Ast.Int_lit 500 ])
    all_scheds;
  assert_same "point_charge static t=4" ~threads:4 ~sched:Sched.Static cu
    "drive_charge" [ Ast.Int_lit 500 ]

(* legacy_radiation integrates against pre-existing modules and a
   COMMON block; the test supplies minimal versions of both, then
   compares the module-resident result array cell by cell. *)
let test_legacy_radiation_diff () =
  let cu =
    script_unit
      ~prelude:
        {|
module fuinput
  implicit none
  integer :: nv1
  real*8 :: pt(61)
end module fuinput

module fuoutput
  implicit none
  type :: fu_out_t
    real*8 :: fwin(61)
  end type fu_out_t
  type(fu_out_t) :: fo
end module fuoutput
|}
      "legacy_radiation.gpi"
      {|
subroutine drive_window(scale)
  use fuinput
  use patch
  implicit none
  real*8 :: scale
  real*8 :: wnwin
  integer :: k
  common /entcon/ wnwin
  wnwin = scale
  nv1 = 60
  do k = 1, 61
    pt(k) = 200.0d0 + k * 1.5d0
  end do
  call window_flux()
end subroutine drive_window
|}
  in
  let fwin ~bytecode ~threads sched =
    let st = Interp.make_state ~printer:ignore cu in
    Interp.set_threads st threads;
    (match sched with Some s -> Interp.set_schedule st s | None -> ());
    Interp.set_bytecode st bytecode;
    ignore (Interp.call st "drive_window" [ Ast.Real_lit (0.731, true) ]);
    Interp.module_struct_array st ~module_name:"fuoutput" ~var:"fo"
      ~field:"fwin"
  in
  List.iter
    (fun (sname, sched) ->
      let a = fwin ~bytecode:true ~threads:4 sched in
      let b = fwin ~bytecode:false ~threads:4 sched in
      check_bool
        ("window_flux fwin identical, " ^ sname)
        true
        (Farray.equal_content a b);
      (* the driver really did something *)
      check_bool ("window_flux nonzero, " ^ sname) true (Farray.rms a > 0.0))
    all_scheds

(* --- batch serving ------------------------------------------------------- *)

let quad_compiled () = Serve.compile (read_file (scripts ^ "/quad_sweep.gpi"))
let quad_calls () = Serve.parse_calls (read_file (scripts ^ "/quad_sweep.calls"))

(* Compare two served batches outcome by outcome: same per-call
   values (bit-exact), same captured PRINT output, same fault
   classification for failed calls.  Timing fields are ignored. *)
let assert_batches_same name (a : Serve.batch) (b : Serve.batch) =
  check_int (name ^ ": ok count") b.Serve.b_ok a.Serve.b_ok;
  check_int (name ^ ": failed count") b.Serve.b_failed a.Serve.b_failed;
  check_int (name ^ ": result count")
    (List.length b.Serve.b_results)
    (List.length a.Serve.b_results);
  List.iter2
    (fun (ca, ra) (cb, rb) ->
      let where =
        Printf.sprintf "%s: line %d %s" name ca.Serve.cl_line ca.Serve.cl_name
      in
      check_int (where ^ ": same call") cb.Serve.cl_line ca.Serve.cl_line;
      match (ra, rb) with
      | Ok oa, Ok ob ->
        check_bool
          (where ^ ": value bit-identical")
          true
          (value_opt_eq oa.Serve.oc_value ob.Serve.oc_value);
        check_string (where ^ ": output") ob.Serve.oc_output oa.Serve.oc_output
      | Error fa, Error fb ->
        check_string (where ^ ": fault") (Fault.to_string fb)
          (Fault.to_string fa)
      | Ok _, Error f ->
        Alcotest.fail (where ^ ": only tree-walk failed: " ^ Fault.to_string f)
      | Error f, Ok _ ->
        Alcotest.fail (where ^ ": only bytecode failed: " ^ Fault.to_string f))
    a.Serve.b_results b.Serve.b_results

let test_serve_schedules_diff () =
  let compiled = quad_compiled () and calls = quad_calls () in
  List.iter
    (fun (sname, sched) ->
      let run bytecode =
        Serve.run_calls ~threads:1 ?sched ~bytecode compiled calls
      in
      assert_batches_same ("serve " ^ sname) (run true) (run false))
    all_scheds

let test_serve_concurrent_diff () =
  let compiled = quad_compiled () and calls = quad_calls () in
  let run bytecode =
    Serve.run_calls ~concurrency:3 ~threads:1 ~bytecode compiled calls
  in
  assert_batches_same "serve concurrency=3" (run true) (run false)

(* Under an installed fault plan both engines must fail the same call
   with the same classification: region numbering is identical because
   chunk dispatch is engine-independent. *)
let test_serve_inject_diff () =
  let compiled = quad_compiled () and calls = quad_calls () in
  let plan =
    match Faultinject.parse_plan "fail-region:2,delay-chunk:1:1" with
    | Ok p -> p
    | Error m -> Alcotest.fail ("bad plan: " ^ m)
  in
  let run bytecode =
    Faultinject.set_plan plan;
    Fun.protect
      ~finally:(fun () -> Faultinject.clear ())
      (fun () -> Serve.run_calls ~threads:1 ~bytecode compiled calls)
  in
  let a = run true and b = run false in
  check_int "one injected failure" 1 a.Serve.b_failed;
  assert_batches_same "serve inject" a b

(* --- case-study workloads ------------------------------------------------ *)

let bits = Int64.bits_of_float

let assert_sarb_same name (a : Sarb.run_result) (b : Sarb.run_result) =
  check_bool (name ^ ": checksum bit-identical") true
    (bits a.Sarb.checksum = bits b.Sarb.checksum);
  check_bool (name ^ ": toa bit-identical") true
    (bits a.Sarb.toa_lw = bits b.Sarb.toa_lw
    && bits a.Sarb.toa_sw = bits b.Sarb.toa_sw);
  List.iter
    (fun (fname, fa, fb) ->
      check_bool
        (Printf.sprintf "%s: %s identical" name fname)
        true (Farray.equal_content fa fb))
    [
      ("fuir", a.Sarb.fuir, b.Sarb.fuir);
      ("fdir", a.Sarb.fdir, b.Sarb.fdir);
      ("fds", a.Sarb.fds, b.Sarb.fds);
      ("sen_lw", a.Sarb.sen_lw, b.Sarb.sen_lw);
    ]

let test_sarb_diff () =
  List.iter
    (fun (label, threads, v) ->
      assert_sarb_same label
        (Sarb.run ~threads ~bytecode:true v)
        (Sarb.run ~threads ~bytecode:false v))
    [
      ("sarb original serial", 1, Sarb.Original_serial);
      ("sarb glaf serial", 1, Sarb.Glaf_serial);
      ("sarb glaf parallel v0 t=3", 3, Sarb.Glaf_parallel Directive_policy.V0);
      ("sarb glaf parallel v2 t=3", 3, Sarb.Glaf_parallel Directive_policy.V2);
    ]

let test_fun3d_diff () =
  List.iter
    (fun (label, v) ->
      let a = Fun3d.run ~threads:1 ~ncell:60 ~bytecode:true v in
      let b = Fun3d.run ~threads:1 ~ncell:60 ~bytecode:false v in
      check_bool (label ^ ": rms bit-identical") true
        (bits a.Fun3d.rms = bits b.Fun3d.rms);
      check_bool (label ^ ": rms finite") true (Float.is_finite a.Fun3d.rms))
    [
      ("fun3d original", Fun3d.Original_serial);
      ("fun3d glaf serial", Fun3d.Glaf Fun3d_glaf.serial_options);
      ("fun3d glaf best", Fun3d.Glaf Fun3d_glaf.best_options);
    ]

(* --- fused jumps, home destinations, hoisted loads ------------------------- *)

(* One driver per rewrite of DESIGN.md section 27.  [f_homes]: homes
   assigned from expressions that read the same home, from inlined leaf
   results (one through a RETURN), from call results, across kinds,
   from other homes just written (a zeroed local, a finished DO
   variable) and from a slot load in a loop that changes the home.
   [f_short]: .and./.or. in IF and DO WHILE conditions whose right
   operand calls [bump], which counts its calls in a module scalar.
   [f_nan]: REAL comparisons with a NaN operand, ordered like
   [Float.compare], and max/min with a NaN first or second argument,
   which pick with IEEE [>]/[<].  [f_alloc]: .not. allocated(), taken and not.
   [f_nohoist]: loops whose slot loads must stay in the loop: one
   calls a routine that writes the dummy, one a leaf that does (inlined),
   one passes [k] twice to [alias_sum], whose loop reads one alias and
   writes the other.  [f_crit]: a parallel DO whose CRITICAL loop reads
   a module scalar, a dummy and a fresh local, then a serial loop that
   reads the module scalar with nothing that can change it.  [f_par]
   runs [f_homes] and [f_nohoist] in a parallel DO. *)
let fuse_src =
  {|
module fusemod
  implicit none
  integer :: cnt
  integer :: shared_k
  integer :: hist(32)
  real*8, allocatable :: buf(:)
end module fusemod

real*8 function hsum(a, b)
  implicit none
  real*8 :: a, b
  hsum = a * 0.25d0 + b
end function hsum

real*8 function clampv(a, b)
  implicit none
  real*8 :: a, b
  if (a > b .or. a /= a) then
    clampv = b
    return
  end if
  clampv = a
end function clampv

integer function isteps(k)
  implicit none
  integer :: k, j, s
  s = 0
  do j = 1, k
    s = s + j
  end do
  isteps = s
end function isteps

real*8 function f_homes(n)
  implicit none
  integer :: n
  integer :: i, k, m
  real*8 :: x, y, z, w, u
  x = u
  x = x + 1.5d0 + w
  y = 0.0d0
  k = 3
  m = 0
  do i = 1, n
    x = x * 0.5d0 + x / 3.0d0
    x = -x + i
    k = k * 2 - k / 3
    k = mod(k, 1000)
    y = hsum(x, y)
    x = hsum(y, x)
    z = clampv(x, y)
    m = isteps(i + 0)
    m = isteps(mod(k, 7)) + m
    z = z + k
    k = x * 10.0d0
    w = m - 1
    y = w
  end do
  k = i
  m = m + i
  do i = 1, 3
    m = n
    m = m + i
    k = k + m
  end do
  f_homes = x + y + z + k + m + w + u
end function f_homes

logical function bump(k)
  use fusemod
  implicit none
  integer :: k
  cnt = cnt + 1
  bump = mod(k, 3) == 0
end function bump

integer function f_short(n)
  use fusemod
  implicit none
  integer :: n, i, k, hits
  cnt = 0
  hits = 0
  do i = 1, n
    if (mod(i, 2) == 0 .and. bump(i)) hits = hits + 1
    if (mod(i, 5) == 0 .or. bump(i + 1)) hits = hits + 10
    if (.not. (i > 3 .and. bump(i)) .or. i == 7) then
      hits = hits + 100
    else if (i < 2 .or. bump(i + 2) .and. i > 5) then
      hits = hits + 1000
    else
      hits = hits + 10000
    end if
  end do
  k = 0
  do while (k < n .and. (.not. bump(k) .or. k < 4))
    k = k + 1
  end do
  hits = hits + 100000 * k
  k = 0
  do while (.not. (k >= n .or. bump(k + 100)))
    k = k + 1
  end do
  f_short = hits + 1000000 * k + 10000000 * cnt
end function f_short

integer function f_nan(n)
  implicit none
  integer :: n, i, r
  real*8 :: x, y, m1
  m1 = -1.0d0
  x = sqrt(m1)
  r = 0
  do i = 1, n
    y = i - 3
    if (i == 5) y = x
    r = r * 2
    if (x < y) r = r + 1
    if (x > y) r = r + 3
    if (x <= y) r = r + 5
    if (x >= y) r = r + 7
    if (x == y) r = r + 11
    if (x /= y) r = r + 13
    if (y < x) r = r + 17
    if (.not. (y >= x)) r = r + 19
    if (y == y .and. x < i) r = r + 23
    if (x > i .or. y /= i) r = r + 29
    if (max(x, y) < -1.0d9) r = r + 31
    if (max(y, x) < -1.0d9) r = r + 37
    if (min(x, y) < -1.0d9) r = r + 41
    if (min(y, x) < -1.0d9) r = r + 43
    r = mod(r, 1000003)
  end do
  f_nan = r
end function f_nan

integer function f_alloc(n)
  use fusemod
  implicit none
  integer :: n, r, i
  real*8, allocatable, save :: loc(:)
  r = 0
  if (.not. allocated(buf)) then
    allocate(buf(n))
    r = r + 1
  end if
  if (.not. allocated(buf)) r = r + 10
  if (allocated(buf)) r = r + 100
  deallocate(buf)
  if (allocated(buf) .or. n < 0) r = r + 1000
  if (.not. allocated(buf) .and. n > 0) r = r + 10000
  do i = 1, 3
    if (.not. allocated(loc)) then
      allocate(loc(i + 1))
      r = r + 100000
    end if
  end do
  deallocate(loc)
  f_alloc = r
end function f_alloc

subroutine wrk(k)
  implicit none
  integer :: k, j
  do j = 1, 2
    k = k + 1
  end do
end subroutine wrk

subroutine incr(k)
  implicit none
  integer :: k
  k = k + 3
end subroutine incr

integer function alias_sum(a, b)
  implicit none
  integer :: a, b, j, t
  t = 0
  do j = 1, 4
    t = t + a
    b = b + 1
  end do
  alias_sum = t
end function alias_sum

integer function f_nohoist(n)
  implicit none
  integer :: n, i, k, s
  k = 0
  s = 0
  do i = 1, n
    s = s + k
    call wrk(k)
  end do
  do i = 1, n
    s = s + k * 2
    call incr(k)
  end do
  do i = 1, n
    s = s + alias_sum(k, k)
  end do
  f_nohoist = s * 1000 + k
end function f_nohoist

subroutine touch(k)
  implicit none
  integer :: k, j
  do j = 1, 1
    k = k + j
  end do
end subroutine touch

subroutine crit_reader(i)
  use fusemod
  implicit none
  integer :: i, j, loc
  loc = i * 2
  call touch(loc)
  do j = 1, 4
!$omp critical
    hist(j) = hist(j) + shared_k + loc
    hist(8 + j) = hist(8 + j) + i
!$omp end critical
  end do
end subroutine crit_reader

integer function f_crit(n)
  use fusemod
  implicit none
  integer :: n, i, j, s
  shared_k = 7
  do j = 1, 32
    hist(j) = 0
  end do
!$omp parallel do
  do i = 1, n
    call crit_reader(i)
  end do
!$omp end parallel do
  s = 0
  do j = 1, 32
    s = mod(s * 3 + hist(j) + shared_k, 1000003)
  end do
  f_crit = s
end function f_crit

integer function f_par(n)
  implicit none
  integer :: n, i, acc
  acc = 0
!$omp parallel do reduction(+:acc)
  do i = 1, n
    acc = acc + int(f_homes(i) * 1000.0d0) + f_nohoist(i)
  end do
!$omp end parallel do
  f_par = acc
end function f_par
|}

let fuse_drivers = [ "f_homes"; "f_short"; "f_nan"; "f_alloc"; "f_nohoist"; "f_crit"; "f_par" ]

(* Every driver on both engines at 1, 2 and 4 threads, bit-identical to
   the tree-walker at 1 thread; on the VM at 2 threads every site runs
   compiled and none bails. *)
let test_fuse_battery () =
  let cu = Parser.parse_string fuse_src in
  let args = [ Ast.Int_lit 9 ] in
  List.iter
    (fun fname ->
      let reference = run_engine ~bytecode:false cu fname args in
      check_bool (fname ^ ": reference returns") true (reference.r_error = None);
      List.iter
        (fun threads ->
          List.iter
            (fun bytecode ->
              check_same
                (Printf.sprintf "%s, %s, %d threads" fname (if bytecode then "VM" else "tree-walk") threads)
                ~expected:reference
                (run_engine ~bytecode ~threads cu fname args))
            [ true; false ])
        [ 1; 2; 4 ];
      Interp.reset_bytecode_stats ();
      let st = Interp.make_state ~printer:ignore cu in
      Interp.set_threads st 2;
      ignore (Interp.call st fname args);
      let rows = Interp.bytecode_stats_for st in
      check_int (fname ^ ": runs") 1 (site_count (fun r -> r.Interp.r_runs) rows ("sub " ^ fname));
      List.iter
        (fun r -> check_int (Printf.sprintf "%s: %s bails" fname r.Interp.r_label) 0 r.Interp.r_bails)
        rows)
    fuse_drivers

(* Per serial DO of [name]'s compiled body, in code order: how many
   loads of the scalar [var] its body holds; and how many loads of it
   lie outside every loop. *)
let loop_loads st name var =
  let p =
    match Interp.compiled_program st name with
    | Some p -> p
    | None -> Alcotest.failf "%s did not compile" name
  in
  let code = p.Bytecode.typed.Bytecode.tcode in
  let is_load = function
    | Bytecode.TldsI (_, sid) | Bytecode.TldsF (_, sid) | Bytecode.TldsB (_, sid) ->
      p.Bytecode.scalars.(sid).Bytecode.sname = var
    | _ -> false
  in
  let loads lo hi = List.length (List.filter (fun k -> is_load code.(k)) (List.init (hi - lo) (( + ) lo))) in
  let loops =
    List.filter_map
      (fun k -> match code.(k) with Bytecode.Tloop_test { t_target; _ } -> Some (k, t_target) | _ -> None)
      (List.init (Array.length code) Fun.id)
  in
  let inside = List.map (fun (k, fini) -> loads (k + 1) fini) loops in
  let outer = List.filter (fun (k, _) -> not (List.exists (fun (k', f') -> k' < k && k < f') loops)) loops in
  (inside, loads 0 (Array.length code) - List.fold_left (fun a (k, f) -> a + loads (k + 1) f) 0 outer)

(* Where the loads ended up: out of loops that can change no slot, in
   the loops whose body calls, stores a slot, or holds a CRITICAL
   section while reading a slot other threads can reach. *)
let test_fuse_hoist_shape () =
  let cu = Parser.parse_string fuse_src in
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st 2;
  List.iter (fun f -> ignore (Interp.call st f [ Ast.Int_lit 9 ])) fuse_drivers;
  let check name var (inside, outside) =
    Alcotest.(check (pair (list int) int)) (Printf.sprintf "%s: loads of %s" name var) (inside, outside)
      (loop_loads st name var)
  in
  (* a call, an inlined store and a store to the other alias keep them;
     a function reference evaluates its actuals once before the call,
     as the tree-walker does *)
  check "f_nohoist" "k" ([ 1; 2; 2 ], 1);
  check "alias_sum" "a" ([ 1 ], 0);
  (* across CRITICAL only the fresh local moves *)
  check "crit_reader" "shared_k" ([ 1 ], 0);
  check "crit_reader" "i" ([ 1 ], 1);
  check "crit_reader" "loc" ([ 0 ], 1);
  (* nothing in [f_crit]'s serial loops can change [shared_k] *)
  check "f_crit" "shared_k" ([ 0; 0 ], 1)

(* --- generated programs ----------------------------------------------- *)

(* Random subprograms that mix the three value kinds: INTEGER, REAL*8
   and LOGICAL locals (homes), dummies and module scalars (slots),
   rank-1 and rank-2 REAL and INTEGER arrays, every arithmetic,
   comparison and logical operator, the intrinsics the typed code
   covers, IF/ELSE, DO, capped DO WHILE, EXIT/CYCLE, an inlined leaf
   function ([lf] with whole-variable actuals) and a marshalled call
   ([ms], and [lf] with expression actuals).  Every generated program
   types, so it must run compiled and never bail. *)
module Prog_gen = struct
  open QCheck.Gen

  let ivars = [ "i1"; "i2"; "j1"; "j2"; "n"; "mi" ]
  let rvars = [ "x1"; "x2"; "y"; "mx" ]
  let lvars = [ "b1"; "ml"; "q" ]
  let rlits = [ "1.5d0"; "0.25d0"; "(-2.5d0)"; "(-0.0d0)"; "3.0d0"; "0.1d0"; "1.0d300" ]
  let paren fmt = Printf.sprintf ("(" ^^ fmt ^^ ")")

  (* a subscript in [1, n] (out of range only for [abs min_int]) *)
  let sub n i = map (fun s -> Printf.sprintf "1 + mod(abs(%s), %d)" s n) i

  (* expressions of depth [d]; [i], [r] and [l] by result kind *)
  let rec iexp d =
    let leaf =
      frequency [ (2, map string_of_int (int_range 0 9)); (1, map (paren "-%d") (int_range 1 5)); (3, oneofl ivars) ]
    in
    if d <= 0 then leaf
    else
      let i = iexp (d - 1) and r = rexp (d - 1) in
      (* a divisor that is rarely zero: the error path stays covered *)
      let div = frequency [ (4, map (paren "1 + mod(abs(%s), 4)") i); (1, i) ] in
      frequency
        [
          (3, leaf);
          (1, map (Printf.sprintf "ia(%s)") (sub 6 i));
          (1, map2 (Printf.sprintf "im(%s, %s)") (sub 3 i) (sub 3 i));
          (4, map3 (paren "%s %s %s") i (oneofl [ "+"; "-"; "*" ]) i);
          (1, map2 (paren "%s / %s") i div);
          (1, map2 (paren "%s ** %d") i (int_range 0 3));
          (1, map3 (Printf.sprintf "%s(%s, %s)") (oneofl [ "max"; "min" ]) i i);
          (1, map2 (Printf.sprintf "mod(%s, %s)") i div);
          (1, map (Printf.sprintf "abs(%s)") i);
          (1, map2 (Printf.sprintf "%s(%s)") (oneofl [ "int"; "nint" ]) r);
          (1, map (paren "-%s") i);
        ]

  and rexp d =
    let leaf = frequency [ (2, oneofl rlits); (3, oneofl rvars) ] in
    if d <= 0 then leaf
    else
      let i = iexp (d - 1) and r = rexp (d - 1) in
      let num = oneof [ i; r ] in
      frequency
        [
          (3, leaf);
          (1, map (Printf.sprintf "ra(%s)") (sub 6 i));
          (1, map2 (Printf.sprintf "rm(%s, %s)") (sub 3 i) (sub 3 i));
          (2, map3 (paren "%s %s %s") r (oneofl [ "+"; "-"; "*"; "/" ]) num);
          (2, map3 (paren "%s %s %s") i (oneofl [ "+"; "-"; "*"; "/" ]) r);
          (1, map2 (paren "%s ** %d") r (int_range (-2) 3));
          (1, map2 (paren "%s ** (-%d)") i (int_range 1 2));
          (1, map2 (paren "%s ** %s") r (oneofl [ "0.5d0"; "1.5d0"; "(-1.0d0)" ]));
          (1, map (Printf.sprintf "sqrt(abs(%s))") r);
          (1, map (Printf.sprintf "abs(%s)") r);
          (1, map (Printf.sprintf "real(%s)") i);
          (1, map2 (Printf.sprintf "sign(%s, %s)") num num);
          (1, map3 (Printf.sprintf "%s(%s, %s)") (oneofl [ "max"; "min" ]) r num);
          (1, map2 (Printf.sprintf "mod(%s, %s)") r num);
          (1, map (paren "-%s") r);
          (1, map2 (Printf.sprintf "lf(%s, %s)") (oneofl rvars) (oneofl ivars));
          (* expression actuals: a copy each, never an array element *)
          (1, map2 (Printf.sprintf "lf(%s - 0.5d0, %s + 1)") r i);
        ]

  and lexp d =
    let leaf = frequency [ (1, oneofl [ ".true."; ".false." ]); (3, oneofl lvars) ] in
    if d <= 0 then leaf
    else
      let i = iexp (d - 1) and r = rexp (d - 1) and l = lexp (d - 1) in
      let num = oneof [ i; r ] in
      let cmp = oneofl [ "<"; "<="; ">"; ">="; "=="; "/=" ] in
      frequency
        [
          (2, leaf);
          (4, map3 (paren "%s %s %s") num cmp num);
          (3, map3 (paren "%s %s %s") l (oneofl [ ".and."; ".or."; ".eqv."; ".neqv." ]) l);
          (1, map (paren ".not. %s") l);
        ]

  let indent = List.map (fun s -> "  " ^ s)

  (* statements nested [d] levels more at most; [loop] is the depth of
     the enclosing loops (EXIT and CYCLE need one), [active] the DO
     variables of the enclosing DO loops *)
  let rec block d ~loop ~active = map List.concat (list_size (int_range 1 4) (stmt d ~loop ~active))

  and stmt d ~loop ~active =
    let e = 2 in
    let assign v x = [ v ^ " = " ^ x ] in
    let simple =
      [
        (3, map2 assign (oneofl ivars) (oneof [ iexp e; rexp e ]));
        (3, map2 assign (oneofl rvars) (oneof [ rexp e; iexp e ]));
        (2, map2 assign (oneofl lvars) (lexp e));
        (1, map2 (fun s x -> assign ("ra(" ^ s ^ ")") x) (sub 6 (iexp 1)) (oneof [ rexp e; iexp e ]));
        (1, map2 (fun s x -> assign ("ia(" ^ s ^ ")") x) (sub 6 (iexp 1)) (oneof [ iexp e; rexp e ]));
        (1, map3 (fun s t x -> assign (Printf.sprintf "rm(%s, %s)" s t) x) (sub 3 (iexp 1)) (sub 3 (iexp 1)) (rexp e));
        (1, map3 (fun s t x -> assign (Printf.sprintf "im(%s, %s)" s t) x) (sub 3 (iexp 1)) (sub 3 (iexp 1)) (iexp e));
        ( 1,
          map3
            (fun a k c -> [ Printf.sprintf "call ms(%s, %s, %s)" a k c ])
            (oneofl rvars)
            (oneof [ oneofl ivars; map (paren "%s + 1") (iexp 1) ])
            (oneof [ oneofl rvars; map (paren "%s * 0.5d0") (rexp 1) ]) );
      ]
    in
    let jumps =
      if loop = 0 then []
      else [ (1, map (fun c -> [ "if (" ^ c ^ ") exit" ]) (lexp 1)); (1, map (fun c -> [ "if (" ^ c ^ ") cycle" ]) (lexp 1)) ]
    in
    let nested =
      if d <= 0 then []
      else
        let free = List.filter (fun v -> not (List.mem v active)) ivars in
        let bound =
          frequency
            [
              (2, map string_of_int (int_range (-2) 5));
              (1, map (Printf.sprintf "mod(%s, 5)") (iexp 1));
              (1, map (Printf.sprintf "mod(%s, 5) * 0.75d0") (iexp 1));
            ]
        in
        let step = oneofl [ ""; ", 2"; ", -1"; ", (1 + mod(abs(i2), 2))"; ", -1.5d0" ] in
        let w = Printf.sprintf "w%d" (loop + 1) in
        [
          ( 2,
            map3
              (fun c t f -> (("if (" ^ c ^ ") then") :: indent t) @ ("else" :: indent f) @ [ "end if" ])
              (lexp 2) (block (d - 1) ~loop ~active) (block (d - 1) ~loop ~active) );
          ( 2,
            oneofl free >>= fun v ->
            map3
              (fun (lo, hi) st body -> (Printf.sprintf "do %s = %s, %s%s" v lo hi st :: indent body) @ [ "end do" ])
              (pair bound bound) step
              (block (d - 1) ~loop:(loop + 1) ~active:(v :: active)) );
          ( 1,
            map2
              (fun c body ->
                [ w ^ " = 0"; Printf.sprintf "do while (%s < 3 .and. %s)" w c ]
                @ indent ((w ^ " = " ^ w ^ " + 1") :: body)
                @ [ "end do" ])
              (lexp 1)
              (block (d - 1) ~loop:(loop + 1) ~active) );
        ]
    in
    frequency (simple @ jumps @ nested)

  let source body =
    String.concat "\n"
      ([
         "module pm";
         "  implicit none";
         "  integer :: mi";
         "  real*8 :: mx";
         "  logical :: ml";
         "  real*8 :: ra(6)";
         "  integer :: ia(6)";
         "end module pm";
         "";
         "real*8 function lf(p, k)";
         "  implicit none";
         "  real*8 :: p";
         "  integer :: k";
         "  real*8 :: t";
         "  t = p * k";
         "  if (k > 2) then";
         "    t = t - p";
         "  else";
         "    t = t + 0.5d0";
         "  end if";
         "  lf = t + k";
         "end function lf";
         "";
         "subroutine ms(a, k, c)";
         "  implicit none";
         "  real*8 :: a, c";
         "  integer :: k, j";
         "  do j = 1, 2";
         "    a = a + k * c";
         "  end do";
         "end subroutine ms";
         "";
         "real*8 function prop(n, y, q)";
         "  use pm";
         "  implicit none";
         "  integer :: n";
         "  real*8 :: y";
         "  logical :: q";
         "  integer :: i1, i2, j1, j2, w1, w2, w3";
         "  real*8 :: x1, x2";
         "  logical :: b1";
         "  real*8 :: rm(3, 3)";
         "  integer :: im(3, 3)";
       ]
      @ indent body
      @ [
          "  prop = x1 + x2 + y + mx + (i1 + i2 + j1 + j2 + n + mi) * 0.5d0";
          "  do w1 = 1, 6";
          "    prop = prop + ra(w1) + ia(w1)";
          "  end do";
          "  do w1 = 1, 3";
          "    do w2 = 1, 3";
          "      prop = prop + rm(w1, w2) * w2 + im(w1, w2)";
          "    end do";
          "  end do";
          "  if (b1) prop = prop + 0.125d0";
          "  if (ml) prop = prop - 0.25d0";
          "  if (q) prop = prop * 2.0d0";
          "end function prop";
          "";
        ])

  let case = triple (block 2 ~loop:0 ~active:[]) (int_range 0 5) (triple (oneofl [ 0.75; -1.5; 0.0 ]) bool unit)
end

let arb_prog =
  QCheck.make
    ~print:(fun (body, n, (y, q, ())) -> Printf.sprintf "prop(%d, %g, %b) of\n%s" n y q (Prog_gen.source body))
    Prog_gen.case

(* Both engines at 1 thread: the same value to the bit, the same error
   text; and on the VM [prop] ran compiled and no site bailed. *)
let prop_generated_programs =
  QCheck.Test.make ~name:"generated programs: tree-walker = VM, nothing bails" ~count:150 arb_prog
    (fun (body, n, (y, q, ())) ->
      let cu = Parser.parse_string (Prog_gen.source body) in
      let args = [ Ast.Int_lit n; Ast.Real_lit (y, true); Ast.Logical_lit q ] in
      let b = run_engine ~bytecode:false cu "prop" args in
      Interp.reset_bytecode_stats ();
      let a = run_engine ~bytecode:true cu "prop" args in
      let rows = Interp.bytecode_stats () in
      Bytecode.purge_unit cu;
      (match (a.r_error, b.r_error) with
      | ea, eb when ea <> eb ->
        QCheck.Test.fail_reportf "errors differ: VM %s, tree-walk %s" (Option.value ea ~default:"none")
          (Option.value eb ~default:"none")
      | _ -> ());
      if not (value_opt_eq (Option.join a.r_value) (Option.join b.r_value)) then
        QCheck.Test.fail_reportf "results differ: VM %s, tree-walk %s"
          (pp_value_opt (Option.join a.r_value)) (pp_value_opt (Option.join b.r_value));
      List.iter
        (fun r ->
          if r.Interp.r_bails > 0 then
            QCheck.Test.fail_reportf "%s bailed (%s)" r.Interp.r_label (Option.value r.Interp.r_reason ~default:"?"))
        rows;
      if site_count (fun r -> r.Interp.r_runs) rows "sub prop" < 1 then QCheck.Test.fail_report "prop never ran compiled";
      true)

let suites =
  [
    ( "bytecode.diff",
      [
        Alcotest.test_case "construct battery" `Quick test_battery_diff;
        Alcotest.test_case "error paths" `Quick test_error_diff;
        Alcotest.test_case "user-call battery" `Quick test_calls_diff;
        Alcotest.test_case "user-call injection" `Quick test_calls_inject_diff;
        Alcotest.test_case "user-call stats" `Quick test_calls_stats;
        Alcotest.test_case "frame: fresh locals" `Quick test_frames_fresh_locals;
        Alcotest.test_case "frame: argument kinds" `Quick test_frames_arg_kinds;
        Alcotest.test_case "frame: re-allocated module array" `Quick
          test_frames_realloc;
        Alcotest.test_case "frame: deallocate" `Quick test_frames_dealloc;
        Alcotest.test_case "frame: allocate errors" `Quick test_frames_alloc_errors;
        Alcotest.test_case "frame: recursion" `Quick test_frames_recursion;
        Alcotest.test_case "typed: int/real/logical calls" `Quick test_typed_fn_results;
        Alcotest.test_case "typed: callee deallocates" `Quick test_typed_dealloc;
        Alcotest.test_case "typed: callee re-allocates" `Quick test_typed_realloc;
        Alcotest.test_case "typed: SAVE allocate guard" `Quick test_typed_save_guard;
        Alcotest.test_case "typed: kind rule" `Quick test_typed_kind_rule;
        Alcotest.test_case "typed: recursion" `Quick test_typed_recursion;
        Alcotest.test_case "registers: by-reference locals" `Quick test_promo_by_reference;
        Alcotest.test_case "registers: DO variables and bounds" `Quick test_promo_do;
        Alcotest.test_case "registers: fresh, initialized, result, logical" `Quick
          test_promo_locals;
        Alcotest.test_case "registers: recursion" `Quick test_promo_recursion;
        Alcotest.test_case "call path: re-read after re-ALLOCATE" `Quick test_call_reval;
        Alcotest.test_case "call path: minor words per call" `Quick test_call_allocation;
        Alcotest.test_case "boxed: rank-3 access" `Quick test_boxed_rank3;
        Alcotest.test_case "boxed: whole-array copy and fill" `Quick test_boxed_whole;
        Alcotest.test_case "boxed: integer **" `Quick test_boxed_ipow;
        Alcotest.test_case "boxed: array-element actual" `Quick test_boxed_elem;
        Alcotest.test_case "boxed: character constant and PRINT" `Quick test_boxed_charcat;
        Alcotest.test_case "boxed: REAL DO variable" `Quick test_boxed_realdo;
        Alcotest.test_case "typed: integer ** constant" `Quick test_typed_ipow_const;
        Alcotest.test_case "one program, typed and boxed binds" `Quick test_one_program_both_variants;
        Alcotest.test_case "constants, rotated loops, leaf actuals, RETURN" `Quick test_lean_battery;
        Alcotest.test_case "parallel-DO chunk programs" `Quick test_chunk_battery;
        Alcotest.test_case "nested parallel regions" `Quick test_nested_battery;
        Alcotest.test_case "parallel DO inside compiled code" `Quick test_omp_do_battery;
        Alcotest.test_case "workload coverage" `Quick
          test_workload_bytecode_coverage;
        Alcotest.test_case "saxpy script" `Quick test_saxpy_diff;
        Alcotest.test_case "point_charge script" `Quick test_point_charge_diff;
        Alcotest.test_case "legacy_radiation script" `Quick
          test_legacy_radiation_diff;
        Alcotest.test_case "serve schedules" `Quick test_serve_schedules_diff;
        Alcotest.test_case "serve concurrent" `Quick test_serve_concurrent_diff;
        Alcotest.test_case "serve inject" `Quick test_serve_inject_diff;
        Alcotest.test_case "sarb workload" `Quick test_sarb_diff;
        Alcotest.test_case "fun3d workload" `Quick test_fun3d_diff;
        Alcotest.test_case "fused jumps, home results, hoisted loads" `Quick test_fuse_battery;
        Alcotest.test_case "hoisted loads: where they go" `Quick test_fuse_hoist_shape;
        QCheck_alcotest.to_alcotest prop_generated_programs;
      ] );
  ]
