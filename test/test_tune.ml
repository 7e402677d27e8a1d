(* The variant autotuner: variant grammar, structural digests, plan
   persistence (round-trip, corruption, staleness), plan application
   counters, the static cost model's schedule ranking, and end-to-end
   tunes of a small loop and the SARB and FUN3D kernel shapes. *)

open Glaf_tune
module Ast = Glaf_fortran.Ast
module Parser = Glaf_fortran.Parser
module Machine = Glaf_perf.Machine
module Cost = Glaf_perf.Cost

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* a single parallel-safe directive loop, no reduction: every variant
   is bit-identical even at the measured thread count *)
let tiny_src =
  {|
module tinyx
  implicit none
  real*8 :: a(64)
  real*8 :: b(64)
end module tinyx

subroutine tiny_init()
  use tinyx
  implicit none
  integer :: i
  do i = 1, 64
    a(i) = 0.5d0 * i
    b(i) = 0.0d0
  end do
end subroutine tiny_init

subroutine tiny_sweep()
  use tinyx
  implicit none
  integer :: i
  real*8 :: t
!$omp parallel do private(i, t)
  do i = 1, 64
    t = a(i) * 1.25d0
    b(i) = t + a(i) / (1.0d0 + t)
  end do
!$omp end parallel do
end subroutine tiny_sweep
|}

(* the SARB entropy-exchange shape: collapse(2) over a 2 x 60 space
   with a ~25-iteration stencil body *)
let collapse_src =
  {|
module colx
  implicit none
  real*8 :: flux2(2, 60)
  real*8 :: tl(61)
  real*8 :: ent2(2, 60)
end module colx

subroutine col_sweep()
  use colx
  implicit none
  integer :: idir, k, j
  real*8 :: acc
!$omp parallel do private(idir, k, j, acc) collapse(2)
  do idir = 1, 2
    do k = 1, 60
      acc = 0.0d0
      do j = max(k - 12, 1), min(k + 12, 60)
        acc = acc + flux2(idir, j) * (tl(j) - tl(k))
      end do
      ent2(idir, k) = acc
    end do
  end do
!$omp end parallel do
end subroutine col_sweep
|}

let first_loop cu =
  let found = ref None in
  List.iter
    (fun sp ->
      Ast.fold_stmts
        (fun () s ->
          match s with
          | Ast.Do l when !found = None && l.Ast.do_omp <> None ->
            found := Some l
          | _ -> ())
        () sp.Ast.sub_body)
    (Ast.all_subprograms cu);
  match !found with
  | Some l -> l
  | None -> Alcotest.fail "fixture has no directive loop"

(* --- variant grammar ---------------------------------------------------- *)

let test_variant_roundtrip () =
  let cu = Parser.parse_string collapse_src in
  let l = first_loop cu in
  let variants = Variant.enumerate l in
  check_bool "search space is non-trivial" true (List.length variants > 20);
  List.iter
    (fun v ->
      let s = Variant.to_string v in
      match Variant.of_string s with
      | Some v' -> check_bool ("roundtrip " ^ s) true (Variant.equal v v')
      | None -> Alcotest.failf "%s did not parse back" s)
    variants;
  (match Variant.of_string "static:4+collapse:2" with
  | Some (Variant.Par { sched = Some (Ast.Static_chunk 4); collapse = 2 }) -> ()
  | _ -> Alcotest.fail "static:4+collapse:2");
  check_bool "junk rejected" true (Variant.of_string "quantum:3" = None);
  check_bool "collapse:1 rejected" true
    (Variant.of_string "static+collapse:1" = None)

let test_variant_apply_preserves_clauses () =
  let cu = Parser.parse_string collapse_src in
  let l = first_loop cu in
  let d0 = Option.get l.Ast.do_omp in
  let l' =
    Variant.apply (Variant.Par { sched = Some (Ast.Dynamic 4); collapse = 1 }) l
  in
  let d' = Option.get l'.Ast.do_omp in
  check_bool "private list survives" true
    (d'.Ast.omp_private = d0.Ast.omp_private);
  check_bool "reduction list survives" true
    (d'.Ast.omp_reduction = d0.Ast.omp_reduction);
  check_int "collapse rewritten" 1 d'.Ast.omp_collapse;
  check_bool "schedule rewritten" true
    (d'.Ast.omp_schedule = Some (Ast.Dynamic 4));
  let stripped = Variant.apply Variant.Serial l in
  check_bool "serial strips the directive" true (stripped.Ast.do_omp = None)

let test_digest_ignores_directives () =
  let cu = Parser.parse_string collapse_src in
  let l = first_loop cu in
  let d0 = Variant.loop_digest l in
  List.iter
    (fun v ->
      check_string
        ("digest stable under " ^ Variant.to_string v)
        d0
        (Variant.loop_digest (Variant.apply v l)))
    (Variant.enumerate l);
  let other = first_loop (Parser.parse_string tiny_src) in
  check_bool "different bodies hash differently" true
    (d0 <> Variant.loop_digest other)

(* --- plan persistence --------------------------------------------------- *)

let sample_entry ?(digest = String.make 32 'a') ?(loop = "tiny_sweep#1") () =
  {
    Plan.pe_loop = loop;
    pe_digest = digest;
    pe_variant = Variant.Par { sched = Some (Ast.Guided 4); collapse = 1 };
    pe_default = Variant.Par { sched = None; collapse = 1 };
    pe_ms = 1.25;
    pe_default_ms = 2.5;
    pe_serial_ms = 3.125;
    pe_verified = 30;
    pe_model_agrees = true;
  }

let test_plan_roundtrip () =
  let p = Plan.make ~machine:"test rig" [ sample_entry () ] in
  match Plan.of_json (Plan.to_json p) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok p' ->
    let e = sample_entry () in
    let e' =
      match Plan.find p' e.Plan.pe_digest with
      | Some x -> x
      | None -> Alcotest.fail "entry lost in roundtrip"
    in
    check_bool "machine survives" true (p'.Plan.p_machine = "test rig");
    check_bool "variant survives" true
      (Variant.equal e.Plan.pe_variant e'.Plan.pe_variant);
    check_bool "default survives" true
      (Variant.equal e.Plan.pe_default e'.Plan.pe_default);
    check_bool "timings survive bit-exactly" true
      (e.Plan.pe_ms = e'.Plan.pe_ms
      && e.Plan.pe_default_ms = e'.Plan.pe_default_ms
      && e.Plan.pe_serial_ms = e'.Plan.pe_serial_ms);
    check_int "verified survives" e.Plan.pe_verified e'.Plan.pe_verified

let test_plan_corruption () =
  let reject label s =
    check_bool label true (Result.is_error (Plan.of_json s))
  in
  reject "empty" "";
  reject "not json" "pick the fastest one please";
  reject "truncated" "{\"version\":1,\"machine\":\"m\",\"entries\":[{\"loo";
  reject "wrong version" "{\"version\":99,\"machine\":\"m\",\"entries\":[]}";
  reject "bad digest"
    "{\"version\":1,\"machine\":\"m\",\"entries\":[{\"loop\":\"l#1\",\
     \"digest\":\"zz\",\"variant\":\"static\",\"default\":\"default\",\
     \"ms\":1,\"default_ms\":1,\"serial_ms\":1,\"verified\":1,\
     \"model_agrees\":true}]}";
  reject "bad variant"
    "{\"version\":1,\"machine\":\"m\",\"entries\":[{\"loop\":\"l#1\",\
     \"digest\":\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\",\
     \"variant\":\"warp:9\",\"default\":\"default\",\"ms\":1,\
     \"default_ms\":1,\"serial_ms\":1,\"verified\":1,\
     \"model_agrees\":true}]}";
  (* load never raises on unreadable files either *)
  check_bool "missing file is a structured error" true
    (Result.is_error (Plan.load "/nonexistent/plan.json"))

(* the tuner records nan default/serial times when the default variant
   fails verification; such a plan must save and load again, each
   non-finite timing coming back as nan *)
let test_plan_nonfinite_roundtrip () =
  let e =
    {
      (sample_entry ()) with
      Plan.pe_ms = Float.infinity;
      pe_default_ms = Float.nan;
      pe_serial_ms = Float.neg_infinity;
    }
  in
  let e2 = { (sample_entry ~digest:(String.make 32 'b') ()) with Plan.pe_default_ms = Float.nan } in
  let path = Filename.temp_file "oglaf_plan" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Plan.save (Plan.make ~machine:"test rig" [ e; e2 ]) path;
  match Plan.load path with
  | Error err -> Alcotest.failf "plan with non-finite timings: %s" err
  | Ok p ->
    check_int "both entries load" 2 (List.length p.Plan.p_entries);
    let e' = Option.get (Plan.find p e.Plan.pe_digest) in
    let e2' = Option.get (Plan.find p e2.Plan.pe_digest) in
    check_bool "non-finite timings load as nan" true
      (Float.is_nan e'.Plan.pe_ms
      && Float.is_nan e'.Plan.pe_default_ms
      && Float.is_nan e'.Plan.pe_serial_ms
      && Float.is_nan e2'.Plan.pe_default_ms);
    check_bool "finite timings stay bit-exact" true
      (e2'.Plan.pe_ms = e2.Plan.pe_ms && e2'.Plan.pe_serial_ms = e2.Plan.pe_serial_ms);
    check_int "verified survives" e.Plan.pe_verified e'.Plan.pe_verified

(* plan files written in the earlier layout, one entry per line, load *)
let test_plan_multiline_layout () =
  let s =
    "{\"version\":1,\"machine\":\"test rig\",\"entries\":[\n\
     {\"loop\":\"tiny_sweep#1\",\"digest\":\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\",\
     \"variant\":\"guided:4\",\"default\":\"default\",\"ms\":1.25,\
     \"default_ms\":2.5,\"serial_ms\":3.125,\"verified\":30,\"model_agrees\":true},\n\
     {\"loop\":\"tiny_sweep#2\",\"digest\":\"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\",\
     \"variant\":\"serial\",\"default\":\"default\",\"ms\":0.5,\
     \"default_ms\":0.75,\"serial_ms\":0.5,\"verified\":1,\"model_agrees\":false}\n\
     ]}\n"
  in
  match Plan.of_json s with
  | Error e -> Alcotest.failf "multi-line plan: %s" e
  | Ok p ->
    check_int "two entries" 2 (List.length p.Plan.p_entries);
    let e = Option.get (Plan.find p (String.make 32 'a')) in
    check_bool "variant read" true
      (Variant.equal e.Plan.pe_variant (sample_entry ()).Plan.pe_variant);
    check_bool "timings read" true
      (e.Plan.pe_ms = 1.25 && e.Plan.pe_default_ms = 2.5 && e.Plan.pe_serial_ms = 3.125)

let test_plan_apply_counters () =
  let cu = Parser.parse_string tiny_src in
  let l = first_loop cu in
  let digest = Variant.loop_digest l in
  let machine = Plan.default_machine_key () in
  (* a matching entry rewrites the loop and counts a hit *)
  let p = Plan.make ~machine [ sample_entry ~digest () ] in
  let cu' = Plan.apply p cu in
  let l' = first_loop cu' in
  check_bool "winner applied" true
    ((Option.get l'.Ast.do_omp).Ast.omp_schedule = Some (Ast.Guided 4));
  let s = Plan.stats p in
  check_int "one apply" 1 s.Plan.st_applies;
  check_int "one hit" 1 s.Plan.st_hits;
  check_int "no misses" 0 s.Plan.st_misses;
  check_int "no stale entries" 0 s.Plan.st_stale;
  (* a stale digest is ignored: loop untouched, counted stale + miss *)
  let stale = Plan.make ~machine [ sample_entry ~digest:(String.make 32 'b') () ] in
  let cu2 = Plan.apply stale cu in
  let l2 = first_loop cu2 in
  check_bool "stale entry leaves the loop alone" true
    ((Option.get l2.Ast.do_omp).Ast.omp_schedule = None);
  let s2 = Plan.stats stale in
  check_int "stale counted" 1 s2.Plan.st_stale;
  check_int "unmatched loop is a miss" 1 s2.Plan.st_misses;
  check_int "no hits" 0 s2.Plan.st_hits;
  (* a foreign machine profile never applies *)
  let foreign = Plan.make ~machine:"some other box" [ sample_entry ~digest () ] in
  let cu3 = Plan.apply foreign cu in
  check_bool "foreign plan leaves the unit alone" true
    ((Option.get (first_loop cu3).Ast.do_omp).Ast.omp_schedule = None)

(* --- cost model schedule ranking ---------------------------------------- *)

(* The model must rank schedule variants the way measurement does on
   the fixtures: fine-grained dynamic dispatch costs more than one
   contiguous block per thread.  This is a pure-model property (no
   wall clock), so it is exact and stable. *)
let test_cost_schedule_ranking () =
  let rank src sub collapse =
    let cu = Parser.parse_string src in
    let l = first_loop cu in
    let cfg =
      { (Cost.default_config (Machine.interp_host ())) with Cost.threads = 2 }
    in
    let time_of v =
      let cu' =
        Plan.apply
          (Plan.make
             ~machine:(Plan.default_machine_key ())
             [ { (sample_entry ~digest:(Variant.loop_digest l) ()) with
                 Plan.pe_variant = v } ])
          cu
      in
      Cost.time cfg cu' sub
    in
    let static = time_of (Variant.Par { sched = Some Ast.Static; collapse })
    and dyn1 = time_of (Variant.Par { sched = Some (Ast.Dynamic 1); collapse })
    and dyn64 =
      time_of (Variant.Par { sched = Some (Ast.Dynamic 64); collapse })
    in
    check_bool (sub ^ ": dynamic:1 dispatch overhead ranks worst") true
      (dyn1 > static);
    check_bool (sub ^ ": coarser chunks cost less than dynamic:1") true
      (dyn1 > dyn64);
    check_bool (sub ^ ": model separates the variants") true (dyn1 > 1.0)
  in
  (* SARB collapse nest (120 collapsed iterations) and the FUN3D
     edge-loop shape (one flat sweep) *)
  rank collapse_src "col_sweep" 2;
  rank tiny_src "tiny_sweep" 1

(* --- end-to-end tune ----------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* SARB's 2 x 60 entropy-exchange collapse(2) nest with the
   ent_exchange body inlined: 120 collapsed iterations, each with a
   ~25-iteration stencil loop. *)
let sarb_collapse_src =
  {|
module entx
  implicit none
  integer :: nv
  real*8 :: flux2(2, 60)
  real*8 :: tl(61)
  real*8 :: ent2(2, 60)
end module entx

subroutine entx_init()
  use entx
  implicit none
  integer :: idir, k
  nv = 60
  do k = 1, 61
    tl(k) = 220.0d0 + 0.9d0 * k
  end do
  do idir = 1, 2
    do k = 1, 60
      flux2(idir, k) = 40.0d0 + idir * 3.0d0 + 0.25d0 * k
    end do
  end do
end subroutine entx_init

subroutine ent_sweep()
  use entx
  implicit none
  integer :: idir, k, j
  real*8 :: acc, dtq
!$omp parallel do private(idir, k, j, acc, dtq) collapse(2)
  do idir = 1, 2
    do k = 1, nv
      acc = 0.0d0
      do j = max(k - 12, 1), min(k + 12, nv)
        dtq = tl(j) - tl(k)
        if (abs(dtq) > 2.0d0) then
          acc = acc + flux2(idir, j) * dtq / (tl(j) * tl(k))
        else
          acc = acc + flux2(idir, j) * 2.0d0 / (tl(j) + tl(k)) * 0.01d0
        end if
      end do
      ent2(idir, k) = flux2(idir, k) / tl(k) + 0.05d0 * acc / nv
    end do
  end do
!$omp end parallel do
end subroutine ent_sweep
|}

(* FUN3D's edge loop in its parallel-safe gather form: each edge
   computes its own flux magnitude into a private slot, with no scatter
   to the endpoint cells.  The directive carries no reduction, so the
   bit-identity gate runs at the measured thread count too. *)
let fun3d_gather_src =
  {|
module gatherx
  implicit none
  integer :: nedge
  integer :: eptr(2, 2000)
  real*8 :: q(5, 700)
  real*8 :: wgt(2000)
  real*8 :: eflux(2000)
end module gatherx

subroutine gatherx_init()
  use gatherx
  implicit none
  integer :: e, m
  nedge = 2000
  do e = 1, 2000
    eptr(1, e) = 1 + mod(3 * e, 700)
    eptr(2, e) = 1 + mod(5 * e + 11, 700)
    wgt(e) = 0.5d0 + mod(e, 9) * 0.05d0
    eflux(e) = 0.0d0
  end do
  do e = 1, 700
    do m = 1, 5
      q(m, e) = 1.0d0 + 0.001d0 * e + 0.1d0 * m
    end do
  end do
end subroutine gatherx_init

subroutine gather_sweep()
  use gatherx
  implicit none
  integer :: e, m, n1, n2
  real*8 :: acc
!$omp parallel do private(e, m, n1, n2, acc)
  do e = 1, nedge
    n1 = eptr(1, e)
    n2 = eptr(2, e)
    acc = 0.0d0
    do m = 1, 5
      acc = acc + abs(wgt(e) * (q(m, n2) - q(m, n1)))
    end do
    eflux(e) = acc
  end do
!$omp end parallel do
end subroutine gather_sweep
|}

(* Tune [sweep] once: there is a tunable loop, the composed program is
   verified, and every loop's winner is verified bit-identical and no
   slower than its default. *)
let tune_verified src ~init ~sweep =
  let cu = Parser.parse_string src in
  let r =
    Tuner.tune ~repeats:1 ~setup:[ (init, []) ] ~calls:[ (sweep, []) ] cu
  in
  check_bool (sweep ^ ": has a tunable site") true (r.Tuner.tn_loops <> []);
  check_bool (sweep ^ ": composed program verified") true
    (r.Tuner.tn_compose_errors = []);
  List.iter
    (fun (l : Tuner.loop_result) ->
      let at what = l.Tuner.lr_site.Tuner.st_label ^ ": " ^ what in
      check_bool (at "winner verified at least at 1 thread") true
        (l.Tuner.lr_verified > 0);
      check_bool (at "winner no slower than default") true
        (l.Tuner.lr_winner_ms <= l.Tuner.lr_default_ms *. 1.001))
    r.Tuner.tn_loops;
  (cu, r)

let test_tune_end_to_end () =
  let cu, r = tune_verified tiny_src ~init:"tiny_init" ~sweep:"tiny_sweep" in
  check_int "one tunable site" 1 (List.length r.Tuner.tn_loops);
  let l = List.hd r.Tuner.tn_loops in
  let table = Tuner.table_string r in
  check_bool "table mentions the loop" true (contains table "tiny_sweep#1");
  check_bool "table reports the win/loss column" true (contains table "result");
  (* re-tuning with the produced plan skips the search entirely *)
  let r2 =
    Tuner.tune ~repeats:1 ~plan:r.Tuner.tn_plan
      ~setup:[ ("tiny_init", []) ] ~calls:[ ("tiny_sweep", []) ] cu
  in
  check_int "every loop served from the plan" 1 r2.Tuner.tn_cached;
  let l2 = List.hd r2.Tuner.tn_loops in
  check_bool "cached row is flagged" true l2.Tuner.lr_cached;
  check_bool "cached decision identical" true
    (Variant.equal l.Tuner.lr_winner l2.Tuner.lr_winner);
  (* the case-study kernel shapes *)
  ignore (tune_verified sarb_collapse_src ~init:"entx_init" ~sweep:"ent_sweep");
  ignore
    (tune_verified fun3d_gather_src ~init:"gatherx_init" ~sweep:"gather_sweep")

let suites =
  [
    ( "tune.variant",
      [
        Alcotest.test_case "roundtrip" `Quick test_variant_roundtrip;
        Alcotest.test_case "apply preserves clauses" `Quick
          test_variant_apply_preserves_clauses;
        Alcotest.test_case "digest ignores directives" `Quick
          test_digest_ignores_directives;
      ] );
    ( "tune.plan",
      [
        Alcotest.test_case "json roundtrip" `Quick test_plan_roundtrip;
        Alcotest.test_case "corruption rejected" `Quick test_plan_corruption;
        Alcotest.test_case "apply counters" `Quick test_plan_apply_counters;
        Alcotest.test_case "non-finite timings roundtrip" `Quick
          test_plan_nonfinite_roundtrip;
        Alcotest.test_case "multi-line layout loads" `Quick test_plan_multiline_layout;
      ] );
    ( "tune.model",
      [
        Alcotest.test_case "schedule ranking" `Quick test_cost_schedule_ranking;
      ] );
    ( "tune.tuner",
      [ Alcotest.test_case "end to end" `Quick test_tune_end_to_end ] );
  ]
