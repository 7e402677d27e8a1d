(* Fault-tolerance tests: taxonomy, injection-plan parsing, cooperative
   deadlines, batch isolation in the serving layer, and pool
   supervision (respawn and degraded sequential fallback).

   These tests mutate process-global pool/injection state, so every
   case that installs a plan or damages the pool restores the defaults
   in a [Fun.protect] finaliser — the suites run sequentially in one
   process. *)

open Glaf_runtime
open Glaf_service

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Same kernel as examples/scripts/quad_sweep.gpi: a parallel
   reduction with an explicit dynamic schedule, so served calls hit
   the pooled dispatch path. *)
let gpi_script =
  {|program fault_demo
module m
function pi_mid returns real8
  param n integer
  grid acc real8
  grid h real8
  step integrate
    set h = 1.0 / n
    set acc = 0.0
    foreach i = 1, n schedule dynamic:64
      set acc = acc + 4.0 / (1.0 + ((i - 0.5) * h) * ((i - 0.5) * h))
    end foreach
    return acc * h
end program
|}

let compiled = lazy (Serve.compile gpi_script)

(* Reset all global fault state; used as the finaliser of every test
   that touches it. *)
let restore () =
  Faultinject.clear ();
  Pool.reset_health ();
  Pool.set_max_respawns Pool.default_max_respawns

let with_clean_pool f = Fun.protect ~finally:restore f

(* --- taxonomy ------------------------------------------------------------ *)

let test_fault_strings () =
  let rt = Fault.Runtime_fault { call = "f"; line = 3; reason = "boom" } in
  check_string "runtime to_string" "runtime fault in f (calls line 3): boom"
    (Fault.to_string rt);
  check_string "parse to_string" "parse fault (line 2): bad"
    (Fault.to_string (Fault.Parse_fault { line = 2; reason = "bad" }));
  check_string "analysis to_string" "analysis fault: no"
    (Fault.to_string (Fault.Analysis_fault { reason = "no" }))

let test_fault_json () =
  check_string "runtime json"
    {|{"class":"runtime","call":"f","line":3,"reason":"boom"}|}
    (Fault.to_json (Fault.Runtime_fault { call = "f"; line = 3; reason = "boom" }));
  check_string "parse json" {|{"class":"parse","line":1,"reason":"a \"b\""}|}
    (Fault.to_json (Fault.Parse_fault { line = 1; reason = {|a "b"|} }));
  check_string "newline escaped"
    {|{"class":"analysis","reason":"x\ny"}|}
    (Fault.to_json (Fault.Analysis_fault { reason = "x\ny" }))

let test_fault_transience () =
  let rtf = Fault.Runtime_fault { call = "f"; line = 1; reason = "r" } in
  let tmo = Fault.Timeout_fault { call = "f"; line = 1; reason = "r" } in
  let pool = Fault.Pool_fault { call = "f"; line = 1; reason = "r" } in
  let ovl = Fault.Overload_fault { pending = 8; limit = 8 } in
  check_bool "timeout transient" true (Fault.is_transient tmo);
  check_bool "pool transient" true (Fault.is_transient pool);
  check_bool "overload transient" true (Fault.is_transient ovl);
  check_bool "runtime deterministic" false (Fault.is_transient rtf);
  check_bool "parse deterministic" false
    (Fault.is_transient (Fault.Parse_fault { line = 1; reason = "r" }));
  check_int "six classes" 6 (List.length Fault.all_classes);
  check_string "class name" "timeout" (Fault.cls_name (Fault.cls_of tmo));
  check_string "overload class name" "overload"
    (Fault.cls_name (Fault.cls_of ovl));
  check_string "overload to_string"
    "overload fault: server overloaded: 8 requests pending (max-pending 8)"
    (Fault.to_string ovl)

(* JSON-schema stability: the socket protocol and CI scrapers key on
   these exact field names and class strings.  A rename must be a
   deliberate protocol change, not a refactor side effect. *)
let test_fault_json_schema_stability () =
  check_string "class name list pinned"
    "parse,analysis,runtime,timeout,pool,overload"
    (String.concat "," (List.map Fault.cls_name Fault.all_classes));
  check_string "parse schema"
    {|{"class":"parse","line":7,"reason":"r"}|}
    (Fault.to_json (Fault.Parse_fault { line = 7; reason = "r" }));
  check_string "analysis schema"
    {|{"class":"analysis","reason":"r"}|}
    (Fault.to_json (Fault.Analysis_fault { reason = "r" }));
  check_string "runtime schema"
    {|{"class":"runtime","call":"f","line":3,"reason":"r"}|}
    (Fault.to_json (Fault.Runtime_fault { call = "f"; line = 3; reason = "r" }));
  check_string "timeout schema"
    {|{"class":"timeout","call":"f","line":3,"reason":"r"}|}
    (Fault.to_json (Fault.Timeout_fault { call = "f"; line = 3; reason = "r" }));
  check_string "pool schema"
    {|{"class":"pool","call":"f","line":3,"reason":"r"}|}
    (Fault.to_json (Fault.Pool_fault { call = "f"; line = 3; reason = "r" }));
  check_string "overload schema"
    {|{"class":"overload","pending":9,"limit":4,"reason":"server overloaded: 9 requests pending (max-pending 4)"}|}
    (Fault.to_json (Fault.Overload_fault { pending = 9; limit = 4 }))

(* --- injection plan grammar ---------------------------------------------- *)

let test_parse_plan_ok () =
  (match Faultinject.parse_plan "fail-region:2" with
  | Ok [ Faultinject.Fail_region 2 ] -> ()
  | _ -> Alcotest.fail "fail-region:2");
  (match Faultinject.parse_plan "delay-chunk:1:50, kill-worker:0" with
  | Ok
      [
        Faultinject.Delay_chunk { region = 1; delay_s };
        Faultinject.Kill_worker { worker = 0; times = 1 };
      ] ->
    check_bool "50ms" true (abs_float (delay_s -. 0.05) < 1e-9)
  | _ -> Alcotest.fail "mixed plan");
  match Faultinject.parse_plan "kill-worker:3:4" with
  | Ok [ Faultinject.Kill_worker { worker = 3; times = 4 } ] -> ()
  | _ -> Alcotest.fail "kill-worker:3:4"

let test_parse_plan_errors () =
  let bad s =
    match Faultinject.parse_plan s with Error _ -> true | Ok _ -> false
  in
  check_bool "empty plan" true (bad "");
  check_bool "region 0 rejected" true (bad "fail-region:0");
  check_bool "negative worker rejected" true (bad "kill-worker:-1");
  check_bool "unknown directive" true (bad "explode:3");
  check_bool "bad delay" true (bad "delay-chunk:1:zap")

(* --- cancellation tokens -------------------------------------------------- *)

let test_token_cancel () =
  let tk = Fault.make_token () in
  check_bool "fresh token live" false (Fault.expired tk);
  Fault.check tk;
  Fault.cancel tk;
  check_bool "cancelled token expired" true (Fault.expired tk);
  check_bool "check raises Cancelled" true
    (match Fault.check tk with
    | exception Fault.Cancelled _ -> true
    | () -> false)

let test_token_ambient () =
  check_bool "no ambient token by default" true (Fault.current () = None);
  Fault.check_current ();
  let tk = Fault.make_token () in
  Fault.with_token tk (fun () ->
      check_bool "installed" true (Fault.current () = Some tk));
  check_bool "restored" true (Fault.current () = None)

let test_token_cancels_pool_region () =
  let tk = Fault.make_token () in
  Fault.cancel tk;
  check_bool "pooled region observes cancellation" true
    (match
       Fault.with_token tk (fun () ->
           Pool.run ~threads:4 ~lo:1 ~hi:10_000 (fun _ _ _ -> ()))
     with
    | exception Fault.Cancelled _ -> true
    | () -> false);
  (* the pool is unharmed: the next region runs normally *)
  let n = Atomic.make 0 in
  Pool.run ~threads:4 ~lo:1 ~hi:100 (fun _ lo hi ->
      ignore (Atomic.fetch_and_add n (hi - lo + 1)));
  check_int "pool fine afterwards" 100 (Atomic.get n)

(* --- serving: batch isolation -------------------------------------------- *)

let parse_calls_exn s = Serve.parse_calls s

let test_runtime_error_mid_batch () =
  let c = Lazy.force compiled in
  let calls = parse_calls_exn "pi_mid(1000)\nnope(1)\npi_mid(2000)" in
  let b = Serve.run_calls ~threads:2 c calls in
  check_int "two ok" 2 b.Serve.b_ok;
  check_int "one failed" 1 b.Serve.b_failed;
  check_int "none skipped" 0 b.Serve.b_skipped;
  check_bool "not aborted" false b.Serve.b_aborted;
  check_bool "runtime class counted" true
    (b.Serve.b_by_class = [ (Fault.Runtime, 1) ]);
  (* served in file order, failure sandwiched between successes *)
  (match b.Serve.b_results with
  | [ (_, Ok o1); (_, Error (Fault.Runtime_fault f)); (_, Ok o3) ] ->
    check_bool "first value near pi" true
      (match o1.Serve.oc_value with
      | Some v -> abs_float (Value.to_float v -. Float.pi) < 1e-3
      | None -> false);
    check_int "fault carries calls line" 2 f.line;
    check_string "fault names the call" "nope" f.call;
    check_bool "third call unaffected" true (o3.Serve.oc_value <> None)
  | _ -> Alcotest.fail "unexpected batch shape");
  check_bool "summary mentions the fault" true
    (let s = Format.asprintf "%a" Serve.pp_batch_summary b in
     let contains hay needle =
       let lh = String.length hay and ln = String.length needle in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains s "2 ok, 1 failed" && contains s "runtime:1")

let test_max_errors_aborts () =
  let c = Lazy.force compiled in
  let calls = parse_calls_exn "nope(1)\nnope(2)\npi_mid(1000)" in
  let served = ref 0 in
  let b =
    Serve.run_calls ~threads:2 ~max_errors:1
      ~on_result:(fun _ _ -> incr served)
      c calls
  in
  check_int "aborted after first failure" 1 !served;
  check_int "no successes" 0 b.Serve.b_ok;
  check_int "one failure" 1 b.Serve.b_failed;
  check_int "rest skipped" 2 b.Serve.b_skipped;
  check_bool "flagged aborted" true b.Serve.b_aborted

let test_injected_region_failure () =
  with_clean_pool @@ fun () ->
  let c = Lazy.force compiled in
  Faultinject.set_plan [ Faultinject.Fail_region 1 ];
  (match Serve.run_call ~threads:2 c (List.hd (parse_calls_exn "pi_mid(1000)")) with
  | Error (Fault.Runtime_fault f) ->
    check_string "names the directive" "injected fault: fail-region:1" f.reason
  | _ -> Alcotest.fail "expected injected runtime fault");
  Faultinject.clear ();
  match Serve.run_call ~threads:2 c (List.hd (parse_calls_exn "pi_mid(1000)")) with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "clean call failed: %s" (Fault.to_string f)

(* --- serving: per-call deadline ------------------------------------------ *)

let test_timeout_fires_and_batch_recovers () =
  with_clean_pool @@ fun () ->
  let c = Lazy.force compiled in
  (* every chunk of the first region sleeps 50ms, so a 20ms deadline
     fires at the second chunk boundary whatever the machine speed *)
  Faultinject.set_plan
    [ Faultinject.Delay_chunk { region = 1; delay_s = 0.05 } ];
  (match
     Serve.run_call ~threads:4 ~deadline_s:0.02 c
       (List.hd (parse_calls_exn "pi_mid(100000)"))
   with
  | Error (Fault.Timeout_fault f) ->
    check_bool "reason names the deadline" true
      (f.reason = "deadline of 0.02s exceeded")
  | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
  | Ok _ -> Alcotest.fail "deadline did not fire");
  Faultinject.clear ();
  (* next call on the same compiled script is unaffected *)
  match Serve.run_call ~threads:4 ~deadline_s:10.0 c
          (List.hd (parse_calls_exn "pi_mid(1000)"))
  with
  | Ok o ->
    check_bool "value near pi" true
      (match o.Serve.oc_value with
      | Some v -> abs_float (Value.to_float v -. Float.pi) < 1e-3
      | None -> false)
  | Error f -> Alcotest.failf "recovery call failed: %s" (Fault.to_string f)

(* A compiled serial DO polls the deadline at its continue point: a
   10^9-iteration loop in a compiled function at 1 thread (no pool
   chunk boundary to poll at) still times out promptly. *)
let spin_src =
  {|
integer function spin(n)
  implicit none
  integer :: n, i, k
  k = 0
  do i = 1, n
    k = k + mod(i, 7)
  end do
  spin = k
end function spin
|}

let test_timeout_in_compiled_loop () =
  let c = { Serve.co_source = spin_src; co_unit = Glaf_fortran.Parser.parse_string spin_src } in
  let t0 = Fault.now_s () in
  (match Serve.run_call ~threads:1 ~deadline_s:0.02 c (List.hd (parse_calls_exn "spin(1000000000)")) with
  | Error (Fault.Timeout_fault _) -> ()
  | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
  | Ok _ -> Alcotest.fail "deadline did not fire");
  let took = Fault.now_s () -. t0 in
  check_bool (Printf.sprintf "timed out after %.3fs < 1s" took) true (took < 1.0)

(* A parallel DO's chunk loops inside the VM and polls the deadline at
   its continue point: at 1 thread the whole 10^9-iteration range is one
   compiled chunk, with no chunk boundary in between, and still times
   out promptly. *)
let spin_chunk_src =
  {|
integer function spin_chunk(n)
  implicit none
  integer :: n, i, k
  k = 0
!$omp parallel do reduction(+:k) schedule(static)
  do i = 1, n
    k = k + mod(i, 7)
  end do
!$omp end parallel do
  spin_chunk = k
end function spin_chunk
|}

let test_timeout_in_compiled_chunk () =
  let c = { Serve.co_source = spin_chunk_src; co_unit = Glaf_fortran.Parser.parse_string spin_chunk_src } in
  Glaf_interp.Interp.reset_bytecode_stats ();
  let t0 = Fault.now_s () in
  (match Serve.run_call ~threads:1 ~deadline_s:0.02 c (List.hd (parse_calls_exn "spin_chunk(1000000000)")) with
  | Error (Fault.Timeout_fault _) -> ()
  | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
  | Ok _ -> Alcotest.fail "deadline did not fire");
  let took = Fault.now_s () -. t0 in
  check_bool (Printf.sprintf "timed out after %.3fs < 1s" took) true (took < 1.0);
  let rows = List.filter (fun r -> r.Glaf_interp.Interp.r_label = "omp-do") (Glaf_interp.Interp.bytecode_stats ()) in
  check_int "one compiled chunk" 1 (List.fold_left (fun a r -> a + r.Glaf_interp.Interp.r_runs) 0 rows);
  check_int "no tree-walked chunk" 0 (List.fold_left (fun a r -> a + r.Glaf_interp.Interp.r_bails) 0 rows)

(* --- pool supervision ----------------------------------------------------- *)

let test_worker_crash_respawns () =
  with_clean_pool @@ fun () ->
  (* a healthy warm-up region, then kill resident worker 0 once *)
  Pool.run ~threads:4 ~lo:1 ~hi:1000 (fun _ _ _ -> ());
  let respawns0 = (Pool.stats ()).Pool.respawns in
  Faultinject.set_plan [ Faultinject.Kill_worker { worker = 0; times = 1 } ];
  check_bool "region with dead worker raises Pool_error" true
    (match Pool.run ~threads:4 ~lo:1 ~hi:10_000 (fun _ _ _ -> ()) with
    | exception Fault.Pool_error _ -> true
    | () -> false);
  Faultinject.clear ();
  (* next region entry reaps the corpse, respawns, and serves fully *)
  let n = Atomic.make 0 in
  Pool.run ~threads:4 ~lo:1 ~hi:10_000 (fun _ lo hi ->
      ignore (Atomic.fetch_and_add n (hi - lo + 1)));
  check_int "all iterations ran after heal" 10_000 (Atomic.get n);
  check_bool "supervisor respawned the worker" true
    ((Pool.stats ()).Pool.respawns > respawns0);
  check_bool "pool healthy again" true (Pool.health () = Pool.Healthy)

(* Static partial-sum reduction: chunk assignment is a pure function
   of (lo, hi, team), so pooled and degraded-sequential runs must
   combine in the same order and agree bit-for-bit. *)
let harmonic_sum ~threads n =
  let partials = Array.make threads 0.0 in
  Pool.run ~threads ~sched:Sched.Static ~lo:1 ~hi:n (fun t lo hi ->
      let s = ref 0.0 in
      for i = lo to hi do
        s := !s +. (1.0 /. float_of_int i)
      done;
      partials.(t) <- !s);
  Array.fold_left ( +. ) 0.0 partials

let test_degraded_sequential_fallback () =
  with_clean_pool @@ fun () ->
  let reference = harmonic_sum ~threads:4 50_000 in
  (* zero respawn budget: the first worker death degrades the pool *)
  Pool.set_max_respawns 0;
  Faultinject.set_plan [ Faultinject.Kill_worker { worker = 0; times = 1 } ];
  (match Pool.run ~threads:4 ~lo:1 ~hi:10_000 (fun _ _ _ -> ()) with
  | exception Fault.Pool_error _ -> ()
  | () -> Alcotest.fail "expected Pool_error from the killed worker");
  Faultinject.clear ();
  Pool.reset_stats ();
  let degraded = harmonic_sum ~threads:4 50_000 in
  check_bool "pool reports degraded" true
    (match Pool.health () with Pool.Degraded _ -> true | Pool.Healthy -> false);
  check_bool "region ran sequentially" true
    ((Pool.stats ()).Pool.seq_regions >= 1);
  check_bool "degraded result bit-identical to pooled" true
    (Int64.equal (Int64.bits_of_float reference) (Int64.bits_of_float degraded));
  (* reset_health restores parallel service *)
  Pool.reset_health ();
  let healed = harmonic_sum ~threads:4 50_000 in
  check_bool "healthy after reset" true (Pool.health () = Pool.Healthy);
  check_bool "healed result matches too" true
    (Int64.equal (Int64.bits_of_float reference) (Int64.bits_of_float healed))

let test_transient_retry_succeeds () =
  with_clean_pool @@ fun () ->
  let c = Lazy.force compiled in
  (* a warm pool of exactly one resident worker, so the one task of each
     2-thread region below goes to worker 0 and the kill fires on the
     first attempt: with more workers, a dynamic region's tasks go to
     whichever idle worker takes them first, and worker 0 may get none *)
  Pool.shutdown ();
  Pool.run ~threads:2 ~lo:1 ~hi:1000 (fun _ _ _ -> ());
  check_int "one resident worker" 1 (Pool.stats ()).Pool.pool_size;
  Faultinject.set_plan [ Faultinject.Kill_worker { worker = 0; times = 1 } ];
  let call = List.hd (parse_calls_exn "pi_mid(100000)") in
  (* without retries the injected pool fault surfaces... *)
  (match Serve.run_call ~threads:2 c call with
  | Error (Fault.Pool_fault _) -> ()
  | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
  | Ok _ -> Alcotest.fail "expected a pool fault");
  Faultinject.clear ();
  Faultinject.set_plan [ Faultinject.Kill_worker { worker = 0; times = 1 } ];
  (* ...with one retry the pool heals between attempts and the call
     lands (the kill directive fires exactly once); the retry is a
     requeue in the executor core, here the caller's domain alone *)
  let b =
    Serve.run_calls ~concurrency:1 ~threads:2 ~retries:1 ~backoff_s:0.01 c
      [ call ]
  in
  match b.Serve.b_results with
  | [ (_, Ok o) ] ->
    check_bool "retried call returns pi" true
      (match o.Serve.oc_value with
      | Some v -> abs_float (Value.to_float v -. Float.pi) < 1e-3
      | None -> false)
  | [ (_, Error f) ] ->
    Alcotest.failf "retry did not recover: %s" (Fault.to_string f)
  | _ -> Alcotest.fail "expected one result"

(* --- calls-file hardening ------------------------------------------------- *)

let test_calls_parser_rejects_malformed () =
  let rejects s =
    match Serve.parse_calls s with
    | exception Serve.Calls_error _ -> true
    | _ -> false
  in
  check_bool "empty argument slot" true (rejects "f(1,,2)");
  check_bool "leading empty slot" true (rejects "f(,1)");
  check_bool "trailing text after )" true (rejects "f(1) garbage");
  check_bool "missing close paren" true (rejects "f(1");
  check_bool "non-literal argument" true (rejects "f(x)");
  check_bool "bad name" true (rejects "f g(1)");
  (* the errors carry the calls-file line number *)
  (match Serve.parse_calls "pi_mid(1)\nf(1,,2)" with
  | exception Serve.Calls_error (ln, msg) ->
    check_int "line number" 2 ln;
    check_bool "names the empty slot" true
      (msg = "empty argument slot (position 2)")
  | _ -> Alcotest.fail "expected Calls_error");
  (* well-formed lines still parse *)
  match Serve.parse_calls "# comment\n\nsaxpy(1000, 2.5)\ndot\n" with
  | [ c1; c2 ] ->
    check_string "name" "saxpy" c1.Serve.cl_name;
    check_int "two args" 2 (List.length c1.Serve.cl_args);
    check_int "line numbers kept" 4 c2.Serve.cl_line
  | _ -> Alcotest.fail "valid calls file misparsed"

(* Files written on Windows or piped through tools that add CRLF /
   trailing blank lines must parse identically; a single multi-MB line
   must be rejected up front with the line number, not ground through
   trim/split. *)
let test_calls_parser_crlf_blank_oversize () =
  (match Serve.parse_calls "pi_mid(10)\r\nsaxpy(1, 2.5)\r\n\r\n\n" with
  | [ c1; c2 ] ->
    check_string "crlf name 1" "pi_mid" c1.Serve.cl_name;
    check_string "crlf name 2" "saxpy" c2.Serve.cl_name;
    check_int "crlf line 2" 2 c2.Serve.cl_line;
    check_int "crlf args survive trim" 2 (List.length c2.Serve.cl_args)
  | _ -> Alcotest.fail "CRLF calls file misparsed");
  (* comment lines with CRLF endings are still comments *)
  (match Serve.parse_calls "# c\r\npi_mid(1)\r" with
  | [ c ] -> check_int "crlf comment skipped" 2 c.Serve.cl_line
  | _ -> Alcotest.fail "CRLF comment misparsed");
  let big = String.make (Serve.max_call_line_bytes + 1) 'a' in
  (match Serve.parse_calls big with
  | exception Serve.Calls_error (1, msg) ->
    check_bool "oversize names the cap" true
      (msg = Printf.sprintf "line exceeds %d bytes" Serve.max_call_line_bytes)
  | exception Serve.Calls_error (ln, _) ->
    Alcotest.failf "oversize reported on line %d, expected 1" ln
  | _ -> Alcotest.fail "oversized line accepted");
  (* the cap is per line: a valid file with a later oversized line
     reports that line's number *)
  match Serve.parse_calls ("pi_mid(1)\n" ^ big) with
  | exception Serve.Calls_error (2, _) -> ()
  | exception Serve.Calls_error (ln, _) ->
    Alcotest.failf "oversize reported on line %d, expected 2" ln
  | _ -> Alcotest.fail "oversized second line accepted"

(* --- --inject vs OGLAF_INJECT precedence ---------------------------------- *)

(* The contract (documented in faultinject.ml and the README): the
   explicit --inject flag replaces any plan OGLAF_INJECT installed at
   load.  Driven through the real CLI because the precedence lives in
   process startup order, not in library code. *)
let test_inject_precedence_flag_wins () =
  let exe = Test_paths.oglaf_exe in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "CLI binary %s is missing" exe);
  let run_capture cmd =
    let out = Filename.temp_file "oglaf_inj" ".out" in
    let rc =
      Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out))
    in
    let ic = open_in out in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out;
    (rc, content)
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let serve =
    Printf.sprintf "serve %s --calls %s --threads 2"
      (Filename.quote (Filename.concat Test_paths.scripts "quad_sweep.gpi"))
      (Filename.quote (Filename.concat Test_paths.scripts "quad_sweep.calls"))
  in
  (* env alone: the plan fails the first region -> first call faults *)
  let rc, out =
    run_capture (Printf.sprintf "OGLAF_INJECT=fail-region:1 %s %s" exe serve)
  in
  check_bool "env plan installs (exit 1)" true (rc = 1);
  check_bool "env plan fired" true (contains out "fail-region:1");
  (* env + flag: the flag's region-2 plan replaces the env's region-1
     plan entirely — call 1 succeeds, call 2 faults *)
  let rc, out =
    run_capture
      (Printf.sprintf "OGLAF_INJECT=fail-region:1 %s %s --inject fail-region:2"
         exe serve)
  in
  check_bool "flag plan exit 1" true (rc = 1);
  check_bool "flag plan fired" true (contains out "fail-region:2");
  check_bool "env plan fully replaced" false (contains out "fail-region:1")

let suites =
  [
    ( "faults.taxonomy",
      [
        Alcotest.test_case "to_string" `Quick test_fault_strings;
        Alcotest.test_case "to_json" `Quick test_fault_json;
        Alcotest.test_case "json schema stability" `Quick
          test_fault_json_schema_stability;
        Alcotest.test_case "transience" `Quick test_fault_transience;
      ] );
    ( "faults.inject",
      [
        Alcotest.test_case "plan parses" `Quick test_parse_plan_ok;
        Alcotest.test_case "plan errors" `Quick test_parse_plan_errors;
        Alcotest.test_case "injected region failure" `Quick
          test_injected_region_failure;
        Alcotest.test_case "--inject wins over OGLAF_INJECT" `Quick
          test_inject_precedence_flag_wins;
      ] );
    ( "faults.deadline",
      [
        Alcotest.test_case "token cancel" `Quick test_token_cancel;
        Alcotest.test_case "ambient token" `Quick test_token_ambient;
        Alcotest.test_case "cancels pool region" `Quick
          test_token_cancels_pool_region;
        Alcotest.test_case "per-call timeout" `Quick
          test_timeout_fires_and_batch_recovers;
        Alcotest.test_case "timeout in a compiled serial loop" `Quick
          test_timeout_in_compiled_loop;
        Alcotest.test_case "timeout in a compiled parallel-DO chunk" `Quick
          test_timeout_in_compiled_chunk;
      ] );
    ( "faults.serve",
      [
        Alcotest.test_case "runtime error mid-batch" `Quick
          test_runtime_error_mid_batch;
        Alcotest.test_case "max-errors abort" `Quick test_max_errors_aborts;
        Alcotest.test_case "calls parser hardening" `Quick
          test_calls_parser_rejects_malformed;
        Alcotest.test_case "calls parser crlf/blank/oversize" `Quick
          test_calls_parser_crlf_blank_oversize;
      ] );
    ( "faults.supervision",
      [
        Alcotest.test_case "worker respawn" `Quick test_worker_crash_respawns;
        Alcotest.test_case "degraded sequential fallback" `Quick
          test_degraded_sequential_fallback;
        Alcotest.test_case "transient retry" `Quick
          test_transient_retry_succeeds;
      ] );
  ]
