(* Concurrent batch serving: results of [run_calls ~concurrency:N]
   must be indistinguishable from sequential serving — same per-call
   values bit-for-bit under a deterministic (static) schedule, same
   file-order result streaming, same fault accounting — including when
   fault-injection plans fail regions or kill workers mid-batch.

   Like the fault tests, every case that installs an injection plan or
   damages the pool restores the global defaults in a finaliser. *)

open Glaf_runtime
open Glaf_service

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The quad_sweep kernel under an explicit static schedule: chunk
   boundaries are a pure function of (lo, hi, threads) and the
   reduction combines per-thread partials in thread order, so a call's
   result is bit-identical no matter which worker ran which chunk —
   the property that makes concurrent serving transparent. *)
let gpi_script =
  {|program serve_conc
module m
function pi_mid returns real8
  param n integer
  grid acc real8
  grid h real8
  step integrate
    set h = 1.0 / n
    set acc = 0.0
    foreach i = 1, n schedule static
      set acc = acc + 4.0 / (1.0 + ((i - 0.5) * h) * ((i - 0.5) * h))
    end foreach
    return acc * h
end program
|}

let compiled = lazy (Serve.compile gpi_script)

let calls () =
  Serve.parse_calls
    "pi_mid(1000)\n\
     pi_mid(2500)\n\
     pi_mid(5000)\n\
     pi_mid(7500)\n\
     pi_mid(10000)\n\
     pi_mid(12500)"

let restore () =
  Faultinject.clear ();
  Pool.reset_health ();
  Pool.set_max_respawns Pool.default_max_respawns

let serve ~concurrency ?inject ?(retries = 0) () =
  Fun.protect ~finally:restore (fun () ->
      (match inject with
      | None -> ()
      | Some plan -> (
        match Faultinject.parse_plan plan with
        | Ok p -> Faultinject.set_plan p
        | Error msg -> Alcotest.fail msg));
      Serve.run_calls ~concurrency ~threads:4 ~retries (Lazy.force compiled)
        (calls ()))

(* Collapse a batch to a comparable shape: call line, success flag,
   the result's exact bits, and the captured PRINT output. *)
let outcome_bits b =
  List.map
    (fun ((c : Serve.call), r) ->
      ( c.Serve.cl_line,
        match r with
        | Ok oc ->
          ( true,
            (match oc.Serve.oc_value with
            | Some v -> Int64.bits_of_float (Value.to_float v)
            | None -> 0L),
            oc.Serve.oc_output )
        | Error f -> (false, 0L, Fault.to_string f) ))
    b.Serve.b_results

let test_bitwise_identical_to_sequential () =
  let seq = serve ~concurrency:1 () in
  let conc = serve ~concurrency:4 () in
  check_int "no sequential failures" 0 seq.Serve.b_failed;
  check_int "no concurrent failures" 0 conc.Serve.b_failed;
  check_bool "per-call outputs bit-identical" true
    (outcome_bits seq = outcome_bits conc)

let test_results_stream_in_file_order () =
  Fun.protect ~finally:restore (fun () ->
      let order = ref [] in
      let b =
        Serve.run_calls ~concurrency:4 ~threads:2
          ~on_result:(fun c _ -> order := c.Serve.cl_line :: !order)
          (Lazy.force compiled) (calls ())
      in
      check_int "all served" 6 b.Serve.b_ok;
      Alcotest.(check (list int))
        "on_result fires in calls-file order"
        (List.map (fun (c : Serve.call) -> c.Serve.cl_line) (calls ()))
        (List.rev !order))

(* fail-region:K under overlap: the global region counter makes {e
   which} call absorbs the injected failure schedule-dependent, but
   the accounting must match sequential serving — exactly one runtime
   fault, everything else served with clean-run values. *)
let test_fail_region_parity () =
  let clean = serve ~concurrency:1 () in
  let seq = serve ~concurrency:1 ~inject:"fail-region:3" () in
  let conc = serve ~concurrency:4 ~inject:"fail-region:3" () in
  check_int "one sequential failure" 1 seq.Serve.b_failed;
  check_int "one concurrent failure" 1 conc.Serve.b_failed;
  check_int "same ok count" seq.Serve.b_ok conc.Serve.b_ok;
  let clean_bits = outcome_bits clean in
  List.iter
    (fun ((c : Serve.call), r) ->
      match r with
      | Ok oc ->
        let value_bits =
          match oc.Serve.oc_value with
          | Some v -> Int64.bits_of_float (Value.to_float v)
          | None -> 0L
        in
        check_bool
          (Printf.sprintf "line %d matches the clean run" c.Serve.cl_line)
          true
          (List.exists
             (fun (line, (ok, bits, _)) ->
               line = c.Serve.cl_line && ok && Int64.equal bits value_bits)
             clean_bits)
      | Error f ->
        check_bool "injected failure classified as runtime" true
          (Fault.cls_of f = Fault.Runtime))
    conc.Serve.b_results

(* kill-worker, alone and under overlap: the dying worker's chunk (and
   any chunks pinned to its queue) surface as transient pool faults;
   with retries the batch self-heals and every result still matches
   the clean sequential run bit-for-bit.  At concurrency 1 the retry
   is a requeue on the caller's domain, the only executor. *)
let test_kill_worker_retry_parity () =
  let clean = serve ~concurrency:1 () in
  List.iter
    (fun concurrency ->
      let b = serve ~concurrency ~inject:"kill-worker:1" ~retries:3 () in
      let at what = Printf.sprintf "%s (concurrency %d)" what concurrency in
      check_int (at "no failures after retries") 0 b.Serve.b_failed;
      check_int (at "all calls served") 6 b.Serve.b_ok;
      check_bool (at "bit-identical to clean sequential serving") true
        (outcome_bits clean = outcome_bits b);
      check_bool (at "pool healed") true (Pool.health () = Pool.Healthy))
    [ 1; 4 ]

(* Backoff requeue must not busy-spin idle executors: while a
   retrying call waits out its not-before time, the one timer executor
   sleeps until the earliest deadline in one go and the others block
   on the core's condition variable.  A capped poll-sleep
   woke every 50ms, so a 0.4s backoff with 2 slots burned ~16 wakeups;
   the deadline sleep needs O(retries) wakeups total.  The gauge
   counts every idle sleep, so the bound is deliberately loose — the
   regression it guards against is an order of magnitude away. *)
let test_backoff_requeue_does_not_spin () =
  Fun.protect ~finally:restore (fun () ->
      (match Faultinject.parse_plan "kill-worker:1" with
      | Ok p -> Faultinject.set_plan p
      | Error msg -> Alcotest.fail msg);
      Serve.reset_idle_wakeups ();
      let b =
        Serve.run_calls ~concurrency:2 ~threads:4 ~retries:2 ~backoff_s:0.4
          (Lazy.force compiled)
          (Serve.parse_calls "pi_mid(1000)\npi_mid(2500)")
      in
      check_int "batch recovered" 2 b.Serve.b_ok;
      let wakeups = Serve.idle_wakeups () in
      check_bool
        (Printf.sprintf "idle wakeups bounded (got %d, want <= 8)" wakeups)
        true (wakeups <= 8))

(* max_errors under overlap: the batch aborts once the failure budget
   is spent; never-attempted calls are skipped, accounting stays
   consistent. *)
let test_max_errors_aborts_concurrent_batch () =
  Fun.protect ~finally:restore (fun () ->
      (match Faultinject.parse_plan "fail-region:1,fail-region:2" with
      | Ok p -> Faultinject.set_plan p
      | Error msg -> Alcotest.fail msg);
      let b =
        Serve.run_calls ~concurrency:2 ~threads:4 ~max_errors:2
          (Lazy.force compiled) (calls ())
      in
      check_bool "batch aborted" true b.Serve.b_aborted;
      check_int "two failures" 2 b.Serve.b_failed;
      check_int "accounting covers every call" 6
        (b.Serve.b_ok + b.Serve.b_failed + b.Serve.b_skipped))

(* --- the executor core, driven through its own API ----------------------- *)

(* A stand-in for a kernel call: no interpreter, no pool. *)
let fake_outcome call i =
  Ok
    { Serve.oc_call = call; oc_value = Some (Value.Int i); oc_output = "";
      oc_time_s = 0.0 }

let fake_call = List.hd (Serve.parse_calls "job()")

(* Final results in the order [on_done] delivered them. *)
let collector () =
  let mu = Mutex.create () and got = ref [] in
  let on_done i r = Mutex.protect mu (fun () -> got := (i, r) :: !got) in
  (on_done, fun () -> Mutex.protect mu (fun () -> List.rev !got))

(* An exception escaping a job is that job's runtime fault; the lone
   executor survives it and answers every later job, in order. *)
let test_core_executor_survives_exception () =
  let core = Serve.Core.create () in
  let on_done, results = collector () in
  Serve.Core.start core 1 ~on_done ~run:(fun i call ->
      if i = 0 then failwith "boom" else fake_outcome call i);
  List.iter (fun i -> ignore (Serve.Core.submit core fake_call i)) [ 0; 1; 2; 3 ];
  Serve.Core.join core;
  match results () with
  | (0, Error (Fault.Runtime_fault f)) :: rest ->
    check_bool "fault names the exception" true
      (f.reason = Printexc.to_string (Failure "boom"));
    Alcotest.(check (list int)) "later jobs answered in order" [ 1; 2; 3 ]
      (List.map
         (function
           | i, Ok _ -> i
           | _, Error f -> Alcotest.failf "job failed: %s" (Fault.to_string f))
         rest)
  | _ -> Alcotest.fail "first job not answered with a runtime fault"

(* A retry waiting out its backoff holds no executor: a job submitted
   during a 0.5 s backoff is answered well before the backoff ends. *)
let test_core_backoff_frees_executor () =
  let core = Serve.Core.create ~retries:1 ~backoff_s:0.5 () in
  let on_done, results = collector () in
  let answered = Array.make 2 infinity and first_try_done = Atomic.make false in
  let on_done i r =
    answered.(i) <- Fault.now_s ();
    on_done i r
  in
  Serve.Core.start core 2 ~on_done ~run:(fun i call ->
      if i = 0 && not (Atomic.exchange first_try_done true) then
        Error (Fault.Pool_fault { call = "job"; line = 1; reason = "flaky" })
      else fake_outcome call i);
  ignore (Serve.Core.submit core fake_call 0);
  while not (Atomic.get first_try_done) do Domain.cpu_relax () done;
  Unix.sleepf 0.02;  (* let both executors go idle on the backoff *)
  let t0 = Fault.now_s () in
  ignore (Serve.Core.submit core fake_call 1);
  Serve.Core.join core;
  let waited = answered.(1) -. t0 in
  check_bool (Printf.sprintf "new job answered in %.3fs (< 0.25s)" waited)
    true (waited < 0.25);
  check_bool "retried job answered after its backoff" true
    (answered.(0) -. t0 > 0.3);
  check_bool "both ok" true
    (List.for_all (fun (_, r) -> Result.is_ok r) (results ()))

let suites =
  [
    ( "serve.concurrent",
      [
        Alcotest.test_case "bitwise identical to sequential" `Quick
          test_bitwise_identical_to_sequential;
        Alcotest.test_case "results stream in file order" `Quick
          test_results_stream_in_file_order;
        Alcotest.test_case "fail-region parity" `Quick test_fail_region_parity;
        Alcotest.test_case "kill-worker + retry parity" `Quick
          test_kill_worker_retry_parity;
        Alcotest.test_case "backoff requeue does not spin" `Quick
          test_backoff_requeue_does_not_spin;
        Alcotest.test_case "max-errors abort" `Quick
          test_max_errors_aborts_concurrent_batch;
        Alcotest.test_case "core: executor survives an exception" `Quick
          test_core_executor_survives_exception;
        Alcotest.test_case "core: backoff frees the executor" `Quick
          test_core_backoff_frees_executor;
      ] );
  ]
