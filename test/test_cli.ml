(* End-to-end tests of the oglaf CLI binary against the shipped GPI
   scripts. *)

let exe = Test_paths.oglaf_exe
let scripts = Test_paths.scripts

let check_bool = Alcotest.(check bool)

let run_capture cmd =
  let out = Filename.temp_file "oglaf_cli" ".out" in
  let rc = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let ic = open_in out in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  (rc, content)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Both the binary and the scripts directory are declared dune deps of
   this test executable, so their absence means the build is broken —
   fail loudly instead of silently skipping every CLI test. *)
let require_available () =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "CLI binary %s is missing" exe);
  if not (Sys.file_exists scripts) then
    Alcotest.fail (Printf.sprintf "scripts directory %s is missing" scripts)

let test_compile_fortran () =
  require_available ();
  begin
    let rc, out = run_capture (Printf.sprintf "%s compile %s/saxpy.gpi" exe scripts) in
    check_bool "exit 0" true (rc = 0);
    check_bool "module emitted" true (contains out "module m");
    check_bool "reduction directive" true (contains out "reduction(+:s)")
  end

let test_compile_policy_and_serial () =
  require_available ();
  begin
    let rc, out =
      run_capture
        (Printf.sprintf "%s compile %s/saxpy.gpi --policy v2" exe scripts)
    in
    check_bool "exit 0" true (rc = 0);
    (* the single loop is pruned by v2 *)
    check_bool "no directive at v2" false (contains out "!$omp parallel do");
    let rc, out =
      run_capture (Printf.sprintf "%s compile %s/saxpy.gpi --serial" exe scripts)
    in
    check_bool "serial exit 0" true (rc = 0);
    check_bool "serial has no omp" false (contains out "!$omp")
  end

let test_compile_c_and_opencl () =
  require_available ();
  begin
    let rc, out =
      run_capture (Printf.sprintf "%s compile %s/saxpy.gpi --lang c" exe scripts)
    in
    check_bool "c exit 0" true (rc = 0);
    check_bool "c pragma" true (contains out "#pragma omp parallel for");
    let rc, out =
      run_capture (Printf.sprintf "%s compile %s/saxpy.gpi --lang opencl" exe scripts)
    in
    check_bool "opencl exit 0" true (rc = 0);
    check_bool "kernel" true (contains out "__kernel void")
  end

let test_analyze () =
  require_available ();
  begin
    let rc, out =
      run_capture (Printf.sprintf "%s analyze %s/point_charge.gpi" exe scripts)
    in
    check_bool "exit 0" true (rc = 0);
    check_bool "reports loop" true (contains out "loop over row");
    check_bool "reduction found" true (contains out "reduction(sum_f)")
  end

let test_run_function () =
  require_available ();
  begin
    (* with n = 0 the loop never runs, so the (scalar-filled) array
       arguments are never indexed and the reduction result is 0 *)
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s run %s/saxpy.gpi --call axpy --arg 0 --arg 1.0 --arg 0 --arg 0"
           exe scripts)
    in
    (* n = 0: empty loop, arrays never touched; result 0 *)
    check_bool "exit 0" true (rc = 0);
    check_bool "zero result" true (contains out "0")
  end

let test_check_against_legacy () =
  require_available ();
  begin
    (* write the SARB legacy source to a file and check the shipped
       integration script against it *)
    let legacy = Filename.temp_file "oglaf_legacy" ".f90" in
    let oc = open_out legacy in
    output_string oc Glaf_workloads.Sarb_legacy.full_source;
    close_out oc;
    let rc, out =
      run_capture
        (Printf.sprintf "%s check %s/legacy_radiation.gpi --legacy %s" exe
           scripts (Filename.quote legacy))
    in
    check_bool "exit 0" true (rc = 0);
    check_bool "resolves" true (contains out "OK")
  end

let test_serve_batch () =
  require_available ();
  begin
    (* three invocations of the quadrature kernel from one compile *)
    let calls = Filename.temp_file "oglaf_calls" ".txt" in
    let oc = open_out calls in
    output_string oc "# serve smoke\npi_mid(100)\n\npi_mid(1000)\npi_mid(5000)\n";
    close_out oc;
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s serve %s/quad_sweep.gpi --calls %s --threads 2 --stats" exe
           scripts (Filename.quote calls))
    in
    check_bool "exit 0" true (rc = 0);
    (* one result line per call, in file order, each approximating pi *)
    check_bool "three results" true
      (List.length
         (List.filter
            (fun l -> contains l "pi_mid(")
            (String.split_on_char '\n' out))
      = 3);
    check_bool "approximates pi" true (contains out "3.141");
    check_bool "stats printed" true (contains out "resident workers");
    (* bad schedule is rejected *)
    let rc, _ =
      run_capture
        (Printf.sprintf
           "%s serve %s/quad_sweep.gpi --calls %s --schedule bogus" exe scripts
           (Filename.quote calls))
    in
    check_bool "bad schedule is a usage error" true (rc = 2)
  end

(* Exit-code contract: 0 success, 1 diagnosed failure with a one-line
   stderr diagnostic (never an OCaml backtrace), 2 usage error. *)
let test_exit_codes () =
  require_available ();
  begin
    (* missing required argument -> usage error *)
    let rc, _ = run_capture (Printf.sprintf "%s compile" exe) in
    check_bool "missing arg exits 2" true (rc = 2);
    let rc, out =
      run_capture
        (Printf.sprintf "%s compile %s/saxpy.gpi --policy v9" exe scripts)
    in
    check_bool "unknown policy exits 2" true (rc = 2);
    check_bool "policy diagnostic" true (contains out "unknown policy");
    (* diagnosed runtime failure -> exit 1, one-line diagnostic *)
    let rc, out =
      run_capture (Printf.sprintf "%s run %s/saxpy.gpi --call nope" exe scripts)
    in
    check_bool "runtime failure exits 1" true (rc = 1);
    check_bool "diagnostic names the failure" true
      (contains out "oglaf: runtime error");
    check_bool "no backtrace leaks" false
      (contains out "Raised at" || contains out "Fatal error");
    (* malformed calls file -> exit 1, diagnostic carries the line *)
    let calls = Filename.temp_file "oglaf_badcalls" ".txt" in
    let oc = open_out calls in
    output_string oc "pi_mid(1,,2)\n";
    close_out oc;
    let rc, out =
      run_capture
        (Printf.sprintf "%s serve %s/quad_sweep.gpi --calls %s" exe scripts
           (Filename.quote calls))
    in
    check_bool "bad calls file exits 1" true (rc = 1);
    check_bool "names the line and slot" true
      (contains out "calls error at line 1"
      && contains out "empty argument slot")
  end

let test_serve_fault_injection () =
  require_available ();
  begin
    let calls = Filename.temp_file "oglaf_inject" ".txt" in
    let oc = open_out calls in
    output_string oc "pi_mid(1000)\npi_mid(1000)\npi_mid(1000)\n";
    close_out oc;
    (* each call runs one parallel region, so fail-region:2 fails
       exactly the second call; the batch keeps serving *)
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s serve %s/quad_sweep.gpi --calls %s --threads 2 --inject \
            fail-region:2"
           exe scripts (Filename.quote calls))
    in
    check_bool "failed batch exits 1" true (rc = 1);
    check_bool "fault line printed" true
      (contains out "[FAULT]" && contains out "injected fault: fail-region:2");
    check_bool "other calls still served" true (contains out "3.141");
    check_bool "summary printed" true (contains out "2 ok, 1 failed");
    check_bool "no backtrace leaks" false (contains out "Raised at");
    (* a malformed plan is a usage error *)
    let rc, out =
      run_capture
        (Printf.sprintf "%s serve %s/quad_sweep.gpi --calls %s --inject nope:1"
           exe scripts (Filename.quote calls))
    in
    check_bool "bad plan exits 2" true (rc = 2);
    check_bool "bad plan diagnostic" true (contains out "bad --inject plan")
  end

let test_serve_timeout_and_retry_flags () =
  require_available ();
  begin
    let calls = Filename.temp_file "oglaf_deadline" ".txt" in
    let oc = open_out calls in
    (* first call would interpret 10^8 iterations (minutes): only the
       deadline can end it; the second is trivially fast *)
    output_string oc "pi_mid(100000000)\npi_mid(1000)\n";
    close_out oc;
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s serve %s/quad_sweep.gpi --calls %s --threads 2 --timeout-ms \
            200 --retry 0"
           exe scripts (Filename.quote calls))
    in
    check_bool "timed-out batch exits 1" true (rc = 1);
    check_bool "timeout fault reported" true (contains out "timeout fault");
    check_bool "next call unaffected" true (contains out "3.141");
    (* flag validation *)
    let rc, _ =
      run_capture
        (Printf.sprintf
           "%s serve %s/quad_sweep.gpi --calls %s --timeout-ms 0" exe scripts
           (Filename.quote calls))
    in
    check_bool "zero timeout exits 2" true (rc = 2);
    let rc, _ =
      run_capture
        (Printf.sprintf "%s serve %s/quad_sweep.gpi --calls %s --max-errors 0"
           exe scripts (Filename.quote calls))
    in
    check_bool "zero max-errors exits 2" true (rc = 2)
  end

let test_serve_concurrency_flag () =
  require_available ();
  begin
    let calls = Filename.temp_file "oglaf_conc" ".txt" in
    let oc = open_out calls in
    output_string oc "pi_mid(1000)\npi_mid(2000)\npi_mid(3000)\npi_mid(4000)\n";
    close_out oc;
    (* overlapped batch, guided schedule, surviving an injected worker
       death: exit 0 with every call served in file order *)
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s serve %s/quad_sweep.gpi --calls %s --threads 4 --schedule \
            guided:8 --concurrency 4 --retry 2 --inject kill-worker:1"
           exe scripts (Filename.quote calls))
    in
    check_bool "exit 0" true (rc = 0);
    let result_lines =
      List.filter
        (fun l -> contains l "pi_mid(")
        (String.split_on_char '\n' out)
    in
    Alcotest.(check int) "four results" 4 (List.length result_lines);
    check_bool "results in file order" true
      (List.mapi (fun i l -> contains l (Printf.sprintf "[line %d]" (i + 1)))
         result_lines
      |> List.for_all Fun.id);
    check_bool "approximates pi" true (contains out "3.141");
    (* flag validation *)
    let rc, _ =
      run_capture
        (Printf.sprintf "%s serve %s/quad_sweep.gpi --calls %s --concurrency 0"
           exe scripts (Filename.quote calls))
    in
    check_bool "zero concurrency exits 2" true (rc = 2)
  end

let test_serve_calls_parser () =
  let open Glaf_service in
  let calls = Serve.parse_calls "# c\n\nf(1, 2.5)\ng\nh()\n" in
  Alcotest.(check int) "three calls" 3 (List.length calls);
  let f = List.hd calls in
  check_bool "name" true (f.Serve.cl_name = "f");
  check_bool "args" true
    (f.Serve.cl_args
    = [ Glaf_fortran.Ast.Int_lit 1; Glaf_fortran.Ast.Real_lit (2.5, true) ]);
  check_bool "line numbers" true
    (List.map (fun c -> c.Serve.cl_line) calls = [ 3; 4; 5 ]);
  check_bool "bad arg raises" true
    (match Serve.parse_calls "f(oops)\n" with
    | exception Serve.Calls_error (1, _) -> true
    | _ -> false);
  check_bool "missing paren raises" true
    (match Serve.parse_calls "f(1\n" with
    | exception Serve.Calls_error (1, _) -> true
    | _ -> false)

let test_sloc_command () =
  require_available ();
  begin
    let src = Filename.temp_file "oglaf_sloc" ".f90" in
    let oc = open_out src in
    output_string oc "subroutine s()\ninteger :: i\ni = 1\nend subroutine s\n";
    close_out oc;
    let rc, out = run_capture (Printf.sprintf "%s sloc %s" exe (Filename.quote src)) in
    check_bool "exit 0" true (rc = 0);
    check_bool "lists subprogram" true (contains out "s")
  end

let fixtures = Test_paths.fortran
let sarb_fixture = fixtures ^ "/sarb_kernels.f90"

let test_sloc_error_contract () =
  require_available ();
  begin
    (* missing file: diagnosed run failure, one line, exit 1 *)
    let rc, out = run_capture (Printf.sprintf "%s sloc /nonexistent.f90" exe) in
    check_bool "missing file exits 1" true (rc = 1);
    check_bool "one-line diagnostic" true (contains out "oglaf:");
    check_bool "no backtrace" false (contains out "Raised at");
    (* unparsable file: exit 1 with the line number *)
    let src = Filename.temp_file "oglaf_sloc_bad" ".f90" in
    let oc = open_out src in
    output_string oc "subroutine broken(\nend";
    close_out oc;
    let rc, out = run_capture (Printf.sprintf "%s sloc %s" exe (Filename.quote src)) in
    check_bool "parse error exits 1" true (rc = 1);
    check_bool "parse diagnostic" true (contains out "parse error at line")
  end

let test_autopar_directives () =
  require_available ();
  begin
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s autopar %s --mode directives --setup 'sarb_init_profiles()' \
            --call 'entropy_interface(1.5d0, 1.02d0)'"
           exe sarb_fixture)
    in
    check_bool "exit 0" true (rc = 0);
    check_bool "parallel do emitted" true (contains out "!$omp parallel do");
    check_bool "reduction clause" true (contains out "reduction(+:colq)");
    check_bool "verified" true (contains out "verified:");
    check_bool "report included" true (contains out "loop over")
  end

let test_autopar_lift () =
  require_available ();
  begin
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s autopar %s --mode lift --kernel adjust2 --setup \
            'sarb_init_profiles()' --call 'adjust2(1.5d0, 1.02d0)'"
           exe sarb_fixture)
    in
    check_bool "exit 0" true (rc = 0);
    check_bool "lifted kernel emitted" true (contains out "adjust2_lifted");
    check_bool "verified" true (contains out "verified:")
  end

let test_autopar_error_contract () =
  require_available ();
  begin
    let rc, out =
      run_capture (Printf.sprintf "%s autopar %s --mode bogus" exe sarb_fixture)
    in
    check_bool "unknown mode exits 2" true (rc = 2);
    check_bool "mode diagnostic" true (contains out "unknown mode");
    let rc, out =
      run_capture (Printf.sprintf "%s autopar %s --mode lift" exe sarb_fixture)
    in
    check_bool "missing kernel exits 2" true (rc = 2);
    check_bool "kernel diagnostic" true (contains out "--kernel");
    let rc, out =
      run_capture
        (Printf.sprintf "%s autopar %s --mode lift --kernel nosuch" exe
           sarb_fixture)
    in
    check_bool "unknown kernel exits 1" true (rc = 1);
    check_bool "kernel named" true (contains out "nosuch");
    let rc, out =
      run_capture (Printf.sprintf "%s autopar /nonexistent.f90" exe)
    in
    check_bool "missing file exits 1" true (rc = 1);
    check_bool "no backtrace" false (contains out "Raised at");
    (* a broken --setup call must fail verification, not pass vacuously *)
    let rc, out =
      run_capture
        (Printf.sprintf
           "%s autopar %s --mode lift --kernel adjust2 --setup 'nope()' \
            --call 'adjust2(1.0d0, 1.0d0)'"
           exe sarb_fixture)
    in
    check_bool "broken setup exits 1" true (rc = 1);
    check_bool "names the failure" true (contains out "original run failed")
  end

(* the tune -> plan -> run pipeline: search once, persist the winning
   plan, and apply it on later runs without re-searching *)
let test_tune_plan_pipeline () =
  require_available ();
  let plan = Filename.temp_file "oglaf_plan" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove plan with Sys_error _ -> ())
  @@ fun () ->
  let rc, out =
    run_capture
      (Printf.sprintf
         "%s tune %s/quad_sweep.gpi --calls %s/quad_sweep.calls --repeats 1 \
          --out %s"
         exe scripts scripts plan)
  in
  check_bool "tune exit 0" true (rc = 0);
  check_bool "win/loss table printed" true (contains out "win/loss table");
  check_bool "bit-identity line printed" true
    (contains out "bit-identical to the serial baseline");
  check_bool "plan written" true (contains out "plan written");
  let rc, out =
    run_capture
      (Printf.sprintf "%s run %s/quad_sweep.gpi --plan %s --call pi_mid --arg 1000"
         exe scripts plan)
  in
  check_bool "run --plan exit 0" true (rc = 0);
  check_bool "plan consulted, no re-search" true
    (contains out "\"hits\":1" && contains out "\"misses\":0");
  (* a corrupted plan is a structured fault (exit 1), never a crash *)
  let oc = open_out plan in
  output_string oc "{\"version\":1,\"machine\":\"m\",\"entries\":[{\"loo";
  close_out oc;
  let rc, out =
    run_capture
      (Printf.sprintf "%s run %s/quad_sweep.gpi --plan %s --call pi_mid --arg 10"
         exe scripts plan)
  in
  check_bool "corrupted plan exits 1" true (rc = 1);
  check_bool "corrupted plan names the fault" true (contains out "plan fault")

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "compile fortran" `Quick test_compile_fortran;
        Alcotest.test_case "policy + serial" `Quick test_compile_policy_and_serial;
        Alcotest.test_case "c + opencl" `Quick test_compile_c_and_opencl;
        Alcotest.test_case "analyze" `Quick test_analyze;
        Alcotest.test_case "run" `Quick test_run_function;
        Alcotest.test_case "serve batch" `Quick test_serve_batch;
        Alcotest.test_case "serve calls parser" `Quick test_serve_calls_parser;
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "serve fault injection" `Quick
          test_serve_fault_injection;
        Alcotest.test_case "serve timeout + flag validation" `Quick
          test_serve_timeout_and_retry_flags;
        Alcotest.test_case "serve concurrency" `Quick
          test_serve_concurrency_flag;
        Alcotest.test_case "check legacy" `Quick test_check_against_legacy;
        Alcotest.test_case "sloc" `Quick test_sloc_command;
        Alcotest.test_case "sloc error contract" `Quick test_sloc_error_contract;
        Alcotest.test_case "autopar directives" `Quick test_autopar_directives;
        Alcotest.test_case "autopar lift" `Quick test_autopar_lift;
        Alcotest.test_case "autopar error contract" `Quick
          test_autopar_error_contract;
        Alcotest.test_case "tune plan pipeline" `Quick test_tune_plan_pipeline;
      ] );
  ]
