let () =
  Alcotest.run "oglaf"
    (List.concat
       [
         Test_ir.suites;
         Test_fortran_parser.suites;
         Test_front_end.suites;
         Test_inputs.suites;
         Test_interp.suites;
         Test_analysis.suites;
         Test_builder.suites;
         Test_codegen.suites;
         Test_workloads.suites;
         Test_runtime.suites;
         Test_faults.suites;
         Test_bytecode_diff.suites;
         Test_serve_concurrent.suites;
         Test_listener.suites;
         Test_perf_integration.suites;
         Test_lift.suites;
         Test_tune.suites;
         Test_cli.suites;
       ])
