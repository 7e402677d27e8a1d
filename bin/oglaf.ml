(* oglaf — command-line front door to the GLAF reproduction.

   Subcommands:
     compile   GPI action script -> analyzed, optimized Fortran or C
     analyze   print the auto-parallelization report for a script
     run       interpret a function of a compiled script
     check     integration-check a script against legacy Fortran code
     sloc      SLOC table of a Fortran source file
     sarb      reproduce the Synoptic SARB case study (§4.1)
     fun3d     reproduce the FUN3D case study (§4.2)
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit codes (documented in the README): 0 success, 1 diagnosed
   failure (script/calls/runtime/fault), 2 usage error.  Every
   subcommand body runs under [protect] so the user sees a one-line
   diagnostic on stderr, never an OCaml backtrace. *)
let die fmt = Printf.ksprintf (fun s -> Printf.eprintf "oglaf: %s\n" s; exit 1) fmt
let usage_die fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "oglaf: %s\n" s; exit 2) fmt

let protect f =
  try f () with
  | Glaf_builder.Gpi_script.Script_error (line, msg) ->
    die "script error at line %d: %s" line msg
  | Glaf_fortran.Parser.Parse_error (line, msg) ->
    die "parse error at line %d: %s" line msg
  | Glaf_service.Serve.Calls_error (line, msg) ->
    die "calls error at line %d: %s" line msg
  | Glaf_interp.Interp.Fortran_error msg -> die "runtime error: %s" msg
  | Glaf_runtime.Value.Runtime_error msg -> die "runtime error: %s" msg
  | Glaf_runtime.Farray.Bounds_error msg -> die "runtime error: %s" msg
  | Glaf_lift.Lower.Unsupported msg -> die "lift error: %s" msg
  | Glaf_lift.Lift_kernel.Lift_error msg -> die "lift error: %s" msg
  | Glaf_service.Listener.Listener_error msg -> die "%s" msg
  | Unix.Unix_error (e, fn, arg) ->
    die "%s%s: %s" fn
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e)
  | Sys_error msg -> die "%s" msg

let load_script path =
  match Glaf_builder.Gpi_script.run (read_file path) with
  | p -> p
  | exception Glaf_builder.Gpi_script.Script_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" path line msg;
    exit 1

let policy_of_string = function
  | "v0" -> Some Glaf_optimizer.Directive_policy.V0
  | "v1" -> Some Glaf_optimizer.Directive_policy.V1
  | "v2" -> Some Glaf_optimizer.Directive_policy.V2
  | "v3" -> Some Glaf_optimizer.Directive_policy.V3
  | _ -> None

(* library/intrinsic functions are side-effect-free for the analysis *)
let pure = Glaf_runtime.Intrinsics.names ()

let pipeline ?(serial = false) ?(policy = None) ?(soa = false) program =
  let program =
    if soa then Glaf_optimizer.Layout.to_soa program else program
  in
  let annotated, report = Glaf_analysis.Autopar.run ~pure program in
  let annotated =
    match policy with
    | Some p -> Glaf_optimizer.Directive_policy.apply p annotated
    | None -> annotated
  in
  let opts =
    { Glaf_codegen.Fortran_gen.default_options with emit_omp = not serial }
  in
  (annotated, report, opts)

(* --- compile ----------------------------------------------------------- *)

let script_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"GPI action script")

let serial_flag =
  Arg.(value & flag & info [ "serial" ] ~doc:"Generate serial code (no OpenMP directives).")

let soa_flag =
  Arg.(value & flag & info [ "soa" ] ~doc:"Apply the AoS-to-SoA layout transform first.")

let policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ] ~docv:"V0..V3"
        ~doc:"Directive-pruning policy of the paper's Table 2 (v0, v1, v2, v3).")

let lang_arg =
  Arg.(
    value
    & opt string "fortran"
    & info [ "lang" ] ~docv:"LANG" ~doc:"Output language: fortran, c or opencl.")

let compile_cmd =
  let run script serial policy_s soa lang =
    protect @@ fun () ->
    let policy = Option.bind policy_s policy_of_string in
    if policy_s <> None && policy = None then
      usage_die "unknown policy %s (expected v0..v3)" (Option.get policy_s);
    let annotated, _, opts = pipeline ~serial ~policy ~soa (load_script script) in
    match lang with
    | "fortran" ->
      print_string (Glaf_codegen.Fortran_gen.to_source ~opts annotated)
    | "c" ->
      print_string (Glaf_codegen.C_gen.gen_program ~emit_omp:(not serial) annotated)
    | "opencl" ->
      print_string (Glaf_codegen.Opencl_gen.gen_program annotated)
    | other -> usage_die "unknown language %s (expected fortran, c or opencl)" other
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Auto-parallelize a GPI script and generate code")
    Term.(const run $ script_arg $ serial_flag $ policy_arg $ soa_flag $ lang_arg)

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let run script =
    protect @@ fun () ->
    let _, report, _ = pipeline (load_script script) in
    Format.printf "%a@." Glaf_analysis.Autopar.pp_report report
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the auto-parallelization report")
    Term.(const run $ script_arg)

(* --- tuning plans -------------------------------------------------------- *)

(* A corrupted or stale plan file is a diagnosed failure (exit 1, one
   structured line), never a crash or a silently ignored flag. *)
let load_plan path =
  match Glaf_tune.Plan.load path with
  | Ok p -> p
  | Error reason -> die "plan fault: %s" reason

let plan_stats_line plan =
  Printf.eprintf "oglaf: plan %s\n%!"
    (Glaf_runtime.Json.to_string (Glaf_tune.Plan.stats_json plan))

let plan_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "plan" ] ~docv:"FILE"
        ~doc:
          "Apply a tuning plan produced by $(b,oglaf tune --out): every loop \
           whose structural digest has a cached winner runs with that \
           schedule; stale entries are ignored. Prints the plan's \
           hit/miss/stale counters to stderr.")

(* --- run ---------------------------------------------------------------- *)

let call_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "call" ] ~docv:"FUNCTION" ~doc:"Function of the script to invoke.")

let fun_args =
  Arg.(
    value
    & opt_all string []
    & info [ "arg" ] ~docv:"VALUE" ~doc:"Scalar argument (integer or real), repeatable.")

let threads_arg =
  Arg.(value & opt int 1 & info [ "threads" ] ~doc:"OpenMP thread count.")

let no_bytecode_flag =
  Arg.(
    value
    & flag
    & info [ "no-bytecode" ]
        ~doc:
          "Force the tree-walking interpreter for every loop body \
           (differential testing; bytecode lowering is on by default).")

let bytecode_stats_flag =
  Arg.(
    value
    & flag
    & info [ "bytecode-stats" ]
        ~doc:
          "After the call, print one line per compiled construct (subprogram \
           body or chunk) with the number of runs on the bytecode VM, the \
           number of runs that fell back to the tree-walker and, when it \
           fell back, [reason]: the construct that stopped compilation or \
           the binding that refused the compiled program.")

let print_bytecode_stats rows =
  List.iter
    (fun (r : Glaf_interp.Interp.bytecode_row) ->
      Printf.eprintf "bytecode %-24s runs=%-8d bails=%-8d%s\n" r.r_label r.r_runs r.r_bails
        (match r.r_reason with Some why -> " reason=" ^ why | None -> ""))
    rows

let run_cmd =
  let run script fname args threads no_bytecode bc_stats plan_file =
    protect @@ fun () ->
    let plan = Option.map load_plan plan_file in
    let annotated, _, opts = pipeline (load_script script) in
    let src = Glaf_codegen.Fortran_gen.to_source ~opts annotated in
    let cu = Glaf_fortran.Parser.parse_string src in
    let cu =
      match plan with Some p -> Glaf_tune.Plan.apply p cu | None -> cu
    in
    let st = Glaf_interp.Interp.make_state cu in
    Glaf_interp.Interp.set_threads st threads;
    Glaf_interp.Interp.set_bytecode st (not no_bytecode);
    let actuals =
      List.map
        (fun a ->
          match int_of_string_opt a with
          | Some n -> Glaf_fortran.Ast.Int_lit n
          | None -> (
            match float_of_string_opt a with
            | Some x -> Glaf_fortran.Ast.Real_lit (x, true)
            | None -> usage_die "--arg %S is not an integer or real literal" a))
        args
    in
    (match Glaf_interp.Interp.call st fname actuals with
    | Some v -> print_endline (Glaf_runtime.Value.to_string v)
    | None -> print_endline "(subroutine completed)");
    if bc_stats then print_bytecode_stats (Glaf_interp.Interp.bytecode_stats_for st);
    Option.iter plan_stats_line plan
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and interpret a function of a GPI script")
    Term.(
      const run $ script_arg $ call_arg $ fun_args $ threads_arg
      $ no_bytecode_flag $ bytecode_stats_flag $ plan_arg)

(* --- serve -------------------------------------------------------------- *)

(* serve's SCRIPT is optional at the Arg level: client mode
   (--connect) takes no script; server/batch modes validate below. *)
let serve_script_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"SCRIPT" ~doc:"GPI action script")

let calls_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "calls" ] ~docv:"FILE"
        ~doc:"Calls file: one 'function(arg, ...)' per line.")

let serve_threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~docv:"N"
        ~doc:
          "Thread count for every served call (default: pool default, \
           i.e. \\$(b,OGLAF_NUM_THREADS) or cores - 1).")

let schedule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "schedule" ] ~docv:"S"
        ~doc:
          "Default loop schedule for served calls: static[:K], chunk:K, \
           dynamic[:K] or guided[:K] (static:K and chunk:K are synonyms).")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print worker-pool statistics after the batch.")

let timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-call deadline in milliseconds; a call past it is cancelled \
           at the next loop/chunk boundary and reported as a timeout fault.")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Retry a call up to N extra times (exponential backoff) when it \
           failed with a transient fault (pool, timeout).")

let concurrency_arg =
  Arg.(
    value & opt int 1
    & info [ "concurrency" ] ~docv:"N"
        ~doc:
          "Overlap up to N independent calls across the worker pool \
           (default 1: serve sequentially). Results are still reported \
           in calls-file order.")

let max_errors_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-errors" ] ~docv:"K"
        ~doc:"Abort the batch after K failed calls (default: keep serving).")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"PLAN"
        ~doc:
          "Install a fault-injection plan: comma-separated \
           $(b,fail-region:K), $(b,delay-chunk:K:MS), \
           $(b,kill-worker:I[:N]) (see DESIGN.md section 11). \
           Takes precedence over $(b,OGLAF_INJECT).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"SOCK"
        ~doc:
          "Serve forever on a Unix domain socket at SOCK (newline-delimited \
           requests, one JSON response line each; see the README wire-protocol \
           section). Drains and exits 0 on SIGTERM/SIGINT.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Client mode: send the $(b,--calls) file (or $(b,--status)) to a \
           server started with $(b,--listen) and print each JSON response \
           line. Exits 1 if any call failed.")

let status_flag =
  Arg.(
    value & flag
    & info [ "status" ]
        ~doc:"With $(b,--connect): query the server's one-line status JSON.")

let max_pending_arg =
  Arg.(
    value & opt int 64
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Admission high-water mark for $(b,--listen): requests arriving \
           while N are already queued are shed with a structured overload \
           fault instead of queueing unboundedly.")

let max_conns_arg =
  Arg.(
    value & opt int 32
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Concurrent-connection cap for $(b,--listen): connections accepted \
           while N are already live are answered with one overload fault \
           line (seq 0) and closed, so per-connection reader domains can \
           never exhaust the runtime's domain limit.")

(* Server mode: compile once, answer requests on the socket until
   SIGTERM/SIGINT, then drain (finish every admitted call) and print a
   one-line summary.  Exit 0 on a clean drain. *)
let serve_listen ~socket ~script ~threads ~sched ~deadline_s ~retries
    ~concurrency ~max_pending ~max_conns ~no_bytecode ~stats ~plan =
  let module L = Glaf_service.Listener in
  let script_path =
    match script with
    | Some s -> s
    | None -> usage_die "--listen needs a SCRIPT to serve"
  in
  let config =
    {
      (L.default_config ~socket) with
      L.lc_max_pending = max_pending;
      lc_max_conns = max_conns;
      lc_executors = concurrency;
      lc_threads = threads;
      lc_sched = sched;
      lc_deadline_s = deadline_s;
      lc_bytecode = not no_bytecode;
      lc_retries = retries;
      lc_transform = Option.map (fun p cu -> Glaf_tune.Plan.apply p cu) plan;
      lc_status_extra =
        Option.map
          (fun p () -> [ ("plan", Glaf_tune.Plan.stats_json p) ])
          plan;
    }
  in
  match L.create ~config (read_file script_path) with
  | Error fault -> die "%s" (Glaf_runtime.Fault.to_string fault)
  | Ok srv ->
    let stop _ = L.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Glaf_runtime.Pool.reset_stats ();
    Printf.eprintf "oglaf: listening on %s (max-pending %d, executors %d)\n%!"
      socket max_pending concurrency;
    let final = L.serve srv in
    Printf.eprintf "oglaf: %s\n%!" (L.summary_line final);
    Option.iter plan_stats_line plan;
    if stats then
      Format.printf "%a" Glaf_runtime.Pool.pp_stats (Glaf_runtime.Pool.stats ())

(* Client mode: lock-step request/response over the socket, one JSON
   line printed per call.  Exit 1 if any response was a fault or the
   server stopped answering. *)
let serve_connect ~socket ~calls_file ~status_q =
  let module L = Glaf_service.Listener in
  let cl = L.Client.connect socket in
  Fun.protect ~finally:(fun () -> L.Client.close cl) @@ fun () ->
  if status_q then
    match L.Client.request cl "status" with
    | Some line -> print_endline line
    | None -> die "no status reply from %s" socket
  else begin
    let calls_path =
      match calls_file with
      | Some p -> p
      | None -> usage_die "--connect needs --calls FILE or --status"
    in
    let any_failed = ref false in
    let send line =
      match L.Client.request cl ("run " ^ line) with
      | Some resp ->
        print_endline resp;
        let module J = Glaf_runtime.Json in
        let ok =
          match J.parse resp with
          | Ok j -> J.field "ok" j = Some (J.Bool true)
          | Error _ -> false
        in
        if not ok then any_failed := true
      | None ->
        any_failed := true;
        Printf.eprintf "oglaf: no reply for %s (server gone?)\n%!" line
    in
    String.split_on_char '\n' (read_file calls_path)
    |> List.iter (fun raw ->
           let s = String.trim raw in
           if s <> "" && s.[0] <> '#' then send s);
    if !any_failed then exit 1
  end

let serve_cmd =
  let run script calls_file threads sched_s stats timeout_ms retries max_errors
      concurrency inject no_bytecode listen connect status_q max_pending
      max_conns plan_file =
    protect @@ fun () ->
    let plan = Option.map load_plan plan_file in
    let sched =
      match sched_s with
      | None -> None
      | Some s -> (
        match Glaf_runtime.Sched.of_string s with
        | Some sc -> Some sc
        | None ->
          usage_die
            "unknown schedule %s (expected static[:K], chunk:K, dynamic[:K] \
             or guided[:K])"
            s)
    in
    if concurrency < 1 then usage_die "--concurrency must be >= 1";
    if max_pending < 1 then usage_die "--max-pending must be >= 1";
    if max_conns < 1 then usage_die "--max-conns must be >= 1";
    (match inject with
    | None -> ()
    | Some plan -> (
      (* replaces any OGLAF_INJECT plan installed at load: the
         explicit flag wins over the environment *)
      match Glaf_runtime.Faultinject.parse_plan plan with
      | Ok p -> Glaf_runtime.Faultinject.set_plan p
      | Error msg -> usage_die "bad --inject plan: %s" msg));
    (match max_errors with
    | Some k when k < 1 -> usage_die "--max-errors must be >= 1"
    | _ -> ());
    if retries < 0 then usage_die "--retry must be >= 0";
    let deadline_s =
      match timeout_ms with
      | None -> None
      | Some ms when ms >= 1 -> Some (float_of_int ms /. 1e3)
      | Some ms -> usage_die "--timeout-ms must be >= 1, got %d" ms
    in
    match (listen, connect) with
    | Some _, Some _ -> usage_die "--listen and --connect are mutually exclusive"
    | Some socket, None ->
      (match calls_file with
      | Some _ ->
        usage_die "--calls is for batch or --connect mode; --listen serves \
                   requests from the socket"
      | None -> ());
      serve_listen ~socket ~script ~threads ~sched ~deadline_s ~retries
        ~concurrency ~max_pending ~max_conns ~no_bytecode ~stats ~plan
    | None, Some socket ->
      (match script with
      | Some _ -> usage_die "SCRIPT is not used with --connect (the server owns it)"
      | None -> ());
      (match plan with
      | Some _ -> usage_die "--plan is a server/batch option (the server owns it)"
      | None -> ());
      serve_connect ~socket ~calls_file ~status_q
    | None, None ->
      if status_q then usage_die "--status needs --connect SOCK";
      let script_path =
        match script with Some s -> s | None -> usage_die "missing SCRIPT"
      in
      let calls_path =
        match calls_file with
        | Some p -> p
        | None -> usage_die "batch mode needs --calls FILE (or use --listen)"
      in
      let transform =
        Option.map (fun p cu -> Glaf_tune.Plan.apply p cu) plan
      in
      let compiled =
        Glaf_service.Serve.compile ?transform (read_file script_path)
      in
      let calls = Glaf_service.Serve.parse_calls (read_file calls_path) in
      Glaf_runtime.Pool.reset_stats ();
      let batch =
        Glaf_service.Serve.run_calls ~concurrency ?threads ?sched ?deadline_s
          ~bytecode:(not no_bytecode) ~retries ?max_errors
          ~on_result:(fun _call r ->
            match r with
            | Ok oc -> Format.printf "%a@." Glaf_service.Serve.pp_outcome oc
            | Error f ->
              Format.printf "[FAULT] %s@." (Glaf_runtime.Fault.to_string f))
          compiled calls
      in
      if stats then
        Format.printf "%a" Glaf_runtime.Pool.pp_stats
          (Glaf_runtime.Pool.stats ());
      Option.iter plan_stats_line plan;
      if batch.Glaf_service.Serve.b_failed > 0 then begin
        Format.eprintf "oglaf: %a@." Glaf_service.Serve.pp_batch_summary batch;
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compile a GPI script once and serve kernel calls from it: a batch \
          from --calls, a long-lived Unix-socket server with --listen, or a \
          client with --connect")
    Term.(
      const run $ serve_script_arg $ calls_arg $ serve_threads_arg
      $ schedule_arg $ stats_flag $ timeout_arg $ retry_arg $ max_errors_arg
      $ concurrency_arg $ inject_arg $ no_bytecode_flag $ listen_arg
      $ connect_arg $ status_flag $ max_pending_arg $ max_conns_arg
      $ plan_arg)

(* --- check -------------------------------------------------------------- *)

let legacy_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "legacy" ] ~docv:"FILE" ~doc:"Legacy Fortran source to integrate with.")

let check_cmd =
  let run script legacy =
    protect @@ fun () ->
    let program = load_script script in
    let model = Glaf_integration.Legacy_model.of_source (read_file legacy) in
    match Glaf_integration.Checker.check model program with
    | [] -> print_endline "OK: all integration references resolve"
    | issues ->
      List.iter
        (fun i -> print_endline (Glaf_integration.Checker.issue_to_string i))
        issues;
      exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check a GPI script's integration surface against legacy code")
    Term.(const run $ script_arg $ legacy_arg)

(* --- sloc --------------------------------------------------------------- *)

(* a plain string, not Arg.file: a missing file is a diagnosed run
   failure (exit 1, one line via [protect]), not a usage error *)
let fortran_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Fortran source file")

let sloc_cmd =
  let run file =
    protect @@ fun () ->
    let cu = Glaf_fortran.Parser.parse_string (read_file file) in
    List.iter
      (fun (name, n) -> Printf.printf "%-32s %6d\n" name n)
      (Glaf_fortran.Sloc.table cu)
  in
  Cmd.v
    (Cmd.info "sloc" ~doc:"Per-subprogram SLOC of a Fortran source file")
    Term.(const run $ fortran_file_arg)

(* --- autopar ------------------------------------------------------------- *)

let parse_cli_call ~what s =
  match Glaf_fortran.Parser.parse_expr_string s with
  | Glaf_fortran.Ast.Desig [ (n, args) ] -> (String.lowercase_ascii n, args)
  | _ -> usage_die "%s must be a call like 'sub(1.5, 2)': %s" what s
  | exception Glaf_fortran.Parser.Parse_error (_, msg) ->
    usage_die "bad %s %S: %s" what s msg

let autopar_cmd =
  let mode_arg =
    Arg.(
      value
      & opt string "directives"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,directives) annotates the source in place with !\\$OMP \
             PARALLEL DO; $(b,lift) raises one subprogram into the grid IR \
             and regenerates it as a parallel kernel.")
  in
  let kernel_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel" ] ~docv:"SUB"
          ~doc:"Subprogram to lift (required in lift mode).")
  in
  let call_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "call" ] ~docv:"CALL"
          ~doc:
            "Verification entry call on the $(i,original) name, e.g. \
             'adjust2(1.5, 1.02)'.  Lift mode defaults to the lifted \
             kernel with synthesized scalar arguments.")
  in
  let setup_arg =
    Arg.(
      value & opt_all string []
      & info [ "setup" ] ~docv:"CALL"
          ~doc:
            "Setup call executed before verification on both versions \
             (repeatable), e.g. 'sarb_init_profiles()'.")
  in
  let no_verify_flag =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the interpreter equivalence verification.")
  in
  let report_flag =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:"Print only the per-loop analysis report, to stdout.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the generated source to FILE instead of stdout.")
  in
  let emit out source =
    match out with
    | None -> print_string source
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc source)
  in
  let verified_line n =
    Printf.eprintf "oglaf: verified: %d configurations bit-identical\n" n
  in
  let run file mode kernel call setup no_verify report_only out =
    protect @@ fun () ->
    let setup = List.map (parse_cli_call ~what:"--setup") setup in
    let cu = Glaf_fortran.Parser.parse_string (read_file file) in
    match mode with
    | "directives" ->
      let result = Glaf_lift.Autopar_fortran.run ~pure cu in
      if report_only then
        Format.printf "%a@?" Glaf_lift.Autopar_fortran.pp_report result
      else begin
        Format.eprintf "%a@?" Glaf_lift.Autopar_fortran.pp_report result;
        (match (no_verify, call) with
        | false, Some c ->
          let name, args = parse_cli_call ~what:"--call" c in
          (match
             Glaf_lift.Verify.equivalent ~setup ~args ~original:(cu, name)
               ~variant:(result.Glaf_lift.Autopar_fortran.annotated, name) ()
           with
          | Ok n -> verified_line n
          | Error msg -> die "verification failed: %s" msg)
        | _ -> ());
        emit out
          (Glaf_fortran.Pp_ast.to_string
             result.Glaf_lift.Autopar_fortran.annotated)
      end
    | "lift" ->
      let kname =
        match kernel with
        | Some k -> k
        | None -> usage_die "lift mode needs --kernel SUB"
      in
      let lifted = Glaf_lift.Lift_kernel.lift ~pure cu kname in
      if report_only then
        Format.printf "%a@?" Glaf_analysis.Autopar.pp_report
          lifted.Glaf_lift.Lift_kernel.report
      else begin
        Format.eprintf "%a@?" Glaf_analysis.Autopar.pp_report
          lifted.Glaf_lift.Lift_kernel.report;
        if not no_verify then begin
          let args =
            match call with
            | Some c ->
              let name, args = parse_cli_call ~what:"--call" c in
              if
                String.lowercase_ascii kname <> name
              then
                usage_die "--call names %s but the lifted kernel is %s" name
                  kname;
              args
            | None ->
              Glaf_lift.Verify.synthesize_args lifted.Glaf_lift.Lift_kernel.func
          in
          (* verify the bytes emitted below: [combined] holds the
             original units as parsed, not as printed *)
          match
            Glaf_lift.Verify.equivalent ~setup ~args
              ~original:(cu, String.lowercase_ascii kname)
              ~variant:
                ( Glaf_fortran.Parser.parse_string lifted.Glaf_lift.Lift_kernel.source,
                  lifted.Glaf_lift.Lift_kernel.kernel )
              ()
          with
          | Ok n -> verified_line n
          | Error msg -> die "verification failed: %s" msg
        end;
        emit out lifted.Glaf_lift.Lift_kernel.source
      end
    | other -> usage_die "unknown mode %s (expected directives or lift)" other
  in
  Cmd.v
    (Cmd.info "autopar"
       ~doc:
         "Auto-parallelize legacy Fortran: insert OMP directives or lift a \
          kernel into the grid IR")
    Term.(
      const run $ fortran_file_arg $ mode_arg $ kernel_arg $ call_arg
      $ setup_arg $ no_verify_flag $ report_flag $ out_arg)

(* --- tune ----------------------------------------------------------------- *)

let tune_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"GPI action script (.gpi) or legacy Fortran source (.f90/.f).")
  in
  let calls_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "calls" ] ~docv:"FILE"
          ~doc:"Workload: calls file, one 'function(arg, ...)' per line.")
  in
  let call_arg =
    Arg.(
      value & opt_all string []
      & info [ "call" ] ~docv:"CALL"
          ~doc:"Workload call, e.g. 'pi_mid(10000)' (repeatable).")
  in
  let setup_arg =
    Arg.(
      value & opt_all string []
      & info [ "setup" ] ~docv:"CALL"
          ~doc:
            "Setup call executed (untimed, unverified) before each measured \
             or verified run, e.g. 'entx_init()' (repeatable).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the winning plan as JSON to FILE.")
  in
  let prior_plan_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Prior plan: loops whose structural digest is already cached \
             skip the search entirely (their row reads 'cached').")
  in
  let tune_threads_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "threads" ] ~docv:"N"
          ~doc:
            "Thread count the parallel variants are measured at (default: \
             min(4, cores)).")
  in
  let repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N"
          ~doc:"Timed repetitions per variant; the minimum counts.")
  in
  let tune_timeout_arg =
    Arg.(
      value & opt int 5000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Deadline per candidate phase (verification, measurement): a \
             variant past it is disqualified, not allowed to wedge the \
             search.")
  in
  let run file calls_file call_strs setup_strs out prior_plan_file threads
      repeats timeout_ms =
    protect @@ fun () ->
    if repeats < 1 then usage_die "--repeats must be >= 1";
    if timeout_ms < 1 then usage_die "--timeout-ms must be >= 1";
    let deadline_s = float_of_int timeout_ms /. 1e3 in
    let setup = List.map (parse_cli_call ~what:"--setup") setup_strs in
    let calls =
      List.map (parse_cli_call ~what:"--call") call_strs
      @
      match calls_file with
      | None -> []
      | Some path ->
        List.map
          (fun (c : Glaf_service.Serve.call) ->
            (c.Glaf_service.Serve.cl_name, c.Glaf_service.Serve.cl_args))
          (Glaf_service.Serve.parse_calls (read_file path))
    in
    if calls = [] then
      usage_die "tune needs a workload: --call CALL and/or --calls FILE";
    let prior = Option.map load_plan prior_plan_file in
    (* .gpi scripts go through the serving pipeline (build -> autopar
       -> codegen -> reparse); legacy Fortran through autopar
       annotation, with the original file as the serial baseline *)
    let cu, baseline =
      if Filename.check_suffix file ".gpi" then begin
        let compiled = Glaf_service.Serve.compile (read_file file) in
        (compiled.Glaf_service.Serve.co_unit, None)
      end
      else
        let original = Glaf_fortran.Parser.parse_string (read_file file) in
        let result = Glaf_lift.Autopar_fortran.run ~pure original in
        (result.Glaf_lift.Autopar_fortran.annotated, Some original)
    in
    let report =
      Glaf_tune.Tuner.tune ?threads ~repeats ~deadline_s ?plan:prior ?baseline
        ~setup ~calls cu
    in
    print_string (Glaf_tune.Tuner.table_string report);
    (match report.Glaf_tune.Tuner.tn_compose_errors with
    | [] -> ()
    | e :: _ -> die "tuned plan failed composed verification: %s" e);
    match out with
    | None -> ()
    | Some path ->
      Glaf_tune.Plan.save report.Glaf_tune.Tuner.tn_plan path;
      Printf.eprintf "oglaf: plan written to %s (%d entries)\n%!" path
        (List.length report.Glaf_tune.Tuner.tn_plan.Glaf_tune.Plan.p_entries)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the per-loop variant space (serial/schedule/chunk/collapse) \
          of a program against a workload, verify every candidate \
          bit-identical to the serial baseline, and emit the winning plan")
    Term.(
      const run $ file_arg $ calls_file_arg $ call_arg $ setup_arg $ out_arg
      $ prior_plan_arg $ tune_threads_arg $ repeats_arg $ tune_timeout_arg)

(* --- case studies -------------------------------------------------------- *)

let sarb_cmd =
  let run () =
    protect @@ fun () ->
    print_endline "== integration check ==";
    (match Glaf_workloads.Sarb.integration_issues () with
    | [] -> print_endline "OK"
    | l -> List.iter (fun i -> print_endline (Glaf_integration.Checker.issue_to_string i)) l);
    print_endline "\n== verification ==";
    List.iter
      (fun (v, d) ->
        Printf.printf "%-22s max |diff| %9.2e\n" (Glaf_workloads.Sarb.variant_name v) d)
      (Glaf_workloads.Sarb.verify ~threads:2 ());
    print_endline "\n== Figure 5 ==";
    List.iter
      (fun (n, s) -> Printf.printf "%-22s %.2fx\n" n s)
      (Glaf_workloads.Sarb.figure5 ());
    print_endline "\n== Figure 6 ==";
    List.iter
      (fun (t, s) -> Printf.printf "%dT %.2fx\n" t s)
      (Glaf_workloads.Sarb.figure6 ())
  in
  Cmd.v
    (Cmd.info "sarb" ~doc:"Reproduce the Synoptic SARB case study")
    Term.(const run $ const ())

let fun3d_cmd =
  let ncell_arg =
    Arg.(value & opt int 150 & info [ "ncell" ] ~doc:"Mesh size for the interpreted runs.")
  in
  let run ncell =
    protect @@ fun () ->
    print_endline "== verification + reallocation study ==";
    List.iter
      (fun (v, d, a) ->
        Printf.printf "%-40s rms diff %9.2e  allocs %6d\n"
          (Glaf_workloads.Fun3d.variant_name v) d a)
      (Glaf_workloads.Fun3d.verify ~threads:2 ~ncell ());
    print_endline "\n== Figure 7 (modeled, 1M cells, 16T) ==";
    List.iter
      (fun (n, s) -> Printf.printf "%-40s %8.3fx\n" n s)
      (Glaf_workloads.Fun3d.figure7 ())
  in
  Cmd.v
    (Cmd.info "fun3d" ~doc:"Reproduce the FUN3D case study")
    Term.(const run $ ncell_arg)

let () =
  let doc = "GLAF reproduction: auto-parallelization and code generation" in
  let info = Cmd.info "oglaf" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [ compile_cmd; analyze_cmd; run_cmd; serve_cmd; check_cmd; sloc_cmd;
           autopar_cmd; tune_cmd; sarb_cmd; fun3d_cmd ])
  in
  (* cmdliner reports CLI misuse as 124; the documented usage-error
     code is 2 (1 is reserved for diagnosed run failures) *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
