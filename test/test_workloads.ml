(* Integration tests for the two case-study workloads: the full
   pipelines of the paper's §4 (build via GLAF, analyze, generate,
   integrate into legacy code, execute, verify side by side). *)

open Glaf_ir
open Glaf_fortran
open Glaf_analysis
open Glaf_optimizer
open Glaf_workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- SARB --------------------------------------------------------------- *)

let test_sarb_legacy_parses_and_runs () =
  let r = Sarb.run ~threads:1 Sarb.Original_serial in
  check_bool "finite checksum" true (Float.is_finite r.Sarb.checksum);
  check_bool "nonzero checksum" true (Float.abs r.Sarb.checksum > 1.0)

let test_sarb_glaf_program_valid () =
  let p = Sarb_glaf.program () in
  Alcotest.(check (list string))
    "no validation errors" []
    (List.map Validate.error_to_string (Validate.program p))

let test_sarb_integration_compatible () =
  check_int "no integration issues" 0 (List.length (Sarb.integration_issues ()))

let test_sarb_autopar_findings () =
  let _, report = Sarb.annotated_program () in
  (* the two large exchange loops are found parallel, collapsible and
     complex — exactly the loops that keep directives at v3 *)
  let complex_parallel =
    List.filter
      (fun e ->
        e.Autopar.re_info.Loop_info.parallel
        && e.Autopar.re_info.Loop_info.classification = Loop_info.Complex
        && e.Autopar.re_info.Loop_info.collapsible)
      report
  in
  check_int "two complex collapsible loops" 2 (List.length complex_parallel);
  check_bool "both in longwave" true
    (List.for_all
       (fun e -> e.Autopar.re_function = "longwave_entropy_model")
       complex_parallel);
  (* the transmission recurrences stay serial *)
  let serial =
    List.filter (fun e -> not e.Autopar.re_info.Loop_info.parallel) report
  in
  check_bool "recurrences detected" true (List.length serial >= 3)

let test_sarb_generated_code_features () =
  let src = Pp_ast.to_string (Sarb.generated_cu (Sarb.Glaf_parallel Directive_policy.V3)) in
  check_bool "collapse(2) on exchange" true (contains src "collapse(2)");
  check_bool "use fuinput" true (contains src "use fuinput");
  check_bool "common block" true (contains src "common /entcon/");
  check_bool "type element" true (contains src "fo%fuir");
  check_bool "module-scope shared arrays" true (contains src "real*8 :: flux2(2, 60)")

let test_sarb_v3_directive_count () =
  let p, _ = Sarb.annotated_program () in
  let v3 = Directive_policy.apply Directive_policy.V3 p in
  (* exactly the two large exchange loops keep directives *)
  check_int "v3 keeps two directives" 2 (Directive_policy.directive_count v3)

let test_sarb_verify_all_variants () =
  List.iter
    (fun (v, diff) ->
      check_bool
        (Printf.sprintf "%s equivalent (diff %.3e)" (Sarb.variant_name v) diff)
        true (diff < 1e-9))
    (Sarb.verify ~threads:2 ())

let test_sarb_figure5_shape () =
  let fig5 = Sarb.figure5 () in
  let get n = List.assoc n fig5 in
  check_bool "original is 1.0" true (Float.abs (get "original serial" -. 1.0) < 1e-9);
  check_bool "GLAF serial slightly slower" true
    (get "GLAF serial" < 1.0 && get "GLAF serial" > 0.7);
  check_bool "v0 well below serial" true (get "GLAF-parallel v0" < 0.7);
  check_bool "v0 < v1" true (get "GLAF-parallel v0" < get "GLAF-parallel v1");
  check_bool "v1 below serial" true (get "GLAF-parallel v1" < 1.0);
  check_bool "v2 above serial" true (get "GLAF-parallel v2" > 1.0);
  check_bool "v3 best" true
    (get "GLAF-parallel v3" >= get "GLAF-parallel v2"
    && get "GLAF-parallel v3" > 1.2)

let test_sarb_figure6_shape () =
  let fig6 = Sarb.figure6 () in
  let get t = List.assoc t fig6 in
  check_bool "1T slightly below serial" true (get 1 < 1.05);
  check_bool "2T gains" true (get 2 > get 1);
  check_bool "4T peak" true (get 4 > get 2);
  check_bool "8T collapses (oversubscription)" true (get 8 < get 4 && get 8 < 1.0)

let test_sarb_table1 () =
  List.iter
    (fun (name, paper, ours) ->
      check_bool (name ^ " has sloc") true (ours > 0 && paper > 0))
    (Sarb.table1 ())

(* --- FUN3D --------------------------------------------------------------- *)

let test_fun3d_glaf_program_valid () =
  let p = Fun3d_glaf.program ~opts:Fun3d_glaf.best_options in
  Alcotest.(check (list string))
    "no validation errors" []
    (List.map Validate.error_to_string (Validate.program p))

let test_fun3d_integration_compatible () =
  check_int "no integration issues" 0 (List.length (Fun3d.integration_issues ()))

let test_fun3d_verify_key_variants () =
  (* full matrix is exercised by the bench; here the key ones, small *)
  let ncell = 120 in
  let reference = Fun3d.run ~threads:1 ~ncell Fun3d.Original_serial in
  List.iter
    (fun v ->
      let r = Fun3d.run ~threads:2 ~ncell v in
      check_bool
        (Printf.sprintf "%s rms within 1e-7" (Fun3d.variant_name v))
        true
        (Float.abs (r.Fun3d.rms -. reference.Fun3d.rms) < 1e-7))
    [
      Fun3d.Manual_parallel;
      Fun3d.Glaf Fun3d_glaf.serial_options;
      Fun3d.Glaf Fun3d_glaf.best_options;
      Fun3d.Glaf { Fun3d_glaf.serial_options with Fun3d_glaf.par_cell = true };
    ]

let test_fun3d_realloc_counting () =
  let ncell = 120 in
  let with_realloc =
    Fun3d.run ~threads:1 ~ncell (Fun3d.Glaf Fun3d_glaf.serial_options)
  in
  let without =
    Fun3d.run ~threads:1 ~ncell
      (Fun3d.Glaf { Fun3d_glaf.serial_options with Fun3d_glaf.no_realloc = true })
  in
  check_bool "reallocation dominates without SAVE" true
    (with_realloc.Fun3d.allocations > 50 * without.Fun3d.allocations);
  check_bool "SAVE leaves only first-call allocations" true
    (without.Fun3d.allocations < 60)

(* The bytecode engine executes ALLOCATE itself: at one thread every
   Figure 7 variant must count exactly the allocations the tree-walker
   counts (the NoRealloc study's numbers) and produce the same RMS bit
   pattern. *)
let test_fun3d_alloc_parity () =
  let ncell = 60 in
  List.iter
    (fun v ->
      let run bytecode = Fun3d.run ~threads:1 ~bytecode ~ncell v in
      let vm = run true and tw = run false in
      let name = Fun3d.variant_name v in
      check_int (name ^ " allocations") tw.Fun3d.allocations vm.Fun3d.allocations;
      Alcotest.(check int64)
        (name ^ " rms bits")
        (Int64.bits_of_float tw.Fun3d.rms)
        (Int64.bits_of_float vm.Fun3d.rms))
    Fun3d.figure7_variants;
  (* one state, the mesh re-allocated between fills: reused frames must
     pick up the new arrays *)
  let rms_bits bytecode =
    let v = Fun3d.Glaf Fun3d_glaf.best_options in
    let st = Glaf_interp.Interp.make_state ~printer:ignore (Fun3d.integrated_cu v) in
    Glaf_interp.Interp.set_threads st 1;
    Glaf_interp.Interp.set_bytecode st bytecode;
    List.map
      (fun n ->
        ignore (Glaf_interp.Interp.call st "fun3d_init_mesh" [ Ast.Int_lit n ]);
        ignore (Glaf_interp.Interp.call st (Fun3d.entry_name v) []);
        match Glaf_interp.Interp.call st "fun3d_rms" [] with
        | Some x -> Int64.bits_of_float (Glaf_runtime.Value.to_float x)
        | None -> Alcotest.fail "fun3d_rms returned nothing")
      [ 60; 75; 50 ]
  in
  Alcotest.(check (list int64)) "re-initialized mesh rms bits" (rms_bits false)
    (rms_bits true)

let test_fun3d_temp_counts () =
  let counts = Fun3d_glaf.dynamic_temp_counts () in
  check_int "edge_loop temps" 10 (List.assoc "edge_loop" counts);
  check_int "cell_loop temps" 2 (List.assoc "cell_loop" counts)

let test_fun3d_figure7_shape () =
  let fig7 = Fun3d.figure7 ~ncell:200_000 () in
  let get n = List.assoc n fig7 in
  let best = get "GLAF EdgeJP+NoRealloc" in
  let manual = get "manual parallel" in
  check_bool "manual fastest" true
    (List.for_all (fun (_, s) -> s <= manual) fig7);
  check_bool "best GLAF above serial" true (best > 1.0);
  check_bool "manual ~2-3x best GLAF" true
    (manual /. best > 1.5 && manual /. best < 4.0);
  check_bool "EdgeJP without no-realloc below serial" true
    (get "GLAF EdgeJP" < 1.0);
  check_bool "fine-grained options far below serial" true
    (get "GLAF Cell" < 0.2 && get "GLAF Edge" < 0.5);
  check_bool "no-realloc improves fine-grained" true
    (get "GLAF Edge+NoRealloc" > get "GLAF Edge"
    && get "GLAF Cell+NoRealloc" > get "GLAF Cell")

(* Every program that running [calls] on [cu] at 1 thread leaves in
   the unit's compile record, compiled from a clean slate: its label
   (the subprogram's name, or for a parallel DO's chunk program the
   subprogram's name and the loop's ordinal in it), its typed
   instruction count and the sizes of its float and int banks
   ([t_finit], [t_iinit]).  Fails on a compile bail or a program no
   subprogram or loop of [cu] accounts for. *)
let program_shapes cu calls =
  let module B = Glaf_interp.Bytecode in
  let module I = Glaf_interp.Interp in
  B.purge_unit cu;
  let st = I.make_state ~printer:ignore cu in
  I.set_threads st 1;
  List.iter (fun (name, args) -> ignore (I.call st name args)) calls;
  let subs = Ast.all_subprograms cu in
  let name (sp : Ast.subprogram) = String.lowercase_ascii sp.Ast.sub_name in
  let label = function
    | `Sub sp -> if List.memq sp subs then Some (name sp) else None
    | `Chunk l ->
      List.find_map
        (fun (sp : Ast.subprogram) ->
          List.filter (fun (l : Ast.do_loop) -> l.Ast.do_omp <> None) (Ast.loops sp.Ast.sub_body)
          |> List.find_index (( == ) l)
          |> Option.map (fun k -> Printf.sprintf "%s/omp-do %d" (name sp) (k + 1)))
        subs
  in
  List.map
    (fun (body, r) ->
      match (r, label body) with
      | Ok (p : B.program), Some lbl ->
        let t = p.B.typed in
        (lbl, (Array.length t.B.tcode, Array.length t.B.t_finit, Array.length t.B.t_iinit))
      | Error reason, lbl -> Alcotest.failf "%s bailed: %s" (Option.value lbl ~default:"?") reason
      | Ok _, None -> Alcotest.fail "compiled program has no label")
    (B.bodies (I.benv st).B.e_unit)
  |> List.sort compare

(* The static typed-instruction counts of FUN3D's hot subprograms, as
   compiled for EdgeJP+NoRealloc: results computed straight into their
   home registers, conditions as fused jumps, loop-invariant slot loads
   before their loop (DESIGN.md section 27).  A compiler change that
   brings back the copies, the booleans built only to be tested or the
   in-loop reloads moves these numbers (179, 23 and 91 before; 136, 16
   and 75 while every ALLOCATE bound was copied into a fresh register).
   Then (typed instructions, float bank, int bank) of every program the
   SARB original serial and GLAF v3 runs, that FUN3D run and the served
   [pi_mid(5000)] compile: the values the two-stage compiler gave, which
   the one-pass emitter of DESIGN.md section 31 kept, less one
   instruction and one int register per INTEGER temp or constant
   ALLOCATE bound in FUN3D's [cell_loop], [edge_loop] and
   [fun3d_init_mesh]. *)
let test_fun3d_typed_shape () =
  let v = Fun3d.Glaf Fun3d_glaf.best_options in
  let st = Glaf_interp.Interp.make_state ~printer:ignore (Fun3d.integrated_cu v) in
  Glaf_interp.Interp.set_threads st 1;
  ignore (Glaf_interp.Interp.call st "fun3d_init_mesh" [ Ast.Int_lit 60 ]);
  ignore (Glaf_interp.Interp.call st (Fun3d.entry_name v) []);
  List.iter
    (fun (name, n) ->
      match Glaf_interp.Interp.compiled_program st name with
      | Some p -> check_int (name ^ " typed instructions") n (Array.length p.Glaf_interp.Bytecode.typed.tcode)
      | None -> Alcotest.failf "%s did not compile" name)
    [ ("edge_loop", 126); ("ioff_search", 16); ("cell_loop", 71) ];
  let sarb v =
    program_shapes (Sarb.integrated_cu v)
      [
        ("sarb_init_profiles", []);
        ( "entropy_interface",
          [ Ast.Real_lit (Sarb_legacy.default_dtemp, true); Ast.Real_lit (Sarb_legacy.default_qfac, true) ] );
        ("sarb_checksum", []);
      ]
  in
  let quad =
    In_channel.with_open_bin (Filename.concat Test_paths.scripts "quad_sweep.gpi") In_channel.input_all
  in
  List.iter
    (fun (what, expected, got) ->
      Alcotest.(check (list (pair string (triple int int int)))) (what ^ " program shapes") expected got)
    [
      ( "SARB original serial",
        [
          ("adjust2", (98, 47, 10));
          ("entropy_interface", (48, 26, 5));
          ("longwave_entropy_model", (764, 407, 47));
          ("lw_spectral_integration", (122, 73, 11));
          ("sarb_checksum", (49, 39, 4));
          ("sarb_init_profiles", (65, 45, 8));
          ("shortwave_entropy_model", (28, 19, 3));
          ("sw_spectral_integration", (132, 79, 12));
        ],
        sarb Sarb.Original_serial );
      ( "SARB GLAF v3",
        [
          ("adjust2", (91, 44, 10));
          ("ent_exchange", (49, 23, 15));
          ("entropy_interface", (47, 26, 5));
          ("longwave_entropy_model", (743, 326, 167));
          ("longwave_entropy_model/omp-do 1", (21, 3, 16));
          ("longwave_entropy_model/omp-do 2", (17, 1, 16));
          ("lw_band_sum", (33, 28, 4));
          ("lw_exchange_dn", (43, 28, 10));
          ("lw_exchange_up", (54, 40, 10));
          ("lw_spectral_integration", (111, 50, 31));
          ("sarb_checksum", (49, 39, 4));
          ("sarb_init_profiles", (65, 45, 8));
          ("shortwave_entropy_model", (27, 19, 3));
          ("sw_band_sum", (30, 24, 4));
          ("sw_spectral_integration", (134, 57, 38));
        ],
        sarb (Sarb.Glaf_parallel Directive_policy.V3) );
      ( "FUN3D best options",
        [
          ("angle_check", (17, 4, 5));
          ("cell_loop", (71, 23, 17));
          ("edge_loop", (126, 53, 26));
          ("edgejp", (2, 1, 1));
          ("edgejp/omp-do 1", (12, 1, 14));
          ("edgejp/omp-do 2", (5, 1, 3));
          ("fun3d_init_mesh", (113, 24, 52));
          ("fun3d_rms", (25, 8, 7));
          ("ioff_search", (16, 1, 8));
          ("jacobian_fill_glaf", (1, 1, 1));
        ],
        program_shapes (Fun3d.integrated_cu v)
          [ ("fun3d_init_mesh", [ Ast.Int_lit 60 ]); (Fun3d.entry_name v, []); ("fun3d_rms", []) ] );
      ( "quad_sweep pi_mid",
        [
          ("pi_mid", (11, 7, 1));
          ("pi_mid/omp-do 1", (17, 14, 4));
        ],
        program_shapes (Glaf_service.Serve.compile quad).Glaf_service.Serve.co_unit [ ("pi_mid", [ Ast.Int_lit 5000 ]) ]
      );
    ]

let test_fun3d_generated_code () =
  let src = Pp_ast.to_string (Fun3d.generated_cu Fun3d_glaf.best_options) in
  check_bool "allocatable+save temps" true (contains src ", allocatable, save :: fl(:)");
  check_bool "guarded allocation" true (contains src "if (.not. allocated(fl))");
  check_bool "atomic scatter" true (contains src "!$omp atomic");
  check_bool "parallel cells loop" true (contains src "!$omp parallel do");
  check_bool "use mesh module" true (contains src "use mesh_mod")

(* --- bytecode coverage gate ----------------------------------------------- *)

module Interp = Glaf_interp.Interp

(* Sites that must exist and run compiled: the SARB exchange subs,
   FUN3D's allocating drivers and everything on its cell path.  FUN3D's
   [edgejp] holds the parallel cell loop, which runs as one
   region-entry instruction of its compiled body. *)
let coverage_gated_sites =
  [
    "sub ent_exchange"; "sub lw_exchange_up"; "sub lw_exchange_dn";
    "sub cell_loop"; "sub edge_loop"; "sub ioff_search"; "sub angle_check";
    "sub fun3d_init_mesh"; "sub jacobian_fill_glaf"; "sub edgejp";
  ]

(* Every breach of the coverage gate in [rows]; [] passes.  Each gated
   site exists and ran; no site bailed; and the
   factored-out leaves [ent_contrib] and [combine_flux] were inlined,
   so they have no site of their own. *)
let coverage_failures (rows : Interp.bytecode_row list) =
  let reason r = Option.value r.Interp.r_reason ~default:"?" in
  let gated lbl =
    match List.filter (fun r -> r.Interp.r_label = lbl) rows with
    | [] -> [ Printf.sprintf "no bytecode site for %s" lbl ]
    | rs ->
      List.filter_map
        (fun r ->
          if r.Interp.r_runs = 0 then
            Some (Printf.sprintf "%s never ran compiled (%s)" lbl (reason r))
          else None)
        rs
  in
  List.concat_map gated coverage_gated_sites
  @ List.filter_map
      (fun r ->
        if r.Interp.r_bails > 0 then
          Some
            (Printf.sprintf "site %s (%s) bailed (%s)" r.Interp.r_label
               r.Interp.r_id (reason r))
        else None)
      rows
  @ List.filter_map
      (fun lbl ->
        if List.exists (fun r -> r.Interp.r_label = lbl) rows then
          Some (lbl ^ " was not inlined")
        else None)
      [ "sub ent_contrib"; "sub combine_flux" ]

let coverage_table rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%-34s %10s %10s  %s\n" "site" "runs" "bails" "reason";
  List.iter
    (fun r ->
      Printf.bprintf b "%-34s %10d %10d  %s\n" r.Interp.r_label r.Interp.r_runs
        r.Interp.r_bails
        (Option.value r.Interp.r_reason ~default:""))
    (List.sort (fun a b -> compare a.Interp.r_label b.Interp.r_label) rows);
  Buffer.contents b

(* At 2 threads, counted from a clean slate: every SARB variant (the
   legacy original serial, GLAF serial and GLAF-parallel v0-v3), every
   Figure 7 variant of FUN3D (its original serial among them) on a
   60-cell mesh, and [quad_sweep.gpi]'s [pi_mid], the served kernel. *)
let coverage_rows ~bytecode =
  Interp.reset_bytecode_stats ();
  List.iter (fun v -> ignore (Sarb.run ~threads:2 ~bytecode v)) Sarb.all_variants;
  List.iter (fun v -> ignore (Fun3d.run ~threads:2 ~ncell:60 ~bytecode v)) Fun3d.figure7_variants;
  let quad =
    In_channel.with_open_bin (Filename.concat Test_paths.scripts "quad_sweep.gpi") In_channel.input_all
  in
  let st = Interp.make_state ~printer:ignore (Glaf_service.Serve.compile quad).Glaf_service.Serve.co_unit in
  Interp.set_threads st 2;
  Interp.set_bytecode st bytecode;
  ignore (Interp.call st "pi_mid" [ Ast.Int_lit 5000 ]);
  Interp.bytecode_stats ()

let test_bytecode_coverage () =
  let rows = coverage_rows ~bytecode:true in
  match coverage_failures rows with
  | [] -> ()
  | failures ->
    Alcotest.failf "bytecode coverage:\n%s\n\n%s"
      (String.concat "\n" failures) (coverage_table rows)

(* the same fixtures on the tree-walker alone must fail the gate *)
let test_bytecode_coverage_rejects_treewalk () =
  check_bool "tree-walk rows fail the gate" true
    (coverage_failures (coverage_rows ~bytecode:false) <> [])

let suites =
  [
    ( "workloads.sarb",
      [
        Alcotest.test_case "legacy runs" `Quick test_sarb_legacy_parses_and_runs;
        Alcotest.test_case "GLAF program valid" `Quick test_sarb_glaf_program_valid;
        Alcotest.test_case "integration compatible" `Quick test_sarb_integration_compatible;
        Alcotest.test_case "autopar findings" `Quick test_sarb_autopar_findings;
        Alcotest.test_case "generated features" `Quick test_sarb_generated_code_features;
        Alcotest.test_case "v3 directive count" `Quick test_sarb_v3_directive_count;
        Alcotest.test_case "verify all variants" `Slow test_sarb_verify_all_variants;
        Alcotest.test_case "figure 5 shape" `Quick test_sarb_figure5_shape;
        Alcotest.test_case "figure 6 shape" `Quick test_sarb_figure6_shape;
        Alcotest.test_case "table 1" `Quick test_sarb_table1;
      ] );
    ( "workloads.fun3d",
      [
        Alcotest.test_case "GLAF program valid" `Quick test_fun3d_glaf_program_valid;
        Alcotest.test_case "integration compatible" `Quick test_fun3d_integration_compatible;
        Alcotest.test_case "verify key variants" `Slow test_fun3d_verify_key_variants;
        Alcotest.test_case "realloc counting" `Quick test_fun3d_realloc_counting;
        Alcotest.test_case "temp counts" `Quick test_fun3d_temp_counts;
        Alcotest.test_case "figure 7 shape" `Quick test_fun3d_figure7_shape;
        Alcotest.test_case "generated code" `Quick test_fun3d_generated_code;
        Alcotest.test_case "allocation parity" `Quick test_fun3d_alloc_parity;
        Alcotest.test_case "typed code shape" `Quick test_fun3d_typed_shape;
      ] );
    ( "workloads.coverage",
      [
        Alcotest.test_case "bytecode coverage gate" `Quick test_bytecode_coverage;
        Alcotest.test_case "gate rejects tree-walk rows" `Quick
          test_bytecode_coverage_rejects_treewalk;
      ] );
  ]
