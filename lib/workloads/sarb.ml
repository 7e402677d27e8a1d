(** SARB experiment orchestration: builds every implementation variant
    of the paper's Table 2, integrates the GLAF-generated code into
    the legacy code base, verifies functional equivalence (§4.1.1) and
    evaluates performance (Figs. 5 and 6) both on the real interpreter
    (wall clock, OCaml domains) and on the analytic cost model. *)

open Glaf_fortran
open Glaf_runtime
open Glaf_interp
open Glaf_analysis
open Glaf_optimizer
open Glaf_codegen
open Glaf_integration

type variant =
  | Original_serial
  | Glaf_serial
  | Glaf_parallel of Directive_policy.t

let all_variants =
  [
    Original_serial;
    Glaf_serial;
    Glaf_parallel Directive_policy.V0;
    Glaf_parallel Directive_policy.V1;
    Glaf_parallel Directive_policy.V2;
    Glaf_parallel Directive_policy.V3;
  ]

let variant_name = function
  | Original_serial -> "original serial"
  | Glaf_serial -> "GLAF serial"
  | Glaf_parallel p -> Directive_policy.name p

(** Intrinsics are side-effect free for the dependence analysis. *)
let pure = Intrinsics.names ()

(** The annotated GLAF program (auto-parallelized, before pruning). *)
let annotated_program () =
  let p = Sarb_glaf.program () in
  Autopar.run ~pure p

(** Fortran generated for one variant (the legacy code base itself for
    [Original_serial]). *)
let generated_cu (v : variant) : Ast.compilation_unit =
  match v with
  | Original_serial -> []
  | Glaf_serial ->
    let p, _ = annotated_program () in
    Fortran_gen.gen_program
      ~opts:{ Fortran_gen.default_options with emit_omp = false }
      p
  | Glaf_parallel policy ->
    let p, _ = annotated_program () in
    let p = Directive_policy.apply policy p in
    Fortran_gen.gen_program p

(** Check the GLAF program against the legacy-code model (§3 features
    must all resolve); returns the issue list (empty = compatible). *)
let integration_issues () =
  let legacy = Legacy_model.of_ast (Sarb_legacy.parse ()) in
  Checker.check legacy (Sarb_glaf.program ())

(** Integrated compilation unit for a variant: the legacy program with
    the six kernels substituted by GLAF-generated versions. *)
let integrated_cu (v : variant) : Ast.compilation_unit =
  let legacy = Sarb_legacy.parse () in
  match v with
  | Original_serial -> legacy
  | _ ->
    let generated = generated_cu v in
    let cu, _substituted = Splice.substitute ~legacy ~generated in
    cu

type run_result = {
  checksum : float;
  fuir : Farray.t;
  fdir : Farray.t;
  fds : Farray.t;
  sen_lw : Farray.t;
  toa_lw : float;
  toa_sw : float;
  allocations : int;
}

(** Execute a variant end to end through the interpreter. *)
let run ?(threads = 4) ?(bytecode = true) ?(dtemp = Sarb_legacy.default_dtemp)
    ?(qfac = Sarb_legacy.default_qfac) (v : variant) : run_result =
  let cu = integrated_cu v in
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st threads;
  Interp.set_bytecode st bytecode;
  ignore (Interp.call st "sarb_init_profiles" []);
  Interp.reset_allocations st;
  ignore
    (Interp.call st "entropy_interface"
       [ Ast.Real_lit (dtemp, true); Ast.Real_lit (qfac, true) ]);
  let checksum =
    match Interp.call st "sarb_checksum" [] with
    | Some vl -> Value.to_float vl
    | None -> Value.error "sarb_checksum returned nothing"
  in
  let fo_field name =
    Interp.module_struct_array st ~module_name:"fuoutput" ~var:"fo" ~field:name
  in
  {
    checksum;
    fuir = fo_field "fuir";
    fdir = fo_field "fdir";
    fds = fo_field "fds";
    sen_lw = fo_field "sen_lw";
    toa_lw = Value.to_float (Interp.module_scalar st ~module_name:"fuoutput" ~var:"toa_lw");
    toa_sw = Value.to_float (Interp.module_scalar st ~module_name:"fuoutput" ~var:"toa_sw");
    allocations = Interp.allocations st;
  }

(** §4.1.1 verification: every variant must reproduce the original
    serial results.  Returns (variant, max-abs-difference) pairs. *)
let verify ?(threads = 4) () =
  let reference = run ~threads:1 Original_serial in
  List.map
    (fun v ->
      let r = run ~threads v in
      let d a b = Farray.max_abs_diff a b in
      let max_diff =
        List.fold_left Float.max 0.0
          [
            d reference.fuir r.fuir;
            d reference.fdir r.fdir;
            d reference.fds r.fds;
            d reference.sen_lw r.sen_lw;
            Float.abs (reference.checksum -. r.checksum)
            /. Float.max 1.0 (Float.abs reference.checksum);
          ]
      in
      (v, max_diff))
    all_variants

(** {1 Performance} *)

(** Wall-clock seconds for one entropy_interface invocation, measured
    on the interpreter (median of [repeats]). *)
let measure ?(threads = 4) ?(bytecode = true) ?(repeats = 3) (v : variant) :
    float =
  let cu = integrated_cu v in
  let st = Interp.make_state ~printer:ignore cu in
  Interp.set_threads st threads;
  Interp.set_bytecode st bytecode;
  ignore (Interp.call st "sarb_init_profiles" []);
  let args =
    [
      Ast.Real_lit (Sarb_legacy.default_dtemp, true);
      Ast.Real_lit (Sarb_legacy.default_qfac, true);
    ]
  in
  (* warm-up *)
  ignore (Interp.call st "entropy_interface" args);
  let samples =
    List.init repeats (fun _ ->
        let t0 = Fault.now_s () in
        ignore (Interp.call st "entropy_interface" args);
        Fault.now_s () -. t0)
  in
  match List.sort compare samples with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

(** Modeled time (ns) for one entropy_interface invocation on the
    i5-2400-class machine model. *)
let modeled_time ?(threads = 4) (v : variant) : float =
  let cu = integrated_cu v in
  let cfg =
    { (Glaf_perf.Cost.default_config Glaf_perf.Machine.i5_2400) with
      Glaf_perf.Cost.threads }
  in
  Glaf_perf.Cost.time cfg cu "entropy_interface"
    ~args:[ Ast.Real_lit (1.5, true); Ast.Real_lit (1.02, true) ]

(** Figure 5 series: speed-up of each variant over original serial at
    4 threads, from the cost model. *)
let figure5 () =
  let base = modeled_time ~threads:4 Original_serial in
  List.map (fun v -> (variant_name v, base /. modeled_time ~threads:4 v)) all_variants

(** Paper's Figure 5 values for comparison. *)
let figure5_paper =
  [
    ("original serial", 1.00);
    ("GLAF serial", 0.89);
    ("GLAF-parallel v0", 0.48);
    ("GLAF-parallel v1", 0.66);
    ("GLAF-parallel v2", 1.11);
    ("GLAF-parallel v3", 1.41);
  ]

(** Figure 6 series: v3 speed-up over GLAF serial across threads. *)
let figure6 ?(threads = [ 1; 2; 4; 8 ]) () =
  let base = modeled_time ~threads:1 Glaf_serial in
  List.map
    (fun t ->
      (t, base /. modeled_time ~threads:t (Glaf_parallel Directive_policy.V3)))
    threads

let figure6_paper = [ (1, 0.92); (2, 1.24); (4, 1.59); (8, 0.70) ]

(** Table 1: measured SLOC of the GLAF-implemented kernels (from the
    legacy sources they replace) next to the paper's numbers. *)
let table1 () =
  let sloc = Sloc.table (Sarb_legacy.parse ()) in
  List.map
    (fun name ->
      let ours = Option.value (List.assoc_opt name sloc) ~default:0 in
      let paper = Option.value (List.assoc_opt name Sarb_legacy.paper_sloc) ~default:0 in
      (name, paper, ours))
    Sarb_legacy.kernel_names
