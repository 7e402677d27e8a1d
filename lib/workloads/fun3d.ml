(** FUN3D experiment orchestration: Figure 7's option matrix.

    Each variant integrates the GLAF-generated five-function
    decomposition with the legacy mesh code, runs it through the
    interpreter on a scaled synthetic mesh (verifying the §4.2.1 RMS
    check against the original serial version), and evaluates the
    paper-scale (1M-cell) performance on the Xeon machine model. *)

open Glaf_fortran
open Glaf_runtime
open Glaf_interp
open Glaf_codegen
open Glaf_integration

type variant =
  | Original_serial
  | Manual_parallel  (** the paper's hand-parallelized comparison *)
  | Glaf of Fun3d_glaf.options

let variant_name = function
  | Original_serial -> "original serial"
  | Manual_parallel -> "manual parallel"
  | Glaf o -> "GLAF " ^ Fun3d_glaf.option_label o

(** The option combinations of Figure 7 (all parallelization levels
    with and without the no-reallocation option), plus the serial and
    manual references. *)
let figure7_variants =
  let open Fun3d_glaf in
  [
    Original_serial;
    Glaf { serial_options with par_edge = true };
    Glaf { serial_options with par_edge = true; no_realloc = true };
    Glaf { serial_options with par_cell = true };
    Glaf { serial_options with par_cell = true; no_realloc = true };
    Glaf { serial_options with par_cell = true; par_edge = true; par_ioff = true };
    Glaf
      {
        serial_options with
        par_cell = true;
        par_edge = true;
        par_ioff = true;
        no_realloc = true;
      };
    Glaf { serial_options with par_edgejp = true };
    Glaf best_options;
    Manual_parallel;
  ]

(** Integration check of the GLAF program against the legacy model. *)
let integration_issues () =
  let legacy = Legacy_model.of_ast (Fun3d_legacy.parse ()) in
  Checker.check legacy (Fun3d_glaf.program ~opts:Fun3d_glaf.serial_options)

let generated_cu opts =
  Fortran_gen.gen_program (Fun3d_glaf.program ~opts)

(* The GLAF entry point is [edgejp]; the legacy entry is
   [jacobian_fill].  Wire a forwarding subroutine so callers are
   uniform. *)
let forwarding_source =
  "subroutine jacobian_fill_glaf()\ncall edgejp()\nend subroutine jacobian_fill_glaf\n"

let integrated_cu (v : variant) : Ast.compilation_unit =
  let legacy = Fun3d_legacy.parse () in
  match v with
  | Original_serial | Manual_parallel -> legacy
  | Glaf opts ->
    let generated =
      generated_cu opts @ Parser.parse_string forwarding_source
    in
    let cu, _ = Splice.substitute ~legacy ~generated in
    cu

let entry_name = function
  | Original_serial -> "jacobian_fill"
  | Manual_parallel -> "jacobian_fill_manual"
  | Glaf _ -> "jacobian_fill_glaf"

type run_result = {
  rms : float;
  allocations : int;
}

(** Run one variant end to end on an [ncell]-cell mesh. *)
let run ?(threads = 4) ?(bytecode = true)
    ?(ncell = Fun3d_legacy.default_test_ncell) (v : variant) : run_result =
  let st = Interp.make_state ~printer:ignore (integrated_cu v) in
  Interp.set_threads st threads;
  Interp.set_bytecode st bytecode;
  ignore (Interp.call st "fun3d_init_mesh" [ Ast.Int_lit ncell ]);
  Interp.reset_allocations st;
  ignore (Interp.call st (entry_name v) []);
  let rms =
    match Interp.call st "fun3d_rms" [] with
    | Some x -> Value.to_float x
    | None -> Value.error "fun3d_rms returned nothing"
  in
  { rms; allocations = Interp.allocations st }

(** §4.2.1 verification: RMS of every variant against the original at
    1e-7 absolute tolerance (the paper's threshold). *)
let verify ?(threads = 4) ?(ncell = Fun3d_legacy.default_test_ncell) () =
  let reference = run ~threads:1 ~ncell Original_serial in
  List.map
    (fun v ->
      let r = run ~threads ~ncell v in
      (v, Float.abs (r.rms -. reference.rms), r.allocations))
    figure7_variants

(** {1 Performance (cost model, paper scale)} *)

let modeled_time ?(threads = 16) ?(ncell = Fun3d_legacy.paper_ncell)
    (v : variant) : float =
  let cu = integrated_cu v in
  let cfg =
    {
      (Glaf_perf.Cost.default_config Glaf_perf.Machine.xeon_e5_2637v4) with
      Glaf_perf.Cost.threads;
      bindings = [ ("nc", ncell) ];
    }
  in
  (* mesh sizes are set by fun3d_init_mesh at runtime; for the static
     cost model we bind them directly *)
  let cfg =
    {
      cfg with
      Glaf_perf.Cost.bindings =
        [ ("ncell", ncell); ("nnode", (ncell / 5) + 8) ] @ cfg.Glaf_perf.Cost.bindings;
    }
  in
  Glaf_perf.Cost.time cfg cu (entry_name v)

(** Figure 7 series: 16-thread speed-up over the original serial
    implementation for each option combination. *)
let figure7 ?(threads = 16) ?(ncell = Fun3d_legacy.paper_ncell) () =
  let base = modeled_time ~threads ~ncell Original_serial in
  List.map
    (fun v -> (variant_name v, base /. modeled_time ~threads ~ncell v))
    figure7_variants
