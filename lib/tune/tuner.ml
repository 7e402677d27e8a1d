(** The variant autotuner: enumerate, measure, verify, cache.

    For every directive-carrying loop of a program the tuner walks the
    {!Variant} space (serial × schedule × chunk × collapse), runs each
    candidate on the interpreter's bytecode path, and keeps the
    fastest one {e that passed the bit-identity gate} — every
    candidate's value, array state, and PRINT bytes are compared
    against the serial baseline on IEEE-754 bit patterns via
    {!Glaf_lift.Verify} before its time is allowed to count.  Each
    measured run executes under a {!Glaf_runtime.Fault} deadline
    token, so a variant that wedges is disqualified at the next chunk
    boundary instead of hanging the search.

    Measured wall time is cross-checked against the static cost model
    ({!Glaf_perf.Cost} on the {!Glaf_perf.Machine.interp_host}
    profile): the per-loop report says whether the model's predicted
    winner landed within 10% of the measured one.

    Winners are cached in a {!Plan} keyed by (structural loop digest ×
    machine profile); a digest already present in the supplied prior
    plan is trusted and skipped — a second tune run over unchanged
    source does no searching at all. *)

open Glaf_fortran
module Verify = Glaf_lift.Verify
module Fault = Glaf_runtime.Fault
module Interp = Glaf_interp.Interp
module Value = Glaf_runtime.Value
module Farray = Glaf_runtime.Farray
module Machine = Glaf_perf.Machine
module Cost = Glaf_perf.Cost

type site = {
  st_sub : string;  (** owning subprogram (or main program) *)
  st_ord : int;  (** 1-based pre-order index among its directive loops *)
  st_label : string;  (** ["sub#ord"] *)
  st_digest : string;  (** {!Variant.loop_digest} *)
  st_loop : Ast.do_loop;
}

type trial = {
  tr_variant : Variant.t;
  tr_ms : float;  (** min wall time over repeats; meaningless if not ok *)
  tr_model_ms : float option;  (** static-model estimate, when computable *)
  tr_ok : bool;
  tr_note : string option;  (** why the trial was disqualified *)
}

type loop_result = {
  lr_site : site;
  lr_trials : trial list;  (** empty when served from the prior plan *)
  lr_winner : Variant.t;
  lr_winner_ms : float;
  lr_default : Variant.t;
  lr_default_ms : float;
  lr_serial_ms : float;
  lr_model_pick : Variant.t option;  (** static model's predicted winner *)
  lr_model_agrees : bool;
      (** model's pick measured within 10% of the actual winner *)
  lr_verified : int;  (** configurations proved bit-identical *)
  lr_cached : bool;  (** taken from the prior plan, search skipped *)
}

type report = {
  tn_machine : string;
  tn_threads : int;
  tn_loops : loop_result list;
  tn_plan : Plan.t;
  tn_cached : int;  (** loops served from the prior plan *)
  tn_compose_threads : int list;
      (** thread counts the composed program was gated at *)
  tn_compose_errors : string list;
      (** bit-identity failures of the fully rewritten program; [] =
          every winner composes cleanly *)
}

(* --- loop-site discovery and rewriting ----------------------------------- *)

(* Pre-order map over the directive-carrying loops of a body; [f] sees
   the 1-based ordinal.  The ordinal is decided by the loop's
   *original* directive, so [f] turning a directive off does not shift
   later ordinals. *)
let map_directive_loops (f : int -> Ast.do_loop -> Ast.do_loop) stmts =
  let ctr = ref 0 in
  let rec go ss = List.map stmt ss
  and stmt s =
    match s with
    | Ast.Do l ->
      let l' =
        match l.Ast.do_omp with
        | Some _ ->
          incr ctr;
          f !ctr l
        | None -> l
      in
      Ast.Do { l' with Ast.do_body = go l'.Ast.do_body }
    | Ast.If_block (branches, else_) ->
      Ast.If_block
        (List.map (fun (c, b) -> (c, go b)) branches, go else_)
    | Ast.If_arith (c, s) -> Ast.If_arith (c, stmt s)
    | Ast.Do_while (c, b) -> Ast.Do_while (c, go b)
    | Ast.Omp_atomic s -> Ast.Omp_atomic (stmt s)
    | Ast.Omp_critical b -> Ast.Omp_critical (go b)
    | s -> s
  in
  go stmts

let bodies_of (cu : Ast.compilation_unit) : (string * Ast.stmt list) list =
  List.concat_map
    (function
      | Ast.Module m ->
        List.map
          (fun sp -> (sp.Ast.sub_name, sp.Ast.sub_body))
          m.Ast.mod_contains
      | Ast.Standalone sp -> [ (sp.Ast.sub_name, sp.Ast.sub_body) ]
      | Ast.Main m -> [ (m.Ast.main_name, m.Ast.main_body) ])
    cu

(** Every directive-carrying loop of the program, pre-order per
    subprogram.  Duplicate structural digests are dropped (two
    textually identical loops share one plan entry). *)
let sites (cu : Ast.compilation_unit) : site list =
  let acc = ref [] and seen = Hashtbl.create 16 in
  List.iter
    (fun (owner, body) ->
      ignore
        (map_directive_loops
           (fun ord l ->
             let digest = Variant.loop_digest l in
             if not (Hashtbl.mem seen digest) then (
               Hashtbl.replace seen digest ();
               acc :=
                 {
                   st_sub = owner;
                   st_ord = ord;
                   st_label = Printf.sprintf "%s#%d" owner ord;
                   st_digest = digest;
                   st_loop = l;
                 }
                 :: !acc);
             l)
           body))
    (bodies_of cu);
  List.rev !acc

(* Rewrite exactly one site of [cu] to variant [v]. *)
let rewrite_site (cu : Ast.compilation_unit) (site : site) (v : Variant.t) :
    Ast.compilation_unit =
  let rewrite_body name body =
    if name <> site.st_sub then body
    else
      map_directive_loops
        (fun ord l -> if ord = site.st_ord then Variant.apply v l else l)
        body
  in
  let map_sub sp =
    { sp with Ast.sub_body = rewrite_body sp.Ast.sub_name sp.Ast.sub_body }
  in
  List.map
    (function
      | Ast.Module m ->
        Ast.Module
          { m with Ast.mod_contains = List.map map_sub m.Ast.mod_contains }
      | Ast.Standalone sp -> Ast.Standalone (map_sub sp)
      | Ast.Main m ->
        Ast.Main
          { m with Ast.main_body = rewrite_body m.Ast.main_name m.Ast.main_body })
    cu

(* --- measuring and verifying one candidate program ----------------------- *)

let ( let* ) = Result.bind

(* Wall-time one program: fresh state per repeat, setup untimed, the
   call list timed, minimum over repeats.  The whole measurement runs
   under a deadline token, so runaway variants are cut off at a chunk
   or iteration boundary. *)
let measure ?deadline_s ~threads ~repeats ~setup ~calls cu :
    (float, string) result =
  let run () =
    let st = Interp.make_state ~printer:(fun _ -> ()) cu in
    Interp.set_bytecode st true;
    Interp.set_threads st threads;
    List.iter (fun (f, a) -> ignore (Interp.call st f a)) setup;
    let t0 = Fault.now_s () in
    List.iter (fun (f, a) -> ignore (Interp.call st f a)) calls;
    (Fault.now_s () -. t0) *. 1000.
  in
  try
    let tk = Fault.make_token ?deadline_s () in
    Fault.with_token tk (fun () ->
        let best = ref infinity in
        for _ = 1 to repeats do
          let ms = run () in
          if ms < !best then best := ms
        done;
        Ok !best)
  with
  | Fault.Cancelled why -> Error ("timeout: " ^ why)
  | Interp.Fortran_error m -> Error ("fortran error: " ^ m)
  | Value.Runtime_error m -> Error ("runtime error: " ^ m)
  | Farray.Bounds_error m -> Error ("bounds error: " ^ m)
  | exn -> Error (Printexc.to_string exn)

(* Bit-identity gate: each call of the candidate program, at [threads],
   against the serial baseline outcome.  Returns the number of
   configurations that passed, or the first divergence. *)
let verify_calls ?deadline_s ~threads ~setup ~calls ~baselines cu :
    (int, string) result =
  try
    let tk = Fault.make_token ?deadline_s () in
    Fault.with_token tk (fun () ->
        List.fold_left2
          (fun acc (name, args) baseline ->
            let* n = acc in
            let o = Verify.run_call ~threads ~setup cu name args in
            let label = Printf.sprintf "%s@%dT" name threads in
            let* () = Verify.compare_outcomes ~label baseline o in
            Ok (n + 1))
          (Ok 0) calls baselines)
  with
  | Fault.Cancelled why -> Error ("timeout: " ^ why)
  | exn -> Error (Printexc.to_string exn)

let model_ms_of ~cfg ~calls cu : float option =
  try
    Some
      (List.fold_left
         (fun acc (name, args) -> acc +. Cost.time ~args cfg cu name)
         0.0 calls
       /. 1e6)
  with _ -> None

(* --- tuning one loop ------------------------------------------------------ *)

(* Keep the default unless a challenger wins by more than the
   hysteresis margin: re-tuning on a noisy machine should not flap
   between near-tied variants. *)
let hysteresis = 1.03

(* The model "agrees" when the variant it ranked first actually
   measured within this factor of the measured winner. *)
let model_tolerance = 1.10

(* Is bit-identity at >1 thread even possible for this loop?  A
   reduction reassociates floating-point partials across chunks —
   that reordering is the accepted OpenMP semantic, so reduction
   loops are gated at 1 thread only (where chunk order is serial
   order and identity holds by construction). *)
let reduction_free (l : Ast.do_loop) =
  match l.Ast.do_omp with
  | Some d -> d.Ast.omp_reduction = []
  | None -> true

let tune_site ~threads ~gate_threads ~repeats ~deadline_s ~cfg ~setup ~calls
    ~baselines cu (site : site) : loop_result =
  let variants = Variant.enumerate site.st_loop in
  let default =
    match Variant.default_of site.st_loop with
    | Some d -> d
    | None -> Variant.Serial
  in
  let verified_total = ref 0 in
  let trials =
    List.map
      (fun v ->
        let cu_v = rewrite_site cu site v in
        let model_ms = model_ms_of ~cfg ~calls cu_v in
        match
          let* () =
            List.fold_left
              (fun acc t ->
                let* () = acc in
                let* n =
                  verify_calls ~deadline_s ~threads:t ~setup ~calls ~baselines
                    cu_v
                in
                verified_total := !verified_total + n;
                Ok ())
              (Ok ()) gate_threads
          in
          let* ms = measure ~deadline_s ~threads ~repeats ~setup ~calls cu_v in
          Ok ms
        with
        | Ok ms ->
          { tr_variant = v; tr_ms = ms; tr_model_ms = model_ms;
            tr_ok = true; tr_note = None }
        | Error note ->
          { tr_variant = v; tr_ms = infinity; tr_model_ms = model_ms;
            tr_ok = false; tr_note = Some note })
      variants
  in
  let ok_trials = List.filter (fun t -> t.tr_ok) trials in
  let find_trial v =
    List.find_opt (fun t -> Variant.equal t.tr_variant v) trials
  in
  let best =
    match ok_trials with
    | [] ->
      (* nothing verified (should not happen: Serial is in the space
         and runs the loop exactly as the baseline does) — keep the
         default untouched *)
      { tr_variant = default; tr_ms = nan; tr_model_ms = None;
        tr_ok = false; tr_note = Some "no variant verified" }
    | t :: ts ->
      List.fold_left (fun a b -> if b.tr_ms < a.tr_ms then b else a) t ts
  in
  let default_trial = find_trial default in
  let winner =
    (* hysteresis: a challenger must beat the default by >3% *)
    match default_trial with
    | Some d when d.tr_ok && d.tr_ms <= best.tr_ms *. hysteresis -> d
    | _ -> best
  in
  let default_ms =
    match default_trial with Some d when d.tr_ok -> d.tr_ms | _ -> nan
  in
  let serial_ms =
    match find_trial Variant.Serial with
    | Some t when t.tr_ok -> t.tr_ms
    | _ -> ( match default_trial with Some d when d.tr_ok -> d.tr_ms | _ -> nan)
  in
  let model_pick =
    List.fold_left
      (fun acc t ->
        match (t.tr_model_ms, acc) with
        | Some m, Some (_, best_m) when m < best_m -> Some (t, m)
        | Some m, None -> Some (t, m)
        | _ -> acc)
      None trials
    |> Option.map (fun (t, _) -> t)
  in
  let model_agrees =
    match model_pick with
    | Some p -> p.tr_ok && p.tr_ms <= winner.tr_ms *. model_tolerance
    | None -> false
  in
  {
    lr_site = site;
    lr_trials = trials;
    lr_winner = winner.tr_variant;
    lr_winner_ms = winner.tr_ms;
    lr_default = default;
    lr_default_ms = default_ms;
    lr_serial_ms = serial_ms;
    lr_model_pick = Option.map (fun t -> t.tr_variant) model_pick;
    lr_model_agrees = model_agrees;
    lr_verified = !verified_total;
    lr_cached = false;
  }

(* --- the whole program ---------------------------------------------------- *)

let entry_of_result (r : loop_result) : Plan.entry =
  {
    Plan.pe_loop = r.lr_site.st_label;
    pe_digest = r.lr_site.st_digest;
    pe_variant = r.lr_winner;
    pe_default = r.lr_default;
    pe_ms = r.lr_winner_ms;
    pe_default_ms = r.lr_default_ms;
    pe_serial_ms = r.lr_serial_ms;
    pe_verified = r.lr_verified;
    pe_model_agrees = r.lr_model_agrees;
  }

let result_of_entry (site : site) (e : Plan.entry) : loop_result =
  {
    lr_site = site;
    lr_trials = [];
    lr_winner = e.Plan.pe_variant;
    lr_winner_ms = e.Plan.pe_ms;
    lr_default = e.Plan.pe_default;
    lr_default_ms = e.Plan.pe_default_ms;
    lr_serial_ms = e.Plan.pe_serial_ms;
    lr_model_pick = None;
    lr_model_agrees = e.Plan.pe_model_agrees;
    lr_verified = e.Plan.pe_verified;
    lr_cached = true;
  }

(** Tune every directive-carrying loop of [cu] against the workload
    [calls] (each preceded by the [setup] calls on a fresh state).

    [baseline] is the serial reference program — by default [cu]
    itself, run at 1 thread; pass the original un-annotated unit when
    tuning an autopar-annotated legacy file.  [plan] is a prior plan:
    entries whose digest (and machine) still match are reused without
    any search.  [deadline_s] bounds each candidate's verification and
    measurement phases separately. *)
let tune ?threads ?(repeats = 3) ?(deadline_s = 5.0) ?machine ?plan
    ?baseline ?(setup = []) ~calls (cu : Ast.compilation_unit) : report =
  let threads =
    match threads with
    | Some t -> max 1 t
    | None -> max 2 (min 4 (Domain.recommended_domain_count ()))
  in
  let machine =
    match machine with Some m -> m | None -> Machine.interp_host ()
  in
  let machine_key = Plan.machine_key machine in
  let cfg = { (Cost.default_config machine) with Cost.threads } in
  let baseline_cu = match baseline with Some b -> b | None -> cu in
  (* serial reference outcomes, one per call, under a generous deadline *)
  let baselines =
    let tk = Fault.make_token ~deadline_s:(deadline_s *. 4.) () in
    Fault.with_token tk (fun () ->
        List.map
          (fun (name, args) ->
            Verify.run_call ~threads:1 ~setup baseline_cu name args)
          calls)
  in
  List.iter
    (fun (b : Verify.outcome) ->
      match b.Verify.o_error with
      | Some e -> failwith ("tune: serial baseline failed: " ^ e)
      | None -> ())
    baselines;
  let prior_entry digest =
    match plan with
    | Some p when p.Plan.p_machine = machine_key -> Plan.find p digest
    | _ -> None
  in
  let all_sites = sites cu in
  (* Verification runs whole calls, so the measured-thread-count gate
     is only meaningful when NO directive loop anywhere in the program
     carries a reduction clause: one reduction loop reassociates its
     floating-point partials at >1 thread (the accepted OpenMP
     semantic, not a tuning bug) and would fail every candidate.  The
     1-thread gate — where chunk order is serial order and identity
     holds by construction — applies always, to every variant. *)
  let gate =
    if List.for_all (fun s -> reduction_free s.st_loop) all_sites
       && threads > 1
    then [ 1; threads ]
    else [ 1 ]
  in
  let loops =
    List.map
      (fun site ->
        match prior_entry site.st_digest with
        | Some e -> result_of_entry site e
        | None ->
          tune_site ~threads ~gate_threads:gate ~repeats ~deadline_s ~cfg
            ~setup ~calls ~baselines cu site)
      all_sites
  in
  let plan' = Plan.make ~machine:machine_key (List.map entry_of_result loops) in
  (* compose all winners and re-run the bit-identity gate end to end *)
  let compose_errors =
    if loops = [] then []
    else
      let cu' = Plan.apply ~machine:machine_key plan' cu in
      List.concat_map
        (fun t ->
          match
            verify_calls ~deadline_s ~threads:t ~setup ~calls ~baselines cu'
          with
          | Ok _ -> []
          | Error e -> [ Printf.sprintf "composed plan at %d threads: %s" t e ])
        gate
  in
  {
    tn_machine = machine_key;
    tn_threads = threads;
    tn_loops = loops;
    tn_plan = plan';
    tn_cached = List.length (List.filter (fun l -> l.lr_cached) loops);
    tn_compose_threads = gate;
    tn_compose_errors = compose_errors;
  }

(* --- reporting ------------------------------------------------------------ *)

let ms_str f = if Float.is_nan f then "-" else Printf.sprintf "%.2f" f

let speedup_str num den =
  if Float.is_nan num || Float.is_nan den || den <= 0. then "-"
  else Printf.sprintf "%.2fx" (num /. den)

(** The per-loop win/loss table ([oglaf tune]'s report, and the
    extension of the Table-2 reproduction to per-loop granularity).
    One row per loop: measured default / winner / serial times, the
    win-loss verdict against the default, whether the static cost
    model's pick agreed with measurement, how many configurations were
    proved bit-identical, and whether the row came from the search or
    the prior plan. *)
let table_string (r : report) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "per-loop win/loss table — machine %s, %d threads (%d loops, %d cached)\n"
    r.tn_machine r.tn_threads (List.length r.tn_loops) r.tn_cached;
  let rows =
    List.map
      (fun l ->
        let verdict =
          if l.lr_cached then "cached"
          else if Variant.equal l.lr_winner l.lr_default then "tie"
          else "win"
        in
        [
          l.lr_site.st_label;
          Variant.to_string l.lr_default;
          ms_str l.lr_default_ms;
          Variant.to_string l.lr_winner;
          ms_str l.lr_winner_ms;
          speedup_str l.lr_default_ms l.lr_winner_ms;
          ms_str l.lr_serial_ms;
          verdict;
          (if l.lr_model_agrees then "agrees" else "disagrees");
          string_of_int l.lr_verified;
        ])
      r.tn_loops
  in
  let header =
    [ "loop"; "default"; "def ms"; "winner"; "win ms"; "speedup";
      "serial ms"; "result"; "model"; "verified" ]
  in
  let all = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          Buffer.add_string b cell;
          if i < ncols - 1 then
            Buffer.add_string b
              (String.make (List.nth widths i - String.length cell + 2) ' '))
        row;
      Buffer.add_char b '\n')
    all;
  (* why candidates fell out of the race: distinct disqualification
     reasons per loop, with how many variants each reason killed *)
  List.iter
    (fun l ->
      let dq = List.filter (fun t -> not t.tr_ok) l.lr_trials in
      let reasons = Hashtbl.create 4 in
      List.iter
        (fun t ->
          let note = Option.value ~default:"?" t.tr_note in
          Hashtbl.replace reasons note
            (1 + Option.value ~default:0 (Hashtbl.find_opt reasons note)))
        dq;
      Hashtbl.iter
        (fun note n ->
          Printf.bprintf b "%s: %d variant%s disqualified: %s\n"
            l.lr_site.st_label n
            (if n = 1 then "" else "s")
            note)
        reasons)
    r.tn_loops;
  (match r.tn_compose_errors with
   | [] ->
     Printf.bprintf b
       "all winners bit-identical to the serial baseline (composed, at %s)\n"
       (String.concat " and "
          (List.map
             (fun t -> Printf.sprintf "%d thread%s" t (if t = 1 then "" else "s"))
             r.tn_compose_threads))
   | errs ->
     List.iter (fun e -> Printf.bprintf b "COMPOSE FAILURE: %s\n" e) errs);
  Buffer.contents b
