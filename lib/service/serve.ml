(** Batched kernel serving.

    The paper's workflow compiles a GPI action script once and then
    runs the generated kernel many times (parameter sweeps, per-mesh
    invocations).  [oglaf run] pays the whole
    script -> analysis -> codegen -> parse pipeline on every
    invocation; this module performs that pipeline {e once}
    ({!compile}) and then serves a batch of kernel calls from it
    ({!run_calls}), with a fresh interpreter state per call so
    invocations cannot leak grid state into each other.

    The calls file format is one call per line:
    {[
      # comment
      saxpy(1000, 2.5)
      dot(1000)
    ]}
    Arguments are integer or real literals.  Blank lines and lines
    starting with [#] are skipped.

    Fault tolerance: {!run_call} returns [(outcome, Fault.t) result]
    instead of raising — one bad call (runtime error, per-call
    deadline, injected or real worker-pool failure) is classified by
    the {!Fault} taxonomy and the batch keeps serving.  {!run_calls}
    runs the batch on the executor core ({!Core}), collects a
    per-batch fault summary (counts by class, first few messages) and
    supports abort-after-K ([max_errors]) and retry-with-backoff for
    transient faults ([retries]). *)

open Glaf_fortran
open Glaf_runtime

(** One kernel invocation from a calls file. *)
type call = {
  cl_line : int;  (** 1-based line in the calls file *)
  cl_name : string;  (** function of the script to invoke *)
  cl_args : Ast.expr list;
}

exception Calls_error of int * string

let calls_error ln fmt =
  Format.kasprintf (fun s -> raise (Calls_error (ln, s))) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let parse_arg ln pos s =
  let s = String.trim s in
  if s = "" then calls_error ln "empty argument slot (position %d)" pos
  else
    match int_of_string_opt s with
    | Some n -> Ast.Int_lit n
    | None -> (
      match float_of_string_opt s with
      | Some x -> Ast.Real_lit (x, true)
      | None -> calls_error ln "argument %S is not an integer or real literal" s)

(** Hard per-line cap shared by the calls-file parser and the socket
    wire protocol ({!Listener}): a pathological multi-megabyte request
    line is rejected with a classified parse fault up front instead of
    being trimmed, split and repeatedly copied. *)
let max_call_line_bytes = 1_048_576

let parse_call ln line =
  match String.index_opt line '(' with
  | None ->
    let name = String.trim line in
    if name = "" || not (String.for_all is_ident_char name) then
      calls_error ln "expected 'function(arg, ...)', got %S" line;
    { cl_line = ln; cl_name = name; cl_args = [] }
  | Some op ->
    let name = String.trim (String.sub line 0 op) in
    if name = "" || not (String.for_all is_ident_char name) then
      calls_error ln "bad function name %S" (String.trim (String.sub line 0 op));
    let cp =
      match String.rindex_opt line ')' with
      | None -> calls_error ln "missing ')' in call to %s" name
      | Some cp -> cp
    in
    let trailing =
      String.trim (String.sub line (cp + 1) (String.length line - cp - 1))
    in
    if trailing <> "" then
      calls_error ln "trailing text %S after ')' in call to %s" trailing name;
    let inside = String.trim (String.sub line (op + 1) (cp - op - 1)) in
    let args =
      if inside = "" then []
      else List.mapi (fun i a -> parse_arg ln (i + 1) a)
             (String.split_on_char ',' inside)
    in
    { cl_line = ln; cl_name = name; cl_args = args }

(** Parse a calls file ([#] comments and blank lines skipped).  CRLF
    line endings and blank trailing lines are accepted (each line is
    trimmed before dispatch); a single line over
    {!max_call_line_bytes} is an error, not an allocation storm.
    @raise Calls_error on malformed or oversized lines. *)
let parse_calls text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         let ln = i + 1 in
         if String.length line > max_call_line_bytes then
           calls_error ln "line exceeds %d bytes" max_call_line_bytes;
         let s = String.trim line in
         if s = "" || s.[0] = '#' then [] else [ parse_call ln s ])
       lines)

(* --- compile once ------------------------------------------------------- *)

(** A script compiled once for repeated serving: the generated Fortran
    source and its parsed compilation unit. *)
type compiled = {
  co_source : string;  (** generated Fortran source *)
  co_unit : Ast.compilation_unit;
}

(** Build -> auto-parallelize -> generate Fortran -> parse, once.
    [transform] rewrites the parsed unit before it is served — the
    hook a tuning plan ({!Glaf_tune.Plan.apply}) plugs into; the
    default is the identity.
    @raise Glaf_builder.Gpi_script.Script_error on bad scripts. *)
let compile ?(transform = fun cu -> cu) gpi_text =
  let program = Glaf_builder.Gpi_script.run gpi_text in
  let pure = Intrinsics.names () in
  let annotated, _report = Glaf_analysis.Autopar.run ~pure program in
  let src =
    Glaf_codegen.Fortran_gen.to_source
      ~opts:Glaf_codegen.Fortran_gen.default_options annotated
  in
  { co_source = src; co_unit = transform (Parser.parse_string src) }

(** Non-raising {!compile}: script errors come back as [Parse_fault],
    failures of the analysis/codegen/reparse stages as
    [Analysis_fault]. *)
let compile_result ?transform gpi_text =
  match compile ?transform gpi_text with
  | c -> Ok c
  | exception Glaf_builder.Gpi_script.Script_error (line, reason) ->
    Error (Fault.Parse_fault { line; reason })
  | exception Parser.Parse_error (line, reason) ->
    Error
      (Fault.Analysis_fault
         { reason = Printf.sprintf "generated source line %d: %s" line reason })
  | exception e -> Error (Fault.Analysis_fault { reason = Printexc.to_string e })

(* --- serve -------------------------------------------------------------- *)

(** Result of one served invocation. *)
type outcome = {
  oc_call : call;
  oc_value : Value.t option;  (** function result; [None] for subroutines *)
  oc_output : string;  (** PRINT output captured during the call *)
  oc_time_s : float;  (** seconds for this invocation ({!Fault.now_s}) *)
}

(* Map an exception escaping one interpreted call to the structured
   taxonomy.  Anything unrecognised still becomes a runtime fault:
   one bad call must never take the batch down. *)
let classify_exn (call : call) (e : exn) : Fault.t =
  let name = call.cl_name and line = call.cl_line in
  match e with
  | Fault.Cancelled reason -> Fault.Timeout_fault { call = name; line; reason }
  | Fault.Pool_error reason -> Fault.Pool_fault { call = name; line; reason }
  | Glaf_interp.Interp.Fortran_error reason ->
    Fault.Runtime_fault { call = name; line; reason }
  | Value.Runtime_error reason ->
    Fault.Runtime_fault { call = name; line; reason }
  | Farray.Bounds_error reason ->
    Fault.Runtime_fault { call = name; line; reason = "array bounds: " ^ reason }
  | Faultinject.Injected what ->
    Fault.Runtime_fault { call = name; line; reason = "injected fault: " ^ what }
  | Glaf_interp.Interp.Stop_program msg ->
    Fault.Runtime_fault
      {
        call = name;
        line;
        reason =
          (match msg with Some m -> "STOP: " ^ m | None -> "STOP reached");
      }
  | Stack_overflow ->
    Fault.Runtime_fault { call = name; line; reason = "stack overflow" }
  | e ->
    Fault.Runtime_fault { call = name; line; reason = Printexc.to_string e }

(** Run one call on a {e fresh} interpreter state (per-invocation grid
    isolation: SAVE variables, module data and allocations of one call
    are invisible to the next).  Never raises: failures come back as a
    classified {!Fault.t}.

    [deadline_s] installs a per-call watchdog token polled at pool
    chunk boundaries and interpreter loop iterations — a runaway
    kernel returns [Timeout_fault] instead of wedging the batch.  One
    call is one attempt: retrying transient faults is the executor
    core's job ({!Core}). *)
let run_call ?threads ?sched ?deadline_s ?bytecode compiled call =
  let buf = Buffer.create 64 in
  let token = Fault.make_token ?deadline_s () in
  match
    Fault.with_token token (fun () ->
        let st =
          Glaf_interp.Interp.make_state ~printer:(Buffer.add_string buf)
            compiled.co_unit
        in
        Option.iter (Glaf_interp.Interp.set_threads st) threads;
        Option.iter (Glaf_interp.Interp.set_schedule st) sched;
        Option.iter (Glaf_interp.Interp.set_bytecode st) bytecode;
        let t0 = Fault.now_s () in
        let v = Glaf_interp.Interp.call st call.cl_name call.cl_args in
        let t1 = Fault.now_s () in
        {
          oc_call = call;
          oc_value = v;
          oc_output = Buffer.contents buf;
          oc_time_s = t1 -. t0;
        })
  with
  | oc -> Ok oc
  | exception e -> Error (classify_exn call e)

(** Per-batch fault report. *)
type batch = {
  b_results : (call * (outcome, Fault.t) result) list;
      (** served calls in file order (skipped calls excluded) *)
  b_ok : int;
  b_failed : int;
  b_skipped : int;  (** calls never attempted after a [max_errors] abort *)
  b_by_class : (Fault.cls * int) list;  (** non-zero classes, descending *)
  b_first_faults : Fault.t list;  (** first {!max_reported_faults} faults *)
  b_aborted : bool;
}

let max_reported_faults = 5

let summarize ~results ~skipped ~aborted =
  let ok = List.length (List.filter (fun (_, r) -> Result.is_ok r) results) in
  let faults =
    List.filter_map (function _, Error f -> Some f | _, Ok _ -> None) results
  in
  let by_class =
    List.filter_map
      (fun c ->
        match List.length (List.filter (fun f -> Fault.cls_of f = c) faults) with
        | 0 -> None
        | n -> Some (c, n))
      Fault.all_classes
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    b_results = results;
    b_ok = ok;
    b_failed = List.length faults;
    b_skipped = skipped;
    b_by_class = by_class;
    b_first_faults = List.filteri (fun i _ -> i < max_reported_faults) faults;
    b_aborted = aborted;
  }

(* --- the executor core --------------------------------------------------- *)

(* Idle-wakeup gauge: how many times an executor went to sleep with
   only backoff timers outstanding.  The sleep targets the earliest
   not-before time exactly, so this stays O(retries) per batch rather
   than O(backoff / poll-interval) — test_serve_concurrent pins the
   bound. *)
let c_idle_wakeups = Atomic.make 0
let idle_wakeups () = Atomic.get c_idle_wakeups
let reset_idle_wakeups () = Atomic.set c_idle_wakeups 0

(** The one scheduler that runs calls, for {!run_calls} and the socket
    server ({!Listener}) alike.  Executors run jobs from a ready queue
    and hand each final result to [on_done].  A transient fault
    ({!Fault.is_transient}) with retry budget left is requeued on a
    delayed list, [backoff_s * 2^attempt] out, and the executor moves
    on instead of sleeping the backoff away.  Idle executors block on
    a condition variable, except at most one {e timer} that sleeps
    until the earliest retry is due on a self-pipe that new work can
    poke.  An exception escaping a job is answered as that job's
    [Runtime_fault] and the executor keeps serving. *)
module Core = struct
  type 'a job = {
    j_call : call;
    j_data : 'a;
    mutable j_attempt : int;  (** completed tries *)
    mutable j_not_before : float;  (** earliest next try, on {!Fault.now_s} *)
    mutable j_last_fault : Fault.t option;
  }

  type 'a t = {
    mu : Mutex.t;
    cv : Condition.t;
    ready : 'a job Queue.t;
    mutable delayed : 'a job list;
    mutable active : int;  (** jobs running now *)
    mutable waiting : int;  (** executors blocked on [cv] *)
    mutable timer_due : float;
        (** when the timer executor wakes; [infinity]: no timer asleep *)
    mutable closed : bool;
    mutable aborted : bool;
    wake_r : Unix.file_descr;
    wake_w : Unix.file_descr;
    retries : int;
    backoff_s : float;
    mutable domains : unit Domain.t list;
  }

  let create ?(retries = 0) ?(backoff_s = 0.05) () =
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_w;
    { mu = Mutex.create (); cv = Condition.create (); ready = Queue.create ();
      delayed = []; active = 0; waiting = 0; timer_due = infinity;
      closed = false; aborted = false; wake_r; wake_w; retries; backoff_s;
      domains = [] }

  let earliest t =
    List.fold_left (fun a j -> Float.min a j.j_not_before) infinity t.delayed

  (* under [mu]: nothing left to run or to retry, and none running *)
  let finished t =
    t.closed && Queue.is_empty t.ready && t.delayed = [] && t.active = 0

  (* Under [mu], after any change to the queues.  Only work wakes a
     blocked executor: one per ready job or untimed backoff, all at
     abort or the end (a finished job's executor takes the next one
     itself).  The timer is poked when it would otherwise sleep past
     work: a ready job no blocked executor can take, or a backoff that
     is now due sooner (or gone). *)
  let notify t =
    if t.aborted || finished t then Condition.broadcast t.cv
    else if t.waiting > 0
            && ((not (Queue.is_empty t.ready))
               || (t.delayed <> [] && t.timer_due = infinity))
    then Condition.signal t.cv;
    if t.timer_due < infinity
       && ((t.waiting = 0 && not (Queue.is_empty t.ready))
          || earliest t <> t.timer_due)
    then
      try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
      with Unix.Unix_error _ -> ()  (* pipe full: a wakeup is pending *)

  let sleep_until t due =
    let timeout = Float.max 0.0005 (due -. Fault.now_s ()) in
    match Unix.select [ t.wake_r ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> ignore (Unix.read t.wake_r (Bytes.create 64) 0 64)
    | exception Unix.Unix_error (EINTR, _, _) -> ()

  (* under [mu]: jobs neither running nor answered *)
  let backlog t = Queue.length t.ready + List.length t.delayed

  (** Jobs waiting to run: ready plus in retry backoff. *)
  let pending t = Mutex.protect t.mu (fun () -> backlog t)

  (** Queue a job unless the core is closed or [limit] jobs are
      already {!pending}; [Error n] reports the [n] seen. *)
  let submit ?(limit = max_int) t call data =
    Mutex.protect t.mu (fun () ->
        let n = backlog t in
        if t.closed || n >= limit then Error n
        else begin
          Queue.push
            { j_call = call; j_data = data; j_attempt = 0; j_not_before = 0.;
              j_last_fault = None }
            t.ready;
          notify t;
          Ok ()
        end)

  (** Stop retrying and drop every job that is not running; returns
      them with their last fault ([None]: never attempted).  Running
      jobs still finish and reach [on_done]. *)
  let abort t =
    Mutex.protect t.mu (fun () ->
        t.aborted <- true;
        let dropped = List.of_seq (Queue.to_seq t.ready) @ t.delayed in
        Queue.clear t.ready;
        t.delayed <- [];
        notify t;
        List.map (fun j -> (j.j_data, j.j_last_fault)) dropped)

  (** Serve on the calling domain until the core is closed and every
      job is answered.  [run] makes one attempt; [on_done] receives
      each final result, outside the core's lock. *)
  let work t ~run ~on_done =
    let rec loop () =
      (* under [mu]: promote delayed jobs whose backoff has elapsed *)
      if t.delayed <> [] then begin
        let now = Fault.now_s () in
        let due, still = List.partition (fun j -> j.j_not_before <= now) t.delayed in
        t.delayed <- still;
        (* one wakeup per promoted job *)
        List.iter (fun j -> Queue.push j t.ready; notify t) due
      end;
      if not (Queue.is_empty t.ready) then begin
        let j = Queue.pop t.ready in
        t.active <- t.active + 1;
        Mutex.unlock t.mu;
        let r =
          try run j.j_data j.j_call with e -> Error (classify_exn j.j_call e)
        in
        let deliver () =
          try on_done j.j_data r
          with e -> Printf.eprintf "oglaf: executor error: %s\n%!" (Printexc.to_string e)
        in
        let retry =
          Result.fold r ~ok:(fun _ -> false) ~error:(fun f ->
              Fault.is_transient f && j.j_attempt < t.retries)
        in
        (* a final result is answered before the lock is retaken, and
           the job counts as running until then *)
        if not retry then deliver ();
        Mutex.lock t.mu;
        (match r with
        | Error f when retry && not t.aborted ->
          j.j_last_fault <- Some f;
          j.j_not_before <-
            Fault.now_s () +. (t.backoff_s *. (2.0 ** float_of_int j.j_attempt));
          j.j_attempt <- j.j_attempt + 1;
          t.delayed <- j :: t.delayed;
          notify t
        | _ when retry ->
          Mutex.unlock t.mu;
          deliver ();
          Mutex.lock t.mu
        | _ -> ());
        t.active <- t.active - 1;
        if finished t then notify t;
        loop ()
      end
      else if t.delayed <> [] && t.timer_due = infinity then begin
        let due = earliest t in
        t.timer_due <- due;
        Atomic.incr c_idle_wakeups;
        Mutex.unlock t.mu;
        sleep_until t due;
        Mutex.lock t.mu;
        t.timer_due <- infinity;
        loop ()
      end
      else if finished t then notify t
      else begin
        t.waiting <- t.waiting + 1;
        Condition.wait t.cv t.mu;
        t.waiting <- t.waiting - 1;
        loop ()
      end
    in
    Mutex.lock t.mu;
    loop ();
    Mutex.unlock t.mu

  (** Spawn [n] executor domains running {!work}. *)
  let start t n ~run ~on_done =
    t.domains <-
      List.init (max 0 n) (fun _ -> Domain.spawn (fun () -> work t ~run ~on_done))

  (** No more submissions; executors exit once every job is answered. *)
  let close t =
    Mutex.protect t.mu (fun () ->
        t.closed <- true;
        notify t)

  (** {!close}, wait for the spawned executors, release the pipe. *)
  let join t =
    close t;
    List.iter Domain.join t.domains;
    Unix.close t.wake_r;
    Unix.close t.wake_w
end

type slot_result =
  | Pending
  | Done of (outcome, Fault.t) result
  | Skip  (** never attempted: batch aborted first *)

(** Serve a batch of calls.  A failing call is recorded and serving
    {e continues} with the next call; [max_errors] aborts the
    remainder of the batch once that many calls have failed
    ([b_skipped]/[b_aborted] report the cut).  [on_result] streams
    each result in file order (the CLI prints from it).  [retries]
    re-runs a call that failed with a transient fault up to that many
    extra times, [backoff_s * 2^attempt] apart, without holding an
    executor during the wait.

    [concurrency] executors run the batch ({!Core}): the calling
    domain plus [concurrency - 1] helper domains.  Each call has its
    own interpreter state and deadline token and multiplexes its
    parallel regions onto the shared worker pool; for deterministic
    schedules the per-call outputs are bit-identical at any
    concurrency — chunk plans and reduction combining order do not
    depend on which worker runs a chunk. *)
let run_calls ?(concurrency = 1) ?threads ?sched ?deadline_s ?bytecode
    ?retries ?backoff_s ?max_errors ?(on_result = fun _ _ -> ()) compiled
    calls =
  let calls = Array.of_list calls in
  let n = Array.length calls in
  let results = Array.make n Pending in
  let mu = Mutex.create () in
  let failed = ref 0 and aborted = ref false and next_emit = ref 0 in
  let core = Core.create ?retries ?backoff_s () in
  (* under [mu]: stream every result whose predecessors have resolved *)
  let rec emit_in_order () =
    if !next_emit < n then
      match results.(!next_emit) with
      | Pending -> ()
      | Skip -> incr next_emit; emit_in_order ()
      | Done r ->
        incr next_emit;
        on_result calls.(!next_emit - 1) r;
        emit_in_order ()
  in
  let record i r =
    results.(i) <- Done r;
    match r with Ok _ -> () | Error _ -> incr failed
  in
  let on_done i r =
    Mutex.protect mu (fun () ->
        record i r;
        (match max_errors with
        | Some k when !failed >= k && not !aborted ->
          aborted := true;
          (* the abort cut: never-attempted calls are skipped; calls
             mid-backoff have failed at least once and keep that fault *)
          List.iter
            (function
              | i, None -> results.(i) <- Skip
              | i, Some f -> record i (Error f))
            (Core.abort core)
        | _ -> ());
        emit_in_order ())
  in
  let run _ call = run_call ?threads ?sched ?deadline_s ?bytecode compiled call in
  Array.iteri (fun i c -> ignore (Core.submit core c i)) calls;
  Core.close core;
  Core.start core (min concurrency n - 1) ~run ~on_done;
  Core.work core ~run ~on_done;
  Core.join core;
  let ordered =
    List.concat
      (List.mapi
         (fun i -> function Done r -> [ (calls.(i), r) ] | Pending | Skip -> [])
         (Array.to_list results))
  in
  summarize ~results:ordered ~skipped:(n - List.length ordered)
    ~aborted:!aborted

let pp_args ppf = function
  | [] -> Format.pp_print_string ppf "()"
  | args ->
    Format.fprintf ppf "(%s)"
      (String.concat ", " (List.map Pp_ast.expr_to_string args))

let pp_outcome ppf oc =
  Format.fprintf ppf "[line %d] %s%a -> %s  (%.3f ms)"
    oc.oc_call.cl_line oc.oc_call.cl_name pp_args oc.oc_call.cl_args
    (match oc.oc_value with
    | Some v -> Value.to_string v
    | None -> "(subroutine completed)")
    (oc.oc_time_s *. 1e3);
  if oc.oc_output <> "" then
    Format.fprintf ppf "@\n%s" (String.trim oc.oc_output)

(** One-line summary plus the first few fault messages, e.g. after a
    partially-failed batch. *)
let pp_batch_summary ppf b =
  Format.fprintf ppf "batch: %d ok, %d failed%s of %d calls"
    b.b_ok b.b_failed
    (if b.b_skipped > 0 then Printf.sprintf ", %d skipped (batch aborted)" b.b_skipped
     else "")
    (b.b_ok + b.b_failed + b.b_skipped);
  if b.b_by_class <> [] then begin
    Format.fprintf ppf "@\nfaults by class:";
    List.iter
      (fun (c, n) -> Format.fprintf ppf " %s:%d" (Fault.cls_name c) n)
      b.b_by_class;
    Format.fprintf ppf "@\nfirst faults:";
    List.iter
      (fun f -> Format.fprintf ppf "@\n  %s" (Fault.to_string f))
      b.b_first_faults
  end
