(** Structured fault taxonomy and cooperative cancellation.

    Every layer of the serving stack (pool -> interpreter -> service
    -> CLI) reports failures in the same shape: a {!t} classifying
    {e what} went wrong, rendered uniformly by {!to_string} (one-line
    diagnostics) and {!json} (machine-readable: a {!Json.v} that the
    listener embeds in its responses; {!to_json} prints it alone).
    The classes mirror the pipeline stages:

    - [Parse_fault]    — a script or calls file did not parse;
    - [Analysis_fault] — auto-parallelization / codegen / reparse of
                         the generated source failed;
    - [Runtime_fault]  — the interpreted kernel raised (bad argument
                         count, division by zero, bounds, STOP, an
                         injected failure, ...);
    - [Timeout_fault]  — a per-call deadline fired ({!token});
    - [Pool_fault]     — the worker pool lost a domain mid-region
                         ({!Pool_error});
    - [Overload_fault] — the long-lived listener shed the request at
                         admission because its bounded pending queue
                         was at the [--max-pending] high-water mark
                         (or the server was draining).

    [Pool_fault], [Timeout_fault] and [Overload_fault] are
    {e transient} ({!is_transient}): the pool self-heals at the next
    region entry, a deadline may have fired under load, and a shed
    request can be resubmitted once the queue drains.  The other
    classes are deterministic and retrying is pointless.

    The second half of the module is the cooperative cancellation
    substrate behind [oglaf serve --timeout-ms]: a {!token} carries an
    absolute deadline plus an explicit cancel flag, an ambient token
    is installed per served call ({!with_token}), and the pool's chunk
    dispatch and the interpreter's loop bodies poll
    {!check_current} — a runaway kernel raises {!Cancelled} at the
    next chunk/iteration boundary instead of wedging the batch. *)

(** {1 Taxonomy} *)

type t =
  | Parse_fault of { line : int; reason : string }
  | Analysis_fault of { reason : string }
  | Runtime_fault of { call : string; line : int; reason : string }
  | Timeout_fault of { call : string; line : int; reason : string }
  | Pool_fault of { call : string; line : int; reason : string }
  | Overload_fault of { pending : int; limit : int }
      (** [pending] requests queued when admission rejected this one
          against a high-water mark of [limit] *)

(** Fault class alone, for per-batch counts. *)
type cls = Parse | Analysis | Runtime | Timeout | Pool | Overload

let all_classes = [ Parse; Analysis; Runtime; Timeout; Pool; Overload ]

let cls_of = function
  | Parse_fault _ -> Parse
  | Analysis_fault _ -> Analysis
  | Runtime_fault _ -> Runtime
  | Timeout_fault _ -> Timeout
  | Pool_fault _ -> Pool
  | Overload_fault _ -> Overload

let cls_name = function
  | Parse -> "parse"
  | Analysis -> "analysis"
  | Runtime -> "runtime"
  | Timeout -> "timeout"
  | Pool -> "pool"
  | Overload -> "overload"

(** Transient faults are worth retrying: the pool respawns dead
    workers at the next region entry, a timeout may reflect load
    rather than the kernel itself, and a shed request can be
    resubmitted once the pending queue drains.  Parse/analysis/runtime
    faults are deterministic. *)
let is_transient f =
  match cls_of f with
  | Timeout | Pool | Overload -> true
  | Parse | Analysis | Runtime -> false

let reason = function
  | Parse_fault { reason; _ }
  | Analysis_fault { reason }
  | Runtime_fault { reason; _ }
  | Timeout_fault { reason; _ }
  | Pool_fault { reason; _ } ->
    reason
  | Overload_fault { pending; limit } ->
    Printf.sprintf "server overloaded: %d requests pending (max-pending %d)"
      pending limit

let to_string f =
  match f with
  | Parse_fault { line; reason } ->
    Printf.sprintf "parse fault (line %d): %s" line reason
  | Analysis_fault { reason } -> Printf.sprintf "analysis fault: %s" reason
  | Runtime_fault { call; line; reason } ->
    Printf.sprintf "runtime fault in %s (calls line %d): %s" call line reason
  | Timeout_fault { call; line; reason } ->
    Printf.sprintf "timeout fault in %s (calls line %d): %s" call line reason
  | Pool_fault { call; line; reason } ->
    Printf.sprintf "pool fault in %s (calls line %d): %s" call line reason
  | Overload_fault _ -> Printf.sprintf "overload fault: %s" (reason f)

(** Uniform shape: [class] and [reason] always present, [call]/[line]
    when the fault is attached to a served call or source line. *)
let json f : Json.v =
  let cls = ("class", Json.Str (cls_name (cls_of f))) in
  let reason = ("reason", Json.Str (reason f)) in
  Json.Obj
    (match f with
    | Parse_fault { line; _ } -> [ cls; ("line", Json.int line); reason ]
    | Analysis_fault _ -> [ cls; reason ]
    | Runtime_fault { call; line; _ }
    | Timeout_fault { call; line; _ }
    | Pool_fault { call; line; _ } ->
      [ cls; ("call", Json.Str call); ("line", Json.int line); reason ]
    | Overload_fault { pending; limit } ->
      [ cls; ("pending", Json.int pending); ("limit", Json.int limit); reason ])

let to_json f = Json.to_string (json f)

(** {1 Pool failures}

    Raised by {!Pool} when a worker domain dies mid-region (the chunk
    it held is reported, never silently dropped).  Classified as
    [Pool_fault] by the service layer. *)
exception Pool_error of string

(** {1 Cooperative cancellation} *)

(** Raised at a chunk or iteration boundary once the ambient token is
    cancelled or past its deadline.  The payload is the reason,
    e.g. ["deadline of 0.05s exceeded"]. *)
exception Cancelled of string

(** Seconds on CLOCK_MONOTONIC (arbitrary origin): deadlines, retry
    backoff and serving latencies are differences of this clock, so a
    wall-clock step can neither fire them early nor push them out. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type token = {
  tk_cancelled : bool Atomic.t;
  tk_deadline : float;  (** absolute time on {!now_s}; [infinity] = none *)
  tk_budget_s : float;  (** the relative deadline, for messages *)
}

(** Fresh token; [deadline_s] is relative to now. *)
let make_token ?deadline_s () =
  match deadline_s with
  | None ->
    { tk_cancelled = Atomic.make false; tk_deadline = infinity; tk_budget_s = infinity }
  | Some d ->
    { tk_cancelled = Atomic.make false; tk_deadline = now_s () +. d; tk_budget_s = d }

let cancel tk = Atomic.set tk.tk_cancelled true

let expired tk =
  Atomic.get tk.tk_cancelled
  || (tk.tk_deadline < infinity && now_s () > tk.tk_deadline)

(** @raise Cancelled if the token is cancelled or past its deadline. *)
let check tk =
  if Atomic.get tk.tk_cancelled then raise (Cancelled "call cancelled")
  else if tk.tk_deadline < infinity && now_s () > tk.tk_deadline then
    raise (Cancelled (Printf.sprintf "deadline of %gs exceeded" tk.tk_budget_s))

(* The ambient token is per-domain: with concurrent batch serving
   several calls are in flight at once, each on its own slot domain
   with its own deadline, so a process-global slot would let one
   call's deadline cancel another.  The pool captures the caller's
   token at region entry and re-installs it (via {!with_token_opt})
   around every chunk task it runs on a worker or spawned domain, so
   a chunk polls the deadline of the call it belongs to wherever it
   executes. *)
let ambient : token option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get ambient

(** Run [f] with [tk] installed as this domain's ambient token
    (restored on exit); the pool and interpreter poll it via
    {!check_current}. *)
let with_token tk f =
  let prev = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some tk);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f

(** [with_token_opt (current ()) f] run on another domain propagates
    the caller's cancellation context there; [None] is a plain call. *)
let with_token_opt tko f =
  match tko with None -> f () | Some tk -> with_token tk f

(** Poll point: cheap no-op when no token is installed. *)
let check_current () =
  match Domain.DLS.get ambient with None -> () | Some tk -> check tk
