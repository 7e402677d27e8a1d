(** Long-lived serving over a Unix domain socket.

    [oglaf serve --listen SOCK] turns the batch server into a
    resident service: clients connect to [SOCK], send one request per
    line, and receive one JSON response line per request.  The server
    stays up across client crashes (a dead peer only costs its own
    connection), malformed requests (answered with a parse fault, the
    connection keeps serving), worker deaths (pool supervision
    respawns or degrades, {!Glaf_runtime.Pool.health}) and overload
    (admission control sheds with a structured
    {!Glaf_runtime.Fault.Overload_fault} instead of queueing
    unboundedly).

    {2 Wire protocol}

    Requests (newline-delimited; fields separated by a single tab):
    {[
      run <call>                    invoke <call> on the startup script
      run <call>\t<escaped-script>  invoke on an inline script (compiled
                                    through the content-hash cache)
      status                        one-line server status JSON
    ]}
    [<call>] uses the calls-file syntax ([name(arg, ...)]); the inline
    script payload escapes backslash, newline, tab and carriage return
    as [\\], [\n], [\t], [\r] ({!escape_script}).  Blank lines are
    ignored; a request line over {!Serve.max_call_line_bytes} is
    answered with a parse fault and the oversized line is discarded
    without buffering it — the cap holds per line whether the line
    arrives byte-by-byte or completed inside one read chunk.

    Responses are one JSON object per line carrying [seq], the 1-based
    per-connection request number — executors answer out of order
    under pipelining, so clients match on [seq]:
    {[
      {"seq":1,"ok":true,"call":"pi_mid(100)","value":"3.1416...",
       "output":"","ms":0.412}
      {"seq":2,"ok":false,"fault":{"class":"overload","pending":64,...}}
    ]}
    Every response and status line is a {!Glaf_runtime.Json.v} printed
    by {!Glaf_runtime.Json.to_string}: compact, keys in the order
    shown, timings rounded to 3 decimals.

    {2 Lifecycle}

    One reader domain per connection parses and {e admits} requests
    (never compiles or executes them) into the executor core
    ({!Serve.Core}, the same scheduler [serve --calls] runs on); its
    fixed team of executor domains resolves inline scripts through the
    compile cache and multiplexes their parallel regions onto the
    shared worker pool — so both execution {e and} compile work are
    bounded by admission.  Admission sheds when the jobs waiting in
    the core (ready or in retry backoff) reach the [--max-pending]
    high-water mark, and the
    accept loop sheds whole {e connections} past the
    [lc_max_conns] cap (one overload fault at [seq] 0, then close) so
    the per-connection reader domains can never exhaust the runtime's
    domain limit.  A connection's fd is closed as soon as its reader
    has exited (peer EOF, reset, or drain) and every admitted job on
    it has been answered; the accept loop reaps finished readers, so
    short-lived clients cost nothing after they disconnect.  On
    SIGTERM ({!request_stop}) the server drains: stops accepting,
    sheds any not-yet-admitted requests (still answered, with an
    overload fault), finishes every admitted job, then closes
    connections, unlinks the socket and returns its final {!stats}. *)

open Glaf_runtime

(** Raised for socket-setup problems (path in use, not a socket);
    mapped to a one-line diagnostic by the CLI. *)
exception Listener_error of string

(* --- script payload escaping --------------------------------------------- *)

let escape_script s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape_script s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if s.[i] <> '\\' then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
    else if i + 1 >= n then Error "dangling backslash in script payload"
    else
      match s.[i + 1] with
      | 'n' -> Buffer.add_char b '\n'; go (i + 2)
      | 't' -> Buffer.add_char b '\t'; go (i + 2)
      | 'r' -> Buffer.add_char b '\r'; go (i + 2)
      | '\\' -> Buffer.add_char b '\\'; go (i + 2)
      | c -> Error (Printf.sprintf "unknown escape '\\%c' in script payload" c)
  in
  go 0

(* --- configuration -------------------------------------------------------- *)

type config = {
  lc_socket : string;
  lc_max_pending : int;
      (** admission high-water mark: jobs waiting to run or to retry *)
  lc_max_conns : int;
      (** concurrent-connection cap: one reader domain per live
          connection, so this also bounds domain usage *)
  lc_executors : int;  (** concurrent call executors *)
  lc_threads : int option;
  lc_sched : Sched.t option;
  lc_deadline_s : float option;  (** per-call deadline *)
  lc_bytecode : bool;
  lc_retries : int;  (** transient-fault retries per call *)
  lc_transform :
    (Glaf_fortran.Ast.compilation_unit -> Glaf_fortran.Ast.compilation_unit)
    option;
      (** rewrites every compiled unit before it is served (startup
          script and cached inline scripts alike) — how [--plan]
          applies a tuning plan on the serving path *)
  lc_status_extra : (unit -> (string * Json.v) list) option;
      (** extra fields appended to the status object — e.g. the plan
          cache's hit/stale counters *)
}

let default_config ~socket =
  {
    lc_socket = socket;
    lc_max_pending = 64;
    lc_max_conns = 32;
    lc_executors = 2;
    lc_threads = None;
    lc_sched = None;
    lc_deadline_s = None;
    lc_bytecode = true;
    lc_retries = 0;
    lc_transform = None;
    lc_status_extra = None;
  }

(** Request latencies (admission to the response write) retained for
    the rolling percentile window in [--status] output. *)
let latency_window = 256

(* --- server state --------------------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_wmu : Mutex.t;  (** serializes response writes (executors race) *)
  mutable c_seq : int;  (** requests read on this connection *)
  mutable c_dead : bool;  (** peer gone: drop further writes *)
  mutable c_closed : bool;  (** fd closed (under [c_wmu]); never close twice *)
  c_inflight : int Atomic.t;  (** admitted jobs not yet answered *)
  c_eof : bool Atomic.t;  (** reader exited: close once inflight drains *)
  c_done : bool Atomic.t;  (** reader domain finished; joinable without blocking *)
}

type wire_job = {
  wj_conn : conn;
  wj_seq : int;
  wj_script : string option;
      (** inline script, compiled by the executor {e after} admission
          (through the cache) so [--max-pending] bounds compile work
          too; [None] runs the startup script *)
  wj_read : float;
      (** when the reader read the bytes that completed this request,
          on {!Fault.now_s}: the start of its latency sample *)
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  cache : Progcache.t;
  default_compiled : Serve.compiled;
  draining : bool Atomic.t;
  core : wire_job Serve.Core.t;
  (* connection registry *)
  cmu : Mutex.t;
  mutable conns : (conn * unit Domain.t) list;
  mutable accepted : int;
  (* counters *)
  ok : int Atomic.t;  (** executed, outcome ok *)
  failed : int Atomic.t;  (** executed, classified fault *)
  shed : int Atomic.t;  (** rejected at admission with Overload_fault *)
  rejected : int Atomic.t;  (** malformed / oversized / compile-error *)
  write_errors : int Atomic.t;  (** responses lost to dead peers *)
  (* rolling window of the last [latency_window] request latencies
     (ms), written by executors under [lat_mu] *)
  lat_mu : Mutex.t;
  lat : float array;
  mutable lat_count : int;  (** total answered requests ever recorded *)
}

type stats = {
  ls_accepted : int;
  ls_ok : int;
  ls_failed : int;
  ls_shed : int;
  ls_rejected : int;
  ls_pending : int;
  ls_max_pending : int;
  ls_write_errors : int;
  ls_cache : Progcache.stats;
  ls_health : Pool.health;
  ls_respawns : int;
  ls_draining : bool;
  ls_calls : int;  (** answered requests recorded in the latency window *)
  ls_p50_ms : float;  (** median latency over the window; 0 when empty *)
  ls_p99_ms : float;  (** p99 latency over the window; 0 when empty *)
}

(* Record one answered request's latency into the rolling window. *)
let record_latency t ms =
  Mutex.lock t.lat_mu;
  t.lat.(t.lat_count mod latency_window) <- ms;
  t.lat_count <- t.lat_count + 1;
  Mutex.unlock t.lat_mu

(* Nearest-rank percentiles over the filled part of the window. *)
let latency_percentiles t =
  Mutex.lock t.lat_mu;
  let n = min t.lat_count latency_window in
  let window = Array.sub t.lat 0 n in
  let count = t.lat_count in
  Mutex.unlock t.lat_mu;
  if n = 0 then (count, 0.0, 0.0)
  else begin
    Array.sort compare window;
    let at p =
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      window.(max 0 (min (n - 1) (rank - 1)))
    in
    (count, at 0.50, at 0.99)
  end

let stats t =
  let pending = Serve.Core.pending t.core in
  Mutex.lock t.cmu;
  let accepted = t.accepted in
  Mutex.unlock t.cmu;
  let calls, p50, p99 = latency_percentiles t in
  {
    ls_accepted = accepted;
    ls_ok = Atomic.get t.ok;
    ls_failed = Atomic.get t.failed;
    ls_shed = Atomic.get t.shed;
    ls_rejected = Atomic.get t.rejected;
    ls_pending = pending;
    ls_max_pending = t.cfg.lc_max_pending;
    ls_write_errors = Atomic.get t.write_errors;
    ls_cache = Progcache.stats t.cache;
    ls_health = Pool.health ();
    ls_respawns = (Pool.stats ()).Pool.respawns;
    ls_draining = Atomic.get t.draining;
    ls_calls = calls;
    ls_p50_ms = p50;
    ls_p99_ms = p99;
  }

let health_string = function
  | Pool.Healthy -> "healthy"
  | Pool.Degraded reason -> Printf.sprintf "degraded (%s)" reason

(** One-line drain summary, printed by the CLI on exit; CI greps it
    for [respawns=] / [degraded]. *)
let summary_line st =
  Printf.sprintf
    "drained: %d ok, %d failed, %d shed, %d rejected over %d connections; \
     cache %d hits / %d misses (%.1f%% hit rate); health=%s respawns=%d"
    st.ls_ok st.ls_failed st.ls_shed st.ls_rejected st.ls_accepted
    st.ls_cache.Progcache.cs_hits st.ls_cache.Progcache.cs_misses
    (100.0 *. Progcache.hit_rate st.ls_cache)
    (health_string st.ls_health)
    st.ls_respawns

(* --- response rendering --------------------------------------------------- *)

let call_text (c : Serve.call) =
  Format.asprintf "%s%a" c.Serve.cl_name Serve.pp_args c.Serve.cl_args

let fault_response ~seq fault =
  Json.(to_string (Obj [ ("seq", int seq); ("ok", Bool false); ("fault", Fault.json fault) ]))

let outcome_response ~seq (oc : Serve.outcome) =
  Json.(
    to_string
      (Obj
         [ ("seq", int seq); ("ok", Bool true);
           ("call", Str (call_text oc.Serve.oc_call));
           ("value", opt (fun v -> Str (Value.to_string v)) oc.Serve.oc_value);
           ("output", Str oc.Serve.oc_output);
           ("ms", fixed 3 (oc.Serve.oc_time_s *. 1e3)) ]))

(* Bytecode coverage over every script this process has served: total
   compiled-vs-treewalked executions plus the worst bailing sites, so
   a coverage regression shows up in monitoring rather than as a
   silent slowdown. *)
let bytecode_json () =
  let module S = Glaf_interp.Bytecode.Stats in
  let rows = S.snapshot () in
  let total f = Json.int (List.fold_left (fun a (r : S.row) -> a + f r) 0 rows) in
  let bailing =
    List.filter (fun (r : S.row) -> r.r_bails > 0) rows
    |> List.sort (fun (a : S.row) b -> compare b.r_bails a.r_bails)
  in
  let site (r : S.row) =
    Json.(
      Obj
        [ ("label", Str r.r_label); ("bails", int r.r_bails);
          ("reason", opt (fun why -> Str why) r.r_reason) ])
  in
  Json.(
    Obj
      [ ("sites", int (List.length rows));
        ("runs", total (fun r -> r.r_runs));
        ("bails", total (fun r -> r.r_bails));
        ("bail_sites", List (List.map site (List.filteri (fun i _ -> i < 8) bailing))) ])

let status_response ~seq t =
  let st = stats t in
  let cs = st.ls_cache in
  let extra = match t.cfg.lc_status_extra with None -> [] | Some f -> f () in
  let status =
    Json.
      [ ("health", Str (health_string st.ls_health));
        ("draining", Bool st.ls_draining);
        ("pending", int st.ls_pending); ("max_pending", int st.ls_max_pending);
        ("connections", int st.ls_accepted); ("ok", int st.ls_ok);
        ("failed", int st.ls_failed); ("shed", int st.ls_shed);
        ("rejected", int st.ls_rejected); ("write_errors", int st.ls_write_errors);
        ("respawns", int st.ls_respawns);
        ( "latency",
          Obj
            [ ("window", int latency_window); ("count", int st.ls_calls);
              ("p50_ms", fixed 3 st.ls_p50_ms); ("p99_ms", fixed 3 st.ls_p99_ms) ] );
        ( "cache",
          Obj
            [ ("size", int cs.Progcache.cs_size); ("capacity", int cs.Progcache.cs_capacity);
              ("hits", int cs.Progcache.cs_hits); ("misses", int cs.Progcache.cs_misses);
              ("evictions", int cs.Progcache.cs_evictions);
              ("hit_rate", fixed 4 (Progcache.hit_rate cs)) ] );
        ("bytecode", bytecode_json ()) ]
  in
  Json.(to_string (Obj [ ("seq", int seq); ("ok", Bool true); ("status", Obj (status @ extra)) ]))

(* --- socket plumbing ------------------------------------------------------ *)

(* Dead clients must cost their connection, not the process: writes to
   a closed peer raise EPIPE instead of delivering SIGPIPE. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n = Unix.write fd b off (len - off) in
      go (off + n)
    end
  in
  go 0

(* Serialized response write; a peer that vanished marks the
   connection dead so queued jobs for it stop paying write syscalls. *)
let write_response t conn line =
  Mutex.lock conn.c_wmu;
  (if not (conn.c_dead || conn.c_closed) then
     try write_all conn.c_fd (line ^ "\n")
     with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
       conn.c_dead <- true;
       Atomic.incr t.write_errors);
  Mutex.unlock conn.c_wmu

(* Idempotent close: [c_closed] is flipped under the write mutex so a
   racing response can never write to a recycled fd number. *)
let close_conn conn =
  Mutex.lock conn.c_wmu;
  if not conn.c_closed then begin
    conn.c_closed <- true;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock conn.c_wmu

(* Close as soon as the reader is gone AND nothing admitted still owes
   a response.  Called by the reader on exit and by executors after
   each answer: whichever side satisfies the condition last closes
   (both may — [close_conn] is idempotent), so a short-lived client's
   fd is reclaimed immediately instead of leaking until drain. *)
let release_conn conn =
  if Atomic.get conn.c_eof && Atomic.get conn.c_inflight = 0 then
    close_conn conn

(* --- request handling (reader side) --------------------------------------- *)

type request =
  | Rq_run of string * string option  (* call text, optional inline script *)
  | Rq_status
  | Rq_bad of string

let parse_request line =
  match String.index_opt line '\t' with
  | None ->
    let s = String.trim line in
    if s = "status" then Rq_status
    else if String.length s > 4 && String.sub s 0 4 = "run " then
      Rq_run (String.trim (String.sub s 4 (String.length s - 4)), None)
    else Rq_bad "expected 'run <call>[\\t<escaped-script>]' or 'status'"
  | Some tab ->
    let head = String.trim (String.sub line 0 tab) in
    let payload = String.sub line (tab + 1) (String.length line - tab - 1) in
    if String.length head > 4 && String.sub head 0 4 = "run " then
      match unescape_script payload with
      | Ok script ->
        Rq_run (String.trim (String.sub head 4 (String.length head - 4)),
                Some script)
      | Error e -> Rq_bad e
    else Rq_bad "expected 'run <call>[\\t<escaped-script>]' or 'status'"

(* Admission: the only place requests enter the executor core.  Sheds
   (with the waiting-job count the core observed under its lock) at
   the high-water mark or while draining — the reader never blocks, so
   backpressure is immediate and outstanding work is bounded by
   construction. *)
let admit t conn ~seq ~read_at call script =
  let shed pending =
    Atomic.incr t.shed;
    write_response t conn
      (fault_response ~seq
         (Fault.Overload_fault { pending; limit = t.cfg.lc_max_pending }))
  in
  if Atomic.get t.draining then shed (Serve.Core.pending t.core)
  else begin
    (* inflight is raised before the job is visible to executors so
       their decrement can never undershoot *)
    Atomic.incr conn.c_inflight;
    let job =
      { wj_conn = conn; wj_seq = seq; wj_script = script;
        wj_read = read_at }
    in
    match Serve.Core.submit ~limit:t.cfg.lc_max_pending t.core call job with
    | Ok () -> ()
    | Error pending ->
      Atomic.decr conn.c_inflight;
      shed pending
  end

let handle_line t conn ~read_at line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.trim line = "" then ()
  else begin
    conn.c_seq <- conn.c_seq + 1;
    let seq = conn.c_seq in
    match parse_request line with
    | Rq_status -> write_response t conn (status_response ~seq t)
    | Rq_bad reason ->
      Atomic.incr t.rejected;
      write_response t conn
        (fault_response ~seq (Fault.Parse_fault { line = seq; reason }))
    | Rq_run (call_text, script_opt) -> (
      (* the reader only parses the call header (cheap); the inline
         script — a full compile pipeline on a cache miss — is passed
         through admission untouched and compiled by an executor *)
      match Serve.parse_call seq call_text with
      | call -> admit t conn ~seq ~read_at call script_opt
      | exception Serve.Calls_error (_, reason) ->
        Atomic.incr t.rejected;
        write_response t conn
          (fault_response ~seq (Fault.Parse_fault { line = seq; reason })))
  end

(* Per-connection reader: select-polls so it can notice the drain
   flag, splits complete lines out of a growing buffer, and enforces
   the request-size cap per line — both on a partial line that
   outgrows the buffer (answer once, then discard bytes until the next
   newline: resync without buffering the flood) and on a complete line
   whose terminating newline arrived in the same read chunk that blew
   the cap (answer and skip it; no discard mode needed, the line is
   already delimited). *)
let reader t conn =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let discarding = ref false in
  let oversize_response () =
    conn.c_seq <- conn.c_seq + 1;
    Atomic.incr t.rejected;
    write_response t conn
      (fault_response ~seq:conn.c_seq
         (Fault.Parse_fault
            {
              line = conn.c_seq;
              reason =
                Printf.sprintf "request line exceeds %d bytes"
                  Serve.max_call_line_bytes;
            }))
  in
  let oversize () =
    oversize_response ();
    Buffer.clear buf;
    discarding := true
  in
  let consume_lines ~read_at data =
    (* [data] is the newly read chunk; only scan the whole buffer when
       the chunk actually completed a line *)
    Buffer.add_string buf data;
    if String.contains data '\n' then begin
      let text = Buffer.contents buf in
      Buffer.clear buf;
      let n = String.length text in
      let rec go start =
        if start >= n then ()
        else
          match String.index_from_opt text start '\n' with
          | None -> Buffer.add_substring buf text start (n - start)
          | Some nl ->
            if nl - start > Serve.max_call_line_bytes then oversize_response ()
            else handle_line t conn ~read_at (String.sub text start (nl - start));
            go (nl + 1)
      in
      go 0
    end;
    if Buffer.length buf > Serve.max_call_line_bytes then oversize ()
  in
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.select [ conn.c_fd ] [] [] 0.1 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()  (* EOF: client closed its sending side *)
        | n ->
          let read_at = Fault.now_s () in
          let data = Bytes.sub_string chunk 0 n in
          let data =
            if not !discarding then data
            else
              match String.index_opt data '\n' with
              | None -> ""  (* still inside the oversized line: drop *)
              | Some i ->
                discarding := false;
                String.sub data (i + 1) (String.length data - i - 1)
          in
          if data <> "" then consume_lines ~read_at data;
          loop ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
        | exception Unix.Unix_error (EINTR, _, _) -> loop ())
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  (* Drain semantics: requests already admitted will still be answered
     by the executors; anything left unread in the kernel buffer is
     abandoned with the connection. *)
  (try loop ()
   with e ->
     (* a reader must never take the server down *)
     Atomic.incr t.rejected;
     Printf.eprintf "oglaf: reader error: %s\n%!" (Printexc.to_string e));
  (* Reader exit — EOF, reset, drain or error — releases the fd as
     soon as the last admitted job has been answered, and marks the
     domain reapable so the accept loop can join it and drop the
     registry entry.  Without this, every short-lived client would
     leak its fd (and domain) until final drain and a long-running
     server would hit EMFILE. *)
  Atomic.set conn.c_eof true;
  release_conn conn;
  Atomic.set conn.c_done true

(* --- executor callbacks ---------------------------------------------------- *)

(* One attempt at a job.  Inline scripts compile here, post-admission:
   a shed request never costs a compile, and compile work per executor
   is serialized with its execution work. *)
let run_job t wj call =
  Result.bind
    (match wj.wj_script with
    | None -> Ok t.default_compiled
    | Some script -> fst (Progcache.find_or_compile t.cache script))
    (fun compiled ->
      Serve.run_call ?threads:t.cfg.lc_threads ?sched:t.cfg.lc_sched
        ?deadline_s:t.cfg.lc_deadline_s ~bytecode:t.cfg.lc_bytecode compiled
        call)

(* Answer a job's final result.  The latency sample spans the read of
   the request's bytes to the response write — admission, queue wait, a
   compile on a cache miss and retry backoff included.  It starts at
   the read, not at admission, so requests that arrived together start
   together: one admitted after an executor already took its neighbour
   still counts the wait behind it.  Faulted requests count too: a
   deadline-bound tail is what the p99 is there to expose.  It is
   recorded before the write, so a client's next [status] counts every
   answer it has read. *)
let answer t wj r =
  let seq = wj.wj_seq in
  let line =
    match r with
    | Ok oc ->
      Atomic.incr t.ok;
      outcome_response ~seq oc
    | Error ((Fault.Parse_fault _ | Fault.Analysis_fault _) as fault) ->
      (* only an inline script's compile yields these *)
      Atomic.incr t.rejected;
      fault_response ~seq fault
    | Error fault ->
      Atomic.incr t.failed;
      fault_response ~seq fault
  in
  record_latency t ((Fault.now_s () -. wj.wj_read) *. 1e3);
  write_response t wj.wj_conn line;
  Atomic.decr wj.wj_conn.c_inflight;
  release_conn wj.wj_conn

(* --- lifecycle ------------------------------------------------------------ *)

(* A stale socket file from a crashed server is removed; a {e live}
   one (something accepts our probe connection) is a configuration
   error, not ours to steal. *)
let prepare_socket_path path =
  if Sys.file_exists path then begin
    (match (Unix.lstat path).Unix.st_kind with
    | Unix.S_SOCK -> ()
    | _ ->
      raise
        (Listener_error
           (Printf.sprintf "%s exists and is not a socket" path)));
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      raise
        (Listener_error
           (Printf.sprintf "a server is already listening on %s" path));
    Unix.unlink path
  end

(** Compile the startup script (through the cache, so a client sending
    the same text inline hits) and bind the socket — clients can
    connect as soon as this returns.  Serving starts at {!serve}. *)
let create ~config:cfg script_text =
  if cfg.lc_max_pending < 1 then
    raise (Listener_error "--max-pending must be >= 1");
  if cfg.lc_executors < 1 then
    raise (Listener_error "need at least one executor");
  ignore_sigpipe ();
  let cache =
    Progcache.create ~compile:(Serve.compile_result ?transform:cfg.lc_transform) ()
  in
  match fst (Progcache.find_or_compile cache script_text) with
  | Error fault -> Error fault
  | Ok compiled ->
    prepare_socket_path cfg.lc_socket;
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind sock (Unix.ADDR_UNIX cfg.lc_socket);
       Unix.listen sock 64
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
    Ok
      {
        cfg;
        sock;
        cache;
        default_compiled = compiled;
        draining = Atomic.make false;
        core = Serve.Core.create ~retries:cfg.lc_retries ();
        cmu = Mutex.create ();
        conns = [];
        accepted = 0;
        ok = Atomic.make 0;
        failed = Atomic.make 0;
        shed = Atomic.make 0;
        rejected = Atomic.make 0;
        write_errors = Atomic.make 0;
        lat_mu = Mutex.create ();
        lat = Array.make latency_window 0.0;
        lat_count = 0;
      }

(** Ask the server to drain and exit; safe from a signal handler. *)
let request_stop t = Atomic.set t.draining true

(* Join finished reader domains and drop their registry entries;
   returns the live-connection count (the [lc_max_conns] admission
   figure).  [c_done] is the last thing a reader sets, so the joins
   here never block meaningfully. *)
let reap_connections t =
  Mutex.lock t.cmu;
  let finished, live =
    List.partition (fun (c, _) -> Atomic.get c.c_done) t.conns
  in
  t.conns <- live;
  let n_live = List.length live in
  Mutex.unlock t.cmu;
  List.iter (fun (_, dom) -> Domain.join dom) finished;
  n_live

(** Live (unreaped) connection count; for tests and status. *)
let live_connections t =
  Mutex.lock t.cmu;
  let n = List.length t.conns in
  Mutex.unlock t.cmu;
  n

(* Refuse a connection at the accept loop: one overload fault line at
   [seq] 0 (no request was read, so no request number exists), then
   close.  Used past the connection cap and when a reader domain
   cannot be spawned. *)
let refuse_connection t fd ~live =
  Atomic.incr t.shed;
  (try
     write_all fd
       (fault_response ~seq:0
          (Fault.Overload_fault { pending = live; limit = t.cfg.lc_max_conns })
       ^ "\n")
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(** Accept connections and serve until {!request_stop}; returns the
    final {!stats} after a full drain (admitted jobs answered,
    connections closed, socket unlinked). *)
let serve t =
  Serve.Core.start t.core t.cfg.lc_executors ~run:(run_job t)
    ~on_done:(answer t);
  let rec accept_loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.select [ t.sock ] [] [] 0.1 with
      | [], _, _ ->
        ignore (reap_connections t);
        accept_loop ()
      | _ -> (
        match Unix.accept t.sock with
        | fd, _ ->
          let live = reap_connections t in
          if live >= t.cfg.lc_max_conns then refuse_connection t fd ~live
          else begin
            let conn =
              {
                c_fd = fd;
                c_wmu = Mutex.create ();
                c_seq = 0;
                c_dead = false;
                c_closed = false;
                c_inflight = Atomic.make 0;
                c_eof = Atomic.make false;
                c_done = Atomic.make false;
              }
            in
            match Domain.spawn (fun () -> reader t conn) with
            | dom ->
              Mutex.lock t.cmu;
              t.conns <- (conn, dom) :: t.conns;
              t.accepted <- t.accepted + 1;
              Mutex.unlock t.cmu
            | exception e ->
              (* domain budget exhausted (Failure) or similar: shed
                 this connection, keep the server up *)
              Printf.eprintf "oglaf: reader spawn failed: %s\n%!"
                (Printexc.to_string e);
              refuse_connection t fd ~live
          end;
          accept_loop ()
        | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) ->
          accept_loop ()
        | exception Unix.Unix_error (err, _, _) ->
          (* EMFILE/ENFILE/ECONNABORTED and friends must shed, not
             kill the process; back off briefly so a persistent error
             cannot spin the loop *)
          Printf.eprintf "oglaf: accept failed: %s\n%!"
            (Unix.error_message err);
          (try ignore (Unix.select [] [] [] 0.05)
           with Unix.Unix_error _ -> ());
          accept_loop ())
      | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (* drain: no new connections ... *)
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.lc_socket with Unix.Unix_error _ | Sys_error _ -> ());
  (* ... no new requests (readers exit on the drain flag) ... *)
  let conns =
    Mutex.lock t.cmu;
    let c = t.conns in
    t.conns <- [];
    Mutex.unlock t.cmu;
    c
  in
  List.iter (fun (_, dom) -> Domain.join dom) conns;
  (* ... then let the executors finish every admitted job. *)
  Serve.Core.join t.core;
  (* readers/executors already closed everything they finished with
     ([release_conn]); this sweep only covers a conn whose last answer
     raced the executor join, and [close_conn] is idempotent *)
  List.iter (fun (conn, _) -> close_conn conn) conns;
  stats t

(* --- client --------------------------------------------------------------- *)

(** Minimal blocking client for the wire protocol, shared by
    [oglaf serve --connect], the soak benchmark and the tests. *)
module Client = struct
  type t = {
    fd : Unix.file_descr;
    buf : Buffer.t;
    chunk : Bytes.t;
  }

  let connect path =
    ignore_sigpipe ();
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; buf = Buffer.create 4096; chunk = Bytes.create 8192 }

  let send_line c line = write_all c.fd (line ^ "\n")

  (* Pop one buffered line if a full one is present. *)
  let take_line c =
    let text = Buffer.contents c.buf in
    match String.index_opt text '\n' with
    | None -> None
    | Some nl ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf text (nl + 1) (String.length text - nl - 1);
      let line = String.sub text 0 nl in
      let n = String.length line in
      Some (if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
            else line)

  (** Next response line, or [None] on EOF / timeout. *)
  let recv_line ?(timeout_s = 30.0) c =
    let deadline = Fault.now_s () +. timeout_s in
    let rec go () =
      match take_line c with
      | Some _ as r -> r
      | None ->
        let left = deadline -. Fault.now_s () in
        if left <= 0.0 then None
        else
          (match Unix.select [ c.fd ] [] [] (Float.min 0.1 left) with
          | [], _, _ -> go ()
          | _ -> (
            match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
            | 0 -> take_line c  (* EOF: only what's already buffered *)
            | n ->
              Buffer.add_subbytes c.buf c.chunk 0 n;
              go ()
            | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> None
            | exception Unix.Unix_error (EINTR, _, _) -> go ())
          | exception Unix.Unix_error (EINTR, _, _) -> go ())
    in
    go ()

  (** Lock-step request/response. *)
  let request ?timeout_s c line =
    send_line c line;
    recv_line ?timeout_s c

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
