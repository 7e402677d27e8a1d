(** Persistent worker pool of OCaml 5 domains.

    A real OpenMP runtime keeps its thread team resident between
    parallel regions; entering a region is a handful of condition
    signals, not thread creation.  This module reproduces that:
    worker domains are created once (lazily, on first use) and every
    subsequent [run] dispatches chunk tasks to the resident team.

    Dispatch (PR 5) is a top-level task queue rather than a
    one-region-at-a-time team: each region enqueues one task per
    logical thread (minus the master, which runs thread 0 inline) and
    joins them on a countdown latch.  Workers pull tasks from a global
    FIFO, so {e concurrent} regions — one per in-flight [oglaf serve
    --concurrency] call — multiplex onto the same resident workers
    instead of falling back to spawn-per-region domains.  Tasks of
    [Static] regions are pinned to the worker that executed the same
    chunk index in the previous static region (per-worker chunk
    affinity: repeated sweeps over the same grids re-touch warm
    caches); pinned tasks are never stolen, so the chunk-to-worker map
    of identical back-to-back regions is deterministic.

    Sizing: the default team size comes from the [OGLAF_NUM_THREADS]
    environment variable (falling back to
    [Domain.recommended_domain_count () - 1]); the pool grows on
    demand when a region requests a larger team, up to
    {!max_pool_size} workers, so asking for 8 threads on a 4-core box
    oversubscribes exactly like the paper's 8-thread runs.

    Nested regions: every logical thread of a region runs its chunks
    as a {e team member} (a domain-local flag), and a region entered
    by a team member runs on the calling domain with a team of one —
    OpenMP's default, non-nested mode, which the cost model in
    [lib/perf] assumes too.  Unlike libgomp, an enclosing one-thread
    region counts as well, so a nested loop's result never depends on
    the outer team size.  A worker therefore never waits on the queue
    it is supposed to drain, so the pool cannot deadlock on itself,
    and region entry never creates a domain: {!spawn_worker} is the
    only place that does.

    Supervision (PR 3): a worker domain that dies with an unhandled
    exception drains its own affinity queue on the way out (each
    pending task is reported as {!Fault.Pool_error} and its latch slot
    released, so no join can hang on a corpse) and is respawned at the
    next region entry; when deaths exceed the respawn budget
    ({!set_max_respawns}) the pool degrades: the resident team is
    retired and subsequent regions run their chunk plan {e
    sequentially} on the master domain, in thread order — identical
    chunk assignment, identical results, no parallelism.  {!health}
    reports the mode and is part of {!stats}.

    Cancellation and fault injection: the caller's ambient
    {!Fault.current} token is captured at region entry and
    re-installed around every chunk task wherever it runs, so each
    task polls the deadline of the call it belongs to even when chunk
    tasks of several served calls interleave on one worker; the
    {!Faultinject} hooks fire at region entry, chunk dispatch and
    worker task receipt.

    The runtime keeps lightweight counters ({!stats}) so the region
    entry cost, schedule behaviour, region overlap and worker
    utilisation are observable: [oglaf serve --stats], and perfbench's
    [runtime.*] layers (regions and tasks per op, busy ratio, join
    wait, respawns); [BENCH_PR2.json] is the frozen record of the
    pool's first measurements. *)

(* --- team sizing -------------------------------------------------------- *)

let env_threads =
  match Sys.getenv_opt "OGLAF_NUM_THREADS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)
  | None -> None

let default_num_threads =
  match env_threads with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let num_threads () = default_num_threads

(** Hard cap on resident workers; a region that needs more workers
    runs its chunk plan sequentially on the calling domain. *)
let max_pool_size = 64

(* True while this domain runs a logical thread's chunks of some
   region (worker task, the master's thread 0, or a sequential run). *)
let in_team : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(** The team a region asking for [n] threads gets: 1 inside a team
    member (nested regions are inactive), [max 1 n] otherwise. *)
let team_size n = if Domain.DLS.get in_team then 1 else max 1 n

(* Run [f] as a team member, so every region it enters gets a team of
   one. *)
let as_member f =
  if Domain.DLS.get in_team then f ()
  else begin
    Domain.DLS.set in_team true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_team false) f
  end

(* --- stats -------------------------------------------------------------- *)

(* Nanoseconds on the monotonic clock {!Fault.now_s} reads. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** Region wall-time histogram buckets: [< 1us, < 10us, ..., < 1s, >= 1s]. *)
let hist_buckets = 8

let bucket_of_ns ns =
  let rec go b limit =
    if b >= hist_buckets - 1 || ns < limit then b else go (b + 1) (limit * 10)
  in
  go 0 1_000

let c_regions = Atomic.make 0
let c_inline = Atomic.make 0
let c_seq = Atomic.make 0
let c_tasks = Atomic.make 0
let c_busy_ns = Atomic.make 0
let c_region_ns = Atomic.make 0
let c_idle_ns = Atomic.make 0
let c_hist = Array.init hist_buckets (fun _ -> Atomic.make 0)

(* Region overlap gauge: how many pooled regions are in flight right
   now, and the high-water mark (proof that [serve --concurrency]
   actually multiplexes the pool instead of serialising). *)
let c_inflight = Atomic.make 0
let c_max_inflight = Atomic.make 0

let enter_inflight () =
  let n = 1 + Atomic.fetch_and_add c_inflight 1 in
  let rec bump () =
    let m = Atomic.get c_max_inflight in
    if n > m && not (Atomic.compare_and_set c_max_inflight m n) then bump ()
  in
  bump ()

let leave_inflight () = Atomic.decr c_inflight

(** Pool operating mode: [Degraded] means the resident team has been
    retired after too many worker deaths and regions now run
    sequentially on the master domain. *)
type health = Healthy | Degraded of string

type stats = {
  pool_size : int;  (** resident worker domains (excludes the master) *)
  regions : int;  (** regions dispatched to the resident team *)
  inline_regions : int;
      (** regions run inline (1 thread, nested, or <= 1 iteration) *)
  spawn_regions : int;  (** retired: always 0, no region spawns a domain *)
  seq_regions : int;
      (** regions run sequentially: degraded mode, or a team that needs
          more than {!max_pool_size} workers *)
  tasks : int;  (** chunk executions across all regions *)
  busy_ns : int;  (** summed in-body time across team members *)
  region_ns : int;  (** summed region wall-clock time (master view) *)
  idle_ns : int;  (** summed [wall * team - busy]: wait at the join barrier *)
  hist : int array;  (** region wall times: < 1us, < 10us, ..., >= 1s *)
  respawns : int;  (** dead workers replaced by the supervisor *)
  max_inflight : int;  (** peak number of concurrently pooled regions *)
  health : health;
}

let reset_stats () =
  Atomic.set c_regions 0;
  Atomic.set c_inline 0;
  Atomic.set c_seq 0;
  Atomic.set c_tasks 0;
  Atomic.set c_busy_ns 0;
  Atomic.set c_region_ns 0;
  Atomic.set c_idle_ns 0;
  Atomic.set c_max_inflight (Atomic.get c_inflight);
  Array.iter (fun a -> Atomic.set a 0) c_hist

let record_region ~wall_ns ~busy_ns ~team =
  Atomic.incr c_regions;
  ignore (Atomic.fetch_and_add c_busy_ns busy_ns);
  ignore (Atomic.fetch_and_add c_region_ns wall_ns);
  ignore (Atomic.fetch_and_add c_idle_ns (max 0 ((wall_ns * team) - busy_ns)));
  Atomic.incr c_hist.(bucket_of_ns wall_ns)

let pp_stats ppf s =
  Format.fprintf ppf
    "pool: %d resident workers, %s%s@\n\
     regions: %d pooled (peak %d overlapped), %d inline, %d sequential; \
     %d chunk tasks@\n\
     time: %.3f ms busy / %.3f ms region wall / %.3f ms barrier idle@\n"
    s.pool_size
    (match s.health with
    | Healthy -> "healthy"
    | Degraded reason -> "DEGRADED (" ^ reason ^ ")")
    (if s.respawns > 0 then Printf.sprintf ", %d respawns" s.respawns else "")
    s.regions s.max_inflight s.inline_regions s.seq_regions s.tasks
    (float_of_int s.busy_ns /. 1e6)
    (float_of_int s.region_ns /. 1e6)
    (float_of_int s.idle_ns /. 1e6);
  let labels =
    [| "<1us"; "<10us"; "<100us"; "<1ms"; "<10ms"; "<100ms"; "<1s"; ">=1s" |]
  in
  Format.fprintf ppf "region wall-time histogram:";
  Array.iteri
    (fun i n -> if n > 0 then Format.fprintf ppf " %s:%d" labels.(i) n)
    s.hist;
  Format.pp_print_newline ppf ()

(* --- regions, tasks and the latch ---------------------------------------- *)

type latch = { lm : Mutex.t; lcv : Condition.t; mutable pending : int }

let latch_down l =
  Mutex.lock l.lm;
  l.pending <- l.pending - 1;
  if l.pending = 0 then Condition.signal l.lcv;
  Mutex.unlock l.lm

let latch_wait l =
  Mutex.lock l.lm;
  while l.pending > 0 do
    Condition.wait l.lcv l.lm
  done;
  Mutex.unlock l.lm

(* One parallel region in flight: the per-thread runner, a slot per
   logical thread for the first exception it raised, the join latch,
   the caller's cancellation token (re-installed around every task so
   chunks poll the deadline of the call they belong to), and whether
   the region is [Static] (then chunk affinity is recorded). *)
type region = {
  r_run : int -> unit;
  r_exns : exn option array;
  r_latch : latch;
  r_busy : int Atomic.t;
  r_token : Fault.token option;
  r_static : bool;
}

(* One logical thread of a region, as queued for a worker. *)
type task = { t_region : region; t_thread : int }

(* --- resident workers --------------------------------------------------- *)

type worker = {
  w_id : int;  (** slot in [workers] and [locals]; stable across respawn *)
  alive : bool Atomic.t;
  stop : bool ref;  (** guarded by [q_mu] *)
  dom : unit Domain.t;
}

(* The worker slot this domain occupies, [None] on the master; lets
   tests observe chunk affinity. *)
let worker_slot : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_worker () = Domain.DLS.get worker_slot

let pool_lock = Mutex.create ()  (* guards [workers] growth/shutdown/heal *)
let workers : worker array ref = ref [||]

(* The task queue: one global FIFO plus one affinity queue per worker
   slot, all guarded by [q_mu]/[q_cv].  Affinity queues are indexed by
   worker slot, so they survive a respawn: tasks pinned to a dead slot
   are either drained by the dying worker itself (reported as lost
   chunks) or picked up by its replacement. *)
let q_mu = Mutex.create ()
let q_cv = Condition.create ()
let q_global : task Queue.t = Queue.create ()
let locals : task Queue.t array = Array.init max_pool_size (fun _ -> Queue.create ())

(* Chunk affinity: [last_worker.(t)] is the worker slot that executed
   logical thread [t]'s chunk in the most recent [Static] region
   (initially the canonical [t - 1] binding).  Read/written without a
   lock: a stale value only changes which queue a task prefers, never
   correctness. *)
let last_worker = Array.init (max_pool_size + 1) (fun t -> t - 1)

(* --- supervision state --------------------------------------------------- *)

(* Set by a dying worker so the common region-entry path pays one
   atomic load; the supervisor reaps under [pool_lock]. *)
let dead_flag = Atomic.make false
let death_note : string Atomic.t = Atomic.make ""
let c_respawns = Atomic.make 0

(* Respawn budget: beyond this many worker deaths the pool degrades to
   sequential execution instead of healing (a worker that keeps dying
   is a systemic problem, not a transient). *)
let default_max_respawns = 8
let max_respawns = ref default_max_respawns
let set_max_respawns n = max_respawns := max 0 n

let degraded_reason : string option Atomic.t = Atomic.make None

let health () =
  match Atomic.get degraded_reason with
  | None -> Healthy
  | Some r -> Degraded r

let lost_chunk ~slot ~thread =
  Fault.Pool_error
    (Printf.sprintf "worker %d died; chunk of thread %d not executed" slot
       thread)

(* Report a task that will never execute: record the lost chunk and
   release its latch slot so the region's join cannot hang. *)
let abandon_task ~slot task =
  task.t_region.r_exns.(task.t_thread) <-
    Some (lost_chunk ~slot ~thread:task.t_thread);
  latch_down task.t_region.r_latch

(* Execute one queued task on worker [slot].  Any exception the chunk
   body raises is recorded in the region's exception slot (the worker
   survives it); the latch release is in a [finally] so even a
   crashing worker counts down before dying — the master can always
   join.  An injected worker crash records a {!Fault.Pool_error} for
   its chunk and re-raises to kill the worker's domain. *)
let exec_task ~slot ~alive task =
  let r = task.t_region in
  Fun.protect
    ~finally:(fun () -> latch_down r.r_latch)
    (fun () ->
      if Faultinject.crash_worker ~worker:slot then begin
        r.r_exns.(task.t_thread) <-
          Some
            (Fault.Pool_error
               (Printf.sprintf
                  "worker %d died mid-region (injected crash); chunk of \
                   thread %d not executed"
                  slot task.t_thread));
        (* mark the death before the latch releases (in [finally]):
           the master may enter the next region the instant the join
           completes, and must see [dead_flag] there *)
        Atomic.set alive false;
        Atomic.set death_note (Printf.sprintf "injected kill-worker:%d" slot);
        Atomic.set dead_flag true;
        (* escapes the task loop: the worker domain dies and the
           supervisor respawns it at the next region entry *)
        raise (Faultinject.Injected (Printf.sprintf "kill-worker:%d" slot))
      end;
      let t0 = now_ns () in
      (try Fault.with_token_opt r.r_token (fun () -> r.r_run task.t_thread)
       with e -> r.r_exns.(task.t_thread) <- Some e);
      if r.r_static then last_worker.(task.t_thread) <- slot;
      ignore (Atomic.fetch_and_add r.r_busy (now_ns () - t0)))

(* A worker's task source: its own affinity queue first (pinned static
   chunks), then the global FIFO.  Pinned tasks are deliberately not
   stolen by other workers — affinity is a cache-locality contract and
   keeps the chunk-to-worker map of identical regions deterministic;
   a pinned task whose worker is busy simply waits its turn. *)
let next_task ~slot stop =
  Mutex.lock q_mu;
  let rec get () =
    if !stop then None
    else if not (Queue.is_empty locals.(slot)) then Some (Queue.pop locals.(slot))
    else if not (Queue.is_empty q_global) then Some (Queue.pop q_global)
    else begin
      Condition.wait q_cv q_mu;
      get ()
    end
  in
  let t = get () in
  Mutex.unlock q_mu;
  t

(* Death path: a worker leaving with an unhandled exception first
   marks itself dead (dispatchers then stop pinning tasks to its
   queue), then drains its own affinity queue — and the global queue
   too when it is the last one standing — reporting every pending task
   as a lost chunk, so no region joins on a corpse. *)
let drain_on_death ~slot ~alive =
  Atomic.set alive false;
  Atomic.set dead_flag true;
  Mutex.lock q_mu;
  while not (Queue.is_empty locals.(slot)) do
    abandon_task ~slot (Queue.pop locals.(slot))
  done;
  let others_alive =
    Array.exists (fun w' -> w'.w_id <> slot && Atomic.get w'.alive) !workers
  in
  if not others_alive then
    while not (Queue.is_empty q_global) do
      abandon_task ~slot (Queue.pop q_global)
    done;
  Mutex.unlock q_mu

let worker_main ~slot ~stop ~alive =
  Domain.DLS.set worker_slot (Some slot);
  let rec loop () =
    match next_task ~slot stop with
    | None -> ()  (* stop requested *)
    | Some task ->
      exec_task ~slot ~alive task;
      loop ()
  in
  (* Supervisor boundary: an exception escaping [exec_task] (chunk
     bodies catch their own — this is a poisoned/crashed worker) marks
     the worker dead for the next region entry to reap.  The domain
     terminates normally so joining it never re-raises. *)
  try loop ()
  with e ->
    Atomic.set death_note (Printexc.to_string e);
    drain_on_death ~slot ~alive

let spawn_worker slot =
  let stop = ref false in
  let alive = Atomic.make true in
  let dom = Domain.spawn (fun () -> worker_main ~slot ~stop ~alive) in
  { w_id = slot; alive; stop; dom }

(** Grow the resident team to at least [n] workers (idempotent). *)
let ensure_workers n =
  let n = min n max_pool_size in
  if Array.length !workers < n then begin
    Mutex.lock pool_lock;
    let have = Array.length !workers in
    if have < n then
      workers :=
        Array.append !workers
          (Array.init (n - have) (fun i -> spawn_worker (have + i)));
    Mutex.unlock pool_lock
  end

let pool_size () = Array.length !workers

let stats () =
  {
    pool_size = pool_size ();
    regions = Atomic.get c_regions;
    inline_regions = Atomic.get c_inline;
    spawn_regions = 0;
    seq_regions = Atomic.get c_seq;
    tasks = Atomic.get c_tasks;
    busy_ns = Atomic.get c_busy_ns;
    region_ns = Atomic.get c_region_ns;
    idle_ns = Atomic.get c_idle_ns;
    hist = Array.map Atomic.get c_hist;
    respawns = Atomic.get c_respawns;
    max_inflight = Atomic.get c_max_inflight;
    health = health ();
  }

(** Stop and join the resident workers (registered [at_exit] so the
    process never hangs on blocked condition waits at shutdown).
    Pending tasks are abandoned (lost chunks, latches released) so no
    caller can be left joining a retired team.  Joins are defensive:
    a worker that died on its own joins without re-raising (its domain
    body returned normally), but nothing here may throw during
    [at_exit]. *)
let shutdown () =
  Mutex.lock pool_lock;
  let ws = !workers in
  workers := [||];
  Mutex.unlock pool_lock;
  Mutex.lock q_mu;
  Array.iter (fun w -> w.stop := true) ws;
  Array.iter
    (fun w ->
      while not (Queue.is_empty locals.(w.w_id)) do
        abandon_task ~slot:w.w_id (Queue.pop locals.(w.w_id))
      done)
    ws;
  while not (Queue.is_empty q_global) do
    abandon_task ~slot:(-1) (Queue.pop q_global)
  done;
  Condition.broadcast q_cv;
  Mutex.unlock q_mu;
  Array.iter (fun w -> try Domain.join w.dom with _ -> ()) ws

let () = at_exit shutdown

(* --- supervision --------------------------------------------------------- *)

(* Retire the resident team and run all subsequent regions
   sequentially.  [shutdown] abandons queued tasks and releases their
   latches, so even regions dispatched concurrently with the
   degradation observe lost chunks rather than hanging. *)
let degrade reason =
  Atomic.set degraded_reason (Some reason);
  shutdown ()

(** Leave degraded mode and reset the respawn budget (tests, or an
    operator who has cleared the underlying cause); workers are
    re-created lazily at the next region. *)
let reset_health () =
  Atomic.set degraded_reason None;
  Atomic.set dead_flag false;
  Atomic.set c_respawns 0

(* Reap dead workers and respawn replacements into the same slot, or
   degrade once the respawn budget is exhausted.  Called at region
   entry; concurrent regions may race here, so the whole
   reap-and-respawn runs under [pool_lock] (the first caller heals,
   the rest see [dead_flag] already cleared).  Tasks other regions
   pinned to the dead slot survive in its affinity queue and are
   drained by the replacement worker. *)
let heal_workers () =
  if Atomic.get dead_flag then begin
    Mutex.lock pool_lock;
    if Atomic.get dead_flag then begin
      Atomic.set dead_flag false;
      let ws = !workers in
      let died = ref 0 in
      Array.iteri
        (fun i w ->
          if not (Atomic.get w.alive) then begin
            (try Domain.join w.dom with _ -> ());
            incr died;
            Atomic.incr c_respawns;
            ws.(i) <- spawn_worker w.w_id
          end)
        ws;
      if !died > 0 && Atomic.get c_respawns > !max_respawns then begin
        Atomic.set degraded_reason
          (Some
             (Printf.sprintf
                "worker deaths exceeded respawn budget of %d (last: %s)"
                !max_respawns (Atomic.get death_note)))
      end
    end;
    Mutex.unlock pool_lock;
    (* retire the team outside [pool_lock]: [degrade] takes it again *)
    match Atomic.get degraded_reason with
    | Some reason when pool_size () > 0 -> degrade reason
    | _ -> ()
  end

(* --- region planning ---------------------------------------------------- *)

(* Work assignment for one region: [team] logical threads (every one
   of them has at least one chunk — empty static chunks are never
   dispatched) and a [run_thread t] that executes all of thread [t]'s
   chunks.  [body t clo chi] is the user's chunk body. *)
let plan ~sched ~lo ~hi n body =
  let total = hi - lo + 1 in
  match (sched : Sched.t) with
  | Sched.Static ->
    let team = Sched.static_occupancy ~lo ~hi n in
    let chunks = Sched.static_chunks ~lo ~hi (max 1 team) in
    ( team,
      fun t ->
        let clo, chi = chunks.(t) in
        if chi >= clo then begin
          Atomic.incr c_tasks;
          body t clo chi
        end )
  | Sched.Static_chunked k ->
    let k = max 1 k in
    let nchunks = (total + k - 1) / k in
    let team = max 0 (min n nchunks) in
    ( team,
      fun t ->
        let c = ref t in
        while lo + (!c * k) <= hi do
          let s = lo + (!c * k) in
          Atomic.incr c_tasks;
          body t s (min hi (s + (k - 1)));
          c := !c + team
        done )
  | Sched.Dynamic k ->
    let k = max 1 k in
    let nchunks = (total + k - 1) / k in
    let team = max 0 (min n nchunks) in
    let next = Atomic.make lo in
    ( team,
      fun t ->
        let rec pull () =
          let s = Atomic.fetch_and_add next k in
          if s <= hi then begin
            Atomic.incr c_tasks;
            body t s (min hi (s + (k - 1)));
            pull ()
          end
        in
        pull () )
  | Sched.Guided k ->
    (* OpenMP guided decay: each pull takes max(k, remaining/team)
       iterations, so chunks shrink as the loop drains (see
       {!Sched.guided_chunk}).  The shared position advances by CAS:
       the size depends on the remaining count, so a plain
       fetch-and-add of a fixed stride cannot express it. *)
    let k = max 1 k in
    let nchunks = (total + k - 1) / k in
    let team = max 0 (min n nchunks) in
    let pos = Atomic.make lo in
    ( team,
      fun t ->
        let rec pull () =
          let s = Atomic.get pos in
          if s <= hi then begin
            let size =
              Sched.guided_chunk ~remaining:(hi - s + 1) ~team ~min_chunk:k
            in
            if Atomic.compare_and_set pos s (s + size) then begin
              Atomic.incr c_tasks;
              body t s (min hi (s + size - 1))
            end;
            pull ()
          end
        in
        pull () )

(* --- execution paths ---------------------------------------------------- *)

let reraise_first (exns : exn option array) =
  (* master (thread 0) exception wins, then lowest thread id *)
  Array.iter (function Some e -> raise e | None -> ()) exns

(* Dispatch one region to the task queue and run thread 0 inline (the
   OpenMP master).  Tasks of [Static] regions are pinned to the worker
   that ran the same chunk index last time (when that slot is alive);
   everything else goes through the global FIFO, where any idle worker
   picks it up — concurrent regions interleave there.  The latch
   counts the queued tasks; every path that consumes a task (normal
   execution, injected crash, death drain, shutdown) releases its
   slot, so the join always completes. *)
let run_queued ~team ~static ~token run_thread =
  let region =
    {
      r_run = run_thread;
      r_exns = Array.make team None;
      r_latch =
        { lm = Mutex.create (); lcv = Condition.create (); pending = team - 1 };
      r_busy = Atomic.make 0;
      r_token = token;
      r_static = static;
    }
  in
  let ws = !workers in
  Mutex.lock q_mu;
  for t = 1 to team - 1 do
    let task = { t_region = region; t_thread = t } in
    let pinned =
      if static then
        let slot = last_worker.(t) in
        if slot >= 0 && slot < Array.length ws && Atomic.get ws.(slot).alive
        then Some slot
        else None
      else None
    in
    match pinned with
    | Some slot -> Queue.push task locals.(slot)
    | None -> Queue.push task q_global
  done;
  Condition.broadcast q_cv;
  Mutex.unlock q_mu;
  let t0 = now_ns () in
  (try run_thread 0 with e -> region.r_exns.(0) <- Some e);
  ignore (Atomic.fetch_and_add region.r_busy (now_ns () - t0));
  latch_wait region.r_latch;
  (region.r_exns, Atomic.get region.r_busy)

(* Sequential execution (degraded mode, or a team that needs more
   workers than the pool cap): every logical thread's chunks run on the master domain, in
   thread order.  Chunk assignment — and therefore reduction combining
   order — is identical to the pooled run, so results match
   bit-for-bit; only the parallelism is gone. *)
let run_sequential ~team run_thread =
  let exns = Array.make team None in
  for t = 0 to team - 1 do
    try run_thread t with e -> exns.(t) <- Some e
  done;
  exns

(** Run [body t chunk_lo chunk_hi] over the inclusive range [lo..hi]
    on a team of [team_size threads] logical threads ([threads]
    defaults to {!num_threads}), under schedule [sched] (default
    {!Sched.default}).  Thread 0 is the calling domain (the OpenMP
    master); under [Static] each participating thread receives exactly
    one contiguous chunk, so chunk assignment — and hence reduction
    combining order — is deterministic and identical to the historical
    spawn-per-region runtime.  Concurrent top-level regions multiplex
    onto the shared resident workers through the task queue; a region
    entered from inside another region's body runs inline with a team
    of one. *)
let run ?threads ?(sched = Sched.default) ~lo ~hi body =
  let n = team_size (match threads with Some n -> n | None -> num_threads ()) in
  let total = hi - lo + 1 in
  if total <= 0 then ()  (* empty iteration space: no dispatch at all *)
  else begin
    (* may raise Faultinject.Injected (fail-region directive) *)
    let region = Faultinject.enter_region () in
    (* chunk-boundary poll points: cooperative cancellation (deadline
       watchdog) and injected chunk delays; one atomic load each when
       no token/plan is installed *)
    let body t clo chi =
      Fault.check_current ();
      Faultinject.chunk_delay ~region;
      body t clo chi
    in
    if n = 1 || total = 1 then begin
      (* single-chunk fast path (and every nested region): no team, no
         barrier *)
      Atomic.incr c_inline;
      Atomic.incr c_tasks;
      as_member (fun () -> body 0 lo hi)
    end
    else begin
      let team, run_thread = plan ~sched ~lo ~hi n body in
      (* the caller's deadline travels with the region: every chunk
         task re-installs it on the domain that executes it, and runs
         as a team member *)
      let token = Fault.current () in
      let run_thread t =
        Fault.with_token_opt token (fun () -> as_member (fun () -> run_thread t))
      in
      let sequential () =
        Atomic.incr c_seq;
        reraise_first (run_sequential ~team run_thread)
      in
      if team <= 1 then begin
        Atomic.incr c_inline;
        run_thread 0
      end
      else if Atomic.get degraded_reason <> None || team - 1 > max_pool_size
      then
        (* degraded (resident team retired, domains suspect) or more
           workers than the pool cap: the same chunk plan, on the
           master *)
        sequential ()
      else begin
        ensure_workers (team - 1);
        (* reap/respawn workers that died in an earlier region; may
           flip the pool to degraded mode *)
        heal_workers ();
        if Atomic.get degraded_reason <> None then sequential ()
        else begin
          enter_inflight ();
          let outcome =
            Fun.protect
              ~finally:(fun () -> leave_inflight ())
              (fun () ->
                let t0 = now_ns () in
                let exns, busy =
                  run_queued ~team ~static:(sched = Sched.Static) ~token
                    run_thread
                in
                record_region ~wall_ns:(now_ns () - t0) ~busy_ns:busy ~team;
                exns)
          in
          reraise_first outcome
        end
      end
    end
  end
