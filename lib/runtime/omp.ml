(** OpenMP-flavoured parallel runtime on OCaml 5 domains.

    Provides the fork-join [parallel_for] the interpreter uses to
    execute [!$OMP PARALLEL DO].  Since PR 2 the fork-join runs on the
    persistent worker pool ({!Pool}): domains are created once and
    reused across regions, with per-loop scheduling ({!Sched}) —
    [Static] (the default, OpenMP's static chunking with deterministic
    chunk assignment), [Static_chunked k], [Dynamic k] and [Guided k].
    A parallel region entered from inside another region's body runs
    with a team of one, as OpenMP does by default ({!Pool.team_size}).

    A global lock backs CRITICAL sections and the atomic-update
    helper. *)

let num_threads = Pool.num_threads

(* One global lock backs both CRITICAL sections and ATOMIC updates;
   fine for correctness, and its contention is part of what makes
   fine-grained parallel loops slow — as in the paper. *)
let critical_mutex = Mutex.create ()

let critical f =
  Mutex.lock critical_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock critical_mutex) f

let atomic_update = critical

(** Run [body t chunk_lo chunk_hi] on [threads] logical threads over
    [lo..hi], dispatching to the resident {!Pool} workers.  The
    calling domain acts as thread 0 (like an OpenMP master), so a
    1-thread parallel loop still pays a small runtime cost but
    dispatches nothing.  Under non-[Static] schedules [body] may be
    invoked several times per thread, once per chunk. *)
let parallel_for ?threads ?sched ~lo ~hi body =
  Pool.run ?threads ?sched ~lo ~hi body
