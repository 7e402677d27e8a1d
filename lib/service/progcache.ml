(** Content-hash compiled-program cache.

    The paper's pipeline is compile-once/run-many; the long-lived
    listener ({!Listener}) extends that across {e connections}: the
    script text of every request is hashed and the whole
    parse -> analysis -> codegen -> reparse pipeline runs only on the
    first sight of each distinct script.  Keying is by content digest
    of the exact script bytes — whitespace or comment changes are
    different programs as far as the cache is concerned, which keeps
    the key computation a single pass with no normalization to get
    subtly wrong.

    Bounded: at most [capacity] compiled programs are retained, with
    least-recently-used eviction (a monotonic use clock per entry; the
    eviction scan is O(size), fine for the tens-of-entries capacities
    a server realistically configures).  Only {e successful} compiles
    are cached: a script that fails to parse fails fast enough that
    caching the fault would only risk pinning a transient analysis
    error (and would let a malicious client fill the cache with
    garbage keys).

    Thread-safe; compilation runs {e outside} the lock so a slow
    compile cannot block concurrent hits.  Two readers missing on the
    same key concurrently may both compile — the second insert is
    dropped, which wastes one compile but never corrupts the cache. *)

type entry = {
  e_compiled : Serve.compiled;
  mutable e_stamp : int;  (** use-clock value at last access (LRU) *)
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;  (** digest of script text -> entry *)
  mu : Mutex.t;
  compile : string -> (Serve.compiled, Glaf_runtime.Fault.t) result;
      (** how a miss compiles; lets callers thread a plan transform
          through the cache so hits and misses serve the same program *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  cs_size : int;
  cs_capacity : int;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
}

let create ?(capacity = 64) ?(compile = Serve.compile_result ?transform:None)
    () =
  if capacity < 1 then invalid_arg "Progcache.create: capacity must be >= 1";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    mu = Mutex.create ();
    compile;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* MD5 via the stdlib Digest: not cryptographic, but the cache is a
   performance layer, not an integrity boundary — a collision serves
   the wrong (still valid) program to a client that deliberately
   constructed one. *)
let key_of_script text = Digest.to_hex (Digest.string text)

let stats c =
  Mutex.lock c.mu;
  let s =
    {
      cs_size = Hashtbl.length c.tbl;
      cs_capacity = c.capacity;
      cs_hits = c.hits;
      cs_misses = c.misses;
      cs_evictions = c.evictions;
    }
  in
  Mutex.unlock c.mu;
  s

let hit_rate s =
  let total = s.cs_hits + s.cs_misses in
  if total = 0 then 0.0 else float_of_int s.cs_hits /. float_of_int total

(* under [c.mu] *)
let evict_lru c =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, _, stamp) when stamp <= e.e_stamp -> acc
        | _ -> Some (k, e, e.e_stamp))
      c.tbl None
  in
  match victim with
  | None -> ()
  | Some (k, e, _) ->
    Hashtbl.remove c.tbl k;
    c.evictions <- c.evictions + 1;
    (* Drop the evicted script's compiled bytecode, stats sites and
       AST memo entries too: the interpreter-level caches key by the
       unit's structural digest and the memos by its AST, so without
       this a long-lived server accumulates programs and ASTs for
       scripts it will never serve again. *)
    Glaf_interp.Bytecode.purge_unit e.e_compiled.Serve.co_unit

(** Return the compiled program for [script], compiling (and caching
    on success) if absent.  The second component reports whether this
    lookup hit the cache. *)
let find_or_compile c script =
  let key = key_of_script script in
  Mutex.lock c.mu;
  c.clock <- c.clock + 1;
  let stamp = c.clock in
  match Hashtbl.find_opt c.tbl key with
  | Some e ->
    e.e_stamp <- stamp;
    c.hits <- c.hits + 1;
    Mutex.unlock c.mu;
    (Ok e.e_compiled, `Hit)
  | None -> (
    c.misses <- c.misses + 1;
    Mutex.unlock c.mu;
    match c.compile script with
    | Error _ as err -> (err, `Miss)
    | Ok compiled ->
      Mutex.lock c.mu;
      if not (Hashtbl.mem c.tbl key) then begin
        while Hashtbl.length c.tbl >= c.capacity do
          evict_lru c
        done;
        Hashtbl.replace c.tbl key { e_compiled = compiled; e_stamp = stamp }
      end;
      Mutex.unlock c.mu;
      (Ok compiled, `Miss))
