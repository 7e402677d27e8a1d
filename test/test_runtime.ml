(* Unit and property tests for the runtime substrate: values, Fortran
   arrays, intrinsics and the domain-based OpenMP-like runtime. *)

open Glaf_runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_float msg expected actual =
  Alcotest.(check (float 1e-12)) msg expected actual

(* --- Value -------------------------------------------------------------- *)

let test_value_arith () =
  check_bool "int add" true (Value.add (Value.Int 2) (Value.Int 3) = Value.Int 5);
  check_bool "mixed add is real" true
    (Value.add (Value.Int 2) (Value.Real 0.5) = Value.Real 2.5);
  check_bool "int division truncates" true
    (Value.div (Value.Int 7) (Value.Int 2) = Value.Int 3);
  check_bool "int pow" true (Value.pow (Value.Int 2) (Value.Int 10) = Value.Int 1024);
  check_bool "real pow" true
    (Value.pow (Value.Real 2.0) (Value.Int (-1)) = Value.Real 0.5);
  check_bool "neg" true (Value.neg (Value.Int 4) = Value.Int (-4))

let test_value_compare () =
  check_bool "int lt real" true (Value.lt (Value.Int 1) (Value.Real 1.5));
  check_bool "eq across kinds" true (Value.eq (Value.Int 2) (Value.Real 2.0));
  check_bool "string eq" true (Value.eq (Value.Str "a") (Value.Str "a"));
  check_bool "approx" true
    (Value.approx_eq ~tol:1e-6 (Value.Real 1.0) (Value.Real (1.0 +. 1e-8)))

let test_value_errors () =
  check_bool "div by zero raises" true
    (match Value.div (Value.Int 1) (Value.Int 0) with
    | exception Value.Runtime_error _ -> true
    | _ -> false);
  check_bool "bool arith raises" true
    (match Value.add (Value.Bool true) (Value.Int 1) with
    | exception Value.Runtime_error _ -> true
    | _ -> false)

let test_value_coerce () =
  let open Glaf_fortran.Ast in
  check_bool "real to int" true (Value.coerce Integer (Value.Real 3.9) = Value.Int 3);
  check_bool "int to real" true (Value.coerce Real8 (Value.Int 3) = Value.Real 3.0);
  check_bool "bad coerce raises" true
    (match Value.coerce Logical (Value.Int 1) with
    | exception Value.Runtime_error _ -> true
    | _ -> false)

(* --- Farray ------------------------------------------------------------- *)

let test_farray_column_major () =
  let a = Farray.create Farray.Efloat [| (1, 3); (1, 2) |] in
  (* column-major: (1,1) (2,1) (3,1) (1,2) (2,2) (3,2) *)
  Farray.set a [| 2; 1 |] (Farray.Cf 21.0);
  Farray.set a [| 1; 2 |] (Farray.Cf 12.0);
  check_float "linear 1" 21.0
    (match Farray.get_linear a 1 with Farray.Cf x -> x | _ -> nan);
  check_float "linear 3" 12.0
    (match Farray.get_linear a 3 with Farray.Cf x -> x | _ -> nan)

let test_farray_bounds () =
  let a = Farray.create Farray.Efloat [| (0, 4) |] in
  Farray.set_float a [| 0 |] 7.0;
  check_float "lower bound 0" 7.0 (Farray.get_float a [| 0 |]);
  check_bool "oob raises" true
    (match Farray.get a [| 5 |] with
    | exception Farray.Bounds_error _ -> true
    | _ -> false);
  check_bool "rank mismatch raises" true
    (match Farray.get a [| 1; 1 |] with
    | exception Farray.Bounds_error _ -> true
    | _ -> false)

let test_farray_ops () =
  let a = Farray.of_float_list [ 3.0; 4.0 ] in
  check_float "rms" 3.5355339059327378 (Farray.rms a);
  let b = Farray.of_float_list [ 3.0; 4.5 ] in
  check_float "max abs diff" 0.5 (Farray.max_abs_diff a b);
  let s = Farray.slice1 (Farray.of_float_list [ 1.; 2.; 3.; 4. ]) 2 3 in
  check_int "slice size" 2 (Farray.size s);
  check_float "slice content" 2.0 (Farray.get_float s [| 1 |]);
  let c = Farray.copy a in
  Farray.set_float c [| 1 |] 99.0;
  check_float "copy is deep" 3.0 (Farray.get_float a [| 1 |])

let prop_farray_roundtrip =
  QCheck.Test.make ~name:"farray set/get roundtrip" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 1 20))
    (fun (n, m) ->
      let a = Farray.create Farray.Efloat [| (1, n); (1, m) |] in
      let v i j = float_of_int ((i * 31) + j) in
      for i = 1 to n do
        for j = 1 to m do
          Farray.set_float a [| i; j |] (v i j)
        done
      done;
      let ok = ref true in
      for i = 1 to n do
        for j = 1 to m do
          if Farray.get_float a [| i; j |] <> v i j then ok := false
        done
      done;
      !ok && Farray.size a = n * m)

(* --- Intrinsics ---------------------------------------------------------- *)

let apply name args =
  match Intrinsics.apply name args with
  | Some v -> v
  | None -> Alcotest.failf "%s is not an intrinsic" name

let test_intrinsics_numeric () =
  check_bool "abs int" true (apply "abs" [ Value.Int (-3) ] = Value.Int 3);
  check_float "alog" 1.0 (Value.to_float (apply "alog" [ Value.Real (exp 1.0) ]));
  check_float "sign" (-2.5) (Value.to_float (apply "sign" [ Value.Real 2.5; Value.Real (-1.0) ]));
  check_bool "mod int" true (apply "mod" [ Value.Int 7; Value.Int 3 ] = Value.Int 1);
  check_float "atan2" (Float.pi /. 4.0)
    (Value.to_float (apply "atan2" [ Value.Real 1.0; Value.Real 1.0 ]));
  check_bool "nint rounds" true (apply "nint" [ Value.Real 2.6 ] = Value.Int 3);
  check_bool "floor" true (apply "floor" [ Value.Real (-0.5) ] = Value.Int (-1))

let test_intrinsics_minmax () =
  check_bool "max of ints stays int" true
    (apply "max" [ Value.Int 1; Value.Int 5; Value.Int 3 ] = Value.Int 5);
  check_float "min mixed" 0.5
    (Value.to_float (apply "min" [ Value.Int 1; Value.Real 0.5 ]));
  check_float "dmax1" 2.0 (Value.to_float (apply "dmax1" [ Value.Real 2.0; Value.Real 1.0 ]))

let test_intrinsics_arrays () =
  let arr = Value.Arr (Farray.of_float_list [ 1.0; 2.0; 3.0 ]) in
  check_float "sum" 6.0 (Value.to_float (apply "sum" [ arr ]));
  check_float "product" 6.0 (Value.to_float (apply "product" [ arr ]));
  check_float "minval" 1.0 (Value.to_float (apply "minval" [ arr ]));
  check_float "maxval" 3.0 (Value.to_float (apply "maxval" [ arr ]));
  check_bool "size" true (apply "size" [ arr ] = Value.Int 3);
  let brr = Value.Arr (Farray.of_float_list [ 4.0; 5.0; 6.0 ]) in
  check_float "dot_product" 32.0 (Value.to_float (apply "dot_product" [ arr; brr ]))

let test_intrinsics_unknown () =
  check_bool "unknown name" true (Intrinsics.apply "frobnicate" [] = None);
  check_bool "case-insensitive" true (Intrinsics.apply "ABS" [ Value.Int (-1) ] <> None)

(* --- Omp ------------------------------------------------------------------ *)

let test_static_chunks () =
  let chunks = Sched.static_chunks ~lo:1 ~hi:10 4 in
  check_int "4 chunks" 4 (Array.length chunks);
  (* coverage: union of chunks is exactly 1..10, disjoint and ordered *)
  let covered = Array.to_list chunks |> List.concat_map (fun (a, b) ->
      List.init (max 0 (b - a + 1)) (fun i -> a + i)) in
  Alcotest.(check (list int)) "cover 1..10" (List.init 10 (fun i -> i + 1)) covered;
  (* empty iteration space *)
  let empty = Sched.static_chunks ~lo:5 ~hi:4 3 in
  check_bool "empty chunks" true
    (Array.for_all (fun (a, b) -> b < a) empty)

let test_parallel_for_sums () =
  let n = 1000 in
  let acc = Array.make 8 0 in
  Omp.parallel_for ~threads:4 ~lo:1 ~hi:n (fun t lo hi ->
      let s = ref 0 in
      for i = lo to hi do
        s := !s + i
      done;
      acc.(t) <- !s);
  check_int "total" (n * (n + 1) / 2) (Array.fold_left ( + ) 0 acc)

let test_parallel_exception_propagates () =
  check_bool "exception surfaces" true
    (match
       Omp.parallel_for ~threads:3 ~lo:1 ~hi:10 (fun _ lo _ ->
           if lo > 1 then failwith "boom")
     with
    | exception Failure _ -> true
    | () -> false)

let test_critical_mutual_exclusion () =
  let counter = ref 0 in
  Omp.parallel_for ~threads:4 ~lo:1 ~hi:400 (fun _ lo hi ->
      for _ = lo to hi do
        Omp.critical (fun () -> incr counter)
      done);
  check_int "no lost updates" 400 !counter

(* --- Sched / Pool --------------------------------------------------------- *)

let test_sched_of_string () =
  check_bool "static" true (Sched.of_string "static" = Some Sched.Static);
  check_bool "chunk" true (Sched.of_string "chunk:8" = Some (Sched.Static_chunked 8));
  check_bool "dynamic" true (Sched.of_string "dynamic:2" = Some (Sched.Dynamic 2));
  check_bool "bare dynamic means chunk 1" true
    (Sched.of_string "dynamic" = Some (Sched.Dynamic 1));
  check_bool "zero chunk rejected" true (Sched.of_string "chunk:0" = None);
  check_bool "guided default floor" true
    (Sched.of_string "guided" = Some (Sched.Guided 1));
  check_bool "guided with floor" true
    (Sched.of_string "guided:4" = Some (Sched.Guided 4));
  check_bool "guided zero floor rejected" true (Sched.of_string "guided:0" = None);
  check_bool "junk rejected" true (Sched.of_string "gelded" = None);
  (* the OpenMP-consistent alias: schedule(static, k) prints static:<k> *)
  check_bool "static:k alias" true
    (Sched.of_string "static:8" = Some (Sched.Static_chunked 8));
  check_bool "static:k equals chunk:k" true
    (Sched.of_string "static:8" = Sched.of_string "chunk:8");
  check_bool "static:0 rejected" true (Sched.of_string "static:0" = None);
  check_bool "static: junk rejected" true (Sched.of_string "static:x" = None);
  List.iter
    (fun s ->
      check_bool "roundtrip" true
        (Sched.of_string (Sched.to_string s) = Some s))
    [ Sched.Static; Sched.Static_chunked 3; Sched.Dynamic 5; Sched.Guided 2 ]

(* every schedule round-trips through its printed form, and the
   chunked forms also parse under the static:<k> alias *)
let prop_sched_roundtrip =
  QCheck.Test.make ~name:"sched to_string/of_string roundtrip" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 1 999))
    (fun (tag, k) ->
      let s =
        match tag with
        | 0 -> Sched.Static
        | 1 -> Sched.Static_chunked k
        | 2 -> Sched.Dynamic k
        | _ -> Sched.Guided k
      in
      Sched.of_string (Sched.to_string s) = Some s
      && (tag <> 1
         || Sched.of_string (Printf.sprintf "static:%d" k)
            = Some (Sched.Static_chunked k)))

(* OpenMP's guided decay rule as a pure function: every pull takes
   max(floor, remaining/team), so the sizes are non-increasing, always
   positive (the loop terminates) and partition the iteration space. *)
let test_guided_decay_law () =
  List.iter
    (fun (total, team, floor) ->
      let name = Printf.sprintf "guided %d/%d/%d" total team floor in
      let sizes = Sched.guided_chunk_sizes ~total ~team ~min_chunk:floor in
      check_int (name ^ ": sizes partition the space") total
        (List.fold_left ( + ) 0 sizes);
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      check_bool (name ^ ": sizes decay") true (non_increasing sizes);
      check_bool (name ^ ": chunks positive") true
        (List.for_all (fun c -> c >= 1) sizes);
      (* every chunk but the final remainder respects the floor *)
      let rec floored = function
        | [] | [ _ ] -> true
        | c :: rest -> c >= floor && floored rest
      in
      check_bool (name ^ ": floor respected") true (floored sizes);
      match sizes with
      | first :: _ ->
        check_int
          (name ^ ": first chunk is max(floor, remaining/team)")
          (min total (max floor (total / team)))
          first
      | [] -> Alcotest.failf "%s: no chunks for total %d" name total)
    [ (1000, 4, 1); (1000, 4, 16); (7, 8, 1); (1, 1, 1); (100, 3, 7);
      (64, 64, 1); (1000, 1, 1) ]

let test_guided_termination () =
  (* progress even when remaining < team or floor > total: at most one
     chunk per iteration, never zero-sized *)
  List.iter
    (fun (total, team, floor) ->
      let sizes = Sched.guided_chunk_sizes ~total ~team ~min_chunk:floor in
      check_bool
        (Printf.sprintf "guided %d/%d/%d terminates" total team floor)
        true
        (List.length sizes <= total && List.fold_left ( + ) 0 sizes = total))
    [ (1, 64, 1); (2, 64, 1); (3, 1000, 1); (1000, 1000, 1000); (5, 2, 100) ]

let test_pool_empty_range () =
  let called = Atomic.make 0 in
  List.iter
    (fun sched ->
      Pool.run ~threads:4 ~sched ~lo:5 ~hi:4 (fun _ _ _ -> Atomic.incr called))
    [ Sched.Static; Sched.Static_chunked 2; Sched.Dynamic 2; Sched.Guided 2 ];
  check_int "body never called on empty range" 0 (Atomic.get called)

let test_pool_threads_exceed_iterations () =
  (* 8 threads over 3 iterations: occupancy caps the team, every
     iteration runs exactly once, and no thread sees an empty chunk.
     Chunk bodies only record: Alcotest's checks are not safe to call
     from several domains at once. *)
  let hits = Array.make 4 0 in
  let empty_chunks = Atomic.make 0 in
  Omp.parallel_for ~threads:8 ~lo:1 ~hi:3 (fun _ lo hi ->
      if hi < lo then Atomic.incr empty_chunks;
      for i = lo to hi do
        Omp.critical (fun () -> hits.(i) <- hits.(i) + 1)
      done);
  check_int "no empty chunk" 0 (Atomic.get empty_chunks);
  Alcotest.(check (list int)) "each iteration once" [ 1; 1; 1 ]
    (Array.to_list (Array.sub hits 1 3))

let test_pool_exception_propagates () =
  check_bool "pooled region surfaces exception" true
    (match
       Pool.run ~threads:4 ~lo:1 ~hi:1000 (fun _ lo _ ->
           if lo > 1 then failwith "pool boom")
     with
    | exception Failure _ -> true
    | () -> false);
  (* the pool survives a throwing region *)
  let ok = Atomic.make 0 in
  Pool.run ~threads:4 ~lo:1 ~hi:100 (fun _ lo hi ->
      ignore (Atomic.fetch_and_add ok (hi - lo + 1)));
  check_int "pool usable after exception" 100 (Atomic.get ok)

let test_pool_schedules_cover_range () =
  List.iter
    (fun sched ->
      let seen = Array.make 102 0 in
      Pool.run ~threads:4 ~sched ~lo:1 ~hi:101 (fun _ lo hi ->
          for i = lo to hi do
            Omp.critical (fun () -> seen.(i) <- seen.(i) + 1)
          done);
      check_bool
        (Printf.sprintf "%s covers 1..101 exactly once" (Sched.to_string sched))
        true
        (Array.for_all (fun c -> c = 1) (Array.sub seen 1 101)))
    [ Sched.Static; Sched.Static_chunked 7; Sched.Dynamic 3; Sched.Guided 1;
      Sched.Guided 8 ]

(* Static chunk boundaries are a pure function of (lo, hi, threads), so
   per-thread partial sums — and the thread-ordered combine — are
   bit-identical across repeated runs even for values where floating
   addition does not commute. *)
let static_partial_sum ~threads n =
  let partials = Array.make threads 0.0 in
  Omp.parallel_for ~threads ~sched:Sched.Static ~lo:1 ~hi:n (fun t lo hi ->
      let s = ref 0.0 in
      for i = lo to hi do
        s := !s +. (1.0 /. float_of_int i)
      done;
      partials.(t) <- !s);
  Array.fold_left ( +. ) 0.0 partials

let test_pool_static_reduction_deterministic () =
  List.iter
    (fun threads ->
      let first = static_partial_sum ~threads 10_000 in
      for _ = 1 to 5 do
        let again = static_partial_sum ~threads 10_000 in
        check_bool
          (Printf.sprintf "bit-identical at %d threads" threads)
          true
          (Int64.equal (Int64.bits_of_float first) (Int64.bits_of_float again))
      done)
    [ 1; 2; 4 ]

let test_pool_reuse_many_regions () =
  (* warm the pool, then check 1000 tiny regions neither grow it nor
     fall back to spawning *)
  Pool.run ~threads:4 ~lo:1 ~hi:100 (fun _ _ _ -> ());
  let size0 = Pool.pool_size () in
  Pool.reset_stats ();
  let total = Atomic.make 0 in
  for _ = 1 to 1000 do
    Pool.run ~threads:4 ~lo:1 ~hi:16 (fun _ lo hi ->
        ignore (Atomic.fetch_and_add total (hi - lo + 1)))
  done;
  check_int "all iterations ran" 16_000 (Atomic.get total);
  check_int "pool size stable" size0 (Pool.pool_size ());
  let s = Pool.stats () in
  check_int "all regions pooled" 1000 s.Pool.regions;
  check_bool "tasks recorded" true (s.Pool.tasks >= 1000)

(* Static chunk affinity: thread t's chunk is pinned to the worker
   that executed it in the previous static region, and pinned tasks
   are never stolen — so the chunk-to-worker map of identical
   back-to-back regions is deterministic. *)
let test_pool_affinity_deterministic () =
  let chunk_to_worker () =
    let m = Array.make 4 (-2) in
    Pool.run ~threads:4 ~sched:Sched.Static ~lo:1 ~hi:400 (fun t _ _ ->
        m.(t) <- (match Pool.current_worker () with Some w -> w | None -> -1));
    Array.to_list m
  in
  let first = chunk_to_worker () in
  check_int "thread 0 runs on the master" (-1) (List.hd first);
  check_bool "threads 1..3 run on resident workers" true
    (List.for_all (fun w -> w >= 0) (List.tl first));
  for _ = 1 to 5 do
    Alcotest.(check (list int)) "chunk-to-worker map stable across regions"
      first (chunk_to_worker ())
  done

(* A region entered from a team member's chunk (the master's thread 0
   or a worker's task) is inactive, as in OpenMP's default nesting: it
   runs on the calling domain as thread 0 with the single chunk
   [lo, hi], and enters no pooled region. *)
let test_pool_nested_team_of_one () =
  Pool.run ~threads:2 ~lo:1 ~hi:100 (fun _ _ _ -> ());
  Pool.reset_stats ();
  let inner_hits = Array.make 11 0 in
  let outer_on = Array.make 3 (-2) in
  let inner_chunks = ref [] in
  let member_team = Array.make 3 0 in
  Pool.run ~threads:2 ~sched:Sched.Static ~lo:1 ~hi:2 (fun _ lo hi ->
      for o = lo to hi do
        outer_on.(o) <- (match Pool.current_worker () with Some w -> w | None -> -1);
        member_team.(o) <- Pool.team_size 8;
        Pool.run ~threads:2 ~lo:1 ~hi:10 (fun t clo chi ->
            Omp.critical (fun () ->
                inner_chunks := (t, clo, chi) :: !inner_chunks;
                for i = clo to chi do
                  inner_hits.(i) <- inner_hits.(i) + 1
                done))
      done);
  check_int "outer iteration 1 on the master" (-1) outer_on.(1);
  check_bool "outer iteration 2 on a worker" true (outer_on.(2) >= 0);
  Alcotest.(check (list int)) "team of one inside a member" [ 1; 1 ]
    (Array.to_list (Array.sub member_team 1 2));
  Alcotest.(check (list int)) "each inner iteration once per outer one"
    (List.init 10 (fun _ -> 2)) (Array.to_list (Array.sub inner_hits 1 10));
  Alcotest.(check (list (triple int int int))) "thread 0, one chunk [1, 10]"
    [ (0, 1, 10); (0, 1, 10) ] !inner_chunks;
  let s = Pool.stats () in
  check_int "only the outer region pooled" 1 s.Pool.regions;
  check_int "both nested regions inline" 2 s.Pool.inline_regions;
  check_int "outside a region the team is full again" 8 (Pool.team_size 8)

let test_nested_region_exception_unwinds () =
  (* an exception thrown in an inner region (here: the one nested in
     the worker's outer chunk) must unwind through the outer pooled
     region without poisoning the resident team or flipping it to
     degraded mode *)
  check_bool "inner exception reaches the caller" true
    (match
       Pool.run ~threads:2 ~lo:1 ~hi:2 (fun _ lo _ ->
           Pool.run ~threads:2 ~lo:1 ~hi:10 (fun _ _ _ ->
               if lo > 1 then failwith "inner boom"))
     with
    | exception Failure msg -> msg = "inner boom"
    | () -> false);
  check_bool "pool still healthy" true (Pool.health () = Pool.Healthy);
  check_int "team member flag cleared" 4 (Pool.team_size 4);
  (* both nesting levels still work after the unwind *)
  let total = Atomic.make 0 in
  Pool.run ~threads:2 ~lo:1 ~hi:2 (fun _ lo hi ->
      for _ = lo to hi do
        Pool.run ~threads:2 ~lo:1 ~hi:10 (fun _ clo chi ->
            ignore (Atomic.fetch_and_add total (chi - clo + 1)))
      done);
  check_int "nested regions usable after exception" 20 (Atomic.get total)

(* A team wider than the pool cap runs its unchanged static chunk plan
   sequentially on the calling domain: every iteration once, thread t
   on chunk t, and no worker domain created. *)
let test_pool_team_beyond_cap () =
  let threads = Pool.max_pool_size + 2 and n = 3 * (Pool.max_pool_size + 2) in
  let size0 = Pool.pool_size () in
  Pool.reset_stats ();
  let hits = Array.make (n + 1) 0 and owner = Array.make (n + 1) (-1) in
  Pool.run ~threads ~sched:Sched.Static ~lo:1 ~hi:n (fun t lo hi ->
      for i = lo to hi do
        hits.(i) <- hits.(i) + 1;
        owner.(i) <- t
      done);
  check_bool "every iteration once" true
    (Array.for_all (fun c -> c = 1) (Array.sub hits 1 n));
  let chunks = Sched.static_chunks ~lo:1 ~hi:n threads in
  Array.iteri
    (fun t (clo, chi) ->
      for i = clo to chi do
        check_int (Printf.sprintf "iteration %d on thread %d" i t) t owner.(i)
      done)
    chunks;
  check_int "pool did not grow" size0 (Pool.pool_size ());
  check_int "ran sequentially" 1 (Pool.stats ()).Pool.seq_regions

(* --- Zones ----------------------------------------------------------------- *)

let test_zone_sizes_cosine () =
  let zones = Zones.latitude_zones ~zones:18 ~total_cells:10000 in
  check_int "18 zones" 18 (List.length zones);
  let equatorial = List.nth zones 8 and polar = List.nth zones 0 in
  check_bool "equator larger than pole" true (equatorial.Zones.size > 3 * polar.Zones.size);
  let total = List.fold_left (fun a z -> a + z.Zones.size) 0 zones in
  check_bool "total approximately preserved" true
    (abs (total - 10000) < 10000 / 10)

let test_zone_lpt_beats_static () =
  let zones = Zones.latitude_zones ~zones:24 ~total_cells:9600 in
  let cost z = float_of_int z.Zones.size in
  let static = Zones.makespan (Zones.schedule_static zones ~workers:4) ~cost in
  let lpt = Zones.makespan (Zones.schedule_lpt zones ~workers:4) ~cost in
  let bound = Zones.total_work zones ~cost /. 4.0 in
  check_bool "lpt no worse than static" true (lpt <= static +. 1e-9);
  check_bool "lpt near the balance bound" true (lpt < 1.2 *. bound)

let test_zone_run_executes_all () =
  let zones = Zones.latitude_zones ~zones:12 ~total_cells:1200 in
  let seen = Array.make 13 0 in
  Zones.run (Zones.schedule_lpt zones ~workers:3) ~f:(fun z ->
      Omp.critical (fun () -> seen.(z.Zones.zone_id) <- seen.(z.Zones.zone_id) + 1));
  check_bool "every zone ran exactly once" true
    (Array.for_all (fun c -> c = 1) (Array.sub seen 1 12))

(* --- Json ----------------------------------------------------------------- *)

let gen_json =
  let open QCheck.Gen in
  let any_string = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  sized
    (fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) finite;
               map Json.int int;
               map (fun s -> Json.Str s) any_string;
             ]
         in
         if n <= 0 then leaf
         else
           let items g = list_size (int_bound 4) g in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (items (self (n / 4))));
               (1, map (fun l -> Json.Obj l) (items (pair any_string (self (n / 4)))));
             ]))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* any byte string is answered with Ok or Error: random bytes, runs of
   JSON punctuation, and printed values with one byte cut or changed *)
let prop_json_total =
  let open QCheck.Gen in
  let jsonish = string_of (oneofl (List.of_seq (String.to_seq "{}[]\":,\\u0a9.-+eEtrfalsn "))) in
  let mangled =
    map3
      (fun v i c ->
        let s = Json.to_string v in
        let i = i mod (String.length s + 1) in
        if c = '\000' then String.sub s 0 i
        else String.mapi (fun j x -> if j = i then c else x) s)
      gen_json nat char
  in
  QCheck.Test.make ~name:"json parse never raises" ~count:2000
    (QCheck.make ~print:String.escaped (oneof [ string; jsonish; mangled ]))
    (fun s -> match Json.parse s with Ok _ | Error _ -> true)

let test_json_layout () =
  let v =
    Json.(
      Obj
        [
          ("seq", int 3);
          ("ok", Bool false);
          ("s", Str "a\"b\\c\nd\te\001\xff");
          ("ms", fixed 3 0.41249);
          ("x", List [ Null; Num Float.nan; Num Float.infinity; Num (-0.5) ]);
        ])
  in
  Alcotest.(check string) "compact, keys in order"
    ({|{"seq":3,"ok":false,"s":"a\"b\\c\nd\te\u0001|} ^ "\xff"
   ^ {|","ms":0.412,"x":[null,null,null,-0.5]}|})
    (Json.to_string v)

let test_json_errors () =
  let err s = Result.is_error (Json.parse s) in
  check_bool "empty" true (err "");
  check_bool "trailing bytes" true (err "{} x");
  check_bool "nan is not json" true (err "nan");
  check_bool "deep nesting is an error" true (err (String.make 100_000 '['));
  check_bool "nesting at the limit parses" false
    (err (String.make Json.max_depth '[' ^ String.make Json.max_depth ']'));
  check_bool "whitespace tolerated" false (err " {\n \"a\" : [ 1 , 2 ]\n} ")

let suites =
  [
    ( "runtime.value",
      [
        Alcotest.test_case "arithmetic" `Quick test_value_arith;
        Alcotest.test_case "comparison" `Quick test_value_compare;
        Alcotest.test_case "errors" `Quick test_value_errors;
        Alcotest.test_case "coercion" `Quick test_value_coerce;
      ] );
    ( "runtime.farray",
      [
        Alcotest.test_case "column major" `Quick test_farray_column_major;
        Alcotest.test_case "bounds" `Quick test_farray_bounds;
        Alcotest.test_case "ops" `Quick test_farray_ops;
        QCheck_alcotest.to_alcotest prop_farray_roundtrip;
      ] );
    ( "runtime.intrinsics",
      [
        Alcotest.test_case "numeric" `Quick test_intrinsics_numeric;
        Alcotest.test_case "min/max" `Quick test_intrinsics_minmax;
        Alcotest.test_case "arrays" `Quick test_intrinsics_arrays;
        Alcotest.test_case "unknown" `Quick test_intrinsics_unknown;
      ] );
    ( "runtime.omp",
      [
        Alcotest.test_case "static chunks" `Quick test_static_chunks;
        Alcotest.test_case "parallel sums" `Quick test_parallel_for_sums;
        Alcotest.test_case "exception propagation" `Quick test_parallel_exception_propagates;
        Alcotest.test_case "critical exclusion" `Quick test_critical_mutual_exclusion;
      ] );
    ( "runtime.pool",
      [
        Alcotest.test_case "sched of_string" `Quick test_sched_of_string;
        QCheck_alcotest.to_alcotest prop_sched_roundtrip;
        Alcotest.test_case "empty range" `Quick test_pool_empty_range;
        Alcotest.test_case "threads > iterations" `Quick
          test_pool_threads_exceed_iterations;
        Alcotest.test_case "exception propagation" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "guided decay law" `Quick test_guided_decay_law;
        Alcotest.test_case "guided termination" `Quick test_guided_termination;
        Alcotest.test_case "schedules cover range" `Quick
          test_pool_schedules_cover_range;
        Alcotest.test_case "static reduction deterministic" `Quick
          test_pool_static_reduction_deterministic;
        Alcotest.test_case "affinity deterministic" `Quick
          test_pool_affinity_deterministic;
        Alcotest.test_case "reuse across 1000 regions" `Quick
          test_pool_reuse_many_regions;
        Alcotest.test_case "nested region team of one" `Quick
          test_pool_nested_team_of_one;
        Alcotest.test_case "nested exception unwinds" `Quick
          test_nested_region_exception_unwinds;
        Alcotest.test_case "team beyond the pool cap" `Quick
          test_pool_team_beyond_cap;
      ] );
    ( "runtime.zones",
      [
        Alcotest.test_case "cosine sizes" `Quick test_zone_sizes_cosine;
        Alcotest.test_case "lpt vs static" `Quick test_zone_lpt_beats_static;
        Alcotest.test_case "run executes all" `Quick test_zone_run_executes_all;
      ] );
    ( "runtime.json",
      [
        Alcotest.test_case "compact layout" `Quick test_json_layout;
        Alcotest.test_case "errors" `Quick test_json_errors;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_json_total;
      ] );
  ]
