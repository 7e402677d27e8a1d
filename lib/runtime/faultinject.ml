(** Fault-injection harness for the serving runtime.

    Deterministically reproduces the failure modes the fault-tolerance
    layer must survive, without touching kernel code: the pool calls
    the hooks below at region entry, chunk dispatch and worker task
    receipt, and an installed {e plan} decides when they fire.

    Plan grammar (comma-separated directives):
    {[
      fail-region:K          raise in the K-th parallel region (1-based,
                             counted across the process since set_plan)
      delay-chunk:K:MS       sleep MS milliseconds in every chunk of
                             the K-th region (drives deadline tests);
                             K = 0 delays every region (models
                             latency-bound kernels for serve-overlap
                             benchmarks)
      kill-worker:I[:N]      resident worker I dies when it next
                             receives a task, N times (default 1)
    ]}

    Plans come from {!set_plan} (tests), [oglaf serve --inject]
    (manual reproduction) or the [OGLAF_INJECT] environment variable
    (whole-process smoke runs).  With no plan installed every hook is
    a single atomic load.

    Precedence: [--inject] {e wins} over [OGLAF_INJECT].  The
    environment plan is installed once at module load (bottom of this
    file); a later {!set_plan} — which is what the CLI flag calls —
    replaces the whole installed plan and resets the region counter,
    so the two never merge.  [test/test_faults.ml] pins this
    contract. *)

type directive =
  | Fail_region of int
  | Delay_chunk of { region : int; delay_s : float }
  | Kill_worker of { worker : int; times : int }

(** Raised by an injected region failure; the service layer classifies
    it as a runtime fault. *)
exception Injected of string

(** Parse the plan grammar above. *)
let parse_plan s : (directive list, string) result =
  let parse_one d =
    match String.split_on_char ':' (String.trim d) with
    | [ "fail-region"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok (Fail_region k)
      | _ -> Error (Printf.sprintf "bad region index in %S" d))
    | [ "delay-chunk"; k; ms ] -> (
      match (int_of_string_opt k, float_of_string_opt ms) with
      | Some k, Some ms when k >= 0 && ms >= 0.0 ->
        Ok (Delay_chunk { region = k; delay_s = ms /. 1e3 })
      | _ -> Error (Printf.sprintf "bad delay directive %S" d))
    | [ "kill-worker"; i ] -> (
      match int_of_string_opt i with
      | Some i when i >= 0 -> Ok (Kill_worker { worker = i; times = 1 })
      | _ -> Error (Printf.sprintf "bad worker index in %S" d))
    | [ "kill-worker"; i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n when i >= 0 && n >= 1 ->
        Ok (Kill_worker { worker = i; times = n })
      | _ -> Error (Printf.sprintf "bad kill directive %S" d))
    | _ ->
      Error
        (Printf.sprintf
           "unknown directive %S (expected fail-region:K, delay-chunk:K:MS \
            or kill-worker:I[:N])"
           d)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
      match parse_one d with Ok x -> go (x :: acc) rest | Error _ as e -> e)
  in
  match String.split_on_char ',' (String.trim s) with
  | [ "" ] -> Error "empty injection plan"
  | parts -> go [] parts

(* --- installed plan ------------------------------------------------------ *)

type compiled = {
  fail_regions : int list;
  delays : (int * float) list;  (* region -> seconds *)
  kills : (int * int Atomic.t) list;  (* worker -> remaining deaths *)
}

let state : compiled option Atomic.t = Atomic.make None

(* Region counter: every parallel region with a non-empty iteration
   space increments it, whatever execution path it takes, so the K in
   fail-region:K / delay-chunk:K is deterministic. *)
let region_ctr = Atomic.make 0

let set_plan plan =
  Atomic.set region_ctr 0;
  Atomic.set state
    (Some
       {
         fail_regions =
           List.filter_map (function Fail_region k -> Some k | _ -> None) plan;
         delays =
           List.filter_map
             (function
               | Delay_chunk { region; delay_s } -> Some (region, delay_s)
               | _ -> None)
             plan;
         kills =
           List.filter_map
             (function
               | Kill_worker { worker; times } -> Some (worker, Atomic.make times)
               | _ -> None)
             plan;
       })

let clear () =
  Atomic.set state None;
  Atomic.set region_ctr 0

let active () = Atomic.get state <> None

(* --- hooks (called by Pool) --------------------------------------------- *)

(** Region-entry hook: returns the 1-based index of this region (0
    when no plan is installed).
    @raise Injected when a [fail-region] directive matches. *)
let enter_region () =
  match Atomic.get state with
  | None -> 0
  | Some p ->
    let r = 1 + Atomic.fetch_and_add region_ctr 1 in
    if List.mem r p.fail_regions then
      raise (Injected (Printf.sprintf "fail-region:%d" r));
    r

(** Chunk-dispatch hook: sleep if a [delay-chunk] directive targets
    [region] (the index {!enter_region} returned) or every region
    (directive key 0). *)
let chunk_delay ~region =
  match Atomic.get state with
  | None -> ()
  | Some p -> (
    let delay k =
      match List.assoc_opt k p.delays with
      | Some d when d > 0.0 -> Unix.sleepf d
      | _ -> ()
    in
    delay region;
    delay 0)

(** Task-receipt hook: [true] when resident worker [worker] (0-based)
    should crash now; each [kill-worker] directive fires [times]
    times. *)
let crash_worker ~worker =
  match Atomic.get state with
  | None -> false
  | Some p -> (
    match List.assoc_opt worker p.kills with
    | None -> false
    | Some left ->
      let rec claim () =
        let n = Atomic.get left in
        if n <= 0 then false
        else if Atomic.compare_and_set left n (n - 1) then true
        else claim ()
      in
      claim ())

(* Whole-process smoke runs: OGLAF_INJECT installs a plan at load.
   This runs before any CLI flag is parsed, so an explicit --inject
   (via set_plan) always replaces it — flag wins over environment. *)
let () =
  match Sys.getenv_opt "OGLAF_INJECT" with
  | None -> ()
  | Some s -> (
    match parse_plan s with
    | Ok plan -> set_plan plan
    | Error msg -> Printf.eprintf "OGLAF_INJECT ignored: %s\n%!" msg)
