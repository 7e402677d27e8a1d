(** Persistent tuning plans: the autotuner's cached winners.

    A plan is a list of entries keyed by (loop structural digest ×
    machine profile).  The digest ({!Variant.loop_digest}) is the MD5
    of the loop's directive-stripped AST, so an entry survives
    re-analysis but goes stale the moment the loop body changes; the
    machine key pins the plan to the host class it was measured on.

    Plans round-trip through {!Glaf_runtime.Json} as one object
    ([version] / [machine] / [entries]); a timing that was not finite
    is saved as [null] and loads as [nan].  {!load} returns structured
    errors — a corrupted, truncated, or wrong-version file is a
    report, never a crash.  {!apply} rewrites a freshly compiled unit
    with the cached winners and keeps hit/miss/stale counters so
    callers (CLI, listener status) can prove the cache was consulted
    instead of re-searched. *)

open Glaf_fortran
open Glaf_runtime

type entry = {
  pe_loop : string;  (** human label, ["sub#ordinal"] *)
  pe_digest : string;  (** {!Variant.loop_digest} of the loop tuned *)
  pe_variant : Variant.t;  (** the measured winner *)
  pe_default : Variant.t;  (** the as-compiled default it beat (or tied) *)
  pe_ms : float;  (** winner wall time, ms *)
  pe_default_ms : float;
  pe_serial_ms : float;
  pe_verified : int;  (** configurations proved bit-identical to serial *)
  pe_model_agrees : bool;  (** static cost model picked a near-winner *)
}

type stats = {
  mutable st_applies : int;  (** units rewritten through this plan *)
  mutable st_hits : int;  (** loops rewritten from a cached entry *)
  mutable st_misses : int;  (** directive loops with no matching entry *)
  mutable st_stale : int;  (** entries whose digest matched no loop *)
}

type t = {
  p_machine : string;
  p_entries : entry list;
  p_stats : stats;  (** application counters, not persisted *)
  p_mutex : Mutex.t;  (** guards [p_stats]; plans are applied concurrently *)
}

let current_version = 1

let make ~machine entries =
  {
    p_machine = machine;
    p_entries = entries;
    p_stats = { st_applies = 0; st_hits = 0; st_misses = 0; st_stale = 0 };
    p_mutex = Mutex.create ();
  }

(** Key naming the machine class a plan is valid for.  Plans tuned on
    a host with a different core count are rejected wholesale — a
    schedule winner at 8 cores says nothing at 2. *)
let machine_key (m : Glaf_perf.Machine.t) = m.Glaf_perf.Machine.name

let default_machine_key () = machine_key (Glaf_perf.Machine.interp_host ())

let find t digest =
  List.find_opt (fun e -> e.pe_digest = digest) t.p_entries

(* --- applying a plan ----------------------------------------------------- *)

let map_unit_loops f (cu : Ast.compilation_unit) : Ast.compilation_unit =
  let map_sub sp = { sp with Ast.sub_body = Ast.map_loops f sp.Ast.sub_body } in
  List.map
    (function
      | Ast.Module m ->
        Ast.Module { m with Ast.mod_contains = List.map map_sub m.Ast.mod_contains }
      | Ast.Standalone sp -> Ast.Standalone (map_sub sp)
      | Ast.Main m ->
        Ast.Main { m with Ast.main_body = Ast.map_loops f m.Ast.main_body })
    cu

let all_bodies (cu : Ast.compilation_unit) : Ast.stmt list list =
  List.concat_map
    (function
      | Ast.Module m -> List.map (fun sp -> sp.Ast.sub_body) m.Ast.mod_contains
      | Ast.Standalone sp -> [ sp.Ast.sub_body ]
      | Ast.Main m -> [ m.Ast.main_body ])
    cu

(** Rewrite every directive-carrying loop of [cu] whose structural
    digest has a cached winner; count hits, misses (directive loops
    with no entry, left at their default), and stale entries (digests
    matching no loop in [cu] — the source changed since tuning; they
    are ignored, never misapplied).  When [machine] differs from the
    plan's, [cu] is returned untouched and every entry counts stale. *)
let apply ?machine t (cu : Ast.compilation_unit) : Ast.compilation_unit =
  let machine =
    match machine with Some m -> m | None -> default_machine_key ()
  in
  let seen = Hashtbl.create 16 in
  let cu' =
    if machine <> t.p_machine then cu
    else
      let rewrite (l : Ast.do_loop) =
        match l.Ast.do_omp with
        | None -> l
        | Some _ -> (
          let digest = Variant.loop_digest l in
          match find t digest with
          | Some e ->
            Hashtbl.replace seen digest ();
            Variant.apply e.pe_variant l
          | None -> l)
      in
      map_unit_loops rewrite cu
  in
  let hits = Hashtbl.length seen in
  let misses =
    if machine <> t.p_machine then 0
    else
      List.fold_left
        (fun acc body ->
          List.fold_left
            (fun acc l ->
              match l.Ast.do_omp with
              | Some _ when find t (Variant.loop_digest l) = None -> acc + 1
              | _ -> acc)
            acc (Ast.loops body))
        0 (all_bodies cu)
  in
  let stale =
    List.length
      (List.filter (fun e -> not (Hashtbl.mem seen e.pe_digest)) t.p_entries)
  in
  Mutex.lock t.p_mutex;
  t.p_stats.st_applies <- t.p_stats.st_applies + 1;
  t.p_stats.st_hits <- t.p_stats.st_hits + hits;
  t.p_stats.st_misses <- t.p_stats.st_misses + misses;
  t.p_stats.st_stale <- t.p_stats.st_stale + stale;
  Mutex.unlock t.p_mutex;
  cu'

let stats t =
  Mutex.lock t.p_mutex;
  let s =
    {
      st_applies = t.p_stats.st_applies;
      st_hits = t.p_stats.st_hits;
      st_misses = t.p_stats.st_misses;
      st_stale = t.p_stats.st_stale;
    }
  in
  Mutex.unlock t.p_mutex;
  s

let stats_json t =
  let s = stats t in
  Json.(
    Obj
      [ ("machine", Str t.p_machine); ("entries", int (List.length t.p_entries));
        ("applies", int s.st_applies); ("hits", int s.st_hits);
        ("misses", int s.st_misses); ("stale", int s.st_stale) ])

(* --- JSON ---------------------------------------------------------------- *)

let entry_to_json e =
  Json.(
    Obj
      [ ("loop", Str e.pe_loop); ("digest", Str e.pe_digest);
        ("variant", Str (Variant.to_string e.pe_variant));
        ("default", Str (Variant.to_string e.pe_default));
        ("ms", Num e.pe_ms); ("default_ms", Num e.pe_default_ms);
        ("serial_ms", Num e.pe_serial_ms); ("verified", int e.pe_verified);
        ("model_agrees", Bool e.pe_model_agrees) ])

let to_json t =
  Json.(
    to_string
      (Obj
         [ ("version", int current_version); ("machine", Str t.p_machine);
           ("entries", List (List.map entry_to_json t.p_entries)) ]))
  ^ "\n"

let entry_of_json (j : Json.v) : (entry, string) result =
  let ( let* ) = Result.bind in
  let want k conv =
    match Option.bind (Json.field k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "entry missing or malformed field %S" k)
  in
  (* a timing that was not finite when saved was written as null *)
  let ms = function Json.Null -> Some Float.nan | j -> Json.num j in
  let* loop = want "loop" Json.str in
  let* digest = want "digest" Json.str in
  let* variant_s = want "variant" Json.str in
  let* default_s = want "default" Json.str in
  let* pe_ms = want "ms" ms in
  let* default_ms = want "default_ms" ms in
  let* serial_ms = want "serial_ms" ms in
  let* verified = want "verified" Json.num in
  let* model_agrees = want "model_agrees" Json.boolean in
  let* variant =
    match Variant.of_string variant_s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unknown variant %S" variant_s)
  in
  let* default =
    match Variant.of_string default_s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unknown variant %S" default_s)
  in
  if String.length digest <> 32 then
    Error (Printf.sprintf "digest %S is not an MD5 hex string" digest)
  else
    Ok
      {
        pe_loop = loop;
        pe_digest = digest;
        pe_variant = variant;
        pe_default = default;
        pe_ms;
        pe_default_ms = default_ms;
        pe_serial_ms = serial_ms;
        pe_verified = int_of_float verified;
        pe_model_agrees = model_agrees;
      }

let of_json (s : string) : (t, string) result =
  let ( let* ) = Result.bind in
  let* j = Json.parse s in
  let* version =
    match Option.bind (Json.field "version" j) Json.num with
    | Some v -> Ok (int_of_float v)
    | None -> Error "missing plan version"
  in
  if version <> current_version then
    Error
      (Printf.sprintf "plan version %d, this build reads version %d" version
         current_version)
  else
    let* machine =
      match Option.bind (Json.field "machine" j) Json.str with
      | Some m -> Ok m
      | None -> Error "missing machine key"
    in
    let* entries =
      match Option.bind (Json.field "entries" j) Json.list with
      | Some l ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* e = entry_of_json e in
            Ok (e :: acc))
          (Ok []) l
        |> Result.map List.rev
      | None -> Error "missing entries array"
    in
    Ok (make ~machine entries)

(* --- files --------------------------------------------------------------- *)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))

(** Read a plan file.  Every failure mode — unreadable file, truncated
    or corrupt JSON, unknown version, malformed entry — comes back as
    [Error reason] for the caller to surface as a structured fault. *)
let load path : (t, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read plan: %s" e)
  | contents -> (
    match of_json contents with
    | Ok p -> Ok p
    | Error e -> Error (Printf.sprintf "plan file %s: %s" path e))
