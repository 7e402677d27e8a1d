(** One point of the per-loop variant space the autotuner searches.

    The paper's Table 2 prunes directives by loop {e class} (policies
    v0–v3); ComPar's stronger claim is that the whole space —
    directive on/off × schedule × chunk size × collapse — should be
    searched per loop.  A variant is exactly one such point:

    - [Serial]: the directive is removed (what v1–v3 do to whole
      classes, decided here per loop from measurement);
    - [Par]: the directive is kept with a pinned [SCHEDULE] clause and
      collapse depth.

    Variants serialize into plan files as compact strings
    ([serial], [static], [static:4], [dynamic:16+collapse:2], …); the
    schedule spelling is the OpenMP-consistent [static:<k>], which
    {!Glaf_runtime.Sched.of_string} accepts as an alias for
    [chunk:<k>]. *)

open Glaf_fortran

type t =
  | Serial  (** run the loop without its directive *)
  | Par of {
      sched : Ast.omp_schedule option;
          (** [None] = no SCHEDULE clause (interpreter default) *)
      collapse : int;  (** 1 = no COLLAPSE clause *)
    }

let equal (a : t) (b : t) =
  match (a, b) with
  | Serial, Serial -> true
  | Par a, Par b ->
    a.collapse = b.collapse
    && Option.equal Ast.equal_omp_schedule a.sched b.sched
  | _ -> false

(** Chunk sizes the search enumerates for every chunked schedule. *)
let chunk_sizes = [ 1; 4; 16; 64 ]

(* --- serialization ------------------------------------------------------- *)

(* OpenMP-consistent spelling: schedule(static, k) prints static:<k>
   (not the runtime's chunk:<k>); Sched.of_string accepts both. *)
let sched_to_string : Ast.omp_schedule -> string = function
  | Ast.Static -> "static"
  | Ast.Static_chunk k -> Printf.sprintf "static:%d" k
  | Ast.Dynamic k -> Printf.sprintf "dynamic:%d" k
  | Ast.Guided k -> Printf.sprintf "guided:%d" k

let sched_of_runtime : Glaf_runtime.Sched.t -> Ast.omp_schedule = function
  | Glaf_runtime.Sched.Static -> Ast.Static
  | Glaf_runtime.Sched.Static_chunked k -> Ast.Static_chunk k
  | Glaf_runtime.Sched.Dynamic k -> Ast.Dynamic k
  | Glaf_runtime.Sched.Guided k -> Ast.Guided k

let to_string = function
  | Serial -> "serial"
  | Par { sched; collapse } ->
    let s =
      match sched with None -> "default" | Some s -> sched_to_string s
    in
    if collapse >= 2 then Printf.sprintf "%s+collapse:%d" s collapse else s

(** Inverse of {!to_string}; [None] on anything else. *)
let of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  if s = "serial" then Some Serial
  else
    let sched_part, collapse =
      match String.index_opt s '+' with
      | None -> (s, Some 1)
      | Some i ->
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let collapse =
          match String.split_on_char ':' rest with
          | [ "collapse"; n ] -> (
            match int_of_string_opt n with
            | Some k when k >= 2 -> Some k
            | _ -> None)
          | _ -> None
        in
        (String.sub s 0 i, collapse)
    in
    match collapse with
    | None -> None
    | Some collapse ->
      if sched_part = "default" then Some (Par { sched = None; collapse })
      else
        Option.map
          (fun rs -> Par { sched = Some (sched_of_runtime rs); collapse })
          (Glaf_runtime.Sched.of_string sched_part)

(* --- loop rewriting ------------------------------------------------------ *)

(** The variant a loop currently embodies (its as-compiled default);
    [None] if the loop carries no directive (nothing to tune). *)
let default_of (l : Ast.do_loop) : t option =
  match l.Ast.do_omp with
  | None -> None
  | Some d ->
    Some (Par { sched = d.Ast.omp_schedule; collapse = d.Ast.omp_collapse })

(** Rewrite one loop to a variant.  Only the schedule/collapse clauses
    (or directive presence) change; private/reduction lists — the
    clauses correctness depends on — are never touched.  A loop with
    no directive is returned unchanged: a variant can only be applied
    where the analysis put a directive in the first place. *)
let apply (v : t) (l : Ast.do_loop) : Ast.do_loop =
  match (v, l.Ast.do_omp) with
  | _, None -> l
  | Serial, Some _ -> { l with Ast.do_omp = None }
  | Par { sched; collapse }, Some d ->
    {
      l with
      Ast.do_omp =
        Some { d with Ast.omp_schedule = sched; Ast.omp_collapse = collapse };
    }

(** The search space for one directive-carrying loop: its as-compiled
    default first, then [Serial], then every schedule × chunk —
    [static], and [static:<k>]/[dynamic:<k>]/[guided:<k>] for each
    chunk size — crossed with collapse on/off {e where the analysis
    already proved collapse legal} (a COLLAPSE the dependence analysis
    did not emit is never invented here; the bit-identity gate is a
    backstop, not a license).  Duplicates of the default are dropped.
    Empty for a directive-less loop. *)
let enumerate (l : Ast.do_loop) : t list =
  match default_of l with
  | None -> []
  | Some default ->
    let d = Option.get l.Ast.do_omp in
    let collapses =
      if d.Ast.omp_collapse >= 2 then [ d.Ast.omp_collapse; 1 ] else [ 1 ]
    in
    let scheds =
      Ast.Static
      :: List.concat_map
           (fun k -> [ Ast.Static_chunk k; Ast.Dynamic k; Ast.Guided k ])
           chunk_sizes
    in
    let pars =
      List.concat_map
        (fun collapse ->
          List.map (fun s -> Par { sched = Some s; collapse }) scheds)
        collapses
    in
    default
    :: List.filter (fun v -> not (equal v default)) (Serial :: pars)

(* --- structural digest --------------------------------------------------- *)

(* Strip every directive (this loop's and any nested one's) so the
   digest keys the *serial structure*: re-tuning decisions and plan
   lookups survive directive changes but go stale the moment the loop
   body itself changes. *)
let rec strip_stmt (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Do l -> Ast.Do (strip_loop l)
  | Ast.If_block (branches, else_) ->
    Ast.If_block
      ( List.map (fun (c, b) -> (c, List.map strip_stmt b)) branches,
        List.map strip_stmt else_ )
  | Ast.If_arith (c, s) -> Ast.If_arith (c, strip_stmt s)
  | Ast.Do_while (c, b) -> Ast.Do_while (c, List.map strip_stmt b)
  | Ast.Omp_atomic s -> Ast.Omp_atomic (strip_stmt s)
  | Ast.Omp_critical b -> Ast.Omp_critical (List.map strip_stmt b)
  | s -> s

and strip_loop (l : Ast.do_loop) : Ast.do_loop =
  { l with Ast.do_omp = None; Ast.do_body = List.map strip_stmt l.Ast.do_body }

(** MD5 digest of the loop's serial structure: the Marshal bytes of
    the stripped AST.  Identical loops share a digest wherever they
    appear; any body change produces a fresh one. *)
let loop_digest (l : Ast.do_loop) : string =
  Digest.to_hex
    (Digest.string (Marshal.to_string (strip_loop l) [ Marshal.No_sharing ]))
