(** Side-effect summaries of GLAF functions.

    GLAF models interior nested loops as separate functions (§3.3), so
    loops routinely contain calls; the dependence analysis needs to
    know what a callee touches.  A summary records which parameter
    positions are written/read and which non-local grids (module-scope,
    COMMON, external-module, global) are written/read, propagated
    transitively through the call graph. *)

open Glaf_ir

type t = {
  writes_params : int list;
  reads_params : int list;
  writes_external : string list;
  reads_external : string list;
  calls_unknown : string list;
      (** callees that are neither program functions nor known-pure *)
}

let empty =
  {
    writes_params = [];
    reads_params = [];
    writes_external = [];
    reads_external = [];
    calls_unknown = [];
  }

let union a b =
  let u l1 l2 = List.sort_uniq compare (l1 @ l2) in
  {
    writes_params = u a.writes_params b.writes_params;
    reads_params = u a.reads_params b.reads_params;
    writes_external = u a.writes_external b.writes_external;
    reads_external = u a.reads_external b.reads_external;
    calls_unknown = u a.calls_unknown b.calls_unknown;
  }

(* Storage of grid [name] as seen from function [f]: local (incl.
   arguments) or external. *)
let grid_visibility p m f name =
  match Func.find_grid f name with
  | Some g -> (
    match g.Grid.storage with
    | Grid.Local -> `Local
    | Grid.Arg n -> `Param n
    | Grid.Module_scope | Grid.External_module _ | Grid.Type_element _
    | Grid.Common _ ->
      `External)
  | None -> (
    match Ir_module.resolve_grid p m f name with
    | Some _ -> `External
    | None -> `Index (* loop index or unknown: local by construction *))

type env = {
  program : Ir_module.program;
  pure : string list;  (** library functions assumed side-effect free *)
  mutable cyclic : bool;  (** a call cycle was seeded with [empty] *)
}

let rec summarize env cache visited fname : t =
  match Hashtbl.find_opt cache fname with
  | Some s -> s
  | None ->
    if List.mem fname visited then begin
      (* recursive cycle: seed with [empty]; the summaries on the cycle
         are then partial, and [of_program] iterates them *)
      env.cyclic <- true;
      empty
    end
    else begin
      let result =
        match find_with_module env.program fname with
        | None -> { empty with calls_unknown = [ fname ] }
        | Some (m, f) -> summarize_function env cache (fname :: visited) m f
      in
      Hashtbl.replace cache fname result;
      result
    end

and find_with_module p fname =
  List.find_map
    (fun m ->
      match Ir_module.find_function m fname with
      | Some f -> Some (m, f)
      | None -> None)
    p.Ir_module.modules

and summarize_function env cache visited m f : t =
  let p = env.program in
  let acc = ref empty in
  let classify_ref kind (r : Expr.gref) =
    match grid_visibility p m f r.Expr.grid with
    | `Local | `Index -> ()
    | `Param n ->
      acc :=
        if kind = `W then
          union !acc { empty with writes_params = [ n ] }
        else union !acc { empty with reads_params = [ n ] }
    | `External ->
      acc :=
        if kind = `W then
          union !acc { empty with writes_external = [ r.Expr.grid ] }
        else union !acc { empty with reads_external = [ r.Expr.grid ] }
  in
  let body = Func.all_stmts f in
  List.iter (classify_ref `W) (Stmt.writes body);
  List.iter (classify_ref `R) (Stmt.reads body);
  (* propagate callee effects through actual arguments *)
  let handle_call callee args =
    if List.mem callee env.pure then ()
    else begin
      let s = summarize env cache visited callee in
      acc :=
        union !acc
          {
            empty with
            writes_external = s.writes_external;
            reads_external = s.reads_external;
            calls_unknown = s.calls_unknown;
          };
      (match find_with_module p callee with
      | None ->
        acc := union !acc { empty with calls_unknown = [ callee ] }
      | Some _ ->
        List.iteri
          (fun pos arg ->
            let refs = Expr.refs arg in
            let is_written = List.mem pos s.writes_params in
            let is_read = List.mem pos s.reads_params in
            List.iter
              (fun r ->
                if is_written then classify_ref `W r;
                if is_read then classify_ref `R r)
              refs)
          args)
    end
  in
  Stmt.fold_stmts
    (fun () st ->
      match st with
      | Stmt.Call (callee, args) -> handle_call callee args
      | _ ->
        List.iter
          (fun e ->
            Expr.fold
              (fun () e ->
                match e with
                | Expr.Call (callee, args) -> handle_call callee args
                | _ -> ())
              () e)
          (Stmt.shallow_exprs st))
    () body;
  !acc

(** Summaries for every function of [program]: the least fixpoint of
    the call graph, whatever order the functions are declared in.  A
    depth-first pass gives the exact answer when no call cycle is met;
    otherwise every function is re-summarized against the table until
    nothing grows (unions over finite sets, so this terminates). *)
let of_program ?(pure = []) program : (string, t) Hashtbl.t =
  let env = { program; pure; cyclic = false } in
  let cache = Hashtbl.create 16 in
  let names =
    List.map (fun (f : Func.t) -> f.Func.name) (Ir_module.all_functions program)
  in
  List.iter (fun name -> ignore (summarize env cache [] name)) names;
  let grows name =
    match find_with_module program name with
    | None -> false
    | Some (m, f) ->
      let s = summarize_function env cache [ name ] m f in
      let grew = s <> Hashtbl.find cache name in
      Hashtbl.replace cache name s;
      grew
  in
  if env.cyclic then
    while List.fold_left (fun grew name -> grows name || grew) false names do
      ()
    done;
  cache
