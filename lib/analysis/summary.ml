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
  pure : (string, unit) Hashtbl.t;  (** library functions assumed side-effect free *)
  functions : (string, Ir_module.t * Func.t) Hashtbl.t;
      (** every program function with its module; the first of a name wins *)
  mutable cyclic : bool;  (** a call cycle was seeded with [empty] *)
}

let make_env ~pure program =
  let set = Hashtbl.create 64 in
  List.iter (fun name -> Hashtbl.replace set name ()) pure;
  let functions = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun (f : Func.t) ->
          if not (Hashtbl.mem functions f.Func.name) then
            Hashtbl.add functions f.Func.name (m, f))
        m.Ir_module.functions)
    program.Ir_module.modules;
  { program; pure = set; functions; cyclic = false }

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
        match Hashtbl.find_opt env.functions fname with
        | None -> { empty with calls_unknown = [ fname ] }
        | Some (m, f) -> summarize_function env cache (fname :: visited) m f
      in
      Hashtbl.replace cache fname result;
      result
    end

(* One summary is five sets, filled in place and listed, sorted, once
   at the end. *)
and summarize_function env cache visited m f : t =
  let p = env.program in
  let set () = Hashtbl.create 16 in
  let writes_params = set () and reads_params = set () in
  let writes_external = set () and reads_external = set () in
  let calls_unknown = set () in
  let add tbl x = Hashtbl.replace tbl x () in
  let visibility = Hashtbl.create 32 in
  let classify_ref written (r : Expr.gref) =
    let name = r.Expr.grid in
    let vis =
      match Hashtbl.find_opt visibility name with
      | Some v -> v
      | None ->
        let v = grid_visibility p m f name in
        Hashtbl.add visibility name v;
        v
    in
    match vis with
    | `Local | `Index -> ()
    | `Param n -> add (if written then writes_params else reads_params) n
    | `External -> add (if written then writes_external else reads_external) name
  in
  let body = Func.all_stmts f in
  List.iter (classify_ref true) (Stmt.writes body);
  List.iter (classify_ref false) (Stmt.reads body);
  (* propagate callee effects through actual arguments *)
  let handle_call callee args =
    if not (Hashtbl.mem env.pure callee) then begin
      let s = summarize env cache visited callee in
      List.iter (add writes_external) s.writes_external;
      List.iter (add reads_external) s.reads_external;
      List.iter (add calls_unknown) s.calls_unknown;
      if Hashtbl.mem env.functions callee then
        List.iteri
          (fun pos arg ->
            let is_written = List.mem pos s.writes_params in
            let is_read = List.mem pos s.reads_params in
            if is_written || is_read then
              List.iter
                (fun r ->
                  if is_written then classify_ref true r;
                  if is_read then classify_ref false r)
                (Expr.refs arg))
          args
      else add calls_unknown callee
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
  let sorted cmp tbl = List.sort cmp (Hashtbl.fold (fun x () acc -> x :: acc) tbl []) in
  {
    writes_params = sorted Int.compare writes_params;
    reads_params = sorted Int.compare reads_params;
    writes_external = sorted String.compare writes_external;
    reads_external = sorted String.compare reads_external;
    calls_unknown = sorted String.compare calls_unknown;
  }

(** Summaries for every function of [program]: the least fixpoint of
    the call graph, whatever order the functions are declared in.  A
    depth-first pass gives the exact answer when no call cycle is met;
    otherwise every function is re-summarized against the table until
    nothing grows (unions over finite sets, so this terminates). *)
let of_program ?(pure = []) program : (string, t) Hashtbl.t =
  let env = make_env ~pure program in
  let cache = Hashtbl.create 16 in
  let names =
    List.map (fun (f : Func.t) -> f.Func.name) (Ir_module.all_functions program)
  in
  List.iter (fun name -> ignore (summarize env cache [] name)) names;
  let grows name =
    match Hashtbl.find_opt env.functions name with
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
