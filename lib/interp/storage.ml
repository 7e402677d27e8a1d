(** Interpreter storage: slots, scopes and control-flow exceptions.

    Split out of {!Interp} so the bytecode compiler ({!Bytecode}) and
    the dispatch loop ({!Vm}) can resolve names against the same
    mutable storage the tree-walker uses without a module cycle.  The
    representation is shared, not copied: a compiled loop body reads
    and writes the very same {!slot}s and {!Glaf_runtime.Farray.t}s
    the tree-walker would, which is what makes bit-identical fallback
    cheap to argue about (DESIGN.md §13). *)

open Glaf_fortran
open Glaf_runtime

exception Fortran_error of string

let error fmt = Format.kasprintf (fun s -> raise (Fortran_error s)) fmt

(** {1 Storage} *)

type entry =
  | Scalar of Value.t
  | Array of Farray.t
  | Unalloc of Farray.elem * int  (** allocatable, not allocated: elem, rank *)
  | Struct of struct_obj
  | Struct_array of struct_obj array * (int * int) array

and slot = {
  mutable entry : entry;
  base : Ast.base_type;
  is_param : bool;
}

and struct_obj = (string, slot) Hashtbl.t

type scope = {
  vars : (string, slot) Hashtbl.t;
  used : scope list;  (** USEd module scopes, in USE order *)
  parent : scope option;  (** enclosing module scope *)
  implicit_none : bool;
}

let rec lookup scope name : slot option =
  match Hashtbl.find_opt scope.vars name with
  | Some s -> Some s
  | None -> (
    let rec from_used = function
      | [] -> None
      | u :: rest -> (
        match Hashtbl.find_opt u.vars name with
        | Some s -> Some s
        | None -> from_used rest)
    in
    match from_used scope.used with
    | Some s -> Some s
    | None -> (
      match scope.parent with
      | Some p -> lookup p name
      | None -> None))

(** Follow a derived-type component path from [slot]. *)
let rec walk_path (slot : slot) = function
  | [] -> Some slot
  | f :: rest -> (
    match slot.entry with
    | Struct obj -> (
      match Hashtbl.find_opt obj f with
      | Some s -> walk_path s rest
      | None -> None)
    | _ -> None)

(* Fortran implicit typing: I-N integer, else real. *)
let implicit_base name =
  match name.[0] with
  | 'i' .. 'n' -> Ast.Integer
  | _ -> Ast.Real8

(** {1 Allocation}

    ALLOCATE, DEALLOCATE and [allocated()] on one resolved slot.  The
    tree-walker and the VM's dispatch loop go through these, so the
    checks, the error texts and the ALLOCATE counter are one
    implementation. *)

let allocate (slot : slot) name bounds ~(count : int Atomic.t) =
  let elem =
    match slot.entry with
    | Unalloc (elem, rank) ->
      if rank <> Array.length bounds then error "ALLOCATE rank mismatch for %s" name;
      elem
    | Array a -> a.Farray.elem
    | _ -> error "%s is not allocatable" name
  in
  Atomic.incr count;
  slot.entry <- Array (Farray.create elem bounds)

let deallocate (slot : slot) name =
  match slot.entry with
  | Array a -> slot.entry <- Unalloc (a.Farray.elem, Farray.rank a)
  | Unalloc _ -> error "DEALLOCATE of unallocated %s" name
  | _ -> error "%s is not allocatable" name

let allocated (slot : slot) name =
  match slot.entry with
  | Array _ -> true
  | Unalloc _ -> false
  | _ -> error "allocated() of non-allocatable %s" name

(** The error of an element access to the unallocated array [name]. *)
let unallocated_error name ~store =
  if store then error "cannot assign to %s this way" name
  else error "%s used before allocation" name

(** {1 Argument bindings}

    The evaluated form of one actual argument, shared between the
    tree-walker's [bind_actual] and the VM's [Tcall] marshalling so a
    compiled call site hands the interpreter exactly the bindings the
    tree-walker would have built: whole-variable actuals alias the
    slot, everything else is copy-in with an optional copy-out
    writeback. *)
type arg_binding =
  [ `Alias of slot | `Copy of Value.t * (Value.t -> unit) option ]

(** The callee slot a copied-in actual value gets: its base follows
    the value's kind, an array value is copied. *)
let copy_in_slot (v : Value.t) : slot =
  let base =
    match v with
    | Value.Int _ -> Ast.Integer
    | Value.Real _ -> Ast.Real8
    | Value.Bool _ -> Ast.Logical
    | Value.Str _ -> Ast.Character None
    | Value.Arr _ -> Ast.Real8
  in
  let entry = match v with Value.Arr a -> Array (Farray.copy a) | v -> Scalar v in
  { entry; base; is_param = false }

(** {1 Control-flow exceptions} *)

exception Loop_exit
exception Loop_cycle
exception Sub_return
exception Stop_program of string option
