(** Grids: GLAF's single data abstraction.

    A grid represents anything from a scalar to a multi-dimensional
    array to a record (Fortran [TYPE] / C struct).  The [storage] class
    encodes where the variable lives, which drives the integration
    features of the paper's §3: existing-module variables ([USE]),
    COMMON blocks, module-scope variables and elements of existing
    [TYPE] variables. *)

type extent =
  | Fixed of int
  | Sym of string  (** size given by a scalar grid, e.g. [n_atoms] *)
[@@deriving show { with_path = false }, eq, ord]

type dim = {
  dim_name : string option;  (** GPI caption of the dimension, if any *)
  extent : extent;
  lower : int;  (** Fortran lower bound; 1 by default *)
}
[@@deriving show { with_path = false }, eq, ord]

let dim ?name ?(lower = 1) extent = { dim_name = name; extent; lower }

(** Dense grids hold one element type; record grids hold named,
    possibly differently-typed fields per cell (the paper's
    [dataTypes\[dim\]] generalization, Fig. 1). *)
type kind =
  | Dense of Types.elem_type
  | Record of (string * Types.elem_type) list
[@@deriving show { with_path = false }, eq, ord]

(** Where a grid lives — §3 of the paper.

    - [Local]: declared in the generated subprogram body.
    - [Arg n]: the [n]-th dummy argument.
    - [Module_scope]: declared at the top of the GLAF-generated module
      (§3.3); GLAF must declare and initialize it.
    - [External_module m]: exists in legacy module [m] (§3.1); codegen
      emits [USE m] and no declaration.
    - [Type_element (m, v)]: element of an existing [TYPE] variable [v]
      from legacy module [m] (§3.5); references are prefixed [v%].
    - [Common b]: member of COMMON block [b] (§3.2); codegen groups all
      members and emits [COMMON /b/ ...] after their declarations. *)
type storage =
  | Local
  | Arg of int
  | Module_scope
  | External_module of string
  | Type_element of string * string
  | Common of string
[@@deriving show { with_path = false }, eq, ord]

type init =
  | No_init
  | Zero_init
  | Const_init of float
  | Data_init of float list  (** manual entry of initial data via GPI *)
[@@deriving show { with_path = false }, eq, ord]

type t = {
  name : string;
  kind : kind;
  dims : dim list;  (** [] for scalars *)
  storage : storage;
  allocatable : bool;
      (** dynamically allocated on entry (Fortran ALLOCATABLE) *)
  save : bool;
      (** Fortran SAVE attribute — the paper's no-reallocation tweak *)
  init : init;
  caption : string;
  comment : string;
}
[@@deriving show { with_path = false }, eq, ord]

let make ?(kind = Dense Types.T_real8) ?(dims = []) ?(storage = Local)
    ?(allocatable = false) ?(save = false) ?(init = No_init) ?(caption = "")
    ?(comment = "") name =
  { name; kind; dims; storage; allocatable; save; init; caption; comment }

let scalar ?storage ?init elem name =
  make ~kind:(Dense elem) ?storage ?init name

let array ?storage ?allocatable ?init elem ~dims name =
  make ~kind:(Dense elem) ~dims ?storage ?allocatable ?init name

let record ?storage fields ~dims name = make ~kind:(Record fields) ~dims ?storage name

let is_scalar g = g.dims = []
let num_dims g = List.length g.dims

let elem_type g =
  match g.kind with
  | Dense t -> t
  | Record _ -> Types.T_real8

(** Total number of elements when all extents are fixed. *)
let fixed_size g =
  let mul acc d =
    match (acc, d.extent) with
    | Some n, Fixed k -> Some (n * k)
    | _, Sym _ | None, _ -> None
  in
  List.fold_left mul (Some 1) g.dims

(** Scalar grids whose values determine this grid's symbolic extents. *)
let extent_deps g =
  List.filter_map
    (fun d ->
      match d.extent with
      | Sym s -> Some s
      | Fixed _ -> None)
    g.dims
  |> List.sort_uniq String.compare

(** Is the grid declared somewhere outside the generated unit (so it
    must {e not} be re-declared in the subprogram body)? §3.1/§3.2/§3.5. *)
let externally_declared g =
  match g.storage with
  | External_module _ | Type_element _ -> true
  | Common _ | Local | Arg _ | Module_scope -> false

let is_argument g =
  match g.storage with
  | Arg _ -> true
  | _ -> false

let arg_position g =
  match g.storage with
  | Arg n -> Some n
  | _ -> None
