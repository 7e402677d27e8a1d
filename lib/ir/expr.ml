(** Expressions of the grid IR.

    A [gref] is a reference to a grid cell: the grid name, an optional
    field (for record grids, mapping to Fortran [TYPE] elements or C
    struct members) and one index expression per dimension (none for a
    scalar grid). *)

type unop =
  | Neg
  | Not
[@@deriving show { with_path = false }, eq, ord]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
[@@deriving show { with_path = false }, eq, ord]

type t =
  | Int_lit of int
  | Real_lit of float
  | Bool_lit of bool
  | Str_lit of string
  | Ref of gref
  | Unop of unop * t
  | Binop of binop * t * t
  | Call of string * t list  (** intrinsic or user-function call *)

and gref = {
  grid : string;
  field : string option;
  indices : t list;
}
[@@deriving show { with_path = false }, eq, ord]

let int n = Int_lit n
let real x = Real_lit x
let bool b = Bool_lit b
let str s = Str_lit s

(** Reference to a scalar grid (no indices). *)
let var name = Ref { grid = name; field = None; indices = [] }

(** Reference to an array grid element. *)
let idx name indices = Ref { grid = name; field = None; indices }

(** Reference to a field of a record grid element. *)
let fld name field indices = Ref { grid = name; field = Some field; indices }

let neg e = Unop (Neg, e)
let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( % ) a b = Binop (Mod, a, b)
let ( ** ) a b = Binop (Pow, a, b)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let call name args = Call (name, args)

(** [fold f acc e] folds [f] over every sub-expression of [e]
    (including [e] itself), pre-order. *)
let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Int_lit _ | Real_lit _ | Bool_lit _ | Str_lit _ -> acc
  | Ref r -> List.fold_left (fold f) acc r.indices
  | Unop (_, a) -> fold f acc a
  | Binop (_, a, b) -> fold f (fold f acc a) b
  | Call (_, args) -> List.fold_left (fold f) acc args

(** All grid references occurring in [e] (reads), outermost first.
    Index expressions of a reference are themselves scanned, so
    [a(b(i))] yields references to both [a] and [b]. *)
let refs e =
  let collect acc = function
    | Ref r -> r :: acc
    | _ -> acc
  in
  List.rev (fold collect [] e)

(** Names of all grids read by [e]. *)
let grids_read e =
  let names = List.map (fun r -> r.grid) (refs e) in
  List.sort_uniq String.compare names

(** [map_refs f e] rewrites every grid reference with [f] bottom-up. *)
let rec map_refs f e =
  match e with
  | Int_lit _ | Real_lit _ | Bool_lit _ | Str_lit _ -> e
  | Ref r -> Ref (f { r with indices = List.map (map_refs f) r.indices })
  | Unop (op, a) -> Unop (op, map_refs f a)
  | Binop (op, a, b) -> Binop (op, map_refs f a, map_refs f b)
  | Call (name, args) -> Call (name, List.map (map_refs f) args)

(** [subst_var name replacement e] replaces scalar references to grid
    [name] by [replacement]. *)
let subst_var name replacement e =
  let rec go e =
    match e with
    | Ref { grid; field = None; indices = [] } when String.equal grid name ->
      replacement
    | Ref r -> Ref { r with indices = List.map go r.indices }
    | Int_lit _ | Real_lit _ | Bool_lit _ | Str_lit _ -> e
    | Unop (op, a) -> Unop (op, go a)
    | Binop (op, a, b) -> Binop (op, go a, go b)
    | Call (f, args) -> Call (f, List.map go args)
  in
  go e

(** Does [e] mention grid [name] at all? *)
let mentions name e =
  let is_ref acc e =
    match e with
    | Ref r -> Stdlib.( || ) acc (String.equal r.grid name)
    | _ -> acc
  in
  fold is_ref false e

(** Structural size of the expression tree (for cost models/tests). *)
let size e = fold (fun n _ -> Stdlib.( + ) n 1) 0 e

(** Loop-index linearity of an index expression w.r.t. variable [v]:
    recognized affine shapes used by the dependence analysis. *)
type affinity =
  | Constant            (** does not mention [v] *)
  | Identity            (** exactly [v] *)
  | Affine of int * int (** [a*v + b] with compile-time [a], [b] *)
  | Nonlinear           (** anything else mentioning [v] *)

let affinity_of ~var:v e =
  let rec go e =
    match e with
    | Int_lit b -> Some (0, b)
    | Ref { grid; field = None; indices = [] } when String.equal grid v ->
      Some (1, 0)
    | Ref _ -> None
    | Unop (Neg, a) -> (
      match go a with
      | Some (c, b) -> Some (Stdlib.( - ) 0 c, Stdlib.( - ) 0 b)
      | None -> None)
    | Binop (Add, a, b) -> (
      match (go a, go b) with
      | Some (c1, d1), Some (c2, d2) ->
        Some (Stdlib.( + ) c1 c2, Stdlib.( + ) d1 d2)
      | _ -> None)
    | Binop (Sub, a, b) -> (
      match (go a, go b) with
      | Some (c1, d1), Some (c2, d2) ->
        Some (Stdlib.( - ) c1 c2, Stdlib.( - ) d1 d2)
      | _ -> None)
    | Binop (Mul, Int_lit k, a) | Binop (Mul, a, Int_lit k) -> (
      match go a with
      | Some (c, b) -> Some (Stdlib.( * ) k c, Stdlib.( * ) k b)
      | None -> None)
    | _ -> None
  in
  if Stdlib.not (mentions v e) then Constant
  else
    match go e with
    | Some (1, 0) -> Identity
    | Some (a, b) -> Affine (a, b)
    | None -> Nonlinear
