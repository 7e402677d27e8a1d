(** AST for the Fortran subset GLAF generates and legacy codes use.

    The subset is free-form Fortran 90 plus the FORTRAN 77 legacy
    constructs the paper's integration features target: COMMON blocks,
    SAVE, derived TYPEs with [%] element access, ALLOCATABLE arrays and
    OpenMP directive comments ([!$OMP ...]).  Designators are kept as
    Fortran part-ref chains ([a(i)%b(j)]); whether a [(args)] suffix is
    an array subscript or a function call is resolved during
    interpretation, exactly as Fortran's grammar requires. *)

type base_type =
  | Integer
  | Real
  | Real8  (** REAL*8 / DOUBLE PRECISION *)
  | Logical
  | Character of int option  (** LEN, if given *)
  | Derived of string  (** TYPE(name) *)
[@@deriving show { with_path = false }, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Concat
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Eqv
  | Neqv
[@@deriving show { with_path = false }, eq]

type unop =
  | Neg
  | Pos
  | Not
[@@deriving show { with_path = false }, eq]

(** A part-ref chain: [a(i,j)%b%c(k)] is
    [[("a", [i; j]); ("b", []); ("c", [k])]]. *)
type designator = (string * expr list) list

and expr =
  | Int_lit of int
  | Real_lit of float * bool  (** value, is-double ("1.0d0") *)
  | Logical_lit of bool
  | Str_lit of string
  | Desig of designator
      (** variable, array element, or function call: resolved later *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Implied_do of expr * string * expr * expr
      (** (expr, i = lo, hi) in array constructors — minimal support *)
  | Section of expr option * expr option
      (** array-section subscript [lo:hi]; only valid inside designator
          argument lists, e.g. [a(1:n)] or [a(:)] *)
[@@deriving show { with_path = false }, eq]

let var name : expr = Desig [ (name, []) ]
let desig_name (d : designator) = fst (List.hd d)

type omp_schedule =
  | Static  (** default static chunking, no chunk argument *)
  | Static_chunk of int  (** [schedule(static, k)] *)
  | Dynamic of int  (** [schedule(dynamic[, k])], default chunk 1 *)
  | Guided of int  (** [schedule(guided[, k])], floor chunk, default 1 *)
[@@deriving show { with_path = false }, eq]

type omp_reduction_op =
  | Osum
  | Oprod
  | Omax
  | Omin
[@@deriving show { with_path = false }, eq]

(** Clauses of a [!$OMP PARALLEL DO] directive. *)
type omp_do = {
  omp_private : string list;
  omp_firstprivate : string list;
  omp_shared : string list;
  omp_reduction : (omp_reduction_op * string list) list;
  omp_collapse : int;  (** 1 = no clause *)
  omp_num_threads : expr option;
  omp_schedule : omp_schedule option;
  omp_copyprivate : string list;
}
[@@deriving show { with_path = false }, eq]

let omp_do_default =
  {
    omp_private = [];
    omp_firstprivate = [];
    omp_shared = [];
    omp_reduction = [];
    omp_collapse = 1;
    omp_num_threads = None;
    omp_schedule = None;
    omp_copyprivate = [];
  }

type stmt =
  | Assign of designator * expr
  | If_block of (expr * stmt list) list * stmt list
      (** IF/ELSE IF/ELSE/END IF *)
  | If_arith of expr * stmt  (** logical IF: [IF (c) stmt] *)
  | Do of do_loop
  | Do_while of expr * stmt list
  | Call of string * expr list
  | Return
  | Exit
  | Cycle
  | Stop of string option
  | Allocate of (designator * expr list) list
  | Deallocate of designator list
  | Print of expr list
  | Omp_atomic of stmt  (** following update statement *)
  | Omp_critical of stmt list
  | Omp_barrier
  | Comment of string
  | Continue  (** no-op; DO loop terminator in some legacy styles *)

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option;
  do_body : stmt list;
  do_omp : omp_do option;  (** attached PARALLEL DO directive *)
}
[@@deriving show { with_path = false }, eq]

(** Declaration attributes. *)
type attr =
  | Dimension of (expr option * expr) list
      (** (lower, upper) per dim; deferred shape "(: , :)" encoded as
          [(None, Int_lit 0)] entries with [Deferred] flag below *)
  | Allocatable
  | Save
  | Parameter
  | Intent_in
  | Intent_out
  | Intent_inout
  | Pointer
  | Target
[@@deriving show { with_path = false }, eq]

type entity = {
  ent_name : string;
  ent_dims : (expr option * expr) list option;
      (** per-entity dimension spec overriding DIMENSION attr *)
  ent_deferred : int option;  (** rank if declared with deferred shape *)
  ent_init : expr option;
}
[@@deriving show { with_path = false }, eq]

type decl =
  | Var_decl of {
      base : base_type;
      attrs : attr list;
      entities : entity list;
    }
  | Type_def of {
      type_name : string;
      fields : decl list;  (** Var_decls only *)
    }
  | Common of string * string list  (** COMMON /name/ v1, v2, ... *)
  | Use of string * string list  (** USE mod [, ONLY: names] *)
  | Implicit_none
  | External of string list
  | Decl_comment of string
[@@deriving show { with_path = false }, eq]

type subprogram = {
  sub_name : string;
  sub_kind : [ `Subroutine | `Function of base_type option ];
      (** function result type may come from a declaration instead *)
  sub_args : string list;
  sub_decls : decl list;
  sub_body : stmt list;
}
[@@deriving show { with_path = false }, eq]

type module_unit = {
  mod_name : string;
  mod_decls : decl list;
  mod_contains : subprogram list;
}
[@@deriving show { with_path = false }, eq]

type main_unit = {
  main_name : string;
  main_decls : decl list;
  main_body : stmt list;
}
[@@deriving show { with_path = false }, eq]

type program_unit =
  | Module of module_unit
  | Standalone of subprogram
  | Main of main_unit
[@@deriving show { with_path = false }, eq]

type compilation_unit = program_unit list

(** {1 Convenience accessors} *)

let subprograms_of = function
  | Module m -> m.mod_contains
  | Standalone s -> [ s ]
  | Main _ -> []

let all_subprograms (cu : compilation_unit) =
  List.concat_map subprograms_of cu

let find_subprogram cu name =
  List.find_opt
    (fun s -> String.lowercase_ascii s.sub_name = String.lowercase_ascii name)
    (all_subprograms cu)

let find_module cu name =
  List.find_map
    (function
      | Module m
        when String.lowercase_ascii m.mod_name = String.lowercase_ascii name
        ->
        Some m
      | _ -> None)
    cu

(** {1 Traversal} *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int_lit _ | Real_lit _ | Logical_lit _ | Str_lit _ -> acc
  | Desig parts ->
    List.fold_left
      (fun acc (_, args) -> List.fold_left (fold_expr f) acc args)
      acc parts
  | Unop (_, a) -> fold_expr f acc a
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Implied_do (e, _, lo, hi) ->
    fold_expr f (fold_expr f (fold_expr f acc e) lo) hi
  | Section (lo, hi) ->
    let acc = Option.fold ~none:acc ~some:(fold_expr f acc) lo in
    Option.fold ~none:acc ~some:(fold_expr f acc) hi

let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | Assign _ | Call _ | Return | Exit | Cycle | Stop _ | Allocate _
      | Deallocate _ | Print _ | Comment _ | Continue | Omp_barrier ->
        acc
      | If_block (branches, else_) ->
        let acc =
          List.fold_left (fun acc (_, b) -> fold_stmts f acc b) acc branches
        in
        fold_stmts f acc else_
      | If_arith (_, s) -> fold_stmts f acc [ s ]
      | Do l -> fold_stmts f acc l.do_body
      | Do_while (_, body) -> fold_stmts f acc body
      | Omp_atomic s -> fold_stmts f acc [ s ]
      | Omp_critical body -> fold_stmts f acc body)
    acc stmts

(** Every DO loop in [stmts] (pre-order). *)
let loops stmts =
  List.rev
    (fold_stmts
       (fun acc s ->
         match s with
         | Do l -> l :: acc
         | _ -> acc)
       [] stmts)

(** Rewrite every DO loop bottom-up. *)
let rec map_loops f stmts =
  let map_stmt s =
    match s with
    | Assign _ | Call _ | Return | Exit | Cycle | Stop _ | Allocate _
    | Deallocate _ | Print _ | Comment _ | Continue | Omp_barrier ->
      s
    | If_block (branches, else_) ->
      If_block
        ( List.map (fun (c, b) -> (c, map_loops f b)) branches,
          map_loops f else_ )
    | If_arith (c, s) -> (
      match map_loops f [ s ] with
      | [ s' ] -> If_arith (c, s')
      | _ -> assert false)
    | Do l -> Do (f { l with do_body = map_loops f l.do_body })
    | Do_while (c, body) -> Do_while (c, map_loops f body)
    | Omp_atomic s -> (
      match map_loops f [ s ] with
      | [ s' ] -> Omp_atomic s'
      | _ -> assert false)
    | Omp_critical body -> Omp_critical (map_loops f body)
  in
  List.map map_stmt stmts
