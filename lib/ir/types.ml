(** Element types of grid cells.

    GLAF represents every program variable as a {e grid}; each grid cell
    holds a value of one of these element types.  [T_real] is a 32-bit
    real in generated Fortran ([REAL]) and [T_real8] a 64-bit one
    ([REAL*8] / [DOUBLE PRECISION]). *)

type elem_type =
  | T_int
  | T_real
  | T_real8
  | T_logical
  | T_string
[@@deriving show { with_path = false }, eq, ord]

(** Fortran spelling of an element type. *)
let fortran_name = function
  | T_int -> "INTEGER"
  | T_real -> "REAL"
  | T_real8 -> "REAL*8"
  | T_logical -> "LOGICAL"
  | T_string -> "CHARACTER(LEN=256)"

(** C spelling of an element type. *)
let c_name = function
  | T_int -> "int"
  | T_real -> "float"
  | T_real8 -> "double"
  | T_logical -> "int"
  | T_string -> "char*"

(** Result type of a binary numeric operation: widest operand wins. *)
let join a b =
  match (a, b) with
  | T_real8, _ | _, T_real8 -> T_real8
  | T_real, _ | _, T_real -> T_real
  | T_int, T_int -> T_int
  | T_logical, T_logical -> T_logical
  | a, _ -> a
