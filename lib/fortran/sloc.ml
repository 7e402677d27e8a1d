(** Source-lines-of-code counting, used to regenerate the paper's
    Table 1 (SLOC per SARB subroutine implemented via GLAF).

    A source line is a logical line that is neither blank nor a pure
    comment; OMP sentinels count (they are semantically meaningful), a
    convention matching common SLOC counters on Fortran. *)

let of_source source = List.length (Line_scanner.scan source)

(** SLOC of one subprogram rendered standalone (header and END lines
    included, declarations included). *)
let of_subprogram (sp : Ast.subprogram) =
  of_source (Pp_ast.to_string [ Ast.Standalone sp ])

(** Per-subprogram SLOC table for a compilation unit, in source order. *)
let table (cu : Ast.compilation_unit) =
  List.map
    (fun sp -> (sp.Ast.sub_name, of_subprogram sp))
    (Ast.all_subprograms cu)
