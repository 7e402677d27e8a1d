(** Fortran intrinsic library (the paper's §3.6: ABS, ALOG, SUM, ...).

    [apply name args] evaluates intrinsic [name] (lower-case) or
    returns [None] when the name is not an intrinsic — the interpreter
    then looks for a user function.  Both the generic F90 names and the
    specific F77 names used in legacy codes (ALOG, DMAX1, IABS, ...)
    are provided. *)

open Value

let float1 f = function
  | [ v ] -> Real (f (to_float v))
  | _ -> error "intrinsic expects one argument"

let float2 f = function
  | [ a; b ] -> Real (f (to_float a) (to_float b))
  | _ -> error "intrinsic expects two arguments"

let fold_numeric name ident f args =
  match args with
  | [ Arr a ] ->
    Real
      (Farray.fold
         (fun acc c ->
           match c with
           | Farray.Cf x -> f acc x
           | Farray.Ci n -> f acc (float_of_int n)
           | Farray.Cb _ | Farray.Cs _ ->
             error "%s over non-numeric array" name)
         ident a)
  | [ v ] -> Real (f ident (to_float v))
  | _ -> error "%s expects one array argument" name

let variadic_minmax name pick args =
  match args with
  | [] -> error "%s needs arguments" name
  | [ Arr _ ] -> error "%s of array: use minval/maxval" name
  | first :: rest ->
    let all_int = List.for_all is_int (first :: rest) in
    let best =
      List.fold_left
        (fun acc v -> if pick (to_float v) (to_float acc) then v else acc)
        first rest
    in
    if all_int then Int (to_int best) else Real (to_float best)

let sign_val a b =
  let a = Float.abs a in
  if b >= 0.0 then a else -.a

let table : (string * (Value.t list -> Value.t)) list =
  [
    (* --- elemental numeric --- *)
    ( "abs",
      function
      | [ Int n ] -> Int (abs n)
      | [ Real x ] -> Real (Float.abs x)
      | _ -> error "abs expects one numeric argument" );
    ("iabs", function [ v ] -> Int (abs (to_int v)) | _ -> error "iabs arity");
    ("dabs", float1 Float.abs);
    ("sqrt", float1 sqrt);
    ("dsqrt", float1 sqrt);
    ("exp", float1 exp);
    ("dexp", float1 exp);
    ("log", float1 log);
    ("alog", float1 log);
    ("dlog", float1 log);
    ("log10", float1 log10);
    ("alog10", float1 log10);
    ("sin", float1 sin);
    ("cos", float1 cos);
    ("tan", float1 tan);
    ("asin", float1 asin);
    ("acos", float1 acos);
    ("atan", float1 atan);
    ("atan2", float2 atan2);
    ("sinh", float1 sinh);
    ("cosh", float1 cosh);
    ("tanh", float1 tanh);
    ("sign", float2 sign_val);
    ("dsign", float2 sign_val);
    ( "mod",
      function
      | [ Int a; Int b ] ->
        if b = 0 then error "mod by zero" else Int (a mod b)
      | [ a; b ] -> Real (Float.rem (to_float a) (to_float b))
      | _ -> error "mod expects two arguments" );
    (* --- conversions --- *)
    ("int", function [ v ] -> Int (to_int v) | _ -> error "int arity");
    ("ifix", function [ v ] -> Int (to_int v) | _ -> error "ifix arity");
    ( "nint",
      function
      | [ v ] -> Int (int_of_float (Float.round (to_float v)))
      | _ -> error "nint arity" );
    ( "floor",
      function
      | [ v ] -> Int (int_of_float (Float.floor (to_float v)))
      | _ -> error "floor arity" );
    ( "ceiling",
      function
      | [ v ] -> Int (int_of_float (Float.ceil (to_float v)))
      | _ -> error "ceiling arity" );
    ("real", function [ v ] -> Real (to_float v) | _ -> error "real arity");
    ("float", function [ v ] -> Real (to_float v) | _ -> error "float arity");
    ("dble", function [ v ] -> Real (to_float v) | _ -> error "dble arity");
    ("sngl", function [ v ] -> Real (to_float v) | _ -> error "sngl arity");
    (* --- min/max --- *)
    ("max", variadic_minmax "max" ( > ));
    ("min", variadic_minmax "min" ( < ));
    ("amax1", variadic_minmax "amax1" ( > ));
    ("amin1", variadic_minmax "amin1" ( < ));
    ("dmax1", variadic_minmax "dmax1" ( > ));
    ("dmin1", variadic_minmax "dmin1" ( < ));
    ("max0", variadic_minmax "max0" ( > ));
    ("min0", variadic_minmax "min0" ( < ));
    (* --- array reductions --- *)
    ("sum", fold_numeric "sum" 0.0 ( +. ));
    ("product", fold_numeric "product" 1.0 ( *. ));
    ( "minval",
      fun args -> fold_numeric "minval" Float.infinity Float.min args );
    ( "maxval",
      fun args -> fold_numeric "maxval" Float.neg_infinity Float.max args );
    ( "size",
      function
      | [ Arr a ] -> Int (Farray.size a)
      | _ -> error "size expects an array" );
    ( "dot_product",
      function
      | [ Arr a; Arr b ] when Farray.size a = Farray.size b ->
        let n = Farray.size a in
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          let x =
            match Farray.get_linear a i with
            | Farray.Cf x -> x
            | Farray.Ci k -> float_of_int k
            | _ -> error "dot_product over non-numeric array"
          and y =
            match Farray.get_linear b i with
            | Farray.Cf y -> y
            | Farray.Ci k -> float_of_int k
            | _ -> error "dot_product over non-numeric array"
          in
          s := !s +. (x *. y)
        done;
        Real !s
      | _ -> error "dot_product expects two equal-size arrays" );
    (* --- misc --- *)
    ( "merge",
      function
      | [ t; f; Bool c ] -> if c then t else f
      | _ -> error "merge expects (tsource, fsource, mask)" );
    ( "huge",
      function
      | [ Int _ ] -> Int max_int
      | [ Real _ ] -> Real Float.max_float
      | _ -> error "huge arity" );
    ( "tiny",
      function
      | [ Real _ ] -> Real Float.min_float
      | _ -> error "tiny arity" );
    ( "epsilon",
      function
      | [ Real _ ] -> Real epsilon_float
      | _ -> error "epsilon arity" );
  ]

let tbl : (string, Value.t list -> Value.t) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) table;
  h

let apply name args =
  match Hashtbl.find_opt tbl (String.lowercase_ascii name) with
  | Some f -> Some (f args)
  | None -> None

(** Names exposed, for the codegen library-function whitelist. *)
let names () = List.map fst table
