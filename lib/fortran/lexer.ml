(** Tokenizer for one logical Fortran line.

    Keywords are not distinguished from identifiers here — Fortran has
    no reserved words; the parser decides from context.  Dotted
    operators ([.and.], [.true.], ...) become dedicated tokens. *)

type token =
  | Ident of string  (** lower-cased *)
  | Int of int
  | Real of float * bool  (** is_double *)
  | Str of string
  | Lparen
  | Rparen
  | Comma
  | Colon
  | Dcolon  (** :: *)
  | Percent
  | Assign_tok  (** = *)
  | Arrow  (** => *)
  | Plus
  | Minus
  | Star
  | Dstar  (** ** *)
  | Slash
  | Dslash  (** // *)
  | Eq_tok  (** == or .eq. *)
  | Ne_tok
  | Lt_tok
  | Le_tok
  | Gt_tok
  | Ge_tok
  | And_tok
  | Or_tok
  | Not_tok
  | Eqv_tok
  | Neqv_tok
  | True_tok
  | False_tok
  | Eof

let pp_token ppf t =
  let s =
    match t with
    | Ident s -> Printf.sprintf "ident %S" s
    | Int n -> Printf.sprintf "int %d" n
    | Real (x, d) -> Printf.sprintf "real %g%s" x (if d then "d" else "")
    | Str s -> Printf.sprintf "string %S" s
    | Lparen -> "(" | Rparen -> ")" | Comma -> "," | Colon -> ":"
    | Dcolon -> "::" | Percent -> "%" | Assign_tok -> "=" | Arrow -> "=>"
    | Plus -> "+" | Minus -> "-" | Star -> "*" | Dstar -> "**"
    | Slash -> "/" | Dslash -> "//"
    | Eq_tok -> "==" | Ne_tok -> "/=" | Lt_tok -> "<" | Le_tok -> "<="
    | Gt_tok -> ">" | Ge_tok -> ">="
    | And_tok -> ".and." | Or_tok -> ".or." | Not_tok -> ".not."
    | Eqv_tok -> ".eqv." | Neqv_tok -> ".neqv."
    | True_tok -> ".true." | False_tok -> ".false."
    | Eof -> "<eof>"
  in
  Format.pp_print_string ppf s

(** Token equality, without polymorphic compare. *)
let equal a b =
  match (a, b) with
  | Ident x, Ident y | Str x, Str y -> String.equal x y
  | Int x, Int y -> x = y
  | Real (x, d), Real (y, e) -> Float.equal x y && d = e
  | (Ident _ | Int _ | Real _ | Str _), _ | _, (Ident _ | Int _ | Real _ | Str _) -> false
  | _ -> a == b (* two constant constructors *)

exception Lex_error of string

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* Scan a number starting at [i]; returns token and next index.
   Handles: 123, 1.5, "1.", ".5", 1e5, 1.5e-3, 1.0d0 / 2d0 (double),
   and kind suffixes 1.0_8 / 1.0_dp (double).  A dot followed by a
   letter other than an exponent marker ends the number, so "1.and."
   lexes as [1] [.and.].  The text is sliced from the line once, with
   a [d] exponent marker rewritten to [e]. *)
let scan_number s i =
  let n = String.length s in
  let at j = if j < n then s.[j] else ' ' in
  let rec digits j = if j < n && is_digit s.[j] then digits (j + 1) else j in
  let j = digits i in
  let saw_dot, j =
    if at j <> '.' then (false, j)
    else
      match at (j + 1) with
      | '0' .. '9' -> (true, digits (j + 1))
      (* "1.e5" / "1.d0": the dot belongs to the number; without
         exponent digits it is ".d..."-style nonsense rejected later *)
      | 'e' | 'E' | 'd' | 'D' -> (true, j + 1)
      | c when is_alpha c -> (false, j) (* dotted operator *)
      | _ -> (true, j + 1)
  in
  (* exponent: a marker followed by digits, optionally signed *)
  let exp_at, j =
    match at j with
    | 'e' | 'E' | 'd' | 'D'
      when is_digit (at (j + 1))
           || ((at (j + 1) = '+' || at (j + 1) = '-') && is_digit (at (j + 2))) ->
      let k = if is_digit (at (j + 1)) then j + 1 else j + 2 in
      (j, digits k)
    | _ -> (-1, j)
  in
  let text_end = j in
  let is_double = exp_at >= 0 && (s.[exp_at] = 'd' || s.[exp_at] = 'D') in
  (* kind suffix: _8, _dp *)
  let is_double, j =
    if at j = '_' then begin
      let rec alnums k = if k < n && is_alnum s.[k] then alnums (k + 1) else k in
      let k = alnums (j + 1) in
      let kind_8 = k = j + 2 && s.[j + 1] = '8' in
      let kind_dp =
        k = j + 3
        && Char.lowercase_ascii s.[j + 1] = 'd'
        && Char.lowercase_ascii s.[j + 2] = 'p'
      in
      (is_double || kind_8 || kind_dp, k)
    end
    else (is_double, j)
  in
  let text =
    if exp_at < 0 || s.[exp_at] = 'e' then String.sub s i (text_end - i)
    else begin
      let b = Bytes.create (text_end - i) in
      Bytes.blit_string s i b 0 (text_end - i);
      Bytes.set b (exp_at - i) 'e';
      Bytes.unsafe_to_string b
    end
  in
  let tok =
    if saw_dot || exp_at >= 0 || is_double then Real (float_of_string text, is_double)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> Real (float_of_string text, false)
  in
  (tok, j)

let dotted_ops =
  [
    ("and", And_tok); ("or", Or_tok); ("not", Not_tok);
    ("eq", Eq_tok); ("ne", Ne_tok); ("lt", Lt_tok); ("le", Le_tok);
    ("gt", Gt_tok); ("ge", Ge_tok); ("eqv", Eqv_tok); ("neqv", Neqv_tok);
    ("true", True_tok); ("false", False_tok);
  ]

(* The dotted operator [.w.] whose letters, in any case, are
   [s.[i..i+len-1]]. *)
let dotted_op s i len =
  let rec same w k = k = len || (Char.lowercase_ascii s.[i + k] = w.[k] && same w (k + 1)) in
  List.find_map (fun (w, t) -> if String.length w = len && same w 0 then Some t else None) dotted_ops

(* Lower-cased copy of [s.[i..j-1]]. *)
let lowercase_sub s i j =
  let b = Bytes.create (j - i) in
  for k = i to j - 1 do
    Bytes.unsafe_set b (k - i) (Char.lowercase_ascii s.[k])
  done;
  Bytes.unsafe_to_string b

(* A string literal opening with [quote] at [i]: its contents (a
   doubled quote stands for one) and the index after it. *)
let scan_string line i quote =
  let n = String.length line in
  let rec close j doubled =
    if j >= n then raise (Lex_error "unterminated string")
    else if line.[j] <> quote then close (j + 1) doubled
    else if j + 1 < n && line.[j + 1] = quote then close (j + 2) true
    else (j, doubled)
  in
  let j, doubled = close (i + 1) false in
  let body = String.sub line (i + 1) (j - i - 1) in
  if not doubled then (body, j + 1)
  else begin
    let b = Buffer.create (String.length body) in
    let k = ref 0 in
    while !k < String.length body do
      Buffer.add_char b body.[!k];
      k := !k + if body.[!k] = quote then 2 else 1
    done;
    (Buffer.contents b, j + 1)
  end

(** Tokenize one logical line into an array ending with [Eof]. *)
let tokenize line =
  let n = String.length line in
  let toks = ref (Array.make 16 Eof) and count = ref 0 in
  let push t =
    if !count = Array.length !toks then begin
      let a = Array.make (2 * !count) Eof in
      Array.blit !toks 0 a 0 !count;
      toks := a
    end;
    Array.unsafe_set !toks !count t;
    incr count
  in
  let rec go i =
    if i < n then
      let c = line.[i] in
      let next = if i + 1 < n then line.[i + 1] else ' ' in
      match c with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '0' .. '9' -> number i
      | '.' when is_digit next -> number i
      | '.' ->
        (* dotted operator *)
        let rec letters j = if j < n && is_alpha line.[j] then letters (j + 1) else j in
        let j = letters (i + 1) in
        if j < n && line.[j] = '.' then begin
          match dotted_op line (i + 1) (j - i - 1) with
          | Some t ->
            push t;
            go (j + 1)
          | None ->
            raise
              (Lex_error (Printf.sprintf "unknown operator .%s." (lowercase_sub line (i + 1) j)))
        end
        else raise (Lex_error "stray '.'")
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let rec word j = if j < n && is_alnum line.[j] then word (j + 1) else j in
        let j = word i in
        push (Ident (lowercase_sub line i j));
        go j
      | '\'' | '"' ->
        let s, j = scan_string line i c in
        push (Str s);
        go j
      | ':' when next = ':' -> two Dcolon i
      | '*' when next = '*' -> two Dstar i
      | '/' when next = '/' -> two Dslash i
      | '=' when next = '=' -> two Eq_tok i
      | '/' when next = '=' -> two Ne_tok i
      | '<' when next = '=' -> two Le_tok i
      | '>' when next = '=' -> two Ge_tok i
      | '=' when next = '>' -> two Arrow i
      | '(' -> one Lparen i
      | ')' -> one Rparen i
      | ',' -> one Comma i
      | ':' -> one Colon i
      | '%' -> one Percent i
      | '=' -> one Assign_tok i
      | '+' -> one Plus i
      | '-' -> one Minus i
      | '*' -> one Star i
      | '/' -> one Slash i
      | '<' -> one Lt_tok i
      | '>' -> one Gt_tok i
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c))
  and number i =
    let tok, j = scan_number line i in
    push tok;
    go j
  and one t i =
    push t;
    go (i + 1)
  and two t i =
    push t;
    go (i + 2)
  in
  go 0;
  push Eof;
  Array.sub !toks 0 !count
