(** Recursive-descent parser for the free-form Fortran subset.

    The parser works on the logical-line stream produced by
    {!Line_scanner}: each statement occupies one logical line, and
    block structure (IF/DO/SUBROUTINE/MODULE/...) is recovered from the
    leading keyword of each line.  [!$OMP] directive lines are parsed
    into {!Ast.omp_do} clauses and attached to the following DO loop. *)

open Ast

exception Parse_error of int * string

let fail lineno fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt

(** {1 Logical lines}

    Each logical line is tokenized once, when it enters the parser; the
    line classifiers and every cursor read the cached tokens. *)

type line = {
  lineno : int;
  text : string;
  is_directive : bool;  (** an [!$OMP] sentinel line *)
  tokens : (Lexer.token array, string) result;  (** or the lex error *)
}

let line_of_scanned (l : Line_scanner.line) =
  {
    lineno = l.Line_scanner.lineno;
    text = l.Line_scanner.text;
    is_directive = l.Line_scanner.is_directive;
    tokens =
      (match Lexer.tokenize l.Line_scanner.text with
      | toks -> Ok toks
      | exception Lexer.Lex_error msg -> Error msg);
  }

(* Token [i] of a line: [Eof] past the end and on a lex error. *)
let token (l : line) i =
  match l.tokens with
  | Ok toks when i < Array.length toks -> toks.(i)
  | Ok _ | Error _ -> Lexer.Eof

(** {1 Token cursor over one line} *)

type cursor = {
  toks : Lexer.token array;
  mutable pos : int;
  lineno : int;
}

let cursor_of_line (l : line) =
  match l.tokens with
  | Ok toks -> { toks; pos = 0; lineno = l.lineno }
  | Error msg -> fail l.lineno "%s" msg

(* [Eof] past the end, where a consumed [Eof] leaves the cursor *)
let peek c = if c.pos < Array.length c.toks then c.toks.(c.pos) else Lexer.Eof
let peek2 c =
  if c.pos + 1 < Array.length c.toks then c.toks.(c.pos + 1) else Lexer.Eof

let advance c = c.pos <- c.pos + 1

let next c =
  let t = peek c in
  advance c;
  t

let expect c tok what =
  let t = next c in
  if not (Lexer.equal t tok) then
    fail c.lineno "expected %s, got %a" what Lexer.pp_token t

let expect_ident c =
  match next c with
  | Lexer.Ident s -> s
  | t -> fail c.lineno "expected identifier, got %a" Lexer.pp_token t

(* Is the next token [tok]? *)
let at c tok = Lexer.equal (peek c) tok

let accept c tok = if at c tok then (advance c; true) else false

let at_eof c = at c Lexer.Eof

let expect_end c =
  if not (at_eof c) then
    fail c.lineno "trailing tokens starting at %a" Lexer.pp_token (peek c)

(** {1 Expressions}

    Precedence (low to high): .eqv./.neqv. < .or. < .and. < .not. <
    comparison < // < +,- < *,/ < unary +,- < ** (right assoc). *)

let rec parse_expr c = parse_eqv c

and parse_eqv c =
  let lhs = parse_or c in
  match peek c with
  | Lexer.Eqv_tok -> advance c; Binop (Eqv, lhs, parse_eqv c)
  | Lexer.Neqv_tok -> advance c; Binop (Neqv, lhs, parse_eqv c)
  | _ -> lhs

and parse_or c =
  let lhs = parse_and c in
  let rec loop lhs =
    if accept c Lexer.Or_tok then loop (Binop (Or, lhs, parse_and c)) else lhs
  in
  loop lhs

and parse_and c =
  let lhs = parse_not c in
  let rec loop lhs =
    if accept c Lexer.And_tok then loop (Binop (And, lhs, parse_not c))
    else lhs
  in
  loop lhs

and parse_not c =
  if accept c Lexer.Not_tok then Unop (Not, parse_not c) else parse_comparison c

and parse_comparison c =
  let lhs = parse_concat c in
  let op =
    match peek c with
    | Lexer.Eq_tok -> Some Eq
    | Lexer.Ne_tok -> Some Ne
    | Lexer.Lt_tok -> Some Lt
    | Lexer.Le_tok -> Some Le
    | Lexer.Gt_tok -> Some Gt
    | Lexer.Ge_tok -> Some Ge
    | _ -> None
  in
  match op with
  | Some op ->
    advance c;
    Binop (op, lhs, parse_concat c)
  | None -> lhs

and parse_concat c =
  let lhs = parse_additive c in
  let rec loop lhs =
    if accept c Lexer.Dslash then loop (Binop (Concat, lhs, parse_additive c))
    else lhs
  in
  loop lhs

and parse_additive c =
  let lhs = parse_multiplicative c in
  let rec loop lhs =
    match peek c with
    | Lexer.Plus -> advance c; loop (Binop (Add, lhs, parse_multiplicative c))
    | Lexer.Minus -> advance c; loop (Binop (Sub, lhs, parse_multiplicative c))
    | _ -> lhs
  in
  loop lhs

and parse_multiplicative c =
  let lhs = parse_unary c in
  let rec loop lhs =
    match peek c with
    | Lexer.Star -> advance c; loop (Binop (Mul, lhs, parse_unary c))
    | Lexer.Slash -> advance c; loop (Binop (Div, lhs, parse_unary c))
    | _ -> lhs
  in
  loop lhs

and parse_unary c =
  match peek c with
  | Lexer.Minus -> advance c; Unop (Neg, parse_unary c)
  | Lexer.Plus -> advance c; Unop (Pos, parse_unary c)
  | _ -> parse_power c

and parse_power c =
  let base = parse_primary c in
  if accept c Lexer.Dstar then Binop (Pow, base, parse_unary c) else base

and parse_primary c =
  match next c with
  | Lexer.Int n -> Int_lit n
  | Lexer.Real (x, d) -> Real_lit (x, d)
  | Lexer.Str s -> Str_lit s
  | Lexer.True_tok -> Logical_lit true
  | Lexer.False_tok -> Logical_lit false
  | Lexer.Lparen ->
    let e = parse_expr c in
    expect c Lexer.Rparen ")";
    e
  | Lexer.Ident name -> parse_designator_tail c name
  | t -> fail c.lineno "unexpected token %a in expression" Lexer.pp_token t

(** Parse the rest of a designator whose first name was consumed. *)
and parse_designator_tail c name =
  let parse_args () =
    if accept c Lexer.Lparen then begin
      if accept c Lexer.Rparen then []
      else begin
        let args = ref [ parse_subscript c ] in
        while accept c Lexer.Comma do
          args := parse_subscript c :: !args
        done;
        expect c Lexer.Rparen ")";
        List.rev !args
      end
    end
    else []
  in
  let first = (name, parse_args ()) in
  let parts = ref [ first ] in
  while accept c Lexer.Percent do
    let field = expect_ident c in
    parts := (field, parse_args ()) :: !parts
  done;
  Desig (List.rev !parts)

(** One subscript: expression, or a section [lo:hi] / [:] / [lo:] / [:hi]. *)
and parse_subscript c =
  if at c Lexer.Colon then begin
    advance c;
    match peek c with
    | Lexer.Comma | Lexer.Rparen -> Section (None, None)
    | _ -> Section (None, Some (parse_expr c))
  end
  else
    let e = parse_expr c in
    if accept c Lexer.Colon then
      match peek c with
      | Lexer.Comma | Lexer.Rparen -> Section (Some e, None)
      | _ -> Section (Some e, Some (parse_expr c))
    else e

let parse_expr_string ?(lineno = 0) text =
  let c =
    cursor_of_line
      (line_of_scanned { Line_scanner.lineno; text; is_directive = false })
  in
  let e = parse_expr c in
  expect_end c;
  e

(** {1 Line classification} *)

(* Does the line open a module's CONTAINS section? *)
let is_contains (l : line) =
  match token l 0 with Lexer.Ident "contains" -> true | _ -> false

(* Is this line "end <kw>" or "end"? Handles fused forms endif/enddo. *)
let is_end_of kw (l : line) =
  match (token l 0, token l 1) with
  | Lexer.Ident "end", Lexer.Eof -> true
  | Lexer.Ident "end", Lexer.Ident w -> String.equal w kw
  | Lexer.Ident w, _ ->
    String.length w = 3 + String.length kw
    && String.starts_with ~prefix:"end" w
    && String.ends_with ~suffix:kw w
  | _ -> false

(** {1 Line stream} *)

type stream = {
  lines : line array;
  mutable idx : int;
}

let stream_of_lines lines =
  { lines = Array.of_list (List.map line_of_scanned lines); idx = 0 }

let cur s = if s.idx < Array.length s.lines then Some s.lines.(s.idx) else None

let bump s = s.idx <- s.idx + 1

let cur_exn s what =
  match cur s with
  | Some l -> l
  | None -> fail 0 "unexpected end of input, expected %s" what

(** {1 OMP directives} *)

let parse_omp_reduction_op c =
  match next c with
  | Lexer.Plus -> Osum
  | Lexer.Star -> Oprod
  | Lexer.Ident "max" -> Omax
  | Lexer.Ident "min" -> Omin
  | t -> fail c.lineno "unknown reduction operator %a" Lexer.pp_token t

let parse_name_list c =
  expect c Lexer.Lparen "(";
  let names = ref [ expect_ident c ] in
  while accept c Lexer.Comma do
    names := expect_ident c :: !names
  done;
  expect c Lexer.Rparen ")";
  List.rev !names

(* Parse the clause list of a PARALLEL DO directive; cursor is after
   "parallel do". *)
let parse_omp_clauses c =
  let d = ref omp_do_default in
  let rec loop () =
    match peek c with
    | Lexer.Eof -> ()
    | Lexer.Comma -> advance c; loop ()
    | Lexer.Ident "private" ->
      advance c;
      d := { !d with omp_private = !d.omp_private @ parse_name_list c };
      loop ()
    | Lexer.Ident "firstprivate" ->
      advance c;
      d := { !d with omp_firstprivate = !d.omp_firstprivate @ parse_name_list c };
      loop ()
    | Lexer.Ident "shared" ->
      advance c;
      d := { !d with omp_shared = !d.omp_shared @ parse_name_list c };
      loop ()
    | Lexer.Ident "copyprivate" ->
      advance c;
      d := { !d with omp_copyprivate = !d.omp_copyprivate @ parse_name_list c };
      loop ()
    | Lexer.Ident "default" ->
      advance c;
      expect c Lexer.Lparen "(";
      let _ = expect_ident c in
      expect c Lexer.Rparen ")";
      loop ()
    | Lexer.Ident "reduction" ->
      advance c;
      expect c Lexer.Lparen "(";
      let op = parse_omp_reduction_op c in
      expect c Lexer.Colon ":";
      let names = ref [ expect_ident c ] in
      while accept c Lexer.Comma do
        names := expect_ident c :: !names
      done;
      expect c Lexer.Rparen ")";
      d := { !d with omp_reduction = !d.omp_reduction @ [ (op, List.rev !names) ] };
      loop ()
    | Lexer.Ident "collapse" ->
      advance c;
      expect c Lexer.Lparen "(";
      let n =
        match next c with
        | Lexer.Int n -> n
        | t -> fail c.lineno "collapse expects an integer, got %a" Lexer.pp_token t
      in
      expect c Lexer.Rparen ")";
      d := { !d with omp_collapse = n };
      loop ()
    | Lexer.Ident "num_threads" ->
      advance c;
      expect c Lexer.Lparen "(";
      let e = parse_expr c in
      expect c Lexer.Rparen ")";
      d := { !d with omp_num_threads = Some e };
      loop ()
    | Lexer.Ident "schedule" ->
      advance c;
      expect c Lexer.Lparen "(";
      let kind = expect_ident c in
      (* optional literal chunk size *)
      let chunk =
        if accept c Lexer.Comma then
          match parse_expr c with
          | Int_lit n when n >= 1 -> Some n
          | e ->
            fail c.lineno "schedule chunk must be a positive integer, got %a"
              pp_expr e
        else None
      in
      let sched =
        match (kind, chunk) with
        | "static", None -> Static
        | "static", Some k -> Static_chunk k
        | "dynamic", k -> Dynamic (Option.value k ~default:1)
        | "guided", k -> Guided (Option.value k ~default:1)
        | s, _ -> fail c.lineno "unknown schedule %S" s
      in
      expect c Lexer.Rparen ")";
      d := { !d with omp_schedule = Some sched };
      loop ()
    | t -> fail c.lineno "unknown OMP clause starting with %a" Lexer.pp_token t
  in
  loop ();
  !d

type omp_directive =
  | Dir_parallel_do of omp_do
  | Dir_end_parallel_do
  | Dir_atomic
  | Dir_critical
  | Dir_end_critical
  | Dir_barrier

let parse_omp_line (l : line) =
  let c = cursor_of_line l in
  match next c with
  | Lexer.Ident "parallel" -> (
    match peek c with
    | Lexer.Ident "do" ->
      advance c;
      Dir_parallel_do (parse_omp_clauses c)
    | _ -> Dir_parallel_do (parse_omp_clauses c))
  | Lexer.Ident "do" -> Dir_parallel_do (parse_omp_clauses c)
  | Lexer.Ident "atomic" -> Dir_atomic
  | Lexer.Ident "critical" -> Dir_critical
  | Lexer.Ident "barrier" -> Dir_barrier
  | Lexer.Ident "end" -> (
    match next c with
    | Lexer.Ident "parallel" -> Dir_end_parallel_do
    | Lexer.Ident "critical" -> Dir_end_critical
    | t -> fail l.lineno "unknown OMP end directive %a" Lexer.pp_token t)
  | t ->
    fail l.lineno "unknown OMP directive starting with %a"
      Lexer.pp_token t

(** {1 Declarations} *)

let is_base_type_keyword = function
  | "integer" | "real" | "logical" | "character" | "double" -> true
  | _ -> false

(* Parse base type at cursor; cursor sits on the type keyword. *)
let parse_base_type c =
  match expect_ident c with
  | "integer" ->
    (* optional *4 / (kind=4) — parsed and ignored *)
    if accept c Lexer.Star then ignore (next c);
    Integer
  | "real" ->
    if accept c Lexer.Star then
      match next c with
      | Lexer.Int 8 -> Real8
      | Lexer.Int _ -> Real
      | t -> fail c.lineno "bad kind after real*, got %a" Lexer.pp_token t
    else if at c Lexer.Lparen && Lexer.equal (peek2 c) (Lexer.Ident "kind") then begin
      advance c;
      let _ = expect_ident c in
      expect c Lexer.Assign_tok "=";
      let k = next c in
      expect c Lexer.Rparen ")";
      match k with
      | Lexer.Int 8 -> Real8
      | _ -> Real
    end
    else Real
  | "double" ->
    let w = expect_ident c in
    if w <> "precision" then fail c.lineno "expected DOUBLE PRECISION";
    Real8
  | "logical" -> Logical
  | "character" ->
    if accept c Lexer.Lparen then begin
      (* (len=N) or (N) *)
      let len =
        match peek c with
        | Lexer.Ident "len" ->
          advance c;
          expect c Lexer.Assign_tok "=";
          (match next c with
          | Lexer.Int n -> Some n
          | Lexer.Star -> None
          | t -> fail c.lineno "bad character length %a" Lexer.pp_token t)
        | Lexer.Int n -> advance c; Some n
        | Lexer.Star -> advance c; None
        | t -> fail c.lineno "bad character spec %a" Lexer.pp_token t
      in
      expect c Lexer.Rparen ")";
      Character len
    end
    else if accept c Lexer.Star then
      match next c with
      | Lexer.Int n -> Character (Some n)
      | t -> fail c.lineno "bad character length %a" Lexer.pp_token t
    else Character None
  | w -> fail c.lineno "not a type keyword: %s" w

(* dims: "(d1, d2, ...)" where d is expr | expr:expr | ':' | '*' .
   Returns (dims, deferred_rank). *)
let parse_dim_spec c =
  expect c Lexer.Lparen "(";
  let dims = ref [] in
  let deferred = ref 0 in
  let parse_one () =
    match peek c with
    | Lexer.Colon ->
      advance c;
      incr deferred;
      (None, Int_lit 0)
    | Lexer.Star ->
      advance c;
      incr deferred;
      (None, Int_lit 0)
    | _ ->
      let e = parse_expr c in
      if accept c Lexer.Colon then (Some e, parse_expr c) else (None, e)
  in
  dims := [ parse_one () ];
  while accept c Lexer.Comma do
    dims := parse_one () :: !dims
  done;
  expect c Lexer.Rparen ")";
  let dims = List.rev !dims in
  let rank = List.length dims in
  if !deferred > 0 then (dims, Some rank) else (dims, None)

let parse_attr c =
  match expect_ident c with
  | "dimension" ->
    let dims, _ = parse_dim_spec c in
    Dimension dims
  | "allocatable" -> Allocatable
  | "save" -> Save
  | "parameter" -> Parameter
  | "pointer" -> Pointer
  | "target" -> Target
  | "intent" ->
    expect c Lexer.Lparen "(";
    let dir =
      match expect_ident c with
      | "in" -> Intent_in
      | "out" -> Intent_out
      | "inout" -> Intent_inout
      | s -> fail c.lineno "bad intent %S" s
    in
    expect c Lexer.Rparen ")";
    dir
  | s -> fail c.lineno "unknown attribute %S" s

let parse_entity c =
  let ent_name = expect_ident c in
  let ent_dims, ent_deferred =
    if at c Lexer.Lparen then
      let dims, deferred = parse_dim_spec c in
      (Some dims, deferred)
    else (None, None)
  in
  let ent_init =
    if accept c Lexer.Assign_tok then Some (parse_expr c) else None
  in
  { ent_name; ent_dims; ent_deferred; ent_init }

(* Full variable declaration line; cursor on the type keyword. *)
let parse_var_decl c =
  let base = parse_base_type c in
  let attrs = ref [] in
  while at c Lexer.Comma do
    advance c;
    attrs := parse_attr c :: !attrs
  done;
  let _ = accept c Lexer.Dcolon in
  let entities = ref [ parse_entity c ] in
  while accept c Lexer.Comma do
    entities := parse_entity c :: !entities
  done;
  expect_end c;
  Var_decl { base; attrs = List.rev !attrs; entities = List.rev !entities }

(* TYPE(name) variable declaration (as opposed to TYPE definition). *)
let parse_derived_var_decl c =
  (* cursor after "type" *)
  expect c Lexer.Lparen "(";
  let tname = expect_ident c in
  expect c Lexer.Rparen ")";
  let attrs = ref [] in
  while at c Lexer.Comma do
    advance c;
    attrs := parse_attr c :: !attrs
  done;
  let _ = accept c Lexer.Dcolon in
  let entities = ref [ parse_entity c ] in
  while accept c Lexer.Comma do
    entities := parse_entity c :: !entities
  done;
  expect_end c;
  Var_decl { base = Derived tname; attrs = List.rev !attrs; entities = List.rev !entities }

let parse_common c =
  (* cursor after "common" *)
  expect c Lexer.Slash "/";
  let block = expect_ident c in
  expect c Lexer.Slash "/";
  let names = ref [ expect_ident c ] in
  (* members may carry dims in F77 style: common /b/ a(10) — accept and
     drop the dims (the separate declaration carries them in our subset) *)
  let skip_dims () =
    if at c Lexer.Lparen then ignore (parse_dim_spec c)
  in
  skip_dims ();
  while accept c Lexer.Comma do
    names := expect_ident c :: !names;
    skip_dims ()
  done;
  expect_end c;
  Common (block, List.rev !names)

let parse_use c =
  let m = expect_ident c in
  let only =
    if accept c Lexer.Comma then begin
      let w = expect_ident c in
      if w <> "only" then fail c.lineno "expected ONLY in USE";
      expect c Lexer.Colon ":";
      let names = ref [ expect_ident c ] in
      while accept c Lexer.Comma do
        names := expect_ident c :: !names
      done;
      List.rev !names
    end
    else []
  in
  expect_end c;
  Use (m, only)

(** {1 Statements} *)

let rec parse_stmt_lines s ~stop =
  let body = ref [] in
  let rec loop () =
    match cur s with
    | None -> fail 0 "unexpected end of input in statement block"
    | Some l ->
      if stop l then ()
      else begin
        (match parse_one_stmt s l with
        | Some st -> body := st :: !body
        | None -> ());
        loop ()
      end
  in
  loop ();
  List.rev !body

and parse_one_stmt s (l : line) : stmt option =
  if l.is_directive then begin
    match parse_omp_line l with
    | Dir_parallel_do d ->
      bump s;
      let next_l = cur_exn s "DO loop after !$OMP PARALLEL DO" in
      (match parse_one_stmt s next_l with
      | Some (Do loop) -> Some (Do { loop with do_omp = Some d })
      | Some _ | None ->
        fail next_l.lineno
          "!$OMP PARALLEL DO must be followed by a DO loop")
    | Dir_end_parallel_do ->
      bump s;
      None
    | Dir_atomic ->
      bump s;
      let next_l = cur_exn s "statement after !$OMP ATOMIC" in
      (match parse_one_stmt s next_l with
      | Some (Assign _ as a) -> Some (Omp_atomic a)
      | Some _ | None ->
        fail next_l.lineno
          "!$OMP ATOMIC must be followed by an assignment")
    | Dir_critical ->
      bump s;
      let stop (l : line) =
        l.is_directive
        && match parse_omp_line l with Dir_end_critical -> true | _ -> false
      in
      let body = parse_stmt_lines s ~stop in
      bump s;
      (* consume end critical *)
      Some (Omp_critical body)
    | Dir_end_critical ->
      fail l.lineno "unmatched !$OMP END CRITICAL"
    | Dir_barrier ->
      bump s;
      Some Omp_barrier
  end
  else
    let c = cursor_of_line l in
    match peek c with
    | Lexer.Ident "if" -> parse_if s
    | Lexer.Ident "do" -> parse_do s
    | Lexer.Ident "call" ->
      bump s;
      advance c;
      let name = expect_ident c in
      let args =
        if accept c Lexer.Lparen then begin
          if accept c Lexer.Rparen then []
          else begin
            let args = ref [ parse_subscript c ] in
            while accept c Lexer.Comma do
              args := parse_subscript c :: !args
            done;
            expect c Lexer.Rparen ")";
            List.rev !args
          end
        end
        else []
      in
      expect_end c;
      Some (Call (name, args))
    | Lexer.Ident "return" -> bump s; Some Return
    | Lexer.Ident "exit" -> bump s; Some Exit
    | Lexer.Ident "cycle" -> bump s; Some Cycle
    | Lexer.Ident "continue" -> bump s; Some Continue
    | Lexer.Ident "stop" ->
      bump s;
      advance c;
      let msg =
        match peek c with
        | Lexer.Str m -> Some m
        | Lexer.Int n -> Some (string_of_int n)
        | _ -> None
      in
      Some (Stop msg)
    | Lexer.Ident "allocate" ->
      bump s;
      advance c;
      expect c Lexer.Lparen "(";
      let parse_alloc () =
        let name = expect_ident c in
        expect c Lexer.Lparen "(";
        let exprs = ref [ parse_subscript c ] in
        while accept c Lexer.Comma do
          exprs := parse_subscript c :: !exprs
        done;
        expect c Lexer.Rparen ")";
        ([ (name, []) ], List.rev !exprs)
      in
      let allocs = ref [ parse_alloc () ] in
      while accept c Lexer.Comma do
        allocs := parse_alloc () :: !allocs
      done;
      expect c Lexer.Rparen ")";
      expect_end c;
      Some (Allocate (List.rev !allocs))
    | Lexer.Ident "deallocate" ->
      bump s;
      advance c;
      expect c Lexer.Lparen "(";
      let ds = ref [ [ (expect_ident c, []) ] ] in
      while accept c Lexer.Comma do
        ds := [ (expect_ident c, []) ] :: !ds
      done;
      expect c Lexer.Rparen ")";
      expect_end c;
      Some (Deallocate (List.rev !ds))
    | Lexer.Ident "print" ->
      bump s;
      advance c;
      expect c Lexer.Star "*";
      let args = ref [] in
      while accept c Lexer.Comma do
        args := parse_expr c :: !args
      done;
      Some (Print (List.rev !args))
    | Lexer.Ident "write" ->
      bump s;
      advance c;
      expect c Lexer.Lparen "(";
      (* accept "(star, star)" or "(unit, star)" and ignore *)
      let skip_item () =
        match peek c with
        | Lexer.Star -> advance c
        | _ -> ignore (parse_expr c)
      in
      skip_item ();
      if accept c Lexer.Comma then skip_item ();
      expect c Lexer.Rparen ")";
      let args = ref [] in
      if not (at_eof c) then begin
        args := [ parse_expr c ];
        while accept c Lexer.Comma do
          args := parse_expr c :: !args
        done
      end;
      Some (Print (List.rev !args))
    | _ -> (
      (* assignment: designator = expr *)
      bump s;
      match next c with
      | Lexer.Ident name -> (
        match parse_designator_tail c name with
        | Desig d ->
          expect c Lexer.Assign_tok "=";
          let rhs = parse_expr c in
          expect_end c;
          Some (Assign (d, rhs))
        | _ -> assert false)
      | t ->
        fail l.lineno "cannot parse statement starting with %a"
          Lexer.pp_token t)

and parse_if s =
  let l = cur_exn s "if" in
  let c = cursor_of_line l in
  advance c;
  (* 'if' *)
  expect c Lexer.Lparen "(";
  let cond = parse_expr c in
  expect c Lexer.Rparen ")";
  match peek c with
  | Lexer.Ident "then" ->
    advance c;
    expect_end c;
    bump s;
    (* block IF: collect branches until END IF *)
    let branches = ref [] in
    let else_body = ref [] in
    let rec collect current_cond =
      let stop (l : line) =
        (not l.is_directive)
        && (is_end_of "if" l
           ||
           match token l 0 with
           | Lexer.Ident ("else" | "elseif") -> true
           | _ -> false)
      in
      let body = parse_stmt_lines s ~stop in
      let l = cur_exn s "end if" in
      if is_end_of "if" l then begin
        bump s;
        branches := (current_cond, body) :: !branches
      end
      else begin
        (* else / else if *)
        let c = cursor_of_line l in
        let w = expect_ident c in
        let is_elseif =
          w = "elseif" || (w = "else" && Lexer.equal (peek c) (Lexer.Ident "if"))
        in
        if is_elseif then begin
          if w = "else" then advance c;
          expect c Lexer.Lparen "(";
          let cond' = parse_expr c in
          expect c Lexer.Rparen ")";
          (match peek c with
          | Lexer.Ident "then" -> advance c
          | _ -> ());
          expect_end c;
          bump s;
          branches := (current_cond, body) :: !branches;
          collect cond'
        end
        else begin
          (* plain else *)
          expect_end c;
          bump s;
          branches := (current_cond, body) :: !branches;
          let stop l = (not l.is_directive) && is_end_of "if" l in
          else_body := parse_stmt_lines s ~stop;
          bump s (* end if *)
        end
      end
    in
    collect cond;
    Some (If_block (List.rev !branches, !else_body))
  | _ ->
    (* logical IF: rest of line is a single simple statement *)
    let rest = parse_inline_stmt c l.lineno in
    bump s;
    Some (If_arith (cond, rest))

(* Simple statement allowed after a logical IF: assignment, CALL,
   RETURN, EXIT, CYCLE, STOP. *)
and parse_inline_stmt c lineno =
  match next c with
  | Lexer.Ident "return" -> Return
  | Lexer.Ident "exit" -> Exit
  | Lexer.Ident "cycle" -> Cycle
  | Lexer.Ident "stop" -> (
    match peek c with
    | Lexer.Str m -> advance c; Stop (Some m)
    | _ -> Stop None)
  | Lexer.Ident "call" ->
    let name = expect_ident c in
    let args =
      if accept c Lexer.Lparen then begin
        if accept c Lexer.Rparen then []
        else begin
          let args = ref [ parse_subscript c ] in
          while accept c Lexer.Comma do
            args := parse_subscript c :: !args
          done;
          expect c Lexer.Rparen ")";
          List.rev !args
        end
      end
      else []
    in
    Call (name, args)
  | Lexer.Ident name -> (
    match parse_designator_tail c name with
    | Desig d ->
      expect c Lexer.Assign_tok "=";
      let rhs = parse_expr c in
      expect_end c;
      Assign (d, rhs)
    | _ -> assert false)
  | t -> fail lineno "bad statement after logical IF: %a" Lexer.pp_token t

and parse_do s =
  let l = cur_exn s "do" in
  let c = cursor_of_line l in
  advance c;
  (* 'do' *)
  match peek c with
  | Lexer.Ident "while" ->
    advance c;
    expect c Lexer.Lparen "(";
    let cond = parse_expr c in
    expect c Lexer.Rparen ")";
    expect_end c;
    bump s;
    let stop l = (not l.is_directive) && is_end_of "do" l in
    let body = parse_stmt_lines s ~stop in
    bump s;
    Some (Do_while (cond, body))
  | _ ->
    let do_var = expect_ident c in
    expect c Lexer.Assign_tok "=";
    let do_lo = parse_expr c in
    expect c Lexer.Comma ",";
    let do_hi = parse_expr c in
    let do_step = if accept c Lexer.Comma then Some (parse_expr c) else None in
    expect_end c;
    bump s;
    let stop l = (not l.is_directive) && is_end_of "do" l in
    let body = parse_stmt_lines s ~stop in
    bump s;
    Some (Do { do_var; do_lo; do_hi; do_step; do_body = body; do_omp = None })

(** {1 Program units} *)

let is_plain_end (l : line) =
  match (token l 0, token l 1) with
  | Lexer.Ident "end", Lexer.Eof -> true
  | _ -> false

let is_decl_starter w =
  is_base_type_keyword w
  ||
  match w with
  | "type" | "common" | "use" | "implicit" | "external" -> true
  | _ -> false

let is_decl_line (l : line) =
  (not l.is_directive)
  &&
  match (token l 0, token l 1) with
  | Lexer.Ident ("integer" | "real" | "logical"), Lexer.Ident "function" ->
    false
  | Lexer.Ident w, _ -> is_decl_starter w
  | _ -> false

let rec parse_decl s : decl =
  let l = cur_exn s "declaration" in
  let c = cursor_of_line l in
  match peek c with
  | Lexer.Ident "implicit" ->
    bump s;
    Implicit_none
  | Lexer.Ident "use" ->
    bump s;
    advance c;
    parse_use c
  | Lexer.Ident "common" ->
    bump s;
    advance c;
    parse_common c
  | Lexer.Ident "external" ->
    bump s;
    advance c;
    let names = ref [ expect_ident c ] in
    while accept c Lexer.Comma do
      names := expect_ident c :: !names
    done;
    External (List.rev !names)
  | Lexer.Ident "type" ->
    if Lexer.equal (peek2 c) Lexer.Lparen then begin
      bump s;
      advance c;
      parse_derived_var_decl c
    end
    else begin
      (* TYPE definition: type [::] name ... end type *)
      bump s;
      advance c;
      let _ = accept c Lexer.Dcolon in
      let type_name = expect_ident c in
      expect_end c;
      let fields = ref [] in
      let rec loop () =
        let l = cur_exn s "end type" in
        if is_end_of "type" l then bump s
        else begin
          fields := parse_decl s :: !fields;
          loop ()
        end
      in
      loop ();
      Type_def { type_name; fields = List.rev !fields }
    end
  | Lexer.Ident w when is_base_type_keyword w ->
    bump s;
    parse_var_decl c
  | t -> fail l.lineno "expected declaration, got %a" Lexer.pp_token t

let parse_decls s ~stop =
  let decls = ref [] in
  let rec loop () =
    match cur s with
    | None -> ()
    | Some l ->
      if stop l then ()
      else if is_decl_line l then begin
        decls := parse_decl s :: !decls;
        loop ()
      end
      else ()
  in
  loop ();
  List.rev !decls

(* Header "subroutine name(args)" or "[type] function name(args)".
   Cursor on first token of the line. *)
let parse_subprogram_header (l : line) =
  let c = cursor_of_line l in
  let result_type =
    match peek c with
    | Lexer.Ident w when is_base_type_keyword w -> Some (parse_base_type c)
    | _ -> None
  in
  let kw = expect_ident c in
  let kind =
    match kw with
    | "subroutine" ->
      if Option.is_some result_type then
        fail l.lineno "subroutine cannot have a result type";
      `Subroutine
    | "function" -> `Function result_type
    | w -> fail l.lineno "expected SUBROUTINE or FUNCTION, got %s" w
  in
  let name = expect_ident c in
  let args =
    if accept c Lexer.Lparen then begin
      if accept c Lexer.Rparen then []
      else begin
        let args = ref [ expect_ident c ] in
        while accept c Lexer.Comma do
          args := expect_ident c :: !args
        done;
        expect c Lexer.Rparen ")";
        List.rev !args
      end
    end
    else []
  in
  (* optional RESULT(name) — unsupported, flag it *)
  if not (at_eof c) then
    fail l.lineno "unsupported tokens after subprogram header";
  (name, kind, args)

let is_subprogram_start (l : line) =
  (not l.is_directive)
  &&
  match (token l 0, token l 1, token l 2, token l 3) with
  | Lexer.Ident ("subroutine" | "function"), _, _, _ -> true
  | Lexer.Ident w, Lexer.Ident "function", _, _
    when is_base_type_keyword w ->
    true
  | Lexer.Ident "double", Lexer.Ident "precision", Lexer.Ident "function", _ ->
    true
  | Lexer.Ident ("real" | "integer"), Lexer.Star, Lexer.Int _, Lexer.Ident "function" ->
    true
  | _ -> false

let parse_subprogram s =
  let l = cur_exn s "subprogram" in
  let sub_name, sub_kind, sub_args = parse_subprogram_header l in
  bump s;
  let endkw =
    match sub_kind with
    | `Subroutine -> "subroutine"
    | `Function _ -> "function"
  in
  let stop_decl (l : line) =
    is_end_of endkw l || is_plain_end l
  in
  let sub_decls = parse_decls s ~stop:stop_decl in
  let stop (l : line) =
    (not l.is_directive) && (is_end_of endkw l || is_plain_end l)
  in
  let sub_body = parse_stmt_lines s ~stop in
  bump s;
  (* end subroutine *)
  { sub_name; sub_kind; sub_args; sub_decls; sub_body }

let parse_module s =
  let l = cur_exn s "module" in
  let c = cursor_of_line l in
  let _ = expect_ident c in
  (* "module" *)
  let mod_name = expect_ident c in
  expect_end c;
  bump s;
  let stop (l : line) = is_end_of "module" l || is_contains l in
  let mod_decls = parse_decls s ~stop in
  let mod_contains = ref [] in
  (match cur s with
  | Some l when is_contains l ->
    bump s;
    let rec loop () =
      let l = cur_exn s "end module" in
      if is_end_of "module" l then ()
      else if is_subprogram_start l then begin
        mod_contains := parse_subprogram s :: !mod_contains;
        loop ()
      end
      else
        fail l.lineno "expected subprogram in CONTAINS section: %s"
          l.text
    in
    loop ()
  | _ -> ());
  (* consume "end module" *)
  (match cur s with
  | Some l when is_end_of "module" l -> bump s
  | Some l -> fail l.lineno "expected END MODULE"
  | None -> fail 0 "expected END MODULE");
  Module { mod_name; mod_decls; mod_contains = List.rev !mod_contains }

let parse_main s =
  let l = cur_exn s "program" in
  let c = cursor_of_line l in
  let _ = expect_ident c in
  let main_name = expect_ident c in
  expect_end c;
  bump s;
  let stop l = is_end_of "program" l || is_plain_end l in
  let main_decls = parse_decls s ~stop in
  let stop (l : line) =
    (not l.is_directive) && (is_end_of "program" l || is_plain_end l)
  in
  let main_body = parse_stmt_lines s ~stop in
  bump s;
  Main { main_name; main_decls; main_body }

(** Parse a whole source file into program units. *)
let parse_string source : compilation_unit =
  let lines = Line_scanner.scan source in
  let s = stream_of_lines lines in
  let units = ref [] in
  let rec loop () =
    match cur s with
    | None -> ()
    | Some l ->
      (match token l 0 with
      | Lexer.Ident "module" -> units := parse_module s :: !units
      | Lexer.Ident "program" -> units := parse_main s :: !units
      | _ when is_subprogram_start l ->
        units := Standalone (parse_subprogram s) :: !units
      | _ ->
        fail l.lineno "expected a program unit, got: %s"
          l.text);
      loop ()
  in
  loop ();
  List.rev !units
