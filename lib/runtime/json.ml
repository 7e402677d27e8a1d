(** JSON values: the one printer and parser for every JSON line and
    file the system writes or reads — listener responses and status,
    {!Fault} reports, tuning plans and plan counters.

    The printer is compact: no whitespace, object keys in the order
    given, so a line can be grepped for ["hits":1] or ["ok":true].
    Strings escape the double quote, backslash, newline and tab by
    name and every other control byte as [\u00XX]; bytes from 0x80 up
    pass through raw.  A number prints as an integer when it is one
    (below 1e15), otherwise as the shortest decimal that reads back to
    the same float; a non-finite number prints as [null], so
    everything {!to_string} writes, {!parse} reads back.

    The parser is a small recursive descent that reports any syntax
    error, or nesting deeper than {!max_depth}, as [Error] with its
    byte offset; no input makes it raise. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of v list
  | Obj of (string * v) list

(** {1 Building values} *)

let int i = Num (float_of_int i)

(** [fixed d x] is [x] rounded to [d] decimals, for timings and rates
    whose trailing digits are noise. *)
let fixed d x =
  let k = 10.0 ** float_of_int d in
  Num (Float.round (x *. k) /. k)

let opt f = function Some x -> f x | None -> Null

(** {1 Printing} *)

let escape_to b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (if Float.is_finite f then number f else "null")
  | Str s ->
    Buffer.add_char b '"';
    escape_to b s;
    Buffer.add_char b '"'
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b x)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(** {1 Parsing} *)

let max_depth = 512

exception Bad of int * string

let parse (s : string) : (v, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let bad msg = raise (Bad (!pos, msg)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> bad (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else bad (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then bad "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
               if !pos + 4 >= n then bad "bad \\u escape"
               else (
                 let code =
                   try int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                   with _ -> bad "bad \\u escape"
                 in
                 pos := !pos + 4;
                 (* the printer only ever escapes control bytes *)
                 if code < 0x80 then Buffer.add_char b (Char.chr code)
                 else Buffer.add_char b '?')
             | c -> bad (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> bad "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then bad "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then (
        incr pos;
        Obj [])
      else
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> bad "expected ',' or '}'"
        in
        Obj (fields [])
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then (
        incr pos;
        List [])
      else
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> bad "expected ',' or ']'"
        in
        List (items [])
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing bytes at offset %d" !pos)
    else Ok v
  with Bad (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)

(** {1 Reading values} *)

let field k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let boolean = function Bool b -> Some b | _ -> None
let list = function List l -> Some l | _ -> None
