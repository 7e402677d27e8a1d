(* Crash freedom of the text inputs outside the Fortran front end: a
   .gpi action script, a calls file and a listener request line.  Each
   answers any bytes with a value or its own diagnostic, never with a
   stray exception (an [Invalid_argument], [Not_found] or [Failure]
   escaping one request would take a batch or a connection down). *)

module Gpi_script = Glaf_builder.Gpi_script
module Serve = Glaf_service.Serve
module Listener = Glaf_service.Listener

let read_file path = In_channel.with_open_bin path In_channel.input_all
let scripts = Test_paths.scripts

let script_fixtures =
  List.map
    (fun f -> read_file (Filename.concat scripts f))
    [ "saxpy.gpi"; "point_charge.gpi"; "quad_sweep.gpi"; "legacy_radiation.gpi" ]

let print_src s = Printf.sprintf "%S" s

(* [src] with a few bytes replaced, inserted or deleted. *)
let mutate src edits =
  List.fold_left
    (fun s (kind, pos, c) ->
      let n = String.length s in
      let i = if n = 0 then 0 else pos mod n in
      match kind with
      | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ -> s)
    src edits

let gen_mutated fixtures =
  let open QCheck.Gen in
  let* src = oneofl fixtures in
  let* edits = list_size (int_range 1 8) (triple (int_range 0 2) (int_bound 1_000_000) char) in
  return (mutate src edits)

(* Lines of random script words, so the action and expression parsers
   see them, not only the first-line dispatch. *)
let gen_lines words =
  let open QCheck.Gen in
  let line = map (String.concat " ") (list_size (int_range 1 8) (oneofa words)) in
  map (String.concat "\n") (list_size (int_range 1 12) line)

let arbitrary_bytes = QCheck.Gen.(string_size ~gen:char (int_range 0 300))

(* --- .gpi scripts ----------------------------------------------------------- *)

let runs_or_diagnoses src =
  match Gpi_script.run src with
  | _ -> true
  | exception Gpi_script.Script_error _ -> true

let script_words =
  [|
    "program"; "p"; "module"; "m"; "function"; "f"; "returns"; "real8"; "integer";
    "logical"; "param"; "grid"; "dims(n)"; "dims(n,"; "n"; "step"; "s"; "set"; "x";
    "x(i)"; "="; "+"; "-"; "*"; "/"; "**"; "("; ")"; ","; "1"; "0.5"; "1.0e-9"; "foreach";
    "i"; "1,"; "schedule"; "dynamic:64"; "static"; "guided:"; "end"; "if"; "else";
    "while"; "return"; "abs(x)"; ">"; "<"; "=="; ".and."; "usemodule"; "typevar";
    "common"; "call"; "!"; "#";
  |]

let gen_script =
  let open QCheck.Gen in
  let* body = gen_lines script_words in
  let* framed = bool in
  return
    (if framed then
       "program p\nmodule m\nfunction f returns real8\n  param n integer\n  step s\n" ^ body
       ^ "\nend program\n"
     else body)

let prop_script_bytes =
  QCheck.Test.make ~name:"gpi: arbitrary bytes run or raise Script_error" ~count:2000
    (QCheck.make ~print:print_src arbitrary_bytes) runs_or_diagnoses

let prop_script_mutated =
  QCheck.Test.make ~name:"gpi: mutated fixtures run or raise Script_error" ~count:1000
    (QCheck.make ~print:print_src (gen_mutated script_fixtures)) runs_or_diagnoses

let prop_script_words =
  QCheck.Test.make ~name:"gpi: random actions run or raise Script_error" ~count:3000
    (QCheck.make ~print:print_src gen_script) runs_or_diagnoses

(* --- calls files ---------------------------------------------------------------- *)

let parses_or_diagnoses text =
  match Serve.parse_calls text with
  | _ -> true
  | exception Serve.Calls_error _ -> true

let call_words =
  [| "pi_mid"; "f"; "("; ")"; ","; "1"; "-2"; "1.5"; "1.0d0"; "1e3"; ".true."; "'s'"; "#";
     "x"; " "; "\t"; "\r"; "0x10"; "1_000"; "(("; "))"; "--1"; "+"; "1.5.5" |]

let gen_calls =
  let open QCheck.Gen in
  let line = map (String.concat "") (list_size (int_range 1 8) (oneofa call_words)) in
  map (String.concat "\n") (list_size (int_range 1 6) line)

let prop_calls_bytes =
  QCheck.Test.make ~name:"calls: arbitrary bytes parse or raise Calls_error" ~count:2000
    (QCheck.make ~print:print_src arbitrary_bytes) parses_or_diagnoses

let prop_calls_mutated =
  QCheck.Test.make ~name:"calls: mutated fixture parses or raises Calls_error" ~count:1000
    (QCheck.make ~print:print_src (gen_mutated [ read_file (Filename.concat scripts "quad_sweep.calls") ]))
    parses_or_diagnoses

let prop_calls_words =
  QCheck.Test.make ~name:"calls: random calls parse or raise Calls_error" ~count:2000
    (QCheck.make ~print:print_src gen_calls) parses_or_diagnoses

(* --- listener request lines ------------------------------------------------------ *)

let never_raises line =
  match Listener.parse_request line with
  | _ -> true

let request_words = [| "run"; "run "; "status"; "pi_mid(10)"; "\t"; "\\"; "\\n"; "\\t"; "\\x"; " "; "\r"; "program" |]

let gen_request =
  QCheck.Gen.(map (String.concat "") (list_size (int_range 0 10) (oneofa request_words)))

let prop_request_bytes =
  QCheck.Test.make ~name:"request: arbitrary bytes never raise" ~count:2000
    (QCheck.make ~print:print_src arbitrary_bytes) never_raises

let prop_request_words =
  QCheck.Test.make ~name:"request: random requests never raise" ~count:3000
    (QCheck.make ~print:print_src gen_request) never_raises

let suites =
  [
    ( "inputs.no_crash",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_script_bytes; prop_script_mutated; prop_script_words; prop_calls_bytes;
          prop_calls_mutated; prop_calls_words; prop_request_bytes; prop_request_words;
        ] );
  ]
