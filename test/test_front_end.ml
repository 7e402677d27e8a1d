(* Golden pins for the porting pipeline's text layers and call
   summaries, and a crash-freedom property for the Fortran front end.

   The digests were taken before the scanner, lexer, printer and
   summary pass were rewritten for speed; every output must stay byte
   for byte what it was.  On a mismatch the test prints the text, to
   diff against the previous build's. *)

open Glaf_fortran
module Sarb_legacy = Glaf_workloads.Sarb_legacy
module Fun3d_legacy = Glaf_workloads.Fun3d_legacy
module Summary = Glaf_analysis.Summary
module Policy = Glaf_optimizer.Directive_policy

let pure = Glaf_runtime.Intrinsics.names ()
let md5 s = Digest.to_hex (Digest.string s)

let pin name expected text =
  let got = md5 text in
  if got <> expected then
    Alcotest.failf "%s: digest %s, pinned %s; output:\n%s" name got expected text

let fixtures = [ ("sarb", Sarb_legacy.full_source); ("fun3d", Fun3d_legacy.full_source) ]

(* --- print (parse fixture) --------------------------------------------- *)

let print_pins =
  [ ("sarb", "1b81c934d1e872d0bd6a4c2fbc6b6fd0"); ("fun3d", "447aa133c00f994eec3db41546ac25fe") ]

let test_print_pins () =
  List.iter
    (fun (name, src) ->
      pin ("print " ^ name) (List.assoc name print_pins)
        (Pp_ast.to_string (Parser.parse_string src)))
    fixtures

(* --- the three lifts of the porting deck -------------------------------- *)

let lift_pins =
  [
    ("sarb", "adjust2", "967d4fc28097bcda70705b893dbc5419");
    ("sarb", "longwave_entropy_model", "1c41435a5c8447faa82d17af68d96b9d");
    ("fun3d", "fun3d_rms", "e74b9d5d42e244dc023333f771598696");
  ]

let test_lift_pins () =
  List.iter
    (fun (fx, kernel, expected) ->
      let cu = Parser.parse_string (List.assoc fx fixtures) in
      pin ("lift " ^ kernel) expected (Glaf_lift.Lift_kernel.lift ~pure cu kernel).source)
    lift_pins

(* --- forward SARB V0-V3 -------------------------------------------------- *)

let forward_pins =
  [
    (Policy.V0, "f2f3364880e46b7d3289904e39309e51");
    (Policy.V1, "99b8e783de63d02a7365081c91c782a9");
    (Policy.V2, "4858d41482891078fb915233c26f2c9d");
    (Policy.V3, "34479c1ac2df3f8aecbdd489f28ceb44");
  ]

let test_forward_pins () =
  let program = Glaf_workloads.Sarb_glaf.program () in
  let annotated, _ = Glaf_analysis.Autopar.run ~pure program in
  List.iter
    (fun (policy, expected) ->
      let p = Policy.apply ~pure policy annotated in
      pin ("forward " ^ Policy.name policy) expected
        (Pp_ast.to_string (Glaf_codegen.Fortran_gen.gen_program p)))
    forward_pins

(* --- call summaries ----------------------------------------------------- *)

let summary_dump program =
  let tbl = Summary.of_program ~pure program in
  let ints l = String.concat "," (List.map string_of_int l) in
  let strs = String.concat "," in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (name, (s : Summary.t)) ->
         Printf.sprintf "%s: wp=[%s] rp=[%s] we=[%s] re=[%s] unknown=[%s]\n" name
           (ints s.writes_params) (ints s.reads_params) (strs s.writes_external)
           (strs s.reads_external) (strs s.calls_unknown))
  |> String.concat ""

(* every subprogram of a fixture that lowers, as {!Lift_kernel.lift}
   sees its callees *)
let lowered src =
  let functions, _skipped = Glaf_lift.Lower.lower_all (Parser.parse_string src) in
  Glaf_ir.Ir_module.program ~modules:[ Glaf_ir.Ir_module.make ~functions "m" ] "p"

let summary_pins =
  [
    ("sarb glaf", (fun () -> Glaf_workloads.Sarb_glaf.program ()),
      "dd1b8a33da1c733438842d40b8337efc");
    ("fun3d glaf best",
      (fun () -> Glaf_workloads.Fun3d_glaf.program ~opts:Glaf_workloads.Fun3d_glaf.best_options),
      "f84a2028718006832936ef811564c478");
    ("sarb fixture lowered", (fun () -> lowered Sarb_legacy.full_source),
      "213d726904d4e74630bbbafa046cad4c");
    ("fun3d fixture lowered", (fun () -> lowered Fun3d_legacy.full_source),
      "b7d85e6a0516de7bb33de705d240df39");
  ]

let test_summary_pins () =
  List.iter (fun (name, program, expected) -> pin ("summaries " ^ name) expected
    (summary_dump (program ()))) summary_pins

(* --- crash freedom ------------------------------------------------------ *)

(* The front end answers any text with a unit or [Parse_error]. *)
let parses_or_diagnoses src =
  match Parser.parse_string src with
  | _ -> true
  | exception Parser.Parse_error _ -> true

let print_src s = Printf.sprintf "%S" s

let prop_arbitrary_bytes =
  QCheck.Test.make ~name:"arbitrary bytes parse or raise Parse_error" ~count:2000
    (QCheck.make ~print:print_src QCheck.Gen.(string_size ~gen:char (int_range 0 300)))
    parses_or_diagnoses

(* A fixture with a few bytes replaced, inserted or deleted. *)
let gen_mutated =
  let open QCheck.Gen in
  let* src = oneofl (List.map snd fixtures) in
  let* edits = list_size (int_range 1 8) (triple (int_range 0 2) (int_bound 1_000_000) char) in
  return
    (List.fold_left
       (fun s (kind, pos, c) ->
         let n = String.length s in
         let i = if n = 0 then 0 else pos mod n in
         match kind with
         | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
         | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
         | _ when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
         | _ -> s)
       src edits)

let prop_mutated_fixtures =
  QCheck.Test.make ~name:"mutated fixtures parse or raise Parse_error" ~count:600
    (QCheck.make gen_mutated) parses_or_diagnoses

(* Statement lines of random Fortran words inside a subroutine, so the
   parser's declaration and statement paths see them, not only the
   program-unit dispatch. *)
let words =
  [|
    "integer"; "real"; "double"; "precision"; "logical"; "character"; "type"; "*"; "8";
    "("; ")"; ","; "::"; ":"; "="; "=>"; "%"; "/"; "+"; "-"; "**"; "//"; ".and."; ".not.";
    "x"; "i"; "1"; "1.5d0"; "'s'"; "kind"; "len"; "dimension"; "intent"; "in";
    "allocatable"; "parameter"; "common"; "use"; "only"; "implicit"; "none"; "external";
    "do"; "while"; "end"; "if"; "then"; "else"; "elseif"; "call"; "return"; "exit";
    "cycle"; "stop"; "allocate"; "deallocate"; "print"; "write"; "function";
    "subroutine"; "module"; "contains"; "!$omp"; "parallel"; "private"; "reduction";
    "max"; "schedule"; "static"; "dynamic"; "collapse"; "num_threads"; "critical";
    "atomic"; "barrier"; "&"; ";";
  |]

let gen_statements =
  let open QCheck.Gen in
  let line = map (String.concat " ") (list_size (int_range 1 8) (oneofa words)) in
  let* body = list_size (int_range 1 10) line in
  let* in_module = bool in
  let sub = "subroutine s(x)\n" ^ String.concat "\n" body ^ "\nend subroutine s\n" in
  return (if in_module then "module m\ncontains\n" ^ sub ^ "end module m\n" else sub)

let prop_random_statements =
  QCheck.Test.make ~name:"random statements parse or raise Parse_error" ~count:3000
    (QCheck.make ~print:print_src gen_statements) parses_or_diagnoses

(* A kind marker with nothing after it once read past the line's last
   token. *)
let test_truncated_kind () =
  List.iter
    (fun decl ->
      match Parser.parse_string ("subroutine f\n" ^ decl ^ "\nend subroutine\n") with
      | _ -> Alcotest.failf "%S parsed" decl
      | exception Parser.Parse_error (2, _) -> ())
    [ "integer*"; "real*"; "character*" ]

let suites =
  [
    ( "front_end.pins",
      [
        Alcotest.test_case "print of both fixtures" `Quick test_print_pins;
        Alcotest.test_case "lifted kernels" `Quick test_lift_pins;
        Alcotest.test_case "forward sarb v0-v3" `Quick test_forward_pins;
        Alcotest.test_case "call summaries" `Quick test_summary_pins;
      ] );
    ( "front_end.no_crash",
      [
        QCheck_alcotest.to_alcotest prop_arbitrary_bytes;
        QCheck_alcotest.to_alcotest prop_mutated_fixtures;
        QCheck_alcotest.to_alcotest prop_random_statements;
        Alcotest.test_case "truncated kind marker" `Quick test_truncated_kind;
      ] );
  ]
