(* Where the tests find the shipped examples and the CLI binary: from
   the test binary's own location, [<root>/_build/default/test], never
   from the working directory, so [dune runtest] (which runs the suite
   in that directory) and [dune exec test/test_main.exe] from any
   directory read the same files.  The examples are the copies dune
   makes for [dune runtest], or the source tree's when a plain build
   made none. *)

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

let examples =
  let copied = Filename.concat build_root "examples" in
  if Sys.file_exists (Filename.concat copied "scripts") then copied
  else Filename.concat (Filename.dirname (Filename.dirname build_root)) "examples"

let scripts = Filename.concat examples "scripts"
let fortran = Filename.concat examples "fortran"
let oglaf_exe = Filename.concat build_root "bin/oglaf.exe"
