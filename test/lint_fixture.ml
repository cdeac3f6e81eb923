(* Fixture plumbing shared by test_race, test_flow and test_units: a
   throwaway root laid out like the workspace, fixtures compiled there
   to .cmt/.cmti with the toolchain's own ocamlc (-bin-annot), a rule
   engine run over the loaded units, and the pftk_analyze CLI run with
   its stdout and stderr captured apart. *)

module F = Pftk_findings

let case name f = Alcotest.test_case name `Quick f

let check_rules msg expected fs =
  Alcotest.(check (list string))
    msg expected
    (List.map (fun (f : F.finding) -> f.F.rule) fs)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The compiler that built us: Config.standard_library is
   <prefix>/lib/ocaml, so ocamlc lives two levels up in <prefix>/bin;
   fall back to PATH lookup for unusual layouts. *)
let ocamlc =
  lazy
    (let prefix =
       Filename.dirname (Filename.dirname Config.standard_library)
     in
     let candidate =
       Filename.concat (Filename.concat prefix "bin") "ocamlc"
     in
     if Sys.file_exists candidate then candidate else "ocamlc")

let fresh_root () =
  let root = Filename.temp_file "pftk_analyze" "" in
  Sys.remove root;
  mkdir_p root;
  root

(* Write each (relative path, contents) fixture under [root] and compile
   it from [root] so the recorded source file stays workspace-relative
   ("lib/core/fixture.ml"), which is what the zone rules key on.  A
   fixture sees the ones listed before it in its directory (so list an
   .mli before its .ml), and Unix. *)
let compile_fixtures root fixtures =
  List.iter
    (fun (rel, contents) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    fixtures;
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  let failed =
    List.exists
      (fun (rel, _) ->
        Sys.command
          (Filename.quote_command (Lazy.force ocamlc)
             [
               "-bin-annot"; "-w"; "-a"; "-I"; "+unix"; "-I";
               Filename.dirname rel; "-c"; rel;
             ])
        <> 0)
      fixtures
  in
  Sys.chdir cwd;
  if failed then Alcotest.fail "fixture did not compile"

(* [run engine fixtures]: the engine's findings over the fixtures,
   compiled in a fresh root. *)
let run engine fixtures =
  let root = fresh_root () in
  compile_fixtures root fixtures;
  engine (List.filter_map F.Cmt.load (F.Cmt.files [ root ]))

(* The test binaries run from _build/default/test, so the CLI (a
   declared dune dependency) sits next door under tools/lint. *)
let cli = Filename.concat ".." (Filename.concat "tools/lint" "pftk_analyze.exe")

(* stdout (findings) and stderr (the clean/summary line, usage errors)
   are captured separately: the JSON and SARIF checks must see the
   payload alone. *)
let run_cli args =
  let out = Filename.temp_file "pftk_analyze_cli" ".out" in
  let err = Filename.temp_file "pftk_analyze_cli" ".err" in
  let status =
    Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:err)
  in
  let slurp path =
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    text
  in
  (status, slurp out, slurp err)
