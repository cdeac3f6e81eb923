(* Command-line front end: [pftk_lint DIR...] lints every .ml under the
   given roots (default: lib bin examples), prints findings as
   file:line:col [rule] message (or a JSON array with --format=json),
   and exits non-zero if any survive. *)

let () =
  Pftk_findings.run_cli ~tool:"pftk-lint"
    ~default_roots:[ "lib"; "bin"; "examples" ]
    ~analyze:(fun roots ->
      let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
      List.iter
        (Printf.eprintf "pftk-lint: warning: no such directory: %s\n")
        missing;
      let roots = List.filter Sys.file_exists roots in
      Ok (Pftk_lint_engine.lint_dirs roots, String.concat " " roots))
