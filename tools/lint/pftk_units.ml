(* Command-line front end: [pftk_units DIR...] runs the dimensional
   analysis (rules U1-U4) over every .cmt/.cmti under the given roots
   (default: lib bin examples). Roots are looked up both as given and
   under _build/default, so the tool works from the build context (the
   @units rule) and from the source root (developers). Prints findings
   as file:line:col [rule] message, a JSON array with --format=json, or
   SARIF with --format=sarif, and exits non-zero if any survive. *)

let () =
  Pftk_findings.run_cli ~tool:"pftk-units"
    ~default_roots:[ "lib"; "bin"; "examples" ]
    ~analyze:(fun roots ->
      let paths = Pftk_findings.expand_build_roots roots in
      match Pftk_units_engine.cmt_files paths with
      | [] ->
          Error
            (Printf.sprintf
               "no .cmt/.cmti files under %s (run `dune build @check` first)"
               (String.concat " " roots))
      | cmts ->
          Ok
            ( Pftk_units_engine.analyze_paths paths,
              Printf.sprintf "%d compilation units" (List.length cmts) ))
