(* Command-line front end: [pftk_race DIR...] runs the typed R1-R4
   analysis over every .cmt/.cmti under the given roots (default:
   lib bin examples). Roots are looked up both as given and under
   _build/default, so the tool works from the build context (the @race
   rule) and from the source root (developers). Prints
   findings as file:line:col [rule] message, or a JSON array with
   --format=json, and exits non-zero if any survive. *)

let () =
  Pftk_findings.run_cli ~tool:"pftk-race"
    ~default_roots:[ "lib"; "bin"; "examples" ]
    ~analyze:(fun roots ->
      let paths = Pftk_findings.expand_build_roots roots in
      match Pftk_race_engine.cmt_files paths with
      | [] ->
          Error
            (Printf.sprintf
               "no .cmt/.cmti files under %s (run `dune build @check` first)"
               (String.concat " " roots))
      | cmts ->
          Ok
            ( Pftk_race_engine.analyze_paths paths,
              Printf.sprintf "%d compilation units" (List.length cmts) ))
