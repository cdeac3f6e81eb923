(* Command-line front end: [pftk_race DIR...] runs the typed analysis
   (R1-R4, L2, L3, L5) over every .cmt/.cmti under the given roots
   (default: lib bin examples), looked up both as given and under
   _build/default.  Prints findings as file:line:col [rule] message, or
   JSON/SARIF with --format=json/sarif, and exits non-zero if any
   survive. *)

let () =
  Pftk_findings.run_cli ~tool:"pftk-race"
    ~analyze:Pftk_race_engine.analyze_paths
