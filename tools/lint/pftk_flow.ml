(* Command-line front end: [pftk_flow DIR...] runs the interprocedural
   F1-F4 analysis over every .cmt/.cmti under the given roots (default:
   lib bin examples), looked up both as given and under _build/default.
   Prints findings as file:line:col [rule] message, or JSON/SARIF with
   --format=json/sarif, and exits non-zero if any survive. *)

let () =
  Pftk_findings.run_cli ~tool:"pftk-flow"
    ~analyze:Pftk_flow_engine.analyze_paths
