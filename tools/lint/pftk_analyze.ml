(* Command-line front end: [pftk_analyze DIR...] loads every .cmt/.cmti
   under the given roots (default: lib bin examples) once and runs the
   race rules (R1-R4, L2, L3, L5), the flow rules (F1-F4) and the units
   rules (U1-U4) over the loaded units.  Each root is looked up both as
   given and under _build/default, so the tool works from the build
   context (the @analyze rule) and from the source root.  Prints
   findings as file:line:col [rule] message, or JSON/SARIF with
   --format=json/sarif; exits 0 when clean, 1 on findings, and 2 on a
   bad option, a root found in neither place, or roots holding no
   .cmt/.cmti file. *)

module F = Pftk_findings

let tool = "pftk-analyze"

let fail message =
  Printf.eprintf "%s: %s\n" tool message;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_option a = String.length a >= 2 && String.sub a 0 2 = "--" in
  let options, roots = List.partition is_option args in
  List.iter
    (fun a ->
      if not (List.mem a [ "--format=json"; "--format=sarif"; "--format=text" ])
      then fail ("unknown option " ^ a))
    options;
  let roots = if roots = [] then [ "lib"; "bin"; "examples" ] else roots in
  let paths =
    List.concat_map
      (fun r ->
        let built = Filename.concat (Filename.concat "_build" "default") r in
        match List.filter Sys.file_exists [ r; built ] with
        | [] -> fail ("no such directory: " ^ r)
        | found -> found)
      roots
  in
  let files = F.Cmt.files paths in
  if files = [] then
    fail
      (Printf.sprintf
         "no .cmt/.cmti files under %s (run `dune build @check` first)"
         (String.concat " " roots));
  let units = List.filter_map F.Cmt.load files in
  let findings =
    List.sort F.compare_findings
      (Pftk_race_engine.analyze units
      @ Pftk_flow_engine.analyze units
      @ Pftk_units_engine.analyze units)
  in
  if List.mem "--format=sarif" options then
    Format.printf "%a@." (F.pp_findings_sarif ~tool) findings
  else if List.mem "--format=json" options then
    Format.printf "%a@." F.pp_findings_json findings
  else List.iter (Format.printf "%a@." F.pp_finding) findings;
  match findings with
  | [] ->
      Printf.eprintf "%s: clean (%d compilation units)\n" tool
        (List.length files);
      exit 0
  | _ :: _ ->
      Printf.eprintf "%s: %d finding(s)\n" tool (List.length findings);
      exit 1
