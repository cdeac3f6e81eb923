(* Shared plumbing for the in-repo analyzers (pftk-race, pftk-flow,
   pftk-units): the finding record and its renderings, the path-zone
   tests, the scoped [@lint.allow "..."] escape hatch, canonical-name
   helpers for dune's wrapped-library mangling, .cmt/.cmti discovery and
   loading, and the common CLI protocol (argument parsing, root lookup,
   --format=json/sarif, exit codes). Each engine keeps only its rules. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.message

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_findings_json ppf fs =
  Format.fprintf ppf "[";
  List.iteri
    (fun i f ->
      Format.fprintf ppf "%s@\n  " (if i = 0 then "" else ",");
      Format.fprintf ppf
        {|{"file":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
        (json_escape f.file) f.line f.col (json_escape f.rule)
        (json_escape f.message))
    fs;
  Format.fprintf ppf "%s]" (if fs = [] then "" else "\n")

(* SARIF 2.1.0: the minimal static-analysis interchange shape GitHub
   code scanning and most editors ingest — one run, one driver, one
   rule descriptor per distinct rule id, one result per finding.
   Columns are 1-based in SARIF where the compiler convention (and our
   text/JSON output) is 0-based, hence [col + 1]. *)
let pp_findings_sarif ~tool ppf fs =
  let rules =
    List.sort_uniq String.compare (List.map (fun f -> f.rule) fs)
  in
  Format.fprintf ppf "{@\n";
  Format.fprintf ppf
    {|  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",|};
  Format.fprintf ppf "@\n  \"version\": \"2.1.0\",@\n  \"runs\": [@\n";
  Format.fprintf ppf "    {@\n      \"tool\": {@\n        \"driver\": {@\n";
  Format.fprintf ppf "          \"name\": \"%s\",@\n" (json_escape tool);
  Format.fprintf ppf "          \"rules\": [";
  List.iteri
    (fun i r ->
      Format.fprintf ppf "%s{\"id\": \"%s\"}"
        (if i = 0 then "" else ", ")
        (json_escape r))
    rules;
  Format.fprintf ppf "]@\n        }@\n      },@\n      \"results\": [";
  List.iteri
    (fun i f ->
      Format.fprintf ppf "%s@\n        " (if i = 0 then "" else ",");
      Format.fprintf ppf
        {|{"ruleId": "%s", "level": "error", "message": {"text": "%s"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "%s"}, "region": {"startLine": %d, "startColumn": %d}}}]}|}
        (json_escape f.rule) (json_escape f.message) (json_escape f.file)
        f.line (f.col + 1))
    fs;
  Format.fprintf ppf "%s]@\n    }@\n  ]@\n}"
    (if fs = [] then "" else "\n      ")

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let finding_of_loc ~file (loc : Location.t) rule message =
  let p = loc.Location.loc_start in
  {
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    message;
  }

(* --- Path zones ----------------------------------------------------------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let under ~root path =
  let path = normalize path in
  String.length path > String.length root
  && (String.sub path 0 (String.length root + 1) = root ^ "/"
     || contains_sub path ("/" ^ root ^ "/"))

(* --- [@lint.allow "..."] -------------------------------------------------- *)

let allows_of_attrs attrs =
  List.concat_map
    (fun a ->
      if a.Parsetree.attr_name.Location.txt <> "lint.allow" then []
      else
        match a.Parsetree.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc = Pexp_constant (Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            String.split_on_char ' ' s
            |> List.concat_map (String.split_on_char ',')
            |> List.filter (fun r -> r <> "")
        | _ -> [])
    attrs

module Allow = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 4

  let push t attrs =
    let rules = allows_of_attrs attrs in
    List.iter
      (fun r ->
        let n = Option.value ~default:0 (Hashtbl.find_opt t r) in
        Hashtbl.replace t r (n + 1))
      rules;
    rules

  let push_expr t (e : Typedtree.expression) =
    push t
      (e.exp_attributes
      @ List.concat_map (fun (_, _, attrs) -> attrs) e.exp_extra)

  let pop t rules =
    List.iter
      (fun r ->
        match Hashtbl.find_opt t r with
        | Some n when n > 1 -> Hashtbl.replace t r (n - 1)
        | Some _ -> Hashtbl.remove t r
        | None -> ())
      rules

  let active t rule = Hashtbl.mem t rule
end

(* --- Canonical names ------------------------------------------------------- *)

let canonical name =
  let n = String.length name in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

let split_canonical name = String.split_on_char '.' (canonical name)

let strip_stdlib = function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | parts -> parts

(* --- .cmt / .cmti loading -------------------------------------------------- *)

module Cmt = struct
  type unit_info = {
    u_name : string;
    u_src : string;
    u_annots : Cmt_format.binary_annots;
  }

  let rec collect acc path =
    match Sys.is_directory path with
    | exception Sys_error _ -> acc
    | true ->
        (* Walk dot-directories too: dune keeps objects in [.objs]. *)
        Array.fold_left
          (fun acc entry -> collect acc (Filename.concat path entry))
          acc (Sys.readdir path)
    | false ->
        if
          Filename.check_suffix path ".cmt"
          || Filename.check_suffix path ".cmti"
        then path :: acc
        else acc

  let files paths =
    List.sort_uniq String.compare
      (List.fold_left
         (fun acc p -> if Sys.file_exists p then collect acc p else acc)
         [] paths)

  let load path =
    match Cmt_format.read_cmt path with
    | exception _ -> None
    | cmt ->
        let src =
          match cmt.Cmt_format.cmt_sourcefile with Some s -> s | None -> path
        in
        Some
          {
            u_name = canonical cmt.Cmt_format.cmt_modname;
            u_src = src;
            u_annots = cmt.Cmt_format.cmt_annots;
          }

  let load_all paths = List.filter_map load (files paths)
end

(* --- CLI protocol ---------------------------------------------------------- *)

let run_cli ~tool ~analyze =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--format=json" args in
  let sarif = List.mem "--format=sarif" args in
  let fail message =
    Printf.eprintf "%s: %s\n" tool message;
    exit 2
  in
  List.iter
    (fun a ->
      if
        String.length a >= 2
        && String.sub a 0 2 = "--"
        && a <> "--format=json" && a <> "--format=sarif"
        && a <> "--format=text"
      then fail ("unknown option " ^ a))
    args;
  let roots =
    match
      List.filter
        (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--"))
        args
    with
    | [] -> [ "lib"; "bin"; "examples" ]
    | roots -> roots
  in
  let paths =
    List.concat_map
      (fun r ->
        let built = Filename.concat (Filename.concat "_build" "default") r in
        match List.filter Sys.file_exists [ r; built ] with
        | [] -> fail ("no such directory: " ^ r)
        | found -> found)
      roots
  in
  let units = List.length (Cmt.files paths) in
  if units = 0 then
    fail
      (Printf.sprintf
         "no .cmt/.cmti files under %s (run `dune build @check` first)"
         (String.concat " " roots));
  let findings = analyze paths in
  if sarif then Format.printf "%a@." (pp_findings_sarif ~tool) findings
  else if json then Format.printf "%a@." pp_findings_json findings
  else List.iter (Format.printf "%a@." pp_finding) findings;
  match findings with
  | [] ->
      Printf.eprintf "%s: clean (%d compilation units)\n" tool units;
      exit 0
  | _ :: _ ->
      Printf.eprintf "%s: %d finding(s)\n" tool (List.length findings);
      exit 1
