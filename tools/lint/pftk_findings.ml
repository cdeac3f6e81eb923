(* Shared plumbing for the rule engines of pftk-analyze (race, flow,
   units): the finding record and its renderings, the path-zone tests,
   the sink that collects findings under the scoped [@lint.allow "..."]
   escape hatch, canonical-name helpers for dune's wrapped-library
   mangling, the Typedtree helpers more than one engine needs, and
   .cmt/.cmti discovery and loading.  Each engine keeps only its rules. *)

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

(* --- Attributes and the findings sink --------------------------------------- *)

let string_payload (a : Parsetree.attribute) =
  match a.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let allows_of_attrs attrs =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.Location.txt <> "lint.allow" then []
      else
        match string_payload a with
        | Some s ->
            String.split_on_char ' ' s
            |> List.concat_map (String.split_on_char ',')
            |> List.filter (fun r -> r <> "")
        | None -> [])
    attrs

type sink = {
  allows : (string, int) Hashtbl.t;  (* rules in scope, counted *)
  mutable found : finding list;
  mutable quiet : bool;
}

let sink () = { allows = Hashtbl.create 4; found = []; quiet = false }

let push t attrs =
  let rules = allows_of_attrs attrs in
  List.iter
    (fun r ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.allows r) in
      Hashtbl.replace t.allows r (n + 1))
    rules;
  rules

let push_expr t (e : Typedtree.expression) =
  push t
    (e.exp_attributes
    @ List.concat_map (fun (_, _, attrs) -> attrs) e.exp_extra)

let pop t rules =
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.allows r with
      | Some n when n > 1 -> Hashtbl.replace t.allows r (n - 1)
      | Some _ -> Hashtbl.remove t.allows r
      | None -> ())
    rules

let report t ~file loc rule message =
  if not (t.quiet || Hashtbl.mem t.allows rule) then
    t.found <- finding_of_loc ~file loc rule message :: t.found

let quietly t f =
  t.quiet <- true;
  f ();
  t.quiet <- false

let findings t = List.sort_uniq compare_findings t.found

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

let path_key = function
  | Path.Pident id -> Ident.name id
  | p -> canonical (Path.name p)

let scoped_names ~scope base =
  let drop_last l = List.rev (List.tl (List.rev l)) in
  let rec go scope acc =
    let acc = String.concat "." (scope @ [ base ]) :: acc in
    match scope with [] -> acc | _ -> go (drop_last scope) acc
  in
  List.rev (go scope [])

(* --- Typedtree helpers ------------------------------------------------------ *)

open Typedtree

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> String.equal (Path.name p) "float"
  | _ -> false

let rec mentions_float ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> mentions_float a || mentions_float b
  | Types.Ttuple tys -> List.exists mentions_float tys
  | Types.Tpoly (t, _) -> mentions_float t
  | Types.Tconstr (p, args, _) ->
      (match String.concat "." (strip_stdlib (split_canonical (Path.name p)))
       with
      | "float" | "floatarray" | "Float.Array.t" -> true
      | _ -> false)
      || List.exists mentions_float args
  | _ -> false

let is_unchecked name =
  let suffix = "_unchecked" in
  let n = String.length name and s = String.length suffix in
  n >= s && String.equal (String.sub name (n - s) s) suffix

let is_guard_call e =
  match e.exp_desc with
  | Texp_apply (fn, _) -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> (
          match List.rev (split_canonical (Path.name p)) with
          | last :: _ ->
              String.equal last "validate"
              || (String.length last >= 5 && String.sub last 0 5 = "check")
          | [] -> false)
      | _ -> false)
  | _ -> false

let rec module_structure me =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> module_structure me
  | _ -> None

let rec iter_structure ?(value = fun ~scope:_ _ -> ())
    ?(types = fun ~scope:_ _ -> ()) ~scope (str : structure) =
  let sub mb =
    match (mb.mb_name.Location.txt, module_structure mb.mb_expr) with
    | Some name, Some s ->
        iter_structure ~value ~types ~scope:(scope @ [ name ]) s
    | _ -> ()
  in
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (value ~scope) vbs
      | Tstr_type (_, tds) -> List.iter (types ~scope) tds
      | Tstr_module mb -> sub mb
      | Tstr_recmodule mbs -> List.iter sub mbs
      | _ -> ())
    str.str_items

let rec iter_signature ?(value = fun ~scope:_ _ -> ())
    ?(types = fun ~scope:_ _ -> ()) ~scope (sg : signature) =
  List.iter
    (fun (item : signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> value ~scope vd
      | Tsig_type (_, tds) -> List.iter (types ~scope) tds
      | Tsig_module md -> (
          match (md.md_name.Location.txt, md.md_type.mty_desc) with
          | Some name, Tmty_signature s ->
              iter_signature ~value ~types ~scope:(scope @ [ name ]) s
          | _ -> ())
      | _ -> ())
    sg.sig_items

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
end
