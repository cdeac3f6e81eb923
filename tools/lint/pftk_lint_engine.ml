(* AST-level lint pass over the pftk tree, built on the compiler's own
   parser (compiler-libs.common) so it needs no new dependencies and
   never disagrees with the compiler about what the source means.

   The rules (L1-L5, see the .mli) are all syntactic: they run on the
   Parsetree, before typing, so e.g. L1 flags every use of the
   polymorphic [=] in model code even when it would specialize to [int]
   -- the point is that model arithmetic spells its comparators out. *)

open Parsetree

(* The finding record, its renderings, the path-zone tests and the
   [@lint.allow] machinery are shared by all three analyzers; see
   pftk_findings.mli.  Re-exported here so existing consumers (the
   tests) keep their spelling. *)
type finding = Pftk_findings.finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let pp_finding = Pftk_findings.pp_finding
let pp_findings_json = Pftk_findings.pp_findings_json
let compare_findings = Pftk_findings.compare_findings
let normalize = Pftk_findings.normalize
let under = Pftk_findings.under

let in_lib path = under ~root:"lib" path

let in_core_or_stats path =
  under ~root:"lib/core" path || under ~root:"lib/stats" path

(* --- Longident helpers ---------------------------------------------------- *)

(* Flatten, dropping functor applications, then strip an explicit
   [Stdlib.] prefix so [Stdlib.compare] and [compare] look alike. *)
let ident_parts lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply (l, _) -> go acc l
  in
  match go [] lid with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | parts -> parts

let is_poly_compare = function
  | "=" | "<>" | "compare" | "min" | "max" -> true
  | _ -> false

let allows_of_attrs = Pftk_findings.allows_of_attrs

(* --- Per-file context ----------------------------------------------------- *)

type ctx = {
  path : string;
  findings : finding list ref;
  allowed : Pftk_findings.Allow.t;  (* active [@lint.allow] rules *)
  local_defs : (string, unit) Hashtbl.t;  (* toplevel lets in this unit *)
  local_mutable : (string, unit) Hashtbl.t;  (* mutable fields, this unit *)
  qualified_mutable : (string * string, unit) Hashtbl.t;
      (* (Module, field) pairs known mutable, across the whole run *)
  eager : bool ref;
      (* inside code evaluated at module-init time (toplevel, outside
         any function body): where L3 creation of mutable state races *)
}

let push_allows ctx attrs = Pftk_findings.Allow.push ctx.allowed attrs
let pop_allows ctx rules = Pftk_findings.Allow.pop ctx.allowed rules

let report ctx (loc : Location.t) rule message =
  if not (Pftk_findings.Allow.active ctx.allowed rule) then
    ctx.findings :=
      Pftk_findings.finding_of_loc ~file:ctx.path loc rule message
      :: !(ctx.findings)

(* --- Pre-scans ------------------------------------------------------------ *)

let iter_pattern_vars f p =
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var s -> f s.txt
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p

(* Names bound by toplevel [let]s of this unit: a bare [min] after
   [let min a = ...] refers to the local, monomorphic definition, so L1
   must not flag it. *)
let collect_local_defs structure =
  let defs = Hashtbl.create 16 in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb -> iter_pattern_vars (fun v -> Hashtbl.replace defs v ()) vb.pvb_pat)
            vbs
      | _ -> ())
    structure;
  defs

let collect_mutable_fields structure =
  let fields = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
              List.iter
                (fun ld ->
                  match ld.pld_mutable with
                  | Asttypes.Mutable -> Hashtbl.replace fields ld.pld_name.txt ()
                  | Asttypes.Immutable -> ())
                lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  fields

(* --- The checker ---------------------------------------------------------- *)

let check_ident ctx lid (loc : Location.t) =
  let lib = in_lib ctx.path in
  (match ident_parts lid with
  | [ n ] when is_poly_compare n && in_core_or_stats ctx.path ->
      (* Qualified [Stdlib.compare] is always polymorphic; a bare name
         may resolve to a local monomorphic definition. *)
      let shadowed =
        (match lid with Longident.Lident _ -> true | _ -> false)
        && Hashtbl.mem ctx.local_defs n
      in
      if not shadowed then
        report ctx loc "L1"
          (Printf.sprintf
             "polymorphic comparison `%s' in model code; use Float.equal, \
              Float.compare, Int.equal, ... (NaN and structural-equality \
              hazards)"
             n)
  | _ -> ());
  if lib then
    match ident_parts lid with
    | "Random" :: _ :: _ ->
        report ctx loc "L2"
          "Random.* in lib/; all randomness must flow through Pftk_stats.Rng \
           so parallel runs stay reproducible"
    | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
        report ctx loc "L2"
          "wall-clock reading in lib/; timing belongs in bin/ or perfbench/, \
           not in model or experiment code"
    | [ "Obj"; "magic" ] -> report ctx loc "L5" "Obj.magic defeats the type system"
    | [ "List"; "hd" ] ->
        report ctx loc "L5"
          "partial List.hd in lib/; match on the list (or use a non-empty \
           representation)"
    | [ "Option"; "get" ] ->
        report ctx loc "L5"
          "partial Option.get in lib/; match on the option or use \
           Option.value"
    | _ -> ()

let mutable_label ctx (lid : Longident.t Asttypes.loc) =
  match lid.txt with
  | Longident.Lident f when Hashtbl.mem ctx.local_mutable f -> Some f
  | Longident.Ldot (path, f) -> (
      match ident_parts (Longident.Ldot (path, f)) with
      | [ m; field ] when Hashtbl.mem ctx.qualified_mutable (m, field) ->
          Some (m ^ "." ^ field)
      | _ -> None)
  | _ -> None

let check_eager_expr ctx e =
  if in_lib ctx.path && !(ctx.eager) then
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, _) -> (
        match ident_parts lid.txt with
        | [ "ref" ] | [ "Hashtbl"; "create" ] | [ "Buffer"; "create" ] ->
            report ctx e.pexp_loc "L3"
              (Printf.sprintf
                 "`%s' at module toplevel creates shared mutable state; this \
                  races under Pftk_parallel domain fan-outs -- allocate it \
                  inside the function that uses it"
                 (String.concat "." (ident_parts lid.txt)))
        | _ -> ())
    | Pexp_record (fields, _) -> (
        match List.find_map (fun (l, _) -> mutable_label ctx l) fields with
        | Some f ->
            report ctx e.pexp_loc "L3"
              (Printf.sprintf
                 "record literal with mutable field `%s' at module toplevel \
                  is shared mutable state; it races under Pftk_parallel \
                  domain fan-outs"
                 f)
        | None -> ())
    | _ -> ()

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e') | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) ->
      is_function e'
  | _ -> false

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr it e =
    let pushed = push_allows ctx e.pexp_attributes in
    (match e.pexp_desc with
    | Pexp_ident lid -> check_ident ctx lid.txt lid.loc
    | _ -> ());
    check_eager_expr ctx e;
    (match e.pexp_desc with
    | (Pexp_fun _ | Pexp_function _) when !(ctx.eager) ->
        (* A function literal at toplevel delays evaluation of its body
           to call time: L3's init-time scan stops here. *)
        ctx.eager := false;
        default.expr it e;
        ctx.eager := true
    | _ -> default.expr it e);
    pop_allows ctx pushed
  in
  let value_binding it vb =
    let pushed = push_allows ctx vb.pvb_attributes in
    default.value_binding it vb;
    pop_allows ctx pushed
  in
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let pushed = push_allows ctx vb.pvb_attributes in
            it.Ast_iterator.pat it vb.pvb_pat;
            let saved = !(ctx.eager) in
            ctx.eager := not (is_function vb.pvb_expr);
            it.Ast_iterator.expr it vb.pvb_expr;
            ctx.eager := saved;
            pop_allows ctx pushed)
          vbs
    | Pstr_eval (e, attrs) ->
        let pushed = push_allows ctx attrs in
        let saved = !(ctx.eager) in
        ctx.eager := true;
        it.Ast_iterator.expr it e;
        ctx.eager := saved;
        pop_allows ctx pushed
    | _ -> default.structure_item it si
  in
  { default with expr; value_binding; structure_item }

(* --- Parsing -------------------------------------------------------------- *)

type parsed =
  | Ok_structure of structure
  | Failed of finding

let parse_string ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok_structure structure
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      let p = loc.loc_start in
      Failed
        {
          file = path;
          line = p.pos_lnum;
          col = p.pos_cnum - p.pos_bol;
          rule = "parse";
          message = "syntax error";
        }
  | exception exn ->
      Failed
        {
          file = path;
          line = 1;
          col = 0;
          rule = "parse";
          message = Printexc.to_string exn;
        }

let module_name_of_path path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let lint_structure ~path ~qualified_mutable structure =
  let ctx =
    {
      path = normalize path;
      findings = ref [];
      allowed = Pftk_findings.Allow.create ();
      local_defs = collect_local_defs structure;
      local_mutable = collect_mutable_fields structure;
      qualified_mutable;
      eager = ref false;
    }
  in
  let it = make_iterator ctx in
  it.Ast_iterator.structure it structure;
  !(ctx.findings)

let lint_source ~path source =
  match parse_string ~path source with
  | Failed f -> [ f ]
  | Ok_structure structure ->
      let qualified = Hashtbl.create 16 in
      Hashtbl.iter
        (fun field () ->
          Hashtbl.replace qualified (module_name_of_path path, field) ())
        (collect_mutable_fields structure);
      List.sort compare_findings (lint_structure ~path ~qualified_mutable:qualified structure)

(* --- Directory walk ------------------------------------------------------- *)

let rec walk_ml acc dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc entry ->
      if entry = "" || entry.[0] = '.' || entry = "_build" then acc
      else
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk_ml acc path
        else if Filename.check_suffix entry ".ml" then path :: acc
        else acc)
    acc entries

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_dirs roots =
  let files = List.rev (List.fold_left walk_ml [] roots) in
  let parsed =
    List.map (fun path -> (path, parse_string ~path (read_file path))) files
  in
  (* Pass 1: mutable fields of every module in the run, so L3 catches
     toplevel [{ M.field = ... }] literals across module boundaries. *)
  let qualified_mutable = Hashtbl.create 64 in
  List.iter
    (fun (path, p) ->
      match p with
      | Failed _ -> ()
      | Ok_structure structure ->
          Hashtbl.iter
            (fun field () ->
              Hashtbl.replace qualified_mutable (module_name_of_path path, field) ())
            (collect_mutable_fields structure))
    parsed;
  (* Pass 2: rules L1-L3, L5 per file; L4 on the filesystem. *)
  let findings =
    List.concat_map
      (fun (path, p) ->
        let l4 =
          if in_lib path && not (Sys.file_exists (path ^ "i")) then
            [
              {
                file = normalize path;
                line = 1;
                col = 0;
                rule = "L4";
                message =
                  Printf.sprintf
                    "lib/ module without an interface; add %si to pin the \
                     public surface"
                    (Filename.basename path);
              };
            ]
          else []
        in
        match p with
        | Failed f -> f :: l4
        | Ok_structure structure ->
            lint_structure ~path ~qualified_mutable structure @ l4)
      parsed
  in
  List.sort compare_findings findings
