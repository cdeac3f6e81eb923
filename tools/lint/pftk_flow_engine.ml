(* The flow rules of pftk-analyze: interprocedural contract analysis
   over the loaded .cmt units.  Where the race rules check properties
   one function at a time, this engine first builds a table of every
   toplevel binding in the run (pass 1), scans each body once for raise
   sites, callee references and NaN mentions (pass 1b), closes
   may-raise and returns-NaN over the cross-module call graph
   (fixpoints), then re-walks the bodies enforcing F1-F4 (pass 2).  See
   the .mli for the rule definitions. *)

open Typedtree
module F = Pftk_findings

let split_canonical = F.split_canonical
let strip_stdlib = F.strip_stdlib

let path_last p =
  match List.rev (strip_stdlib (split_canonical (Path.name p))) with
  | last :: _ -> last
  | [] -> ""

let has_zero_alloc attrs =
  List.exists
    (fun a -> a.Parsetree.attr_name.Location.txt = "pftk.zero_alloc")
    attrs

let raising_prims = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ]
let is_raising_prim p = List.mem (path_last p) raising_prims

let is_nan_ident p =
  match strip_stdlib (split_canonical (Path.name p)) with
  | [ "nan" ] | [ "Float"; "nan" ] -> true
  | _ -> false

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* --- Run state ------------------------------------------------------------- *)

type fn_info = {
  fn_name : string;  (* canonical dotted, scope included *)
  fn_scope : string list;  (* unit (and nested-module) prefix *)
  fn_file : string;
  fn_attrs : Parsetree.attributes;
  fn_zero_alloc : bool;
  fn_unchecked : bool;
  fn_expr : expression;
  mutable fn_refs : string list;  (* resolved callee names (pass 1b) *)
  mutable fn_direct_raise : bool;
  mutable fn_may_raise : bool;
  mutable fn_raise_via : string option;  (* callee the raise is reached through *)
  mutable fn_nan : bool;  (* mentions (or reaches) the NaN sentinel *)
}

type state = {
  fns : (string, fn_info) Hashtbl.t;
  mutable order : fn_info list;  (* registration order, for the fixpoints *)
  sink : F.sink;
}

(* A reference made inside [scope], resolved to a registered binding. *)
let resolve st ~scope p =
  List.find_map (Hashtbl.find_opt st.fns) (F.scoped_names ~scope (F.path_key p))

(* --- Pass 1: registration --------------------------------------------------- *)

let register_binding st ~file ~scope vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) ->
      let name = String.concat "." (scope @ [ Ident.name id ]) in
      let fn =
        {
          fn_name = name;
          fn_scope = scope;
          fn_file = file;
          fn_attrs = vb.vb_attributes;
          fn_zero_alloc = has_zero_alloc vb.vb_attributes;
          fn_unchecked = F.is_unchecked (Ident.name id);
          fn_expr = vb.vb_expr;
          fn_refs = [];
          fn_direct_raise = false;
          fn_may_raise = false;
          fn_raise_via = None;
          fn_nan = false;
        }
      in
      Hashtbl.replace st.fns name fn;
      st.order <- fn :: st.order
  | _ -> ()

(* --- Pass 1b: per-function scan ---------------------------------------------

   One walk per body collecting the raw material for the fixpoints:
   direct raise sites ([invalid_arg]/[failwith]/[raise]/[assert]),
   resolved callee references, and mentions of the NaN sentinel.
   Everything under [try ... with] is treated as handled locally and
   skipped (the handlers themselves are scanned). *)

let scan_fn st fn =
  let seen = Hashtbl.create 8 in
  let rec go e =
    match e.exp_desc with
    | Texp_try (_, handlers) ->
        List.iter (fun c -> go c.c_rhs) handlers
    | Texp_assert _ -> fn.fn_direct_raise <- true
    | Texp_ident (p, _, _) ->
        if is_raising_prim p then fn.fn_direct_raise <- true
        else if is_nan_ident p then fn.fn_nan <- true
        else (
          match resolve st ~scope:fn.fn_scope p with
          | Some callee when not (Hashtbl.mem seen callee.fn_name) ->
              Hashtbl.replace seen callee.fn_name ();
              fn.fn_refs <- callee.fn_name :: fn.fn_refs
          | _ -> ())
    | _ ->
        let super = Tast_iterator.default_iterator in
        let it = { super with expr = (fun _ e -> go e) } in
        super.expr it e
  in
  go fn.fn_expr

let fixpoints st =
  let fns = List.rev st.order in
  List.iter
    (fun fn -> if fn.fn_direct_raise then fn.fn_may_raise <- true)
    fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        if not fn.fn_may_raise then
          match
            List.find_opt
              (fun r ->
                match Hashtbl.find_opt st.fns r with
                | Some c -> c.fn_may_raise
                | None -> false)
              fn.fn_refs
          with
          | Some via ->
              fn.fn_may_raise <- true;
              fn.fn_raise_via <- Some via;
              changed := true
          | None -> ())
      fns
  done;
  changed := true;
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        if
          (not fn.fn_nan)
          && List.exists
               (fun r ->
                 match Hashtbl.find_opt st.fns r with
                 | Some c -> c.fn_nan
                 | None -> false)
               fn.fn_refs
        then begin
          fn.fn_nan <- true;
          changed := true
        end)
      fns
  done

(* --- Guard shapes (shared by F1) -------------------------------------------- *)

let rec is_raising e =
  match e.exp_desc with
  | Texp_apply (fn, _) -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> is_raising_prim p
      | _ -> false)
  | Texp_assert _ -> true
  | Texp_sequence (_, e2) -> is_raising e2
  | Texp_let (_, _, body) -> is_raising body
  | _ -> false

(* Does evaluating [e] establish "inputs are domain-checked"?  A
   [check*]/[validate] call, a conditional (or match) with a raising
   branch, a raising statement (everything after it is dead), or a
   sequence/let whose prefix contains one. *)
let rec establishes_guard e =
  F.is_guard_call e || is_raising e
  ||
  match e.exp_desc with
  | Texp_ifthenelse (_, th, el) ->
      is_raising th
      || (match el with Some el -> is_raising el | None -> false)
  | Texp_match (_, cases, _) -> List.exists (fun c -> is_raising c.c_rhs) cases
  | Texp_sequence (a, b) -> establishes_guard a || establishes_guard b
  | Texp_let (_, vbs, body) ->
      List.exists (fun vb -> establishes_guard vb.vb_expr) vbs
      || establishes_guard body
  | _ -> false

(* --- F1: guard domination for _unchecked call sites ------------------------- *)

let rec f1_walk st fn guarded e =
  let rs = F.push_expr st.sink e in
  (match e.exp_desc with
  | Texp_ident (p, _, _) when F.is_unchecked (Path.last p) ->
      if not guarded then
        F.report st.sink ~file:fn.fn_file e.exp_loc "F1"
          (Printf.sprintf
             "call site of '%s' in '%s' is not dominated by a domain guard \
              (expected a check*/validate call or a raising conditional \
              earlier in the function, or an *_unchecked caller name \
              propagating the contract)"
             (Path.last p) fn.fn_name)
  | _ -> ());
  (match e.exp_desc with
  | Texp_sequence (a, b) ->
      f1_walk st fn guarded a;
      f1_walk st fn (guarded || establishes_guard a) b
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          let vrs = F.push st.sink vb.vb_attributes in
          let exempt =
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> F.is_unchecked (Ident.name id)
            | _ -> false
          in
          f1_walk st fn (guarded || exempt) vb.vb_expr;
          F.pop st.sink vrs)
        vbs;
      f1_walk st fn
        (guarded || List.exists (fun vb -> establishes_guard vb.vb_expr) vbs)
        body
  | Texp_ifthenelse (c, th, el) ->
      f1_walk st fn guarded c;
      let el_raises =
        match el with Some el -> is_raising el | None -> false
      in
      f1_walk st fn (guarded || el_raises) th;
      (match el with
      | Some el -> f1_walk st fn (guarded || is_raising th) el
      | None -> ())
  | Texp_match (scrut, cases, _) ->
      f1_walk st fn guarded scrut;
      let some_raising = List.exists (fun c -> is_raising c.c_rhs) cases in
      List.iter
        (fun c -> f1_walk st fn (guarded || some_raising) c.c_rhs)
        cases
  | _ ->
      let super = Tast_iterator.default_iterator in
      let it = { super with expr = (fun _ e -> f1_walk st fn guarded e) } in
      super.expr it e);
  F.pop st.sink rs

(* --- F2: allocation-freedom of [@pftk.zero_alloc] bodies -------------------- *)

(* The parameter spine itself (the nested single-case [fun] levels) is
   the function's closure, built once at definition time — only the
   body proper must be allocation-free. *)
let rec f2_spine st fn e =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when Option.is_none c.c_guard ->
      f2_spine st fn c.c_rhs
  | _ -> f2_walk st fn e

and f2_walk st fn e =
  let rs = F.push_expr st.sink e in
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        F.report st.sink ~file:fn.fn_file e.exp_loc "F2"
          (Printf.sprintf "[@pftk.zero_alloc] '%s': %s" fn.fn_name msg))
      fmt
  in
  let children () =
    let super = Tast_iterator.default_iterator in
    let it = { super with expr = (fun _ e -> f2_walk st fn e) } in
    super.expr it e
  in
  (match e.exp_desc with
  | Texp_function _ ->
      bad "closure construction allocates";
      children ()
  | Texp_tuple _ ->
      bad "tuple literal allocates";
      children ()
  | Texp_record _ ->
      bad "record literal allocates";
      children ()
  | Texp_array (_ :: _) ->
      bad "array literal allocates";
      children ()
  | Texp_construct (_, _, _ :: _) ->
      bad "constructor application allocates";
      children ()
  | Texp_variant (_, Some _) ->
      bad "polymorphic-variant construction allocates";
      children ()
  | Texp_lazy _ ->
      bad "lazy construction allocates";
      children ()
  | Texp_setfield (_, _, lbl, _) ->
      (if F.is_float lbl.Types.lbl_arg then
         match lbl.Types.lbl_repres with
         | Types.Record_float | Types.Record_unboxed _ -> ()
         | Types.Record_regular | Types.Record_inlined _
         | Types.Record_extension _ ->
             bad
               "store to float field '%s' of a mixed record boxes the float \
                (one allocation per store; use a float-only record or \
                Float.Array)"
               lbl.Types.lbl_name);
      children ()
  | Texp_apply (callee, args) ->
      (if is_arrow e.exp_type then
         bad "partial application allocates a closure");
      (match callee.exp_desc with
      | Texp_ident (p, _, { Types.val_kind = Types.Val_prim prim; _ }) ->
          let name = prim.Primitive.prim_name in
          let compiler_intrinsic =
            String.length name > 0 && name.[0] = '%'
            && not (String.equal name "%makemutable")
          in
          if not (compiler_intrinsic || not prim.Primitive.prim_alloc) then
            bad "call to allocating external '%s'" (Path.name p)
      | Texp_ident (p, _, _) -> (
          match resolve st ~scope:fn.fn_scope p with
          | Some c when c.fn_zero_alloc -> ()
          | Some c -> bad "calls '%s', which is not [@pftk.zero_alloc]" c.fn_name
          | None ->
              bad
                "calls un-analyzed function '%s' (only [%%...]/[@@noalloc] \
                 externals and [@pftk.zero_alloc] functions are \
                 allocation-free by contract)"
                (Path.name p))
      | _ ->
          bad "call through a computed function";
          f2_walk st fn callee);
      List.iter
        (fun (_, arg) ->
          match arg with Some a -> f2_walk st fn a | None -> ())
        args
  | _ -> children ());
  F.pop st.sink rs

(* --- F3: exception escape from contract bodies ------------------------------- *)

let contract_of fn =
  if fn.fn_zero_alloc && fn.fn_unchecked then "[@pftk.zero_alloc], *_unchecked"
  else if fn.fn_zero_alloc then "[@pftk.zero_alloc]"
  else "*_unchecked"

let raise_why st name =
  match Hashtbl.find_opt st.fns name with
  | Some c when c.fn_direct_raise -> "it raises directly"
  | Some { fn_raise_via = Some via; _ } ->
      Printf.sprintf "it reaches a raise via '%s'" via
  | _ -> "it can raise"

let rec f3_walk st fn e =
  let rs = F.push_expr st.sink e in
  (match e.exp_desc with
  | Texp_try (_, handlers) ->
      (* The body's exceptions are handled right here; only the
         handlers can let one escape. *)
      List.iter (fun c -> f3_walk st fn c.c_rhs) handlers
  | Texp_assert (cond, _) ->
      F.report st.sink ~file:fn.fn_file e.exp_loc "F3"
        (Printf.sprintf
           "assert inside '%s' (%s) can raise Assert_failure; kernels signal \
            via the NaN sentinel, never exceptions"
           fn.fn_name (contract_of fn));
      f3_walk st fn cond
  | Texp_ident (p, _, _) ->
      if is_raising_prim p then
        F.report st.sink ~file:fn.fn_file e.exp_loc "F3"
          (Printf.sprintf
             "'%s' inside '%s' (%s); kernels signal via the NaN sentinel, \
              never exceptions"
             (path_last p) fn.fn_name (contract_of fn))
      else (
        match resolve st ~scope:fn.fn_scope p with
        | Some c when c.fn_may_raise && not (String.equal c.fn_name fn.fn_name)
          ->
            F.report st.sink ~file:fn.fn_file e.exp_loc "F3"
              (Printf.sprintf
                 "'%s' (%s) calls '%s', which can raise (%s); kernels signal \
                  via the NaN sentinel, never exceptions"
                 fn.fn_name (contract_of fn) c.fn_name
                 (raise_why st c.fn_name))
        | _ -> ())
  | _ ->
      let super = Tast_iterator.default_iterator in
      let it = { super with expr = (fun _ e -> f3_walk st fn e) } in
      super.expr it e);
  F.pop st.sink rs

(* --- F4: NaN sentinel documented in the interface ---------------------------- *)

let doc_of_attrs attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.Location.txt with
      | "ocaml.doc" | "doc" | "ocaml.text" -> F.string_payload a
      | _ -> None)
    attrs
  |> String.concat "\n"

(* A float (or float array) must be spelled somewhere in the arrow's own
   type expression; reports, case records and other opaque constructors
   do not count even if NaN-carrying floats hide inside them — F4 audits
   the sentinel discipline of numeric APIs, not data plumbing. *)
let f4_value st ~file ~scope vd =
  let rs = F.push st.sink vd.val_attributes in
  let name = String.concat "." (scope @ [ Ident.name vd.val_id ]) in
  (match Hashtbl.find_opt st.fns name with
  | Some fn
    when fn.fn_nan
         && is_arrow vd.val_val.Types.val_type
         && F.mentions_float vd.val_val.Types.val_type
         && not (F.contains_sub (doc_of_attrs vd.val_attributes) "NaN") ->
      F.report st.sink ~file vd.val_loc "F4"
        (Printf.sprintf
           "'%s' can return the NaN sentinel but its interface doc does not \
            say \"NaN\"; document the sentinel so callers know rejection is \
            in-band"
           (Ident.name vd.val_id))
  | _ -> ());
  F.pop st.sink rs

(* --- Driver ------------------------------------------------------------------ *)

let analyze units =
  let st = { fns = Hashtbl.create 512; order = []; sink = F.sink () } in
  List.iter
    (fun (u : F.Cmt.unit_info) ->
      match u.u_annots with
      | Cmt_format.Implementation str ->
          F.iter_structure ~scope:[ u.u_name ]
            ~value:(register_binding st ~file:u.u_src)
            str
      | _ -> ())
    units;
  let fns = List.rev st.order in
  List.iter (scan_fn st) fns;
  fixpoints st;
  List.iter
    (fun fn ->
      let rs = F.push st.sink fn.fn_attrs in
      if not fn.fn_unchecked then f1_walk st fn false fn.fn_expr;
      if fn.fn_zero_alloc then f2_spine st fn fn.fn_expr;
      if fn.fn_zero_alloc || fn.fn_unchecked then f3_walk st fn fn.fn_expr;
      F.pop st.sink rs)
    fns;
  List.iter
    (fun (u : F.Cmt.unit_info) ->
      match u.u_annots with
      | Cmt_format.Interface sg when F.under ~root:"lib" u.u_src ->
          F.iter_signature ~scope:[ u.u_name ] ~value:(f4_value st ~file:u.u_src)
            sg
      | _ -> ())
    units;
  F.findings st.sink
