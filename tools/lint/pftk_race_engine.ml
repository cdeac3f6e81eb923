(* The race rules of pftk-analyze: typed analysis over the loaded
   .cmt/.cmti units.  Builds a cross-module table of type declarations
   (pass 1), then walks each Typedtree with [Tast_iterator] enforcing
   R1-R4, L2, L3 and L5 (pass 2). See the .mli for the rule
   definitions. *)

open Typedtree
module F = Pftk_findings

let split_canonical = F.split_canonical
let strip_stdlib = F.strip_stdlib

(* [Hashtbl.t] and [Stdlib.Hashtbl.t] as one spelling. *)
let head_of_path p =
  String.concat "." (strip_stdlib (split_canonical (Path.name p)))

let type_to_string ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "<type>"

(* --- Run state ------------------------------------------------------------- *)

type decl_info = {
  d_unit : string;  (* canonical unit the declaration lives in *)
  d_mutable : bool;  (* has a mutable (possibly inline) record field *)
  d_components : Types.type_expr list;  (* field/argument/manifest types *)
}

type state = {
  decls : (string, decl_info) Hashtbl.t;  (* canonical dotted name -> decl *)
  exported : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* canonical unit -> toplevel value names in its interface *)
  sink : F.sink;
}

(* --- Transitive mutability ------------------------------------------------- *)

let builtin_mutable =
  [
    "ref";
    "array";
    "bytes";
    "floatarray";
    "Bytes.t";
    "Hashtbl.t";
    "Buffer.t";
    "Queue.t";
    "Stack.t";
    "Atomic.t";
    "Mutex.t";
    "Condition.t";
    "Semaphore.Counting.t";
    "Semaphore.Binary.t";
    "Random.State.t";
    "Domain.t";
    "Weak.t";
  ]

let lookup_decl st ~unit head =
  let candidates = [ head; unit ^ "." ^ head ] in
  List.find_map
    (fun key ->
      match Hashtbl.find_opt st.decls key with
      | Some d -> Some (key, d)
      | None -> None)
    candidates

(* Conservative structural walk: arrows are opaque (a closure result is
   the closure author's problem, checked at its own capture site), type
   variables are immutable, known constructors recurse through their
   declaration (fields, constructor arguments, manifest) and their type
   arguments, unknown constructors through arguments only. *)
let rec type_mutable st ~unit visited ty =
  match Types.get_desc ty with
  | Types.Ttuple tys -> List.exists (type_mutable st ~unit visited) tys
  | Types.Tpoly (t, _) -> type_mutable st ~unit visited t
  | Types.Tconstr (p, args, _) ->
      let head = head_of_path p in
      List.mem head builtin_mutable
      || List.exists (type_mutable st ~unit visited) args
      || (match lookup_decl st ~unit head with
         | Some (key, d) when not (List.mem key visited) ->
             d.d_mutable
             || List.exists
                  (type_mutable st ~unit:d.d_unit (key :: visited))
                  d.d_components
         | _ -> false)
  | _ -> false

(* --- Pass 1: type declarations and exported names -------------------------- *)

let info_of_decl unit (td : Types.type_declaration) =
  let of_labels m0 cs0 lds =
    List.fold_left
      (fun (m, cs) (ld : Types.label_declaration) ->
        let m =
          m
          ||
          match ld.ld_mutable with
          | Asttypes.Mutable -> true
          | Asttypes.Immutable -> false
        in
        (m, ld.ld_type :: cs))
      (m0, cs0) lds
  in
  let m, comps =
    match td.type_kind with
    | Types.Type_record (lds, _) -> of_labels false [] lds
    | Types.Type_variant (cds, _) ->
        List.fold_left
          (fun (m, cs) (cd : Types.constructor_declaration) ->
            match cd.cd_args with
            | Types.Cstr_tuple tys -> (m, tys @ cs)
            | Types.Cstr_record lds -> of_labels m cs lds)
          (false, []) cds
    | Types.Type_abstract | Types.Type_open -> (false, [])
  in
  let comps =
    match td.type_manifest with Some t -> t :: comps | None -> comps
  in
  { d_unit = unit; d_mutable = m; d_components = comps }

(* Keyed by the declaration's dotted path, unit first. *)
let add_decl st unit ~scope (td : Typedtree.type_declaration) =
  let key = String.concat "." (scope @ [ Ident.name td.typ_id ]) in
  Hashtbl.replace st.decls key (info_of_decl unit td.typ_type)

let record_exports st unit (sg : signature) =
  let set = Hashtbl.create 16 in
  List.iter
    (fun (item : signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> Hashtbl.replace set (Ident.name vd.val_id) ()
      | _ -> ())
    sg.sig_items;
  Hashtbl.replace st.exported unit set

(* --- R1: mutable captures in worker closures ------------------------------- *)

(* The fan-out entry points. [map]/[mapi]/[init] must resolve through
   the Pftk_parallel wrapper.  Pftk_parallel has no pool (each call
   spawns its own helpers), so nothing in the tree calls a [submit];
   [Pool.submit] is matched on the [Pool] component alone, whatever
   the library prefix, so that a hand-rolled worker pool added anywhere
   is checked from its first task. *)
let trigger_of_callee fn =
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> (
      let parts = split_canonical (Path.name p) in
      match List.rev parts with
      | ("map" | "mapi" | "init") :: _ when List.mem "Pftk_parallel" parts ->
          Some (String.concat "." parts)
      | "submit" :: rest when List.mem "Pool" rest ->
          Some (String.concat "." parts)
      | _ -> None)
  | _ -> None

(* Free identifiers of [closure] whose type contains mutable structure:
   collect every locally bound ident (patterns, for-loop indices,
   function parameters) and every used [Pident], then keep the used \
   bound ones. Module-level values of other units are [Pdot] references
   — those are R2's territory. *)
let mutable_captures st ~unit closure =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let uses : (Ident.t * expression) list ref = ref [] in
  let add_id id = Hashtbl.replace bound (Ident.unique_name id) () in
  let binders : type k. k general_pattern -> unit =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> add_id id
    | Tpat_alias (_, id, _) -> add_id id
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let pat_it : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    binders p;
    super.pat it p
  in
  let expr_it it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> uses := (id, e) :: !uses
    | Texp_for (id, _, _, _, _, _) -> add_id id
    | Texp_function { param; _ } -> add_id param
    | _ -> ());
    super.expr it e
  in
  let it = { super with pat = pat_it; expr = expr_it } in
  it.expr it closure;
  let seen = Hashtbl.create 8 in
  List.rev !uses
  |> List.filter (fun (id, _) -> not (Hashtbl.mem bound (Ident.unique_name id)))
  |> List.filter (fun (id, _) ->
         if Hashtbl.mem seen (Ident.unique_name id) then false
         else begin
           Hashtbl.replace seen (Ident.unique_name id) ();
           true
         end)
  |> List.filter (fun (_, e) -> type_mutable st ~unit [] e.exp_type)

(* --- R3: polymorphic comparison, typed ------------------------------------- *)

(* An external value whose scheme is ['a -> 'a -> bool/int/'a] with both
   arguments the *same* type variable: [=], [<>], [==], [compare],
   [min], [max], and any alias or functor instance thereof. Local
   ([Pident]) definitions are the caller's own monomorphic helpers, and
   the four ordering operators are exempt (float ordering is idiomatic
   model code; aliasing an ordering operator under another name still
   trips the shape test at the alias site). *)
let is_poly_compare_use path (vd : Types.value_description) =
  (match path with Path.Pident _ -> false | _ -> true)
  && (match List.rev (split_canonical (Path.name path)) with
     | ("<" | ">" | "<=" | ">=") :: _ -> false
     | _ -> true)
  &&
  let is_tvar t =
    match Types.get_desc t with Types.Tvar _ -> true | _ -> false
  in
  match Types.get_desc vd.Types.val_type with
  | Types.Tarrow (Asttypes.Nolabel, a1, r1, _) -> (
      match Types.get_desc r1 with
      | Types.Tarrow (Asttypes.Nolabel, a2, r2, _) ->
          is_tvar a1 && is_tvar a2
          && Types.eq_type a1 a2
          && (match Types.get_desc r2 with
             | Types.Tconstr (p, [], _) -> (
                 match Path.name p with "bool" | "int" -> true | _ -> false)
             | Types.Tvar _ -> Types.eq_type r2 a1
             | _ -> false)
      | _ -> false)
  | _ -> false

(* --- R4: domain checks in lib/core entry points ---------------------------- *)

let watched_names = [ "p"; "rtt"; "t0" ]

(* Every [Pident] mentioned anywhere in [e]. *)
let idents_of e =
  let acc : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let super = Tast_iterator.default_iterator in
  let expr_it it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        Hashtbl.replace acc (Ident.unique_name id) ()
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr = expr_it } in
  it.expr it e;
  acc

let rec is_raising e =
  match e.exp_desc with
  | Texp_apply (fn, _) -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> (
          match List.rev (strip_stdlib (split_canonical (Path.name p))) with
          | ("invalid_arg" | "failwith" | "raise" | "raise_notrace") :: _ ->
              true
          | _ -> false)
      | _ -> false)
  | Texp_sequence (_, e2) -> is_raising e2
  | Texp_let (_, _, body) -> is_raising body
  | _ -> false

(* Shallow, function-local guard detection.  One walk follows the
   binding's spine — nested single-case [fun] levels (collecting watched
   float parameters named [p]/[rtt]/[t0], including those behind
   optional-argument wrappers), then the body's prefix of sequences,
   lets and raising conditionals.  A guard expression (a
   [check*]/[validate] call, or an [if] with a raising branch) protects
   every watched parameter it mentions — directly, or through a
   let-bound carrier built from watched parameters (so
   [let t = { rtt; t0; _ } in validate t] counts for [rtt] and [t0]). *)
let r4_binding st ~file name loc expr =
  let guarded : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let carriers : (string, Ident.t list) Hashtbl.t = Hashtbl.create 4 in
  let watched = ref [] in
  let watched_in e =
    let ids = idents_of e in
    let direct =
      List.filter (fun id -> Hashtbl.mem ids (Ident.unique_name id)) !watched
    in
    let via_carriers =
      Hashtbl.fold
        (fun c ws acc -> if Hashtbl.mem ids c then ws @ acc else acc)
        carriers []
    in
    direct @ via_carriers
  in
  let note e =
    let guards =
      F.is_guard_call e
      ||
      match e.exp_desc with
      | Texp_ifthenelse (_, th, el) ->
          is_raising th
          || (match el with Some el -> is_raising el | None -> false)
      | _ -> false
    in
    if guards then
      List.iter
        (fun id -> Hashtbl.replace guarded (Ident.unique_name id) ())
        (watched_in e)
  in
  let rec walk e =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } when Option.is_none c.c_guard ->
        (match c.c_lhs.pat_desc with
        | Tpat_var (id, _)
          when List.mem (Ident.name id) watched_names
               && F.is_float c.c_lhs.pat_type ->
            watched := !watched @ [ id ]
        | _ -> ());
        walk c.c_rhs
    | Texp_sequence (e1, e2) ->
        note e1;
        walk e2
    | Texp_let (_, vbs, bd) ->
        List.iter
          (fun vb ->
            note vb.vb_expr;
            match vb.vb_pat.pat_desc with
            | Tpat_var (cid, _) -> (
                match watched_in vb.vb_expr with
                | [] -> ()
                | ws -> Hashtbl.replace carriers (Ident.unique_name cid) ws)
            | _ -> ())
          vbs;
        walk bd
    | Texp_ifthenelse (_, th, el) -> (
        note e;
        match el with
        | Some el when is_raising th -> walk el
        | Some el when is_raising el -> walk th
        | _ -> ())
    | _ -> note e
  in
  walk expr;
  List.iter
    (fun id ->
      if not (Hashtbl.mem guarded (Ident.unique_name id)) then
        F.report st.sink ~file loc "R4"
          (Printf.sprintf
             "entry point '%s' does not domain-check parameter '%s' before \
              first use (expected a check_p/validate call or an invalid_arg \
              guard in the function prefix)"
             name (Ident.name id)))
    !watched

(* Toplevel bindings are filtered against the unit's interface; bindings
   in nested modules (e.g. Tfrc.Controller) are all analyzed — the
   interface filter does not reach through module signatures, and a
   spurious hit on an internal helper costs one cheap guard.  A binding
   whose name ends in [_unchecked] declares "my caller has already
   domain-checked these inputs" — the batch kernels hoist the scan out
   of their inner loops and then call these.  R4 exempts them by name;
   everything else keeps its guard.  The contract is enforced elsewhere
   (F1 at the call sites, selfcheck C11 bit-for-bit on scanned
   columns). *)
let r4_structure st ~file is_exported (str : structure) =
  F.iter_structure ~scope:[] str ~value:(fun ~scope vb ->
      match vb.vb_pat.pat_desc with
      | Tpat_var (id, _)
        when (not (F.is_unchecked (Ident.name id)))
             && (scope <> [] || is_exported (Ident.name id)) ->
          let rs = F.push st.sink vb.vb_attributes in
          r4_binding st ~file (Ident.name id) vb.vb_pat.pat_loc vb.vb_expr;
          F.pop st.sink rs
      | _ -> ())

(* --- R2: exported mutable values ------------------------------------------- *)

let r2_signature st ~file ~unit (sg : signature) =
  F.iter_signature ~scope:[] sg ~value:(fun ~scope:_ vd ->
      let rs = F.push st.sink vd.val_attributes in
      let ty = vd.val_val.Types.val_type in
      if type_mutable st ~unit [] ty then
        F.report st.sink ~file vd.val_loc "R2"
          (Printf.sprintf
             "interface exports toplevel mutable value '%s' : %s \
              (cross-module shared state escapes the R1 capture check)"
             (Ident.name vd.val_id) (type_to_string ty));
      F.pop st.sink rs)

(* --- L2, L3, L5: determinism, init-time state and partiality in lib/ ------- *)

let lib_ident_rule p =
  match strip_stdlib (split_canonical (Path.name p)) with
  | "Random" :: _ :: _ ->
      Some
        ( "L2",
          "Random.* in lib/; all randomness must flow through Pftk_stats.Rng \
           so parallel runs stay reproducible" )
  | [ "Sys"; "time" ] | [ "Unix"; ("gettimeofday" | "time") ] ->
      Some
        ( "L2",
          "wall-clock reading in lib/; timing belongs in bin/ or perfbench/, \
           not in model or experiment code" )
  | [ "Obj"; "magic" ] -> Some ("L5", "Obj.magic defeats the type system")
  | [ "List"; "hd" ] ->
      Some
        ( "L5",
          "partial List.hd in lib/; match on the list (or use a non-empty \
           representation)" )
  | [ "Option"; "get" ] ->
      Some
        ( "L5",
          "partial Option.get in lib/; match on the option or use \
           Option.value" )
  | _ -> None

(* L3 for an expression a module evaluates at init time: the mutable
   state it creates is shared by every domain a fan-out spawns.  The
   record test reads the typed label, so a literal of a type declared in
   another module counts too. *)
let init_time_state e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match strip_stdlib (split_canonical (Path.name p)) with
      | ([ "ref" ] | [ "Hashtbl"; "create" ] | [ "Buffer"; "create" ]) as parts
        ->
          Some
            (Printf.sprintf
               "`%s' at module toplevel creates shared mutable state; this \
                races under Pftk_parallel domain fan-outs -- allocate it \
                inside the function that uses it"
               (String.concat "." parts))
      | _ -> None)
  | Texp_record { fields; _ } ->
      Array.find_map
        (fun ((l : Types.label_description), _) ->
          match l.lbl_mut with
          | Asttypes.Mutable ->
              Some
                (Printf.sprintf
                   "record literal with mutable field `%s' at module \
                    toplevel is shared mutable state; it races under \
                    Pftk_parallel domain fan-outs"
                   l.lbl_name)
          | Asttypes.Immutable -> None)
        fields
  | _ -> None

(* --- Main expression walk (R1, R3, L2, L3, L5) ----------------------------- *)

let analyze_structure st ~file ~unit ~core_stats ~lib (str : structure) =
  let super = Tast_iterator.default_iterator in
  (* Inside a toplevel value or expression item, before the first
     function literal: code the module runs once, at init time. *)
  let init_time = ref false in
  let item_it it (item : structure_item) =
    let init_item attrs =
      let rs = F.push st.sink attrs in
      let saved = !init_time in
      init_time := lib;
      super.structure_item it item;
      init_time := saved;
      F.pop st.sink rs
    in
    match item.str_desc with
    | Tstr_value _ -> init_item []
    | Tstr_eval (_, attrs) -> init_item attrs
    | _ -> super.structure_item it item
  in
  let vb_it it vb =
    let rs = F.push st.sink vb.vb_attributes in
    super.value_binding it vb;
    F.pop st.sink rs
  in
  let check_closure callee (a : expression) =
    match a.exp_desc with
    | Texp_function _ ->
        let rs = F.push_expr st.sink a in
        List.iter
          (fun (id, (use : expression)) ->
            F.report st.sink ~file use.exp_loc "R1"
              (Printf.sprintf
                 "closure passed to %s captures mutable '%s' : %s (shared \
                  state races across domains; pass it as data or restructure)"
                 callee (Ident.name id)
                 (type_to_string use.exp_type)))
          (mutable_captures st ~unit a);
        F.pop st.sink rs
    | _ -> ()
  in
  let expr_it it (e : expression) =
    let rs = F.push_expr st.sink e in
    (match e.exp_desc with
    | Texp_apply (fn, args) -> (
        match trigger_of_callee fn with
        | Some callee ->
            List.iter
              (fun (_, arg) ->
                match arg with Some a -> check_closure callee a | None -> ())
              args
        | None -> ())
    | Texp_ident (p, _, vd) when core_stats && is_poly_compare_use p vd ->
        F.report st.sink ~file e.exp_loc "R3"
          (Printf.sprintf
             "polymorphic comparison '%s' : %s in model code (use \
              Float.equal/Float.compare or another typed comparator)"
             (Path.name p)
             (type_to_string vd.Types.val_type))
    | Texp_ident (p, _, _) when lib -> (
        match lib_ident_rule p with
        | Some (rule, message) -> F.report st.sink ~file e.exp_loc rule message
        | None -> ())
    | _ -> ());
    (if !init_time then
       match init_time_state e with
       | Some message -> F.report st.sink ~file e.exp_loc "L3" message
       | None -> ());
    (match e.exp_desc with
    | Texp_function _ when !init_time ->
        (* A function body runs at call time: L3's scan stops here. *)
        init_time := false;
        super.expr it e;
        init_time := true
    | _ -> super.expr it e);
    F.pop st.sink rs
  in
  let it =
    {
      super with
      expr = expr_it;
      value_binding = vb_it;
      structure_item = item_it;
    }
  in
  it.structure it str

(* --- Entry point ----------------------------------------------------------- *)

let analyze units =
  let st =
    { decls = Hashtbl.create 512; exported = Hashtbl.create 64; sink = F.sink () }
  in
  List.iter
    (fun (u : F.Cmt.unit_info) ->
      let scope = [ u.u_name ] in
      match u.u_annots with
      | Cmt_format.Implementation str ->
          F.iter_structure ~scope ~types:(add_decl st u.u_name) str
      | Cmt_format.Interface sg ->
          F.iter_signature ~scope ~types:(add_decl st u.u_name) sg;
          record_exports st u.u_name sg
      | _ -> ())
    units;
  List.iter
    (fun (u : F.Cmt.unit_info) ->
      let file = u.u_src in
      match u.u_annots with
      | Cmt_format.Implementation str ->
          let core_stats =
            F.under ~root:"lib/core" file || F.under ~root:"lib/stats" file
          in
          analyze_structure st ~file ~unit:u.u_name ~core_stats
            ~lib:(F.under ~root:"lib" file) str;
          if F.under ~root:"lib/core" file then begin
            let is_exported =
              match Hashtbl.find_opt st.exported u.u_name with
              | Some set -> fun n -> Hashtbl.mem set n
              | None -> fun _ -> true
            in
            r4_structure st ~file is_exported str
          end
      | Cmt_format.Interface sg ->
          if F.under ~root:"lib" file then r2_signature st ~file ~unit:u.u_name sg
      | _ -> ())
    units;
  F.findings st.sink
