(* pftk-units: dimensional analysis over the .cmt files dune emits.
   Pass A reads every interface, collecting [@pftk.unit] declarations
   (and checking U3 in the lib/core+batch+online zone); pass B registers
   every toplevel binding like pftk-flow does; a quiet fixpoint then
   infers result units for unannotated functions (aliases copy their
   callee's signature, bodies that evaluate to a known unit export it);
   finally each body is abstract-interpreted once in loud mode,
   enforcing U1, U2 and U4.  See the .mli for the algebra and rules. *)

open Typedtree
module F = Pftk_findings

let split_canonical = F.split_canonical
let strip_stdlib = F.strip_stdlib

(* --- The unit algebra ------------------------------------------------------- *)

(* A unit is a vector of integer exponents over the base dimensions.
   "prob" and "1" are both the zero vector: probabilities carry no
   dimension, they just document intent. *)
type u = { u_s : int; u_pkt : int; u_byte : int }

let dimensionless = { u_s = 0; u_pkt = 0; u_byte = 0 }
let is_dimensionless v = v = dimensionless

let u_mul a b =
  { u_s = a.u_s + b.u_s; u_pkt = a.u_pkt + b.u_pkt; u_byte = a.u_byte + b.u_byte }

let u_div a b =
  { u_s = a.u_s - b.u_s; u_pkt = a.u_pkt - b.u_pkt; u_byte = a.u_byte - b.u_byte }

let u_pow a k = { u_s = a.u_s * k; u_pkt = a.u_pkt * k; u_byte = a.u_byte * k }

let u_to_string v =
  let bases = [ ("pkt", v.u_pkt); ("byte", v.u_byte); ("s", v.u_s) ] in
  let fac (b, e) = if e = 1 then b else Printf.sprintf "%s^%d" b e in
  let num = List.filter (fun (_, e) -> e > 0) bases in
  let den = List.filter_map (fun (b, e) -> if e < 0 then Some (b, -e) else None) bases in
  let nums =
    match num with [] -> "1" | l -> String.concat "*" (List.map fac l)
  in
  match den with
  | [] -> nums
  | l -> nums ^ "/" ^ String.concat "/" (List.map fac l)

(* --- Unit-expression parser -------------------------------------------------
   expr := term ('/' term)* ; term := factor ('*' factor)* ;
   factor := base ('^' int)? ; base := s | pkt | byte | prob | 1 *)

exception Unit_error of string

type tok = Base of string | Star | Slash | Caret | Int of int

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '*' then (toks := Star :: !toks; incr i)
    else if c = '/' then (toks := Slash :: !toks; incr i)
    else if c = '^' then (toks := Caret :: !toks; incr i)
    else if c >= 'a' && c <= 'z' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= 'a' && s.[!j] <= 'z' do incr j done;
      toks := Base (String.sub s !i (!j - !i)) :: !toks;
      i := !j
    end
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      let lit = String.sub s !i (!j - !i) in
      (match int_of_string_opt lit with
      | Some k -> toks := Int k :: !toks
      | None -> raise (Unit_error (Printf.sprintf "bad exponent %S" lit)));
      i := !j
    end
    else
      raise
        (Unit_error (Printf.sprintf "unexpected character '%c' in unit expression" c))
  done;
  List.rev !toks

let parse_toks toks =
  let rest = ref toks in
  let base () =
    match !rest with
    | Base "s" :: t -> rest := t; { dimensionless with u_s = 1 }
    | Base "pkt" :: t -> rest := t; { dimensionless with u_pkt = 1 }
    | Base "byte" :: t -> rest := t; { dimensionless with u_byte = 1 }
    | Base "prob" :: t | Int 1 :: t -> rest := t; dimensionless
    | Base b :: _ ->
        raise
          (Unit_error
             (Printf.sprintf "unknown base unit %S (expected s, pkt, byte, prob or 1)" b))
    | _ -> raise (Unit_error "expected a base unit (s, pkt, byte, prob or 1)")
  in
  let factor () =
    let b = base () in
    match !rest with
    | Caret :: Int k :: t -> rest := t; u_pow b k
    | Caret :: _ -> raise (Unit_error "expected an integer exponent after '^'")
    | _ -> b
  in
  let term () =
    let f = ref (factor ()) in
    let going = ref true in
    while !going do
      match !rest with
      | Star :: t -> rest := t; f := u_mul !f (factor ())
      | _ -> going := false
    done;
    !f
  in
  let e = ref (term ()) in
  let going = ref true in
  while !going do
    match !rest with
    | Slash :: t -> rest := t; e := u_div !e (term ())
    | _ -> going := false
  done;
  if !rest <> [] then raise (Unit_error "trailing tokens in unit expression");
  !e

let unit_of_string s =
  match parse_toks (tokenize s) with
  | v -> Ok v
  | exception Unit_error m -> Error m

let parse_unit s = Result.map u_to_string (unit_of_string s)

(* --- Signature components ---------------------------------------------------
   One component per arrow component of the annotated type, "->"-
   separated; the last component is the result.  [Any] ("_", or a
   parenthesized tuple documentation) constrains nothing; [Dimless]
   ("1"/"prob") asserts no dimension; [U u] a concrete unit. *)

type comp = Any | Dimless | U of u

let comp_to_string = function
  | Any -> "_"
  | Dimless -> "1"
  | U v -> u_to_string v

let comp_of_string s =
  let s = String.trim s in
  if String.equal s "_" then Ok Any
  else if String.length s > 0 && s.[0] = '(' then Ok Any
  else
    match unit_of_string s with
    | Ok v -> Ok (if is_dimensionless v then Dimless else U v)
    | Error m -> Error m

let split_arrows s =
  let n = String.length s in
  let rec go start i acc =
    if i >= n - 1 then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '-' && s.[i + 1] = '>' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  if n = 0 then [ "" ] else go 0 0 []

let sig_of_string s =
  let rec all = function
    | [] -> Ok []
    | c :: rest -> (
        match comp_of_string c with
        | Error m -> Error m
        | Ok c -> Result.map (fun l -> c :: l) (all rest))
  in
  all (split_arrows s)

let parse_sig s =
  Result.map
    (fun comps -> String.concat " -> " (List.map comp_to_string comps))
    (sig_of_string s)

(* --- Abstract values ---------------------------------------------------------
   [Known u] is always a *non-dimensionless* unit; dimensionless values
   are [Poly], like float literals — they adapt to either side of an
   addition and act as scalars under multiplication, which is exactly
   how the paper mixes pure numbers with packet counts ((1-p)/p + E[W]).
   [Unknown] constrains nothing and absorbs everything; [float_of_int]
   produces it, so integer-born quantities stay silent unless cast. *)

type av = Unknown | Poly | Known of u

let known v = if is_dimensionless v then Poly else Known v

let comp_av = function Any -> Unknown | Dimless -> Poly | U v -> Known v

let join a b =
  match (a, b) with
  | Known x, Known y -> if x = y then a else Unknown
  | Poly, x | x, Poly -> x
  | _ -> Unknown

(* Exponent view for * and /: Poly is the zero vector, Known its vector,
   Unknown contaminates the product. *)
let exps_of = function Known v -> Some v | Poly -> Some dimensionless | Unknown -> None

(* Component list of a path, from the [Path.t] structure rather than the
   printed name: operator names contain dots ([Path.name] prints
   [Stdlib.+.] for [( +. )]), so splitting the printed string on ['.']
   would shatter them.  Module components go through [split_canonical]
   (undoing dune's [Lib__Module] mangling); the final value component is
   kept atomic. *)
let rec raw_components p =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (q, s) -> raw_components q @ [ s ]
  | Path.Papply (q, _) -> raw_components q
  | Path.Pextra_ty (q, _) -> raw_components q

let path_parts p =
  match List.rev (raw_components p) with
  | last :: rev_modules ->
      List.concat_map split_canonical (List.rev rev_modules) @ [ last ]
  | [] -> []

(* --- Type helpers (as in pftk-flow) ----------------------------------------- *)

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

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> String.equal (Path.name p) "float"
  | _ -> false

let rec arrow_comps ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> a :: arrow_comps b
  | Types.Tpoly (t, _) -> arrow_comps t
  | _ -> [ ty ]

(* --- The [@pftk.unit] attribute --------------------------------------------- *)

let unit_attr attrs =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.Location.txt "pftk.unit" then
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
            Some (s, a.attr_loc)
        | _ -> Some ("", a.attr_loc)
      else None)
    attrs

(* --- Run state --------------------------------------------------------------- *)

type fn_info = {
  fn_name : string;  (* canonical dotted, scope included *)
  fn_scope : string list;  (* unit (and nested-module) prefix *)
  fn_file : string;
  fn_attrs : Parsetree.attributes;
  fn_expr : expression;
  mutable fn_sig : comp list option;  (* params @ [result] *)
  fn_declared : bool;  (* signature came from an annotation, not inference *)
}

type state = {
  fns : (string, fn_info) Hashtbl.t;
  mutable order : fn_info list;  (* registration order, for the fixpoint *)
  decls : (string, comp list) Hashtbl.t;  (* interface annotations *)
  fields : (string, comp) Hashtbl.t;  (* "Type.path.label" -> unit *)
  mutable findings : F.finding list;
  allows : F.Allow.t;
  mutable loud : bool;  (* false during the inference fixpoint *)
}

let push st attrs = F.Allow.push st.allows attrs
let pop st rules = F.Allow.pop st.allows rules

let report st ~file (loc : Location.t) rule message =
  if st.loud && not (F.Allow.active st.allows rule) then
    st.findings <- F.finding_of_loc ~file loc rule message :: st.findings

let u3_roots = [ "lib/core"; "lib/batch"; "lib/online"; "lib/meanfield" ]
let in_u3_zone file = List.exists (fun root -> F.under ~root file) u3_roots

(* Scoped lookup, as in pftk-flow's [resolve]: try the name qualified by
   progressively shorter prefixes of the referencing scope, longest
   first, so sibling references and wrapper-qualified cross-module paths
   land on the same keys. *)
let candidates ~scope base =
  let drop_last l = List.rev (List.tl (List.rev l)) in
  let rec go scope acc =
    let acc = String.concat "." (scope @ [ base ]) :: acc in
    match scope with [] -> acc | _ -> go (drop_last scope) acc
  in
  List.rev (go scope [])

let path_base p =
  match p with
  | Path.Pident id -> Ident.name id
  | _ -> F.canonical (Path.name p)

(* A callee's unit signature: a registered binding's (declared or
   inferred), else a bare interface declaration. *)
let lookup_sig st ~scope p =
  let keys = candidates ~scope (path_base p) in
  match
    List.find_map
      (fun k ->
        match Hashtbl.find_opt st.fns k with
        | Some { fn_sig = Some sg; _ } -> Some (k, sg)
        | _ -> None)
      keys
  with
  | Some _ as hit -> hit
  | None ->
      List.find_map
        (fun k -> Option.map (fun sg -> (k, sg)) (Hashtbl.find_opt st.decls k))
        keys

(* The record type a label belongs to, canonically, so "t.rtt" inside
   Params and "Pftk_core.Params.t.rtt" at a use site share a key. *)
let field_comp st ~scope (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) ->
      let base = F.canonical (Path.name p) ^ "." ^ lbl.Types.lbl_name in
      List.find_map (Hashtbl.find_opt st.fields) (candidates ~scope base)
  | _ -> None

(* --- Operator classification ------------------------------------------------- *)

type op =
  | Same_join of bool  (* bool: polymorphic primitive, needs float args *)
  | Same_bool of bool
  | Mul
  | Div
  | Id1
  | Sqrt
  | Dimless1
  | Pow
  | Aget
  | Aset
  | Other

let classify = function
  | [ "+." ] | [ "-." ] | [ "Float"; ("add" | "sub" | "min" | "max" | "rem") ]
    ->
      Same_join false
  | [ ("min" | "max") ] -> Same_join true
  | [ ("<" | ">" | "<=" | ">=" | "=" | "<>" | "compare") ] -> Same_bool true
  | [ "Float"; ("compare" | "equal") ] -> Same_bool false
  | [ "*." ] | [ "Float"; "mul" ] -> Mul
  | [ "/." ] | [ "Float"; "div" ] -> Div
  | [ "~-."; ] | [ "abs_float" ] | [ "Float"; ("abs" | "neg" | "round" | "trunc") ]
    ->
      Id1
  | [ "sqrt" ] | [ "Float"; ("sqrt" | "cbrt") ] -> Sqrt
  | [ ("exp" | "log" | "log10" | "log1p" | "expm1" | "sin" | "cos" | "tan"
      | "atan" | "tanh") ]
  | [ "Float"; ("exp" | "log" | "log10" | "log1p" | "expm1" | "exp2" | "log2") ]
    ->
      Dimless1
  | [ "**" ] | [ "Float"; "pow" ] -> Pow
  | [ "Float"; "Array"; ("get" | "unsafe_get") ]
  | [ "Array"; ("get" | "unsafe_get") ] ->
      Aget
  | [ "Float"; "Array"; ("set" | "unsafe_set") ]
  | [ "Array"; ("set" | "unsafe_set") ] ->
      Aset
  | _ -> Other

(* --- Pattern binding ---------------------------------------------------------
   Binds pattern variables to an abstract value in [env] (keyed by
   [Ident.unique_name], so shadowing is free) and returns the keys to
   remove on scope exit.  [Some p] propagates the option payload — this
   is what makes the compiler's optional-argument desugaring
   ([match *opt*x with Some y -> y | None -> default]) transparent. *)
let rec bind_pat : type k. (string, av) Hashtbl.t -> k general_pattern -> av -> string list -> string list =
 fun env p v acc ->
  match p.pat_desc with
  | Tpat_var (id, _) ->
      let key = Ident.unique_name id in
      Hashtbl.replace env key v;
      key :: acc
  | Tpat_alias (inner, id, _) ->
      let key = Ident.unique_name id in
      Hashtbl.replace env key v;
      bind_pat env inner v (key :: acc)
  | Tpat_construct (_, cd, [ inner ], _)
    when String.equal cd.Types.cstr_name "Some" ->
      bind_pat env inner v acc
  | Tpat_value arg -> bind_pat env (arg :> value general_pattern) v acc
  | Tpat_or (a, b, _) -> bind_pat env b v (bind_pat env a v acc)
  | _ -> acc

let rec split_last = function
  | [ x ] -> ([], x)
  | x :: rest ->
      let l, last = split_last rest in
      (x :: l, last)
  | [] -> ([], Any)

(* --- Abstract interpretation -------------------------------------------------
   [infer] returns the abstract value of an expression, emitting U1/U2
   findings along the way when [st.loud].  Every sub-expression is
   walked exactly once per pass. *)

let rec infer st env fn e =
  let rs = F.Allow.push_expr st.allows e in
  let v = infer_desc st env fn e in
  (* An expression-level [@pftk.unit "..."] is a cast: it overrides
     whatever the inference concluded, no questions asked. *)
  let v =
    match unit_attr e.exp_attributes with
    | Some (s, loc) -> (
        match unit_of_string s with
        | Ok u -> known u
        | Error m -> report st ~file:fn.fn_file loc "parse" m; v)
    | None -> v
  in
  pop st rs;
  v

and infer_desc st env fn e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float _) -> Poly
  | Texp_constant _ -> Unknown
  | Texp_ident (p, _, _) -> ident_av st env fn p
  | Texp_let (_, vbs, body) ->
      let bound = List.concat_map (bind_vb st env fn) vbs in
      let v = infer st env fn body in
      List.iter (Hashtbl.remove env) bound;
      v
  | Texp_function { cases; _ } ->
      (* A lambda used as a value: walk the bodies for findings (with
         its parameters unbound — conservative), the closure itself is
         unit-opaque. *)
      List.iter
        (fun c ->
          Option.iter (fun g -> ignore (infer st env fn g)) c.c_guard;
          ignore (infer st env fn c.c_rhs))
        cases;
      Unknown
  | Texp_apply (callee, args) -> apply st env fn e callee args
  | Texp_ifthenelse (c, th, el) -> (
      ignore (infer st env fn c);
      let a = infer st env fn th in
      match el with None -> a | Some el -> join a (infer st env fn el))
  | Texp_match (scrut, cases, _) ->
      let sv = infer st env fn scrut in
      List.fold_left
        (fun acc c ->
          let bound = bind_pat env c.c_lhs sv [] in
          Option.iter (fun g -> ignore (infer st env fn g)) c.c_guard;
          let v = infer st env fn c.c_rhs in
          List.iter (Hashtbl.remove env) bound;
          join acc v)
        Poly cases
  | Texp_sequence (a, b) ->
      ignore (infer st env fn a);
      infer st env fn b
  | Texp_try (b, handlers) ->
      let v = infer st env fn b in
      List.iter (fun c -> ignore (infer st env fn c.c_rhs)) handlers;
      v
  | Texp_construct (_, cd, [ arg ]) when String.equal cd.Types.cstr_name "Some"
    ->
      infer st env fn arg
  | Texp_field (r, _, lbl) -> (
      ignore (infer st env fn r);
      match field_comp st ~scope:fn.fn_scope lbl with
      | Some c -> comp_av c
      | None -> Unknown)
  | Texp_setfield (r, _, lbl, v) ->
      ignore (infer st env fn r);
      check_field st fn v.exp_loc lbl (infer st env fn v);
      Unknown
  | Texp_record { fields; extended_expression; _ } ->
      Option.iter (fun ex -> ignore (infer st env fn ex)) extended_expression;
      Array.iter
        (fun (lbl, def) ->
          match def with
          | Overridden (_, ex) ->
              check_field st fn ex.exp_loc lbl (infer st env fn ex)
          | Kept _ -> ())
        fields;
      Unknown
  | _ ->
      let super = Tast_iterator.default_iterator in
      let it = { super with expr = (fun _ e -> ignore (infer st env fn e)) } in
      super.expr it e;
      Unknown

and ident_av st env fn p =
  match
    match p with
    | Path.Pident id -> Hashtbl.find_opt env (Ident.unique_name id)
    | _ -> None
  with
  | Some v -> v
  | None -> (
      match strip_stdlib (path_parts p) with
      | [ ("infinity" | "neg_infinity" | "epsilon_float" | "max_float"
          | "min_float" | "nan") ]
      | [ "Float";
          ( "infinity" | "neg_infinity" | "epsilon" | "nan" | "pi" | "zero"
          | "one" | "minus_one" | "max_float" | "min_float" ) ] ->
          Poly
      | _ -> (
          (* A unit-signed global used as a plain value. *)
          match lookup_sig st ~scope:fn.fn_scope p with
          | Some (_, [ res ]) -> comp_av res
          | _ -> Unknown))

and bind_vb st env fn vb =
  let rs = push st vb.vb_attributes in
  let v = infer st env fn vb.vb_expr in
  (* A single-component [@pftk.unit] on a local binding is a cast;
     arrow annotations belong to toplevel bindings (registration). *)
  let v =
    match unit_attr vb.vb_attributes with
    | Some (s, loc) -> (
        match sig_of_string s with
        | Ok [ c ] -> comp_av c
        | Ok _ -> v
        | Error m -> report st ~file:fn.fn_file loc "parse" m; v)
    | None -> v
  in
  let bound = bind_pat env vb.vb_pat v [] in
  pop st rs;
  bound

and check_same st fn loc what va vb =
  match (va, vb) with
  | Known x, Known y when x <> y ->
      report st ~file:fn.fn_file loc "U1"
        (Printf.sprintf "%s mixes units %s and %s" what (u_to_string x)
           (u_to_string y))
  | _ -> ()

and dimless_arg st fn loc what va =
  match va with
  | Known x ->
      report st ~file:fn.fn_file loc "U1"
        (Printf.sprintf "argument of %s must be dimensionless, got %s" what
           (u_to_string x))
  | _ -> ()

and check_field st fn loc (lbl : Types.label_description) va =
  match (field_comp st ~scope:fn.fn_scope lbl, va) with
  | Some (U x), Known y when x <> y ->
      report st ~file:fn.fn_file loc "U2"
        (Printf.sprintf "field '%s' declares unit %s but the value has unit %s"
           lbl.Types.lbl_name (u_to_string x) (u_to_string y))
  | Some Dimless, Known y ->
      report st ~file:fn.fn_file loc "U2"
        (Printf.sprintf
           "field '%s' is declared dimensionless but the value has unit %s"
           lbl.Types.lbl_name (u_to_string y))
  | _ -> ()

and apply st env fn e callee args =
  let walk_rest rest =
    List.iter
      (fun (_, a) -> Option.iter (fun a -> ignore (infer st env fn a)) a)
      rest
  in
  match callee.exp_desc with
  | Texp_ident (p, _, _) -> (
      let name = strip_stdlib (path_parts p) in
      let label = Printf.sprintf "'%s'" (String.concat "." name) in
      let float_args =
        match args with
        | (_, Some a) :: _ -> is_float a.exp_type
        | _ -> false
      in
      match (classify name, args) with
      | Same_join poly, [ (_, Some a); (_, Some b) ] when (not poly) || float_args ->
          let va = infer st env fn a and vb = infer st env fn b in
          check_same st fn e.exp_loc label va vb;
          join va vb
      | Same_bool poly, [ (_, Some a); (_, Some b) ] when (not poly) || float_args ->
          let va = infer st env fn a and vb = infer st env fn b in
          check_same st fn e.exp_loc label va vb;
          Unknown
      | (Mul | Div) as op, [ (_, Some a); (_, Some b) ] -> (
          let va = infer st env fn a and vb = infer st env fn b in
          match (exps_of va, exps_of vb) with
          | Some xa, Some xb ->
              known (if op = Mul then u_mul xa xb else u_div xa xb)
          | _ -> Unknown)
      | Id1, [ (_, Some a) ] -> infer st env fn a
      | (Sqrt | Dimless1), [ (_, Some a) ] -> (
          let va = infer st env fn a in
          dimless_arg st fn e.exp_loc label va;
          match va with Poly -> Poly | _ -> Unknown)
      | Pow, [ (_, Some a); (_, Some b) ] -> (
          let va = infer st env fn a and vb = infer st env fn b in
          dimless_arg st fn e.exp_loc label va;
          dimless_arg st fn e.exp_loc label vb;
          match (va, vb) with Poly, Poly -> Poly | _ -> Unknown)
      | Aget, [ (_, Some arr); (_, Some i) ] ->
          (* Convention: an array's abstract value is its element unit. *)
          let va = infer st env fn arr in
          ignore (infer st env fn i);
          va
      | Aset, [ (_, Some arr); (_, Some i); (_, Some v) ] ->
          let va = infer st env fn arr in
          ignore (infer st env fn i);
          let vv = infer st env fn v in
          (match (va, vv) with
          | Known x, Known y when x <> y ->
              report st ~file:fn.fn_file v.exp_loc "U2"
                (Printf.sprintf
                   "store into a %s array disagrees with the element unit: \
                    value has unit %s"
                   (u_to_string x) (u_to_string y))
          | _ -> ());
          Unknown
      | _, _ -> (
          match lookup_sig st ~scope:fn.fn_scope p with
          | None -> walk_rest args; Unknown
          | Some (cname, comps) ->
              let params, res = split_last comps in
              let rec go params args idx =
                match (params, args) with
                | _, [] -> (
                    (* Partial application keeps the residue opaque. *)
                    match params with [] -> comp_av res | _ :: _ -> Unknown)
                | [], rest -> walk_rest rest; Unknown
                | comp :: ps, (_, argo) :: rest ->
                    (match argo with
                    | Some a ->
                        check_arg st fn a.exp_loc cname idx comp
                          (infer st env fn a)
                    | None -> ());
                    go ps rest (idx + 1)
              in
              go params args 1))
  | _ ->
      ignore (infer st env fn callee);
      walk_rest args;
      Unknown

and check_arg st fn loc cname idx comp va =
  match (comp, va) with
  | U x, Known y when x <> y ->
      report st ~file:fn.fn_file loc "U2"
        (Printf.sprintf
           "argument %d of '%s' has unit %s but the declaration says %s" idx
           cname (u_to_string y) (u_to_string x))
  | Dimless, Known y ->
      report st ~file:fn.fn_file loc "U2"
        (Printf.sprintf
           "argument %d of '%s' has unit %s but the declaration says it is \
            dimensionless"
           idx cname (u_to_string y))
  | _ -> ()

(* Walk the parameter spine, binding each single-case [fun] level to its
   declared component; descends through the [let]s the compiler inserts
   for optional-argument defaults.  Returns the body's abstract value,
   or [Unknown] when the annotation's arity does not line up. *)
and spine st env fn params e =
  match (params, e.exp_desc) with
  | comp :: rest, Texp_function { cases = [ c ]; _ }
    when Option.is_none c.c_guard ->
      let bound = bind_pat env c.c_lhs (comp_av comp) [] in
      let v = spine st env fn rest c.c_rhs in
      List.iter (Hashtbl.remove env) bound;
      v
  | _ :: _, Texp_let (_, vbs, body) ->
      let bound = List.concat_map (bind_vb st env fn) vbs in
      let v = spine st env fn params body in
      List.iter (Hashtbl.remove env) bound;
      v
  | [], _ -> infer st env fn e
  | _ :: _, _ ->
      ignore (infer st env fn e);
      Unknown

(* --- Registration (implementations) ------------------------------------------ *)

let register_fields st ~file ~scope ~iface (decl : type_declaration) =
  match decl.typ_kind with
  | Ttype_record lds ->
      List.iter
        (fun (ld : label_declaration) ->
          (* The attribute may attach to the label or to its core type
             (`x : float [@pftk.unit "s"];` parses either way). *)
          let attrs = ld.ld_attributes @ ld.ld_type.ctyp_attributes in
          let rs = push st attrs in
          let key =
            String.concat "." (scope @ [ decl.typ_name.txt; ld.ld_name.txt ])
          in
          (match unit_attr attrs with
          | Some (s, loc) -> (
              match comp_of_string s with
              | Ok c -> Hashtbl.replace st.fields key c
              | Error m -> report st ~file loc "parse" m)
          | None ->
              if iface && in_u3_zone file && mentions_float ld.ld_type.ctyp_type
              then
                report st ~file ld.ld_loc "U3"
                  (Printf.sprintf
                     "float field '%s' of '%s' has no [@pftk.unit] annotation \
                      (\"1\" states dimensionless explicitly)"
                     ld.ld_name.txt
                     (String.concat "." (scope @ [ decl.typ_name.txt ]))));
          pop st rs)
        lds
  | _ -> ()

let register_binding st ~file ~scope vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) ->
      let name = String.concat "." (scope @ [ Ident.name id ]) in
      let sg, declared =
        match unit_attr vb.vb_attributes with
        | Some (s, loc) -> (
            match sig_of_string s with
            | Ok comps -> (Some comps, true)
            | Error m -> report st ~file loc "parse" m; (None, false))
        | None -> (
            match Hashtbl.find_opt st.decls name with
            | Some comps -> (Some comps, true)
            | None -> (None, false))
      in
      let fn =
        {
          fn_name = name;
          fn_scope = scope;
          fn_file = file;
          fn_attrs = vb.vb_attributes;
          fn_expr = vb.vb_expr;
          fn_sig = sg;
          fn_declared = declared;
        }
      in
      Hashtbl.replace st.fns name fn;
      st.order <- fn :: st.order
  | _ -> ()

let rec module_structure me =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> module_structure me
  | _ -> None

let rec register_structure st ~file ~scope (str : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (register_binding st ~file ~scope) vbs
      | Tstr_type (_, decls) ->
          List.iter (register_fields st ~file ~scope ~iface:false) decls
      | Tstr_module mb -> register_module st ~file ~scope mb
      | Tstr_recmodule mbs -> List.iter (register_module st ~file ~scope) mbs
      | _ -> ())
    str.str_items

and register_module st ~file ~scope mb =
  match (mb.mb_name.Location.txt, module_structure mb.mb_expr) with
  | Some name, Some s -> register_structure st ~file ~scope:(scope @ [ name ]) s
  | _ -> ()

(* --- Interface pass (declarations + U3) --------------------------------------- *)

let rec interface st ~file ~scope (sg : signature) =
  List.iter
    (fun (item : signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
          let rs = push st vd.val_attributes in
          let name = String.concat "." (scope @ [ Ident.name vd.val_id ]) in
          (match unit_attr vd.val_attributes with
          | Some (s, loc) -> (
              match sig_of_string s with
              | Ok comps ->
                  let n = List.length (arrow_comps vd.val_val.Types.val_type) in
                  if List.length comps <> n then
                    report st ~file loc "parse"
                      (Printf.sprintf
                         "[@pftk.unit] on '%s' has %d components but the type \
                          has %d"
                         (Ident.name vd.val_id) (List.length comps) n)
                  else Hashtbl.replace st.decls name comps
              | Error m -> report st ~file loc "parse" m)
          | None ->
              if in_u3_zone file && mentions_float vd.val_val.Types.val_type
              then
                report st ~file vd.val_loc "U3"
                  (Printf.sprintf
                     "exported float signature item '%s' has no [@pftk.unit] \
                      annotation (\"_\" and \"1\" state unit-free and \
                      dimensionless components explicitly)"
                     name));
          pop st rs
      | Tsig_type (_, decls) ->
          List.iter (register_fields st ~file ~scope ~iface:true) decls
      | Tsig_module md -> (
          match (md.md_name.Location.txt, md.md_type.mty_desc) with
          | Some name, Tmty_signature s ->
              interface st ~file ~scope:(scope @ [ name ]) s
          | _ -> ())
      | _ -> ())
    sg.sig_items

(* --- Inference fixpoint (quiet) ------------------------------------------------
   Gives unannotated functions a signature the checking pass and call
   sites can use: an alias copies its callee's signature wholesale; a
   body that abstract-evaluates to a known unit exports [_ -> ... -> u].
   Quiet: [st.loud] is off, so these walks emit nothing. *)

let rec spine_arity e =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when Option.is_none c.c_guard ->
      1 + spine_arity c.c_rhs
  | _ -> 0

let infer_results st fns =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 4 do
    changed := false;
    incr rounds;
    List.iter
      (fun fn ->
        if Option.is_none fn.fn_sig then begin
          (match fn.fn_expr.exp_desc with
          | Texp_ident (p, _, _) -> (
              match lookup_sig st ~scope:fn.fn_scope p with
              | Some (_, comps) ->
                  fn.fn_sig <- Some comps;
                  changed := true
              | None -> ())
          | _ -> ());
          if Option.is_none fn.fn_sig then begin
            let n = spine_arity fn.fn_expr in
            let env = Hashtbl.create 16 in
            match spine st env fn (List.init n (fun _ -> Any)) fn.fn_expr with
            | Known u ->
                fn.fn_sig <- Some (List.init n (fun _ -> Any) @ [ U u ]);
                changed := true
            | _ -> ()
          end
        end)
      fns
  done

(* --- Checking pass (loud) ------------------------------------------------------ *)

let check_fn st fn =
  let rs = push st fn.fn_attrs in
  let env = Hashtbl.create 16 in
  (match fn.fn_sig with
  | Some comps -> (
      let params, res = split_last comps in
      let v = spine st env fn params fn.fn_expr in
      if fn.fn_declared then
        match (res, v) with
        | U x, Known y when x <> y ->
            report st ~file:fn.fn_file fn.fn_expr.exp_loc "U4"
              (Printf.sprintf
                 "'%s' declares result unit %s but its body has unit %s"
                 fn.fn_name (u_to_string x) (u_to_string y))
        | Dimless, Known y ->
            report st ~file:fn.fn_file fn.fn_expr.exp_loc "U4"
              (Printf.sprintf
                 "'%s' declares a dimensionless result but its body has unit \
                  %s"
                 fn.fn_name (u_to_string y))
        | _ -> ())
  | None -> ignore (infer st env fn fn.fn_expr));
  pop st rs

(* --- Driver -------------------------------------------------------------------- *)

let analyze_paths paths =
  let st =
    {
      fns = Hashtbl.create 512;
      order = [];
      decls = Hashtbl.create 256;
      fields = Hashtbl.create 64;
      findings = [];
      allows = F.Allow.create ();
      loud = true;
    }
  in
  let units = F.Cmt.load_all paths in
  List.iter
    (fun (u : F.Cmt.unit_info) ->
      match u.u_annots with
      | Cmt_format.Interface sg -> interface st ~file:u.u_src ~scope:[ u.u_name ] sg
      | _ -> ())
    units;
  List.iter
    (fun (u : F.Cmt.unit_info) ->
      match u.u_annots with
      | Cmt_format.Implementation str ->
          register_structure st ~file:u.u_src ~scope:[ u.u_name ] str
      | _ -> ())
    units;
  let fns = List.rev st.order in
  st.loud <- false;
  infer_results st fns;
  st.loud <- true;
  List.iter (check_fn st) fns;
  List.sort_uniq F.compare_findings st.findings
