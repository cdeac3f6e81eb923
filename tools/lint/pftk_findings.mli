(** Shared plumbing for the three rule engines of pftk-analyze — race
    (typed rules R1–R4, L2, L3, L5), flow (interprocedural rules F1–F4)
    and units (dimensional rules U1–U4).  Everything the engines have in
    common lives here so each engine file carries only its rules: the
    finding record with its text, JSON and SARIF renderings, path-zone
    tests, the sink that collects findings under the scoped
    [[@lint.allow "..."]] escape hatch, canonical-name helpers for dune's
    wrapped-library name mangling, the Typedtree helpers more than one
    engine uses, and [.cmt]/[.cmti] discovery and loading. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, compiler convention *)
  rule : string;
      (** "R1".."R4", "L2", "L3", "L5", "F1".."F4", "U1".."U4", or
          "parse" *)
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col [rule] message], the text report's line. *)

val pp_findings_json : Format.formatter -> finding list -> unit
(** Renders the findings as a JSON array, one object per finding with
    fields [file], [line], [col], [rule], [message] — the
    [--format=json] output consumed by CI and editor integrations. *)

val pp_findings_sarif : tool:string -> Format.formatter -> finding list -> unit
(** Renders the findings as a SARIF 2.1.0 log (one run, driver [tool],
    a rule descriptor per distinct rule id, one result per finding) —
    the [--format=sarif] output GitHub code scanning and SARIF-aware
    editors ingest.  SARIF columns are 1-based, so [startColumn] is
    [col + 1]. *)

val compare_findings : finding -> finding -> int
(** Orders by file, then line, then column, then rule, then message. *)

val contains_sub : string -> string -> bool
(** [contains_sub s sub]: does [s] contain [sub]? *)

val under : root:string -> string -> bool
(** [under ~root path]: is [path] inside directory [root], whether given
    workspace-relative or absolute? Shared zone test for all engines. *)

val string_payload : Parsetree.attribute -> string option
(** The string of an attribute written [[@name "..."]]; [None] for any
    other payload. *)

(** {2 The findings sink}

    One per engine run.  Engines [push] the [[@lint.allow "..."]] rules
    of a node's attributes on entering it and [pop] the returned list on
    the way out; [report] drops a finding whose rule is in scope.  An
    attribute lists rule names separated by spaces or commas. *)

type sink

val sink : unit -> sink

val push : sink -> Parsetree.attributes -> string list
(** Brings the allows of a binding's or declaration's attributes into
    scope and returns them. *)

val push_expr : sink -> Typedtree.expression -> string list
(** The allows of an expression: its own attributes and those the typer
    moved into [exp_extra], where an attribute on a constrained or
    coerced expression ([(e : t) [@lint.allow "R3"]]) lands. *)

val pop : sink -> string list -> unit

val report : sink -> file:string -> Location.t -> string -> string -> unit
(** [report t ~file loc rule message] records a finding at [loc]'s start
    unless a [[@lint.allow rule]] is in scope or the sink is quiet. *)

val quietly : sink -> (unit -> unit) -> unit
(** Runs the function with reporting off (the units engine's inference
    fixpoint walks bodies it checks again afterwards). *)

val findings : sink -> finding list
(** Everything reported, sorted by [compare_findings] and
    deduplicated. *)

(** {2 Names} *)

val canonical : string -> string
(** dune mangles wrapped-library module names as [Pftk_core__Params];
    [Path.name] at use sites goes through the wrapper alias and prints
    [Pftk_core.Params.t]. Replacing ["__"] with ["."] puts declarations
    and references in the same namespace. *)

val split_canonical : string -> string list
(** [canonical] then split on ['.']. *)

val strip_stdlib : string list -> string list
(** Drops a leading ["Stdlib"] component so [Stdlib.compare] and
    [compare] look alike. *)

val path_key : Path.t -> string
(** A local identifier's own name, any other path's [canonical] name. *)

val scoped_names : scope:string list -> string -> string list
(** The dotted names a reference to [base] made inside [scope] (a unit
    and its nested modules) may resolve to, longest scope first: [base]
    qualified by each shorter prefix of [scope], so sibling references
    ([Pident], nested-module locals) and wrapper-qualified cross-module
    paths land on the same keys. *)

(** {2 Typedtree helpers} *)

val is_float : Types.type_expr -> bool
(** Is the type [float] itself? *)

val mentions_float : Types.type_expr -> bool
(** Does [float], [floatarray] or [Float.Array.t] appear anywhere in
    the type expression (arrows, tuples and type arguments included)? *)

val is_unchecked : string -> bool
(** The validated-input naming convention: does the name end in
    [_unchecked]? *)

val is_guard_call : Typedtree.expression -> bool
(** An application of a [check*]- or [validate]-named function, the
    domain-guard call R4 and F1 recognize. *)

val iter_structure :
  ?value:(scope:string list -> Typedtree.value_binding -> unit) ->
  ?types:(scope:string list -> Typedtree.type_declaration -> unit) ->
  scope:string list ->
  Typedtree.structure ->
  unit
(** Calls [value] on every value binding and [types] on every type
    declaration of the structure and of its named submodules (through
    constraints), with [scope] extended by each module's name. *)

val iter_signature :
  ?value:(scope:string list -> Typedtree.value_description -> unit) ->
  ?types:(scope:string list -> Typedtree.type_declaration -> unit) ->
  scope:string list ->
  Typedtree.signature ->
  unit
(** The same walk over an interface: [val] items, type declarations and
    named submodule signatures. *)

(** [.cmt]/[.cmti] discovery and loading. *)
module Cmt : sig
  type unit_info = {
    u_name : string;  (** canonical unit name *)
    u_src : string;  (** source path recorded in the cmt *)
    u_annots : Cmt_format.binary_annots;
  }

  val files : string list -> string list
  (** The [.cmt]/[.cmti] files under the given paths (directories walked
      recursively, including dot-directories; plain files taken as-is),
      sorted and deduplicated. Lets callers distinguish "clean tree"
      from "nothing was analyzed because no build artefacts exist". *)

  val load : string -> unit_info option
  (** One file; [None] if unreadable. *)
end
