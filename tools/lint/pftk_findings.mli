(** Shared plumbing for the three in-repo analyzers — pftk-race (typed
    rules R1–R4, L2, L3, L5), pftk-flow (interprocedural rules F1–F4)
    and pftk-units (dimensional rules U1–U4).  Everything the engines
    have in common lives here so each engine file carries only its
    rules: the finding record with its text and JSON renderings,
    path-zone tests, the scoped [[@lint.allow "..."]] escape hatch,
    canonical-name helpers for dune's wrapped-library name mangling,
    [.cmt]/[.cmti] discovery/loading, and the common CLI protocol. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, compiler convention *)
  rule : string;
      (** "R1".."R4", "L2", "L3", "L5", "F1".."F4", "U1".."U4", or
          "parse" *)
  message : string;
}

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

val finding_of_loc : file:string -> Location.t -> string -> string -> finding
(** [finding_of_loc ~file loc rule message]: a finding at [loc]'s start
    position. *)

val contains_sub : string -> string -> bool
(** [contains_sub s sub]: does [s] contain [sub]? *)

val under : root:string -> string -> bool
(** [under ~root path]: is [path] inside directory [root], whether given
    workspace-relative or absolute? Shared zone test for all engines. *)

(** Scoped suppression bookkeeping: a counting multiset of the rules
    currently allowed. Engines [push] on entering an attributed node and
    [pop] with the returned list on the way out. A [[@lint.allow "..."]]
    attribute lists rule names separated by spaces or commas. *)
module Allow : sig
  type t

  val create : unit -> t

  val push : t -> Parsetree.attributes -> string list
  (** The allows of a binding's or declaration's attributes. *)

  val push_expr : t -> Typedtree.expression -> string list
  (** The allows of an expression: its own attributes and those the
      typer moved into [exp_extra], where an attribute on a constrained
      or coerced expression ([(e : t) [@lint.allow "R3"]]) lands. *)

  val pop : t -> string list -> unit

  val active : t -> string -> bool
  (** Is a [[@lint.allow rule]] in scope? *)
end

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

(** [.cmt]/[.cmti] discovery and loading for the typed engines. *)
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

  val load_all : string list -> unit_info list
  (** [load] over [files], dropping unreadable entries. *)
end

val run_cli : tool:string -> analyze:(string list -> finding list) -> unit
(** The CLI protocol shared by all three tools: positional arguments are
    roots (default: [lib bin examples]), [--format=json] switches the
    report to JSON and [--format=sarif] to SARIF 2.1.0, any other [--]
    option errors with exit 2.  Each root is looked up both as given and
    under [_build/default], so the tools work from the build context
    (dune alias rules) and from the source root (developers); a root
    found in neither place ("tool: no such directory: ROOT"), or roots
    holding no [.cmt]/[.cmti] file, exit 2.  [analyze] maps the found
    paths to findings.  Exits 0 when clean, 1 on findings. *)
