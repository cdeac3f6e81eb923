(** AST-level static analysis for the pftk tree.

    Parses implementation files with the compiler's own parser and walks
    the Parsetree enforcing the repo invariants that the domain-parallel
    experiment runner depends on:

    - [L1] no polymorphic structural comparison ([=], [<>], [compare],
      [min], [max]) in [lib/core] and [lib/stats]: model math must use
      [Float.equal]/[Float.compare] or other explicit comparators (NaN
      and record-identity hazards).
    - [L2] determinism: no [Random.*], [Sys.time] or
      [Unix.gettimeofday] anywhere under [lib/]; randomness flows only
      through [Pftk_stats.Rng] and wall-clock readings belong in [bin/]
      or [perfbench/].
    - [L3] domain-safety: no module-toplevel [ref], [Hashtbl.create],
      [Buffer.create] or mutable-field record literal in [lib/]; shared
      mutable state races under [Pftk_parallel] fan-outs.
    - [L4] interface hygiene: every [lib/] module keeps a paired [.mli].
    - [L5] no [Obj.magic] and no partial [List.hd]/[Option.get] in
      [lib/].

    A finding can be suppressed by annotating the offending expression
    or binding with [[@lint.allow "L2"]] (several rules may be listed,
    separated by spaces or commas); the attribute scopes to the
    annotated subtree only, so every exception stays visible in the
    diff. *)

type finding = Pftk_findings.finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, compiler convention *)
  rule : string;  (** "L1".."L5", or "parse" for unparseable input *)
  message : string;
}
(** Re-export of {!Pftk_findings.finding} (the record shared by all
    three analyzers) so existing consumers keep their spelling. *)

val pp_finding : Format.formatter -> finding -> unit
(** Renders as [file:line:col [rule] message]. *)

val pp_findings_json : Format.formatter -> finding list -> unit
(** Renders the findings as a JSON array, one object per finding with
    fields [file], [line], [col], [rule], [message] — the [--format=json]
    output consumed by CI and editor integrations. *)

val compare_findings : finding -> finding -> int
(** Orders by file, then line, then column, then rule. *)

val under : root:string -> string -> bool
(** [under ~root path]: is [path] inside directory [root], whether given
    workspace-relative or absolute? Shared zone test for both analysis
    engines. *)

val allows_of_attrs : Parsetree.attributes -> string list
(** Rule names listed in [[@lint.allow "..."]] attributes (space- or
    comma-separated). Exposed so the typed engine (pftk-race) honours the
    same escape hatch; Typedtree attributes are Parsetree attributes. *)

val lint_source : path:string -> string -> finding list
(** [lint_source ~path src] lints one compilation unit given its source
    text. [path] decides which rules apply (e.g. only [lib/core] and
    [lib/stats] get L1) and appears in findings. Does not touch the
    filesystem, so it never reports L4. *)

val lint_dirs : string list -> finding list
(** Recursively collects every [.ml] under the given roots (skipping
    [_build] and dot-directories), lints each, and checks the L4
    [.mli]-pairing invariant for files under [lib/]. Findings are sorted
    by file, then position. *)
