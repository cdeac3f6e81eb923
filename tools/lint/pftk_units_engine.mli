(** The units rules of pftk-analyze: typed dimensional analysis over
    the loaded [.cmt]/[.cmti] units.  Every PFTK quantity has a physical dimension — RTT and
    T0 in seconds, windows and per-TDP packet counts in packets, send
    rates in packets/second, [p] and Q-hat dimensionless probabilities —
    but in the source they are all bare [float]s.  This engine gives the
    analyzer stack a unit algebra and checks it across module
    boundaries.

    {2 The algebra}

    Base dimensions [s] (seconds), [pkt] (packets) and [byte] (bytes)
    with integer exponents, composed with [*], [/] and [^]: ["pkt/s"],
    ["byte/s"], ["s^2"], ["1/s"].  ["1"] and ["prob"] both denote the
    dimensionless unit: probabilities, ratios, counts-of-rounds and the
    paper's pure-number expressions ([ (1-p)/p ], [Q-hat], delivery
    ratios) carry no dimension.  Dimensionless values behave like float
    literals — they adapt to any context — so eq. (5)'s
    [(1-p)/p + E[W]] (a pure number plus a packet count) is fine, while
    [rtt +. window] (seconds plus packets) is a finding.

    {2 Declaring units}

    - On a signature item: [val send_rate : rtt:float -> b:int -> float
      -> float [@@pftk.unit "s -> _ -> prob -> pkt/s"]] — one component
      per arrow component, [_] for components that carry no constraint
      (non-floats, unit-polymorphic arguments), the last component is
      the result.  A parenthesized tuple component (["(prob, s, s,
      pkt)"]) documents per-element units of a tuple.
    - On a record field (interface or implementation):
      [rtt : float [@pftk.unit "s"]].  For [floatarray]/[float array]
      fields the unit is the {e element} unit.
    - On a [let] binding in an implementation, same arrow spelling —
      this is how internal helpers opt in.
    - On an expression: [(float_of_int wm [@pftk.unit "pkt"])] {e
      asserts} a unit on a value the inference cannot see through
      (typically an [int] crossing into float arithmetic).

    Units of [int]-typed components are never tracked (counts are
    dimensionless); [float_of_int] yields an unknown unit unless cast.

    {2 The rules}

    - [U1] no mixed-unit addition, subtraction, comparison,
      [Float.min]/[Float.max]/[Float.rem], and no dimensioned argument
      to [sqrt]/[exp]/[log]/[log1p]/[expm1]/[**] — when both sides have
      a known, non-dimensionless unit and they differ.
    - [U2] call sites must match declared parameter units (resolved
      through the cross-module call graph, aliases included), record
      construction and field/array stores must match declared field
      units.
    - [U3] every exported float-mentioning signature item (values and
      record fields) in [lib/core], [lib/batch], [lib/online] and
      [lib/meanfield] must carry a [[@pftk.unit]] annotation — ["1"]
      (or [_] per component) is an explicit statement, absence is the
      finding.
    - [U4] a function whose declaration names a result unit must not
      return a body inferred to a {e different} known unit.

    {2 Heuristics and limits (documented, deliberate)}

    Inference is conservative: a finding requires both sides to be
    {e known}, so unannotated code stays silent rather than noisy.
    Units flow through float arithmetic, [let]/[match]/[if] joins,
    [Some]/option payloads, record fields, [Float.Array.get]/[set] (and
    [Array.get]/[set]) element access, and declared or inferred
    function results; [float_of_int] and record values themselves are
    unit-opaque.  Result units of unannotated functions are inferred
    via a small fixpoint (aliases copy their callee's signature; a body
    that infers to a known unit exports it), mirroring the flow rules'
    call-graph closure.  Toplevel [let () = ...] effects are not
    walked, as in the flow rules.

    Findings honour the same scoped [[@lint.allow "U1"]] escape hatch as
    the other rules, on expressions, value bindings, signature items and
    record labels.  Each run builds its own tables. *)

val parse_unit : string -> (string, string) result
(** Parse a unit expression and return its normalized rendering
    (["prob"] normalizes to ["1"], ["pkt*1/s"] to ["pkt/s"]), or a
    parse-error message.  Exposed for the unit-algebra tests. *)

val parse_sig : string -> (string, string) result
(** Parse a full arrow annotation (["s -> _ -> pkt/s"]) and return its
    normalized rendering.  Exposed for the unit-algebra tests. *)

val analyze : Pftk_findings.Cmt.unit_info list -> Pftk_findings.finding list
(** [analyze units] collects declared units from the interfaces
    (checking U3 in the zone), registers every toplevel and
    nested-module binding, closes alias/result-unit inference over the
    call graph, then abstract-interprets each body enforcing U1, U2 and
    U4.  Findings are sorted by file then position, and
    deduplicated. *)
