(** The flow rules of pftk-analyze: interprocedural contract analysis
    over the loaded [.cmt] units.  Where the race rules (R1–R4) check
    each function in isolation, this engine builds a cross-module call graph of every toplevel binding in
    the run and enforces the contracts the [_unchecked] kernel
    convention and the batch engine's zero-allocation discipline rest
    on:

    - [F1] every call site of a [*_unchecked] value must be dominated,
      within the calling function, by a recognized domain guard — a
      [check*]/[validate] call (e.g. [Params.check_p],
      [Params.validate], [Scan.validate]), a conditional or match with
      an [invalid_arg]/[failwith]/[raise]-ing branch earlier in the
      function — or the caller must itself be [*_unchecked]-named
      (including [let helper_unchecked = ... in ...] locals),
      propagating the contract to its own callers.  The walk follows
      sequences, lets, conditionals and matches; a guard anywhere in the
      evaluated prefix dominates the rest of the body.
    - [F2] a function annotated [[@pftk.zero_alloc]] must contain no
      allocating construct in its typed body: closure construction,
      tuple/record/array/constructor/polymorphic-variant literals,
      [lazy], partial applications, stores to float fields of mixed
      records (each one boxes), calls to allocating externals
      (everything that is neither a [%]-intrinsic nor [[@@noalloc]]),
      and calls to functions not themselves annotated
      [[@pftk.zero_alloc]] — unknown callees are flagged, so the
      allocation-freedom proof is closed over the annotation.  The
      parameter spine (the closure itself, built once at definition
      time) is exempt; a boxed float can only escape through one of the
      flagged constructs, which is what makes the per-row paths
      allocation-free.
    - [F3] no [raise]/[failwith]/[invalid_arg]/[assert] may be reachable
      from a [[@pftk.zero_alloc]] or [*_unchecked] body, directly or
      through any chain of calls to functions analyzed in the run
      (computed/external callees are assumed non-raising — the
      documented heuristic; [try ... with] bodies count as handled).
      Kernels signal rejection via the NaN sentinel, never exceptions.
    - [F4] any exported [lib/] function that can return the NaN sentinel
      (its body, or a callee's, mentions [Float.nan]/[nan]) must say
      "NaN" in its [.mli] doc comment — a pinned substring check, so
      sentinel discipline stays auditable at the interface.

    Findings honour the same scoped [[@lint.allow "F1"]] escape hatch
    as the other rules, on expressions (constrained ones included),
    value bindings and (for F4) interface declarations.  Each run builds
    its own function table and call graph. *)

val analyze : Pftk_findings.Cmt.unit_info list -> Pftk_findings.finding list
(** [analyze units] builds the cross-module function table and call
    graph of the units, closes may-raise and returns-NaN over it, then
    runs F1–F4.  Findings are sorted by file, then position, and
    deduplicated. *)
