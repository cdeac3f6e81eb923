(** Typed, cross-module analysis over the [.cmt]/[.cmti] files dune
    emits ([dune build @check] produces them as a side effect of every
    build). The engine loads [Cmt_format] binary annotations and walks
    the Typedtree, so it sees through aliases, inferred types and module
    boundaries:

    - [R1] a closure passed to [Pftk_parallel.map]/[mapi]/[init] or
      [Pool.submit] must not capture a free identifier whose type
      contains mutable structure ([ref], [array], [bytes], [Hashtbl.t],
      [Buffer.t], [Queue.t], records with [mutable] fields — computed
      transitively from every type declaration loaded in the run).
      Shared mutable captures are exactly the races the domain-parallel
      fan-out contract forbids.
    - [R2] no [lib/*] interface may export a toplevel value of mutable
      type: a [val cache : (k, v) Hashtbl.t] is cross-module shared
      state that R1 could never see from the capture site alone.
    - [R3] the polymorphic-comparison ban: any use, in [lib/core] or
      [lib/stats], of an external value whose type scheme is
      ['a -> 'a -> bool/int/'a] — [=], [<>], [==], [compare], [min],
      [max] (even where the instance is [int]), their aliases and
      functor-instantiated comparators.  Model math must use
      [Float.equal]/[Float.compare] or other explicit comparators (NaN
      and record-identity hazards).
    - [R4] every exported [lib/core] entry point taking a probability or
      duration parameter (named [p], [rtt] or [t0], of type [float])
      must domain-check it before first use: a [check*]/[validate] call
      or an [invalid_arg]/[failwith] guard mentioning the parameter (or
      a let-bound value built from it) in the function's guard prefix.
      Shallow and function-local by design, not full dataflow.
      Bindings whose name ends in [_unchecked] are exempt: that suffix
      is the repo's validated-input convention — the batch engine
      ([lib/batch]) hoists the domain scan out of its inner loops and
      dispatches to these kernels with inputs already proven in-domain
      (selfcheck invariant C11 holds them to the guarded scalar results
      bit-for-bit).  Scalar exports without the suffix stay guarded.
    - [L2] determinism: no [Random.*], [Sys.time], [Unix.gettimeofday]
      or [Unix.time] anywhere under [lib/]; randomness flows only
      through [Pftk_stats.Rng] and wall-clock readings belong in [bin/]
      or [perfbench/].
    - [L3] domain safety: no [ref], [Hashtbl.create], [Buffer.create]
      or literal of a record type with a [mutable] field (wherever the
      type is declared) in code a [lib/] module runs at init time —
      toplevel value and expression items, up to the first function
      literal.  Such values are shared by every domain a fan-out spawns.
    - [L5] no [Obj.magic] and no partial [List.hd]/[Option.get] in
      [lib/].

    Findings honour the scoped [[@lint.allow "R1"]] escape hatch on
    expressions (constrained ones included), value bindings and (for
    R2) interface declarations.

    The analyzer keeps run-wide state (the cross-module type-declaration
    table); it is not thread-safe. *)

val analyze_paths : string list -> Pftk_findings.finding list
(** [analyze_paths paths] loads every [.cmt]/[.cmti] found under the
    given paths (directories are walked recursively, including the
    dot-directories dune hides object files in; plain file paths are
    taken as-is), builds the cross-module type-declaration table, then
    runs R1-R4, L2, L3 and L5. Findings are sorted by file, then
    position, and deduplicated. *)
