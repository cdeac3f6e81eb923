(** Domain-parallel fan-out for independent simulation jobs.

    Every expensive fan-out in this repository — per-path hour traces,
    100-s connection batches, Monte-Carlo sweeps — is embarrassingly
    parallel: each item derives its own RNG stream from its index, so
    items never share mutable state.  This module runs such fan-outs on
    OCaml 5 domains ([Domain] + [Atomic], no external dependencies) while
    keeping results in input order.

    [jobs] counts the calling domain.  A call over [n] items spawns
    [min jobs n - 1] helper domains for its own duration; the caller and
    the helpers each claim the next unstarted item from one shared
    counter until none is left, then the caller joins the helpers.  So
    [jobs:2] runs two domains in all (one per core on a two-core
    machine), and a call over one item runs on the caller alone.

    Domain cap: the runtime refuses to run more than a fixed number of
    domains at once (128 on 64-bit OCaml 5.1).  When [Domain.spawn]
    refuses a helper, the call spawns no further helpers and the domains
    already running — at least the caller — finish every item.  Any
    [jobs] value therefore completes with the same results; only the
    parallelism is capped.

    Determinism contract: callers must make each item's work a pure
    function of the item itself (per-index seeds, no shared RNG).  Under
    that discipline the results are identical for every [jobs] value, and
    [jobs:1] short-circuits to the plain sequential [List.map] /
    [Array.init] path without spawning any domain.

    Nesting: an item may itself call {!map}, {!mapi} or {!init}; the inner
    call runs on the item's domain and spawns its own helpers, and results
    keep their order at both levels.  Domain counts multiply (an outer
    [jobs:a] over inner [jobs:b] calls runs up to [a * b] domains), so keep
    inner fan-outs at [jobs:1] when the outer level already saturates the
    machine. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the value command-line front
    ends default their [--jobs] flag to. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by up to [jobs] domains,
    the caller included.  Results are returned in input order.  If any
    application of [f] raises, items not yet started are abandoned and the
    first observed exception is re-raised in the caller (with its
    backtrace) after every helper domain has stopped.  [jobs:1] is exactly
    [List.map].  Requires [jobs >= 1]. *)

val mapi : jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map} with the item's index, mirroring [List.mapi] — the shape
    of every per-path experiment loop (the index feeds the seed). *)

val init : jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] computed in parallel; same
    ordering and exception contract as {!map}.  Requires [n >= 0]. *)
