(** The harness driver: generate cases, run the invariant catalog over
    them in parallel ({!Pftk_parallel}), shrink what fails, and report.

    Determinism contract: a report is a pure function of [(cases, seed,
    only)].  Case [i] is generated from its own {!Gen.rng_for} stream and
    every invariant is deterministic, so [jobs] only changes wall-clock
    time — {!pp_report} output is byte-identical for every [jobs] value
    (which is why the report never mentions [jobs]). *)

type config = {
  cases : int;  (** Number of generated cases, indices [0 .. cases-1]. *)
  seed : int64;  (** Base seed; each case derives its own stream. *)
  jobs : int;  (** Worker domains; [1] runs sequentially. *)
  only : string option;  (** Restrict to one invariant (id or name). *)
}

type failure = {
  index : int;  (** Generated case index. *)
  invariant : Invariant.t;
  reason : string;  (** From the original (unshrunk) failing case. *)
  shrunk : Case.t;  (** {!Shrink.minimize} fixpoint, still failing. *)
  shrunk_reason : string;  (** The failure as reported on [shrunk]. *)
}

type report = {
  cases : int;
  seed : int64;
  checked : (string * int * int * int) list;
      (** Per invariant id, in catalog order: (id, passes, skips, fails). *)
  failures : failure list;  (** Sorted by (index, invariant id). *)
}

val run : config -> report
(** Raises [Invalid_argument] when [cases < 0], [jobs < 1], or [only]
    names no invariant. *)

val catalog : only:string option -> Invariant.t list
(** The invariants a config selects; raises [Invalid_argument] on an
    unknown name. *)

val pp_report : Format.formatter -> report -> unit
(** Full deterministic report: header, per-invariant table, then each
    failure with its shrunk counterexample in corpus form. *)

val counterexample_to_string : seed:int64 -> failure -> string
(** The corpus-file form of a failure: a commented header (invariant,
    seed/index provenance, reason) followed by the shrunk case's
    {!Case.to_string}.  {!Case.of_string} reads it back. *)

val ok : report -> bool
(** [true] when no invariant failed. *)
