(** One generated test case: every input the invariant catalog consumes.

    A case bundles model parameters, loss probabilities, an inversion
    target, a provisioning scenario, and two event traces (a well-formed
    one for the analyzers and an adversarial one for serialization).  Each
    invariant reads the fields it needs and ignores the rest, which keeps
    generation, shrinking and the corpus format uniform across the whole
    catalog.

    The textual encoding round-trips exactly: floats are written in [%h]
    hexadecimal (as trace files already do) and events reuse
    [Serialize.line_of_event], so a shrunk counterexample pinned under
    [test/corpus/] replays bit-identically forever. *)

type t = {
  params : Pftk_core.Params.t;  (** Path parameters for the models. *)
  p : float;  (** Primary loss probability, in (0, 1). *)
  p2 : float;  (** Second loss probability, [p < p2 < 1] (monotonicity). *)
  target_p : float;  (** The rate at this loss is the inversion target. *)
  flows : int;  (** Provisioning scenario (C8): competing flows. *)
  capacity : float;  (** Bottleneck capacity, packets/s. *)
  base_rtt : float;  (** Two-way propagation delay, seconds. *)
  fp_target_p : float;  (** Loss target for {!Pftk_meanfield.Solver.required_buffer}. *)
  trace : Pftk_trace.Event.t list;
      (** Finite floats, non-decreasing times: safe for the analyzers. *)
  adversarial : Pftk_trace.Event.t list;
      (** Serialization stress: NaN/infinite/denormal floats, extreme ints. *)
}

val to_string : t -> string
(** Textual form, one [key value] line per scalar field followed by the two
    counted trace blocks.  Deterministic; see {!of_string}. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string} ([Error] explains the first offending line).
    Comment lines starting with [#] and blank lines are ignored. *)

val equal : t -> t -> bool
(** Equality of the textual form (robust to NaN in the traces). *)

val pp : Format.formatter -> t -> unit
