(** Drop profiles for the mean-field bottleneck.

    The mean-field backend replaces the per-packet queue of [netsim] with a
    deterministic {e drop law}: a map from the (averaged) queue occupancy to
    the loss probability every flow in the population experiences.  Three
    laws cover the spectrum the ROADMAP papers study:

    - {b RED}, mirroring [Pftk_netsim.Queue_discipline]: no loss below
      [min_threshold], a linear ramp to [max_probability] on
      [[min_threshold, max_threshold)], and certain loss at or above
      [max_threshold] (the original, non-gentle RED that the packet-level
      simulator implements).  Unlike the simulator, [min_threshold =
      max_threshold] is accepted here and collapses the ramp to a step —
      the degenerate profile whose infinite slope is the textbook unstable
      limit of Reynier's stability condition.
    - {b Drop-tail} as the degenerate case: loss only at a full buffer.
    - {b Constant}: a fixed loss probability with no queue at all — the
      single-flow/open-loop limit in which the mean-field equilibrium must
      reduce to the PFTK send-rate formula (selfcheck invariant C12). *)

type red = {
  red_capacity : int;  (** Hard buffer limit, whole packets. *)
  min_threshold : float; [@pftk.unit "pkt"]
      (** Average occupancy below which nothing is dropped. *)
  max_threshold : float; [@pftk.unit "pkt"]
      (** Average occupancy at which the drop probability jumps to 1. *)
  max_probability : float; [@pftk.unit "prob"]
      (** Drop probability at the top of the linear ramp. *)
  weight : float; [@pftk.unit "1/pkt"]
      (** Per-packet EWMA gain of the average-queue estimator (the RED
          [w_q]); only the time-domain dynamics use it. *)
}

type t =
  | Drop_tail of int  (** Buffer capacity, whole packets. *)
  | Red of red
  | Constant of float  (** Fixed drop probability, no queue. *)

val drop_tail : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val red :
  ?weight:float ->
  ?max_probability:float ->
  capacity:int ->
  min_threshold:float ->
  max_threshold:float ->
  unit ->
  t
[@@pftk.unit "1/pkt -> prob -> _ -> pkt -> pkt -> _ -> _"]
(** [weight] defaults to 0.002 and [max_probability] to 0.1, matching
    [Pftk_netsim.Queue_discipline.red].  Requires
    [0 <= min_threshold <= max_threshold <= capacity] (equality of the
    thresholds is allowed, see above), [max_probability] in (0, 1] and
    [weight] in (0, 1]; raises [Invalid_argument] otherwise. *)

val constant : p:float -> t
[@@pftk.unit "prob -> _"]
(** Raises [Invalid_argument] unless [0 <= p < 1]. *)

val validate : t -> unit
(** Re-checks the constructor invariants (for laws built literally);
    raises [Invalid_argument] on violation. *)

val capacity : t -> int
(** The hard buffer limit in packets; [0] for [Constant]. *)

val drop_prob : t -> avg_queue:float -> float
[@@pftk.unit "_ -> pkt -> prob"]
(** The drop probability the law applies at averaged occupancy
    [avg_queue].  Drop-tail reads the instantaneous queue (it has no
    averager): 1 at or above capacity, else 0. *)

val queue_for_drop : t -> p:float -> float
[@@pftk.unit "_ -> prob -> pkt"]
(** The averaged occupancy at which the law supplies drop probability [p]
    — the equilibrium inverse of {!drop_prob} used by the fixed-point
    solver.  For RED: [min_threshold] when [p <= 0], the linear ramp
    inverse for [p < max_probability], and [max_threshold] beyond the ramp
    (past the ramp the queue pins at the cliff and loss becomes
    demand-determined, exactly like drop-tail).  For drop-tail: 0 when
    [p <= 0], else half the buffer — the mean of the empty-to-full
    sawtooth, which {!Solver.solve_drop_tail} also applies to the
    buffer-provisioning equilibrium.  For [Constant]: 0. *)
