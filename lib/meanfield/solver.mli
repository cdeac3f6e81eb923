(** Mean-field equilibrium of N homogeneous PFTK flows behind one drop law.

    In equilibrium the population, the queue and the drop law must agree:

    - each flow sends at the PFTK rate [B(p, RTT)] (eq. (32) or (33));
    - the round-trip time carries the queueing delay,
      [RTT = base_rtt + queue/capacity];
    - a saturated link forces [N·B(p, RTT) = capacity] — the loss supplies
      exactly the [p] that makes demand meet capacity;
    - the drop law closes the loop: the queue must sit where the law emits
      that [p] ({!Queue_law.queue_for_drop}).

    The solver runs the damped fixed-point iteration
    [q ← (1-γ)·q + γ·Φ(q)] where [Φ] maps an occupancy to the occupancy
    the law demands for the loss that balances the link at that occupancy.
    [Φ] is monotone non-increasing, so the undamped iteration oscillates
    whenever [|Φ'| > 1] — the fixed-point shadow of Reynier's RED
    stability condition.  The damping keeps the solver itself convergent;
    the reported {!equilibrium.loop_gain} is the measured [|Φ'|] at the
    fixed point, and a residual that refuses to shrink is reported as
    {!Oscillating} — a finding about the configuration, never an
    exception.

    Every quantity here is per the population, so the cost is independent
    of [flows]: solving for 10⁶ flows is the same arithmetic as for 2. *)

type rate_law = Full | Approximate
(** Which PFTK formula closes the flow side: eq. (32) with its timeout
    term, or the square-root eq. (33). *)

type config = {
  flows : int;  (** Population size N, >= 1. *)
  capacity : float; [@pftk.unit "pkt/s"]
      (** Bottleneck service rate C, packets per second. *)
  base_rtt : float; [@pftk.unit "s"]
      (** Two-way propagation delay excluding queueing. *)
  b : int;  (** Packets acknowledged per ACK, as in {!Pftk_core.Params}. *)
  wm : int;  (** Receiver window cap, packets; [<= 0] means unlimited. *)
  law : Queue_law.t;
  rate_law : rate_law;
  t0_factor : float; [@pftk.unit "1"]
      (** Timeout as a multiple of RTT, [T0 = t0_factor·RTT]. *)
  damping : float; [@pftk.unit "1"]
      (** Fixed-point damping γ in (0, 1]; 1 is the undamped map. *)
  max_iterations : int;
  tolerance : float; [@pftk.unit "1"]
      (** Relative residual on the queue at which iteration stops. *)
}

val default :
  flows:int -> capacity:float -> base_rtt:float -> law:Queue_law.t -> config
[@@pftk.unit "_ -> pkt/s -> s -> _ -> _"]
(** [b = 2], [wm] unlimited, full model, [t0_factor = 4] (the TFRC
    rule, [T0 = 4 RTT]), [damping = 0.5], [max_iterations = 200],
    [tolerance = 1e-6]. *)

type outcome =
  | Converged
  | Oscillating of float
      (** The damped iteration still bounced by this queue amplitude
          (packets, half the trailing peak-to-peak) after
          [max_iterations]: the drop law has no stable operating point at
          this damping. *)

type equilibrium = {
  p : float; [@pftk.unit "prob"]
      (** Equilibrium loss probability (0 when underutilized). *)
  queue : float; [@pftk.unit "pkt"]  (** Averaged queue occupancy. *)
  rtt : float; [@pftk.unit "s"]  (** [base_rtt] plus queueing delay. *)
  per_flow_rate : float; [@pftk.unit "pkt/s"]
  per_flow_goodput : float; [@pftk.unit "pkt/s"]
      (** [per_flow_rate·(1-p)] — the delivered share. *)
  utilization : float; [@pftk.unit "1"]
      (** [N·per_flow_rate/capacity]; [Constant] laws have no capacity
          coupling, so only there may it exceed 1. *)
  window_limited : bool;
      (** Whether the flows are pinned by [wm] rather than loss. *)
  iterations : int;  (** Fixed-point iterations spent (0 = closed form). *)
  residual : float; [@pftk.unit "pkt"]
      (** Final queue residual [|Φ(q) - q|]. *)
  loop_gain : float; [@pftk.unit "1"]
      (** Measured [|Φ'|] at the operating point; > 1 flags a law whose
          undamped feedback overshoots (RED instability proxy). *)
  outcome : outcome;
}

val solve : config -> equilibrium
[@@pftk.unit "_ -> _"]
(** Raises [Invalid_argument] when [flows < 1], [capacity] or
    [base_rtt] is not positive and finite, [b < 1], [t0_factor <= 0], [damping] outside (0, 1],
    [max_iterations < 1], [tolerance <= 0], or the law fails
    {!Queue_law.validate}.  Never raises on a non-convergent law — that is
    the {!Oscillating} outcome. *)

val solve_drop_tail : config -> buffer:int -> equilibrium
(** [solve] with [cfg.law] replaced by a drop-tail buffer of [buffer]
    packets, where [buffer = 0] (no queue: the equilibrium at
    [base_rtt]) is allowed although {!Queue_law.drop_tail} rejects it.
    The provisioning use of eq. (32): for [N] flows filling a link of
    capacity [C], the RTT carries half the buffer
    ({!Queue_law.queue_for_drop}) and the loss is whatever slows each
    flow to [C/N].  Raises [Invalid_argument] as {!solve} does, and when
    [buffer < 0]. *)

val required_buffer : ?target_p:float -> config -> int
[@@pftk.unit "prob -> _ -> _"]
(** Smallest drop-tail buffer (whole packets) whose equilibrium loss
    under {!solve_drop_tail} is at most [target_p] (default 0.01);
    [cfg.law] is not used.  Round-trip guarantee:
    [(solve_drop_tail cfg ~buffer:(required_buffer ~target_p cfg)).p
    <= target_p] whenever any buffer up to 100_000 packets meets the
    target.  Returns [0] when even an empty buffer does, and caps at
    100_000 when none does (check the equilibrium there before trusting
    the cap).  Raises [Invalid_argument] unless [0 < target_p < 1], and
    on a [cfg] that {!solve_drop_tail} rejects. *)
