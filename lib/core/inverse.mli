(** Model inversion: given a target rate, find the loss probability that
    produces it, and the "TCP-friendly" applications built on top.

    The paper's stated motivation (§I) for a closed-form B(p) is defining a
    fair-share send rate for non-TCP flows.  A TFRC-style controller
    measures [p] and [RTT] and sets its rate to [B(p)]; conversely, an
    admission controller asks what loss budget sustains a desired rate.
    Every model in the suite is strictly decreasing in [p], so bisection on
    [log p] is exact and robust. *)

val loss_for_rate :
  ?lo:float ->
  ?hi:float ->
  ?tolerance:float ->
  (float -> float) ->
  float ->
  float option
[@@pftk.unit "prob -> prob -> 1 -> _ -> pkt/s -> prob"]
(** [loss_for_rate model target] finds [p] in [\[lo, hi\]] (defaults
    [1e-9, 0.999]) with [model p = target], assuming [model] is
    non-increasing in [p].  [None] when the target lies outside
    [model hi .. model lo], or is NaN.  [tolerance] is relative on
    [log p] (default 1e-9).

    When several losses attain the target — every capped model plateaus at
    [Wm/RTT] below the window-limited knee — the result is the {e largest}
    such [p] (within tolerance): the returned value is a loss {e budget},
    the worst loss under which the rate is still met.  The returned [p]
    always satisfies [model p >= target]. *)

val tcp_friendly_rate : Params.t -> float -> float
[@@pftk.unit "_ -> prob -> pkt/s"]
(** The fair-share send rate a non-TCP flow should adopt under measured
    loss [p] and the path's parameters: {!Full_model.send_rate}. *)

val tcp_friendly_rate_simple : Params.t -> float -> float
[@@pftk.unit "_ -> prob -> pkt/s"]
(** Same using the approximate model (eq. 33), the form TFRC standardized. *)

val loss_budget : Params.t -> rate:float -> float option
[@@pftk.unit "_ -> pkt/s -> prob"]
(** Largest loss probability under which the full model still sustains
    [rate] (packets/s).  Eq. (32) is only piecewise monotone — the send
    rate jumps upward where [E[W_u]] crosses [W_m] — so this searches the
    unconstrained and window-limited segments separately rather than
    trusting a single bisection across the knee.  [None] when no loss in
    [\[1e-9, 0.999\]] sustains [rate], which includes every non-positive,
    infinite or NaN [rate]. *)

val rate_in_bytes : mss:int -> float -> float
[@@pftk.unit "_ -> pkt/s -> byte/s"]
(** Convert packets/s to bytes/s at a given maximum segment size. *)
