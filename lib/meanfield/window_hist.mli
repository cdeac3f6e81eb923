(** Window-distribution state of a homogeneous flow population.

    The mean-field limit of N AIMD flows (McDonald–Reynier) tracks the
    {e distribution} of congestion windows, not the flows: one probability
    mass per window bin, the same object for N = 2 or N = 10⁶.  This module
    is that state — a fixed-width histogram over [0, wmax] advanced by the
    two mean-field transport terms:

    - {b additive increase}: mass drifts right at [1/(b·RTT)] packets per
      second (one window per [b] rounds), upwind-discretized;
    - {b multiplicative decrease}: mass in a bin at window [w] suffers loss
      indications at rate [p·w/RTT] (each of the [w/RTT] packets per second
      is marked with probability [p]) and jumps to [w/2], deposited across
      the two bracketing bins so both mass and mean are conserved.

    The top bin is absorbing under drift — mass that reaches [wmax] stays
    there until a loss halves it — which is exactly the receiver-window
    clamp [W_m] when [wmax] is set to the advertised window.  Timeouts are
    not modeled: this is the pure AIMD population process of the mean-field
    papers, and the divergence from eq. (32) at timeout-dominated loss
    rates is measured (and bounded) by selfcheck invariant C12.

    One step costs O(bins), independent of the population size: two
    sweeps over the bins, reading per-bin tables that {!create} builds. *)

type t

val create : ?bins:int -> wmax:float -> unit -> t
[@@pftk.unit "_ -> pkt -> _ -> _"]
(** A histogram of [bins] cells (default 256) spanning windows
    [0 .. wmax].  All mass starts at zero; call {!reset}.  Raises
    [Invalid_argument] when [bins < 2] or [wmax] is not positive and
    finite. *)

val reset : t -> mean:float -> spread:float -> unit
[@@pftk.unit "_ -> pkt -> pkt -> _"]
(** Re-initialize to unit mass spread uniformly over
    [[mean - spread, mean + spread]] clipped to [0, wmax] (a point mass in
    the bin containing [mean] when the interval collapses).  Starting the
    population spread out rather than synchronized lets a stable law mix
    toward its stationary profile instead of locking into an artificial
    global sawtooth. *)

val bins : t -> int

val wmax : t -> float
[@@pftk.unit "_ -> pkt"]

val width : t -> float
[@@pftk.unit "_ -> pkt"]
(** Bin width, [wmax / bins]. *)

val mass : t -> int -> float
[@@pftk.unit "_ -> _ -> 1"]
(** [mass t i] is the probability mass in bin [i], which covers windows
    [[i·width, (i+1)·width)].  Raises [Invalid_argument] unless
    [0 <= i < bins t]. *)

val total : t -> float
[@@pftk.unit "_ -> 1"]
(** Total mass; 1 after {!reset} and conserved by {!step} (up to float
    rounding — the transport terms only move mass between bins). *)

val mean : t -> float
[@@pftk.unit "_ -> pkt"]
(** Mean window E[W] over bin centers.  O(1): the sum the last {!step}
    or {!reset} computed (0 before the first). *)

val second_moment : t -> float
[@@pftk.unit "_ -> pkt^2"]
(** E[W²], the moment the AIMD drift balance pins: a stationary
    distribution satisfies [E[W²] = 2/(b·p)]. *)

val step : t -> dt:float -> drift:float -> p:float -> rtt:float -> unit
[@@pftk.unit "_ -> s -> pkt/s -> prob -> s -> _"]
(** Advance the distribution by [dt]: halving flux at loss probability [p]
    and round-trip time [rtt], then upwind drift at [drift] packets per
    second.  Outflow fractions are clamped to the available mass, so any
    [dt] is mass-conserving and non-negative; steps beyond {!max_dt} only
    lose accuracy, never stability. *)

val max_dt : t -> drift:float -> p:float -> rtt:float -> float
[@@pftk.unit "_ -> pkt/s -> prob -> s -> s"]
(** The largest step for which neither transport term wants to move more
    than 90% of a bin's mass: the CFL bound [0.9·width/drift] against the
    drift, and [0.9·rtt/(p·wmax)] against the fastest halving rate. *)
