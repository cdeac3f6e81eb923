(** The paper's primary contribution: the "full model" of eq. (32), giving
    steady-state TCP Reno send rate as a function of loss probability with
    triple-duplicate ACKs, timeouts with exponential backoff, and
    receiver-window limitation all accounted for.

    The model switches between two regimes (§II-C): when the unconstrained
    mean window [E[W_u]] of eq. (13) stays below the receiver limit [W_m]
    the send rate is eq. (28); otherwise the window saturates at [W_m] and
    the TDP geometry changes to the flat-topped sawtooth of Fig. 6. *)

val window_limited : Params.t -> float -> bool
[@@pftk.unit "_ -> prob -> _"]
(** [true] when [E[W_u] >= W_m], i.e. eq. (32) takes its second branch. *)

val send_rate : ?q:Qhat.variant -> Params.t -> float -> float
[@@pftk.unit "_ -> _ -> prob -> pkt/s"]
(** Eq. (32), packets per second.  [q] selects how Q-hat is evaluated
    (default {!Qhat.Closed}, the paper's eq. 24); {!Qhat.Approximate} gives
    the [min(1, 3/w)] ablation. *)

val send_rate_unchecked :
  approx_q:bool -> Tdonly.consts -> rtt:float -> t0:float -> wm:float ->
  float -> float
[@@pftk.unit "_ -> _ -> s -> s -> _ -> prob -> pkt/s"]
(** {!send_rate} without the domain guards, on unboxed fields, with
    [E[W_u]] and [log (1-p)] each computed once: the per-row body of the
    batch kernels.  Q-hat is eq. (24), or eq. (25) when [approx_q]
    (as [~q:Qhat.Approximate]).  Validated-input convention, as
    {!Approx_model.send_rate_unchecked}.  Bit-identical to {!send_rate}
    on the domain. *)

val send_rate_unconstrained : ?q:Qhat.variant -> Params.t -> float -> float
[@@pftk.unit "_ -> _ -> prob -> pkt/s"]
(** Eq. (28): the no-window-limit branch, regardless of [W_m]. *)

val send_rate_limited : ?q:Qhat.variant -> Params.t -> float -> float
[@@pftk.unit "_ -> _ -> prob -> pkt/s"]
(** The window-limited branch of eq. (32), regardless of [E[W_u]]. *)

val e_u : Params.t -> float
[@@pftk.unit "_ -> 1"]
(** §II-C: expected rounds of linear growth per TDP when limited,
    [E[U] = (b/2) W_m]. *)

val e_v : Params.t -> float -> float
[@@pftk.unit "_ -> prob -> 1"]
(** §II-C: expected rounds at the flat top,
    [E[V] = (1-p)/(p W_m) + 1 - (3b/8) W_m].  May be negative when the
    limited branch is evaluated outside its regime; callers guard with
    {!window_limited}. *)

val e_x_limited : Params.t -> float -> float
[@@pftk.unit "_ -> prob -> 1"]
(** §II-C: [E[X] = (b/8) W_m + (1-p)/(p W_m) + 1]. *)

val timeout_fraction : ?q:Qhat.variant -> Params.t -> float -> float
[@@pftk.unit "_ -> _ -> prob -> prob"]
(** The model's Q of eq. (26): probability that a loss indication is a
    timeout, evaluated at the regime's effective window
    ([E[W_u]] or [W_m]). *)
