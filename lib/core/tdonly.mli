(** Section II-A: loss indications are exclusively triple-duplicate ACKs.

    These are the closed forms for the means of the triple-duplicate-period
    (TDP) quantities, culminating in the TD-only send rate of eq. (19) and
    its square-root asymptotic of eq. (20).  The same expressions are the
    "TD only" baseline the paper compares against (Mathis et al. [9] /
    Mahdavi-Floyd [8], with delayed ACKs).

    All [p] arguments must satisfy [0 < p < 1] (checked). *)

type consts = {
  c_w : float; [@pftk.unit "1"]  (** [(2+b)/(3b)], the constant of eq. (13). *)
  c_w2 : float; [@pftk.unit "1"]  (** Its square. *)
  c_x : float; [@pftk.unit "1"]  (** [(2+b)/6], the constant of eq. (15). *)
  c_x2 : float; [@pftk.unit "1"]  (** Its square. *)
  two_b : float; [@pftk.unit "1"]  (** [2b]. *)
  three_b : float; [@pftk.unit "1"]  (** [3b]. *)
  b_8 : float; [@pftk.unit "1"]  (** [b/8], of eq. (32)'s limited branch. *)
}
(** The constants that depend on [b] alone, computed once per [b] so the
    per-row [_unchecked] bodies (here, in {!Approx_model} and in
    {!Full_model}) do not repeat their divisions. *)

val consts : b:int -> consts
(** [consts ~b] for [b >= 1] (unchecked). *)

val e_w : b:int -> float -> float
[@@pftk.unit "_ -> prob -> pkt"]
(** Eq. (13): expected unconstrained window size at the end of a TDP,
    [E[W] = (2+b)/(3b) + sqrt(8(1-p)/(3bp) + ((2+b)/(3b))^2)]. *)

val e_w_unchecked : consts -> float -> float
[@@pftk.unit "_ -> prob -> pkt"]
(** {!e_w} without the domain guards (validated-input convention: the
    caller vouches for [0 < p < 1] and passes the {!consts} of a
    [b >= 1]).  Bit-identical to {!e_w} on the domain. *)

val e_w_asymptotic : b:int -> float -> float
[@@pftk.unit "_ -> prob -> pkt"]
(** Eq. (14): [sqrt(8 / (3 b p))], the small-[p] leading term of {!e_w}. *)

val e_x : b:int -> float -> float
[@@pftk.unit "_ -> prob -> 1"]
(** Eq. (15): expected number of rounds in a TDP. *)

val e_x_unchecked : consts -> float -> float
[@@pftk.unit "_ -> prob -> 1"]
(** {!e_x} without the domain guards; same contract as
    {!e_w_unchecked}. *)

val e_a : rtt:float -> b:int -> float -> float
[@@pftk.unit "s -> _ -> prob -> s"]
(** Eq. (16): expected TDP duration, [RTT * (E[X] + 1)]. *)

val e_y : b:int -> float -> float
[@@pftk.unit "_ -> prob -> pkt"]
(** Eq. (5): expected packets per TDP, [(1-p)/p + E[W]]. *)

val e_alpha : float -> float
[@@pftk.unit "prob -> pkt"]
(** Eq. (4): expected packets up to and including the first loss, [1/p]. *)

val send_rate : rtt:float -> b:int -> float -> float
[@@pftk.unit "s -> _ -> prob -> pkt/s"]
(** Eq. (19): the exact TD-only send rate [E[Y] / E[A]], packets/second. *)

val send_rate_unchecked : consts -> rtt:float -> float -> float
[@@pftk.unit "_ -> s -> prob -> pkt/s"]
(** {!send_rate} without the domain guards (caller additionally vouches
    for [rtt > 0]).  Bit-identical to {!send_rate} on the domain. *)

val send_rate_sqrt : rtt:float -> b:int -> float -> float
[@@pftk.unit "s -> _ -> prob -> pkt/s"]
(** Eq. (20): the square-root approximation [(1/RTT) sqrt(3 / (2bp))]. *)

val send_rate_capped : Params.t -> float -> float
[@@pftk.unit "_ -> prob -> pkt/s"]
(** {!send_rate} additionally clamped at [wm / rtt]; the best case the
    TD-only family can claim once the receiver window binds. *)

val mathis : rtt:float -> b:int -> float -> float
[@@pftk.unit "s -> _ -> prob -> pkt/s"]
(** The baseline of [8]/[9] exactly as the paper plots it ("TD only"):
    identical to {!send_rate}. Provided under its conventional name. *)
