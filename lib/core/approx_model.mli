(** The "approximate model" of eqs. (30) and (33): the widely cited one-line
    PFTK formula,

    {v
    B(p) = min( Wm/RTT,
                1 / ( RTT sqrt(2bp/3)
                      + T0 min(1, 3 sqrt(3bp/8)) p (1 + 32 p^2) ) )
    v}

    This is the form adopted by TFRC and countless rate controllers; the
    paper verifies in §III that it tracks the full model closely. *)

val send_rate : Params.t -> float -> float
[@@pftk.unit "_ -> prob -> pkt/s"]
(** Eq. (33), packets per second. *)

val send_rate_uncapped : rtt:float -> t0:float -> b:int -> float -> float
[@@pftk.unit "s -> s -> _ -> prob -> pkt/s"]
(** Eq. (30): without the [Wm/RTT] clamp. *)

val send_rate_unchecked :
  Tdonly.consts -> rtt:float -> t0:float -> wm:float -> float -> float
[@@pftk.unit "_ -> s -> s -> _ -> prob -> pkt/s"]
(** {!send_rate} without the domain guards, on unboxed fields
    (validated-input convention: the caller vouches that the fields
    would pass {!Params.validate}, that [k] is the {!Tdonly.consts} of
    their [b], that [wm] is [float_of_int] of their window, and that
    [0 < p < 1]).  Bit-identical to {!send_rate} on the domain. *)
