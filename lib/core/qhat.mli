(** The probability Q-hat(w) that a loss indication arriving at window size
    [w] is a timeout rather than a triple-duplicate ACK (§II-B).

    Three interchangeable evaluations are provided:
    - {!exact}: the defining double sum of eqs. (22)-(23) over the
      penultimate-round/last-round decomposition (integer [w] only);
    - {!closed_form}: the algebraic reduction of eq. (24), valid for real
      [w] (needed because the model plugs in the non-integer [E[W]]);
    - {!approx}: the [min(1, 3/w)] approximation of eq. (25).

    For integer [w >= 1] the first two agree to floating-point accuracy
    (property-tested), and all three tend to [3/w] as [p -> 0]. *)

val a_prob : p:float -> w:int -> int -> float
[@@pftk.unit "prob -> _ -> _ -> prob"]
(** [a_prob ~p ~w k] is A(w, k): probability that exactly the first [k] of
    [w] packets in the penultimate round are ACKed, given the round suffers
    at least one loss.  Defined for [0 <= k <= w - 1]; the [w] values sum
    to 1. *)

val c_prob : p:float -> n:int -> int -> float
[@@pftk.unit "prob -> _ -> _ -> prob"]
(** [c_prob ~p ~n m] is C(n, m): probability that [m] packets are ACKed in
    sequence in the last round of [n] packets and the rest (if any) lost.
    Defined for [0 <= m <= n]. *)

val h : p:float -> int -> float
[@@pftk.unit "prob -> _ -> prob"]
(** Eq. (23): [h k = sum_{m=0}^{2} C(k, m)], the probability the last round
    yields fewer than three duplicate ACKs. *)

val exact : p:float -> int -> float
[@@pftk.unit "prob -> _ -> prob"]
(** Eq. (22): 1 for [w <= 3], else
    [sum_{k=0}^{2} A(w,k) + sum_{k=3}^{w-1} A(w,k) h(k)]. *)

val closed_form : p:float -> float -> float
[@@pftk.unit "prob -> _ -> prob"]
(** Eq. (24); accepts real [w >= 1].  Returns the [p -> 0] limit
    [min(1, 3/w)] when [p] underflows the formula's precision. *)

val approx : float -> float
[@@pftk.unit "_ -> prob"]
(** Eq. (25): [min(1, 3/w)]. *)

type variant = Exact_sum | Closed | Approximate

val eval : variant -> p:float -> float -> float
[@@pftk.unit "_ -> prob -> _ -> prob"]
(** Dispatch on the chosen evaluation; [Exact_sum] rounds [w] to the nearest
    integer [>= 1]. *)
