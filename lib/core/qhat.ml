(* Numerically stable powers of (1 - p): for small p, [1 - (1-p)^w] loses all
   precision if computed naively, so we go through log1p/expm1. *)
let pow_q p w = exp (w *. Float.log1p (-.p))
let one_minus_pow_q p w = -.Float.expm1 (w *. Float.log1p (-.p))

(* Validated-input variants ([0 < p < 1] and the integer ranges vouched
   by the caller): the guarded exports below delegate here, so both
   spellings share the exact same float operations — the flow analyzer
   (F3) holds the [_unchecked] entry points to a no-raise contract. *)
let a_prob_unchecked ~p ~w k =
  pow_q p (float_of_int k) *. p /. one_minus_pow_q p (float_of_int w)

let a_prob ~p ~w k =
  Params.check_p p;
  if w < 1 then invalid_arg "Qhat.a_prob: w must be >= 1";
  if k < 0 || k > w - 1 then invalid_arg "Qhat.a_prob: k outside [0, w-1]";
  a_prob_unchecked ~p ~w k

let c_prob_unchecked ~p ~n m =
  if Int.equal m n then pow_q p (float_of_int n) else pow_q p (float_of_int m) *. p

let c_prob ~p ~n m =
  Params.check_p p;
  if n < 0 then invalid_arg "Qhat.c_prob: n must be >= 0";
  if m < 0 || m > n then invalid_arg "Qhat.c_prob: m outside [0, n]";
  c_prob_unchecked ~p ~n m

let h_unchecked ~p k =
  let upper = Int.min 2 k in
  let acc = ref 0. in
  for m = 0 to upper do
    acc := !acc +. c_prob_unchecked ~p ~n:k m
  done;
  !acc

let h ~p k =
  Params.check_p p;
  h_unchecked ~p k

let exact_unchecked ~p w =
  if w <= 3 then 1.
  else begin
    (* k ranges over 0 .. w-1: the number of packets ACKed in the penultimate
       round given it contains a loss.  k < 3 forces a TO outright; otherwise
       the last round of k packets must yield fewer than 3 dup ACKs. *)
    let acc = ref 0. in
    for k = 0 to Int.min 2 (w - 1) do
      acc := !acc +. a_prob_unchecked ~p ~w k
    done;
    for k = 3 to w - 1 do
      acc := !acc +. (a_prob_unchecked ~p ~w k *. h_unchecked ~p k)
    done;
    Float.min 1. !acc
  end

let exact ~p w =
  Params.check_p p;
  if w < 1 then invalid_arg "Qhat.exact: w must be >= 1";
  exact_unchecked ~p w

(* Validated-input variants ([0 < p < 1], [w >= 1] vouched by the
   caller): same expressions as the guarded exports below. *)
let approx_unchecked w = Float.min 1. (3. /. w)

let approx w =
  if not (w >= 1.) then invalid_arg "Qhat.approx: w must be >= 1";
  approx_unchecked w

let closed_form_unchecked ~p w =
  let denom = one_minus_pow_q p w in
  if denom <= 0. then approx_unchecked w
  else begin
    let q3 = pow_q p 3. in
    let numer = (1. -. q3) *. (1. +. (q3 *. one_minus_pow_q p (w -. 3.))) in
    Float.min 1. (numer /. denom)
  end

let closed_form ~p w =
  Params.check_p p;
  if not (w >= 1.) then invalid_arg "Qhat.closed_form: w must be >= 1";
  closed_form_unchecked ~p w

type variant = Exact_sum | Closed | Approximate

let eval variant ~p w =
  Params.check_p p;
  match variant with
  | Exact_sum -> exact ~p (Int.max 1 (int_of_float (Float.round w)))
  | Closed -> closed_form ~p w
  | Approximate -> approx w
