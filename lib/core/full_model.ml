let effective_window (params : Params.t) p =
  Float.min (Tdonly.e_w ~b:params.b p) (float_of_int params.wm)

let window_limited (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  Tdonly.e_w ~b:params.b p >= float_of_int params.wm

let timeout_fraction ?(q = Qhat.Closed) (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  Qhat.eval q ~p (Float.max 1. (effective_window params p))

(* Eq. (28): numerator is packets per S_i cycle (E[Y] + Q E[R]), denominator
   its duration (E[A] + Q E[Z^TO]). *)
let send_rate_unconstrained ?(q = Qhat.Closed) (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  let ew = Tdonly.e_w ~b:params.b p in
  let ex = Tdonly.e_x ~b:params.b p in
  let qhat = Qhat.eval q ~p (Float.max 1. ew) in
  let numer = ((1. -. p) /. p) +. ew +. (qhat /. (1. -. p)) in
  let denom =
    (params.rtt *. (ex +. 1.))
    +. (qhat *. params.t0 *. Timeouts.f p /. (1. -. p))
  in
  numer /. denom

let e_u (params : Params.t) =
  Params.validate params;
  float_of_int params.b /. 2. *. float_of_int params.wm

let e_v (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  let wm = float_of_int params.wm in
  ((1. -. p) /. (p *. wm)) +. 1. -. (3. *. float_of_int params.b /. 8. *. wm)

let e_x_limited (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  let wm = float_of_int params.wm in
  (float_of_int params.b /. 8. *. wm) +. ((1. -. p) /. (p *. wm)) +. 1.

let send_rate_limited ?(q = Qhat.Closed) (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  let wm = float_of_int params.wm in
  let qhat = Qhat.eval q ~p (Float.max 1. wm) in
  let numer = ((1. -. p) /. p) +. wm +. (qhat /. (1. -. p)) in
  let denom =
    (params.rtt
    *. ((float_of_int params.b /. 8. *. wm) +. ((1. -. p) /. (p *. wm)) +. 2.))
    +. (qhat *. params.t0 *. Timeouts.f p /. (1. -. p))
  in
  numer /. denom

let send_rate ?q params p =
  Params.check_p p;
  if window_limited params p then send_rate_limited ?q params p
  else send_rate_unconstrained ?q params p

(* Q-hat as [Qhat.approx] and [Qhat.closed_form] spell eqs. (25) and
   (24), with [log (1 - p)] taken once and [Float.min] as a branch
   (they agree off NaN). *)
let[@inline] [@pftk.zero_alloc] qhat_approx_unchecked w =
  let a = 3. /. w in
  if a < 1. then a else 1.

let[@inline] [@pftk.zero_alloc] qhat_unchecked ~approx_q p w =
  if approx_q then qhat_approx_unchecked w
  else begin
    let l = Float.log1p (-.p) in
    let denom = -.Float.expm1 (w *. l) in
    if denom <= 0. then qhat_approx_unchecked w
    else begin
      let q3 = exp (3. *. l) in
      let r =
        (1. -. q3) *. (1. +. (q3 *. -.Float.expm1 ((w -. 3.) *. l))) /. denom
      in
      if r < 1. then r else 1.
    end
  end

(* Eq. (32) in one pass over validated, unboxed inputs: the expressions
   of [send_rate_limited] and [send_rate_unconstrained], with [E[W_u]]
   computed once for the regime test and the taken branch, so the result
   is bit-identical to [send_rate] (selfcheck C11 holds the batch
   kernels, which call this per row, to it). *)
let[@inline] [@pftk.zero_alloc] send_rate_unchecked ~approx_q
    (k : Tdonly.consts) ~rtt ~t0 ~wm p =
  let omp = 1. -. p in
  let ew = Tdonly.e_w_unchecked k p in
  let fp = Timeouts.f_unchecked p in
  if ew >= wm then begin
    let qhat = qhat_unchecked ~approx_q p wm in
    ((omp /. p) +. wm +. (qhat /. omp))
    /. ((rtt *. ((k.b_8 *. wm) +. (omp /. (p *. wm)) +. 2.))
       +. (qhat *. t0 *. fp /. omp))
  end
  else begin
    let ex = Tdonly.e_x_unchecked k p in
    let qhat = qhat_unchecked ~approx_q p (if ew < 1. then 1. else ew) in
    ((omp /. p) +. ew +. (qhat /. omp))
    /. ((rtt *. (ex +. 1.)) +. (qhat *. t0 *. fp /. omp))
  end
