(* Validated-input bodies carry the arithmetic; the guarded exports
   below delegate, so both spell the identical float expressions.
   [@inline] lets the batch kernels call them per row without boxing a
   float.  [Float.min] is spelled as a branch, which agrees with it
   wherever neither side is NaN, as on the domain. *)
let[@inline] [@pftk.zero_alloc] send_rate_uncapped_unchecked
    (k : Tdonly.consts) ~rtt ~t0 p =
  let td_term = rtt *. sqrt (k.two_b *. p /. 3.) in
  (* [x /. 8. = x *. 0.125] bit for bit (8 and 1/8 are both exact, so
     both operations round the same real value once), and the multiply
     stays off the divider, which the batch loops saturate. *)
  let m = 3. *. sqrt (k.three_b *. p *. 0.125) in
  let to_term =
    t0 *. (if m < 1. then m else 1.) *. p *. (1. +. (32. *. p *. p))
  in
  (* One packet per [td_term + to_term] seconds. *)
  (1. [@pftk.unit "pkt"]) /. (td_term +. to_term)

let send_rate_uncapped ~rtt ~t0 ~b p =
  Params.check_p p;
  if not (rtt > 0. && t0 > 0.) then
    invalid_arg "Approx_model: rtt and t0 must be positive";
  if b < 1 then invalid_arg "Approx_model: b must be >= 1";
  send_rate_uncapped_unchecked (Tdonly.consts ~b) ~rtt ~t0 p

let[@inline] [@pftk.zero_alloc] send_rate_unchecked k ~rtt ~t0 ~wm p =
  let cap = wm /. rtt in
  let r = send_rate_uncapped_unchecked k ~rtt ~t0 p in
  if cap < r then cap else r

let send_rate (params : Params.t) p =
  Params.validate params;
  Params.check_p p;
  send_rate_unchecked
    (Tdonly.consts ~b:params.b)
    ~rtt:params.rtt ~t0:params.t0 ~wm:(float_of_int params.wm) p
