let check ~b p =
  Params.check_p p;
  if b < 1 then invalid_arg "Tdonly: b must be >= 1"

let e_alpha p =
  Params.check_p p;
  1. /. p

type consts = {
  c_w : float;
  c_w2 : float;
  c_x : float;
  c_x2 : float;
  two_b : float;
  three_b : float;
  b_8 : float;
}

let consts ~b =
  let bf = float_of_int b in
  let c_w = float_of_int (2 + b) /. (3. *. bf) in
  let c_x = float_of_int (2 + b) /. 6. in
  {
    c_w;
    c_w2 = c_w *. c_w;
    c_x;
    c_x2 = c_x *. c_x;
    two_b = 2. *. bf;
    three_b = 3. *. bf;
    b_8 = bf /. 8.;
  }

(* Eq. (13).  The [_unchecked] bodies carry the arithmetic; the checked
   exports guard and delegate, so both spell the identical float
   expression.  [@inline] lets the batch kernels call them per row
   without boxing a float (in builds without -opaque). *)
let[@inline] [@pftk.zero_alloc] e_w_unchecked k p =
  k.c_w +. sqrt ((8. *. (1. -. p) /. (k.three_b *. p)) +. k.c_w2)

let e_w ~b p =
  check ~b p;
  e_w_unchecked (consts ~b) p

let e_w_asymptotic ~b p =
  check ~b p;
  sqrt (8. /. (3. *. float_of_int b *. p))

(* Eq. (15). *)
let[@inline] [@pftk.zero_alloc] e_x_unchecked k p =
  k.c_x +. sqrt ((k.two_b *. (1. -. p) /. (3. *. p)) +. k.c_x2)

let e_x ~b p =
  check ~b p;
  e_x_unchecked (consts ~b) p

let e_a ~rtt ~b p =
  check ~b p;
  if not (rtt > 0.) then invalid_arg "Tdonly.e_a: rtt must be positive";
  rtt *. (e_x ~b p +. 1.)

let e_y ~b p =
  check ~b p;
  ((1. -. p) /. p) +. e_w ~b p

(* Eq. (19): B = E[Y] / E[A]. *)
let[@inline] [@pftk.zero_alloc] send_rate_unchecked k ~rtt p =
  (((1. -. p) /. p) +. e_w_unchecked k p) /. (rtt *. (e_x_unchecked k p +. 1.))

let send_rate ~rtt ~b p =
  check ~b p;
  if not (rtt > 0.) then invalid_arg "Tdonly.send_rate: rtt must be positive";
  send_rate_unchecked (consts ~b) ~rtt p

let send_rate_sqrt ~rtt ~b p =
  check ~b p;
  if not (rtt > 0.) then invalid_arg "Tdonly.send_rate_sqrt: rtt must be positive";
  sqrt (3. /. (2. *. float_of_int b *. p)) /. rtt

let send_rate_capped (params : Params.t) p =
  Params.validate params;
  check ~b:params.b p;
  Float.min
    (float_of_int params.wm /. params.rtt)
    (send_rate ~rtt:params.rtt ~b:params.b p)

let mathis = send_rate
