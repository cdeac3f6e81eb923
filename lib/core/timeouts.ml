(* Validated-input variant: callers (the fused eq. (32) body the batch
   kernels call per row) vouch for [0 < p < 1]. *)
let[@inline] [@pftk.zero_alloc] f_unchecked p =
  1. +. (p *. (1. +. (p *. (2. +. (p *. (4. +. (p *. (8. +. (p *. (16. +. (p *. 32.)))))))))))

let f p =
  Params.check_p p;
  f_unchecked p

let e_r p =
  Params.check_p p;
  1. /. (1. -. p)

let sequence_duration ?(backoff_cap = 6) ~t0 k =
  if k < 1 then invalid_arg "Timeouts.sequence_duration: k must be >= 1";
  if backoff_cap < 1 then invalid_arg "Timeouts.sequence_duration: cap must be >= 1";
  if not (t0 > 0.) then invalid_arg "Timeouts.sequence_duration: t0 must be positive";
  (* The i-th timeout in a sequence lasts 2^min(i-1, cap) * T0, so the
     doubling law L_k = (2^k - 1) T0 extends through k = cap + 1 and grows
     linearly (slope 2^cap * T0) beyond. *)
  if k <= backoff_cap + 1 then t0 *. float_of_int ((1 lsl k) - 1)
  else
    let doubling_sum = float_of_int ((1 lsl (backoff_cap + 1)) - 1) in
    let frozen = float_of_int (1 lsl backoff_cap) in
    t0 *. (doubling_sum +. (frozen *. float_of_int (k - backoff_cap - 1)))

let p_sequence_length p k =
  Params.check_p p;
  if k < 1 then invalid_arg "Timeouts.p_sequence_length: k must be >= 1";
  (p ** float_of_int (k - 1)) *. (1. -. p)

let e_zto ~t0 p =
  Params.check_p p;
  if not (t0 > 0.) then invalid_arg "Timeouts.e_zto: t0 must be positive";
  t0 *. f p /. (1. -. p)

let e_zto_series ?(backoff_cap = 6) ?(terms = 400) ~t0 p =
  Params.check_p p;
  if not (t0 > 0.) then
    invalid_arg "Timeouts.e_zto_series: t0 must be positive";
  let acc = ref 0. in
  for k = 1 to terms do
    acc := !acc +. (sequence_duration ~backoff_cap ~t0 k *. p_sequence_length p k)
  done;
  !acc
