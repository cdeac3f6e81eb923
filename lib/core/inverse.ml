let loss_for_rate ?(lo = 1e-9) ?(hi = 0.999) ?(tolerance = 1e-9) model target =
  if not (0. < lo && lo < hi && hi < 1.) then
    invalid_arg "Inverse.loss_for_rate: need 0 < lo < hi < 1";
  let rate_lo = model lo and rate_hi = model hi in
  (* model is decreasing: rate_lo is the highest achievable rate.  Written
     as a membership test so that a NaN target is outside too. *)
  if not (rate_hi <= target && target <= rate_lo) then None
  else begin
    (* Bisection on log p: rates span orders of magnitude over (0, 1).
       Invariant: [model (exp log_lo) >= target > model (exp log_hi)], so
       moving right on equality converges to the *largest* p attaining the
       target.  Capped models plateau at [Wm/RTT] for every small p; the
       left edge of the bracket would be a uselessly tiny loss budget. *)
    let rec bisect log_lo log_hi iter =
      if Int.equal iter 0 || (log_hi -. log_lo) < tolerance then exp log_lo
      else begin
        let log_mid = (log_lo +. log_hi) /. 2. in
        if model (exp log_mid) >= target then bisect log_mid log_hi (iter - 1)
        else bisect log_lo log_mid (iter - 1)
      end
    in
    if target <= rate_hi then Some hi else Some (bisect (log lo) (log hi) 200)
  end

let tcp_friendly_rate params p =
  Params.check_p p;
  Full_model.send_rate params p

let tcp_friendly_rate_simple params p =
  Params.check_p p;
  Approx_model.send_rate params p

(* Validates once, then bisects over the unchecked body: every loss the
   searches visit lies in [lo, hi], inside (0, 1). *)
let loss_budget (params : Params.t) ~rate =
  Params.validate params;
  let k = Tdonly.consts ~b:params.b and wm = float_of_int params.wm in
  let model p =
    Full_model.send_rate_unchecked ~approx_q:false k ~rtt:params.rtt
      ~t0:params.t0 ~wm p
  in
  let lo = 1e-9 and hi = 0.999 in
  let limited p = Tdonly.e_w_unchecked k p >= wm in
  if not (limited lo) || limited hi then loss_for_rate ~lo ~hi model rate
  else begin
    (* Eq. (32) switches branches where E[W_u] falls to W_m, and the rate
       jumps upward there, so the set of losses attaining a rate inside
       the jump band is disconnected.  Each branch is monotone on its own
       segment: search the unconstrained (larger-loss) segment first and
       fall back to the window-limited one, keeping the result the
       largest attaining loss overall. *)
    let rec knee log_lo log_hi n =
      (* limited (exp log_lo) && not (limited (exp log_hi)) *)
      if Int.equal n 0 then (exp log_lo, exp log_hi)
      else begin
        let log_mid = (log_lo +. log_hi) /. 2. in
        if limited (exp log_mid) then knee log_mid log_hi (n - 1)
        else knee log_lo log_mid (n - 1)
      end
    in
    let knee_left, knee_right = knee (log lo) (log hi) 40 in
    match loss_for_rate ~lo:knee_right ~hi model rate with
    | Some _ as found -> found
    | None -> loss_for_rate ~lo ~hi:knee_left model rate
  end

let rate_in_bytes ~mss rate =
  if mss <= 0 then invalid_arg "Inverse.rate_in_bytes: mss must be positive";
  float_of_int mss *. rate
