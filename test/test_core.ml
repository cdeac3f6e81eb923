(* Tests for pftk_core: every equation of the paper gets a direct check —
   closed forms against hand-computed values, approximations against their
   exact counterparts, asymptotics against the printed limits, and the
   cross-model consistency relations (TD-only vs full vs approximate vs
   throughput vs Markov). *)

open Pftk_core

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let close ?(rel = 0.05) msg expected actual =
  let err = Float.abs (expected -. actual) /. Float.abs expected in
  if err > rel then
    Alcotest.failf "%s: expected %g within %g%%, got %g (err %.1f%%)" msg
      expected (100. *. rel) actual (100. *. err)

let case name f = Alcotest.test_case name `Quick f

let default_params = Params.make ~rtt:0.2 ~t0:2. ~wm:50 ()

(* --- Params ----------------------------------------------------------------- *)

let test_params_defaults () =
  let p = Params.make ~rtt:0.1 ~t0:1. () in
  Alcotest.(check int) "b defaults to 2" 2 p.Params.b;
  Alcotest.(check bool) "wm defaults to unlimited" true
    (p.Params.wm >= Params.unlimited_window)

let test_params_validation () =
  Alcotest.check_raises "rtt <= 0" (Invalid_argument "Params: rtt must be positive")
    (fun () -> ignore (Params.make ~rtt:0. ~t0:1. ()));
  Alcotest.check_raises "t0 <= 0" (Invalid_argument "Params: t0 must be positive")
    (fun () -> ignore (Params.make ~rtt:1. ~t0:(-1.) ()));
  Alcotest.check_raises "b < 1" (Invalid_argument "Params: b must be >= 1")
    (fun () -> ignore (Params.make ~b:0 ~rtt:1. ~t0:1. ()));
  Alcotest.check_raises "wm < 1" (Invalid_argument "Params: wm must be >= 1")
    (fun () -> ignore (Params.make ~wm:0 ~rtt:1. ~t0:1. ()))

let test_check_p () =
  Params.check_p 0.5;
  Alcotest.check_raises "p = 0"
    (Invalid_argument "loss probability p=0 outside (0, 1)") (fun () ->
      Params.check_p 0.);
  Alcotest.check_raises "p = 1"
    (Invalid_argument "loss probability p=1 outside (0, 1)") (fun () ->
      Params.check_p 1.)

let test_params_equal () =
  let a = Params.make ~rtt:0.1 ~t0:1. () in
  Alcotest.(check bool) "equal" true (Params.equal a a);
  Alcotest.(check bool) "not equal" false
    (Params.equal a (Params.make ~rtt:0.2 ~t0:1. ()))

(* --- Tdonly (Section II-A) ---------------------------------------------------- *)

let test_e_alpha () =
  check_float "E[alpha] = 1/p (eq. 4)" 100. (Tdonly.e_alpha 0.01)

let test_e_w_formula () =
  (* Eq. (13) by hand for b = 2, p = 0.1:
     c = 4/6 = 2/3; E[W] = 2/3 + sqrt(8*0.9/(6*0.1) + 4/9). *)
  let expected = (2. /. 3.) +. sqrt ((8. *. 0.9 /. 0.6) +. (4. /. 9.)) in
  check_float "eq. (13)" expected (Tdonly.e_w ~b:2 0.1)

let test_e_w_asymptotic () =
  (* Eq. (14): E[W] -> sqrt(8/3bp) as p -> 0. *)
  let p = 1e-7 in
  close ~rel:1e-3 "eq. (14) asymptotic" (sqrt (8. /. (3. *. 2. *. p)))
    (Tdonly.e_w ~b:2 p)

let test_e_x_relation () =
  (* Eq. (11): E[W] = (2/b) E[X], so E[X] = b E[W] / 2. *)
  List.iter
    (fun (b, p) ->
      check_float ~eps:1e-9
        (Printf.sprintf "E[X] = bE[W]/2 at b=%d p=%g" b p)
        (float_of_int b *. Tdonly.e_w ~b p /. 2.)
        (Tdonly.e_x ~b p))
    [ (1, 0.01); (2, 0.01); (2, 0.3); (4, 0.1) ]

let test_e_a () =
  check_float "eq. (16) is RTT (E[X]+1)"
    (0.3 *. (Tdonly.e_x ~b:2 0.05 +. 1.))
    (Tdonly.e_a ~rtt:0.3 ~b:2 0.05)

let test_e_y () =
  check_float "eq. (5)"
    ((0.95 /. 0.05) +. Tdonly.e_w ~b:2 0.05)
    (Tdonly.e_y ~b:2 0.05)

let test_send_rate_is_ratio () =
  check_float "eq. (19) = E[Y]/E[A]"
    (Tdonly.e_y ~b:2 0.02 /. Tdonly.e_a ~rtt:0.25 ~b:2 0.02)
    (Tdonly.send_rate ~rtt:0.25 ~b:2 0.02)

let test_sqrt_formula () =
  (* Eq. (20): 1/RTT * sqrt(3/2bp); for b=1 this is Mahdavi-Floyd. *)
  check_float "eq. (20) b=1" (sqrt (1.5 /. 0.01) /. 0.1)
    (Tdonly.send_rate_sqrt ~rtt:0.1 ~b:1 0.01)

let test_sqrt_approximates_exact () =
  (* For small p the exact eq. (19) approaches eq. (20). *)
  close ~rel:0.02 "sqrt ~ exact at p = 1e-5"
    (Tdonly.send_rate_sqrt ~rtt:0.2 ~b:2 1e-5)
    (Tdonly.send_rate ~rtt:0.2 ~b:2 1e-5)

let test_e_x_asymptotic () =
  (* Eq. (17): E[X] -> sqrt(2b/3p) as p -> 0. *)
  let p = 1e-7 in
  close ~rel:1e-3 "eq. (17) asymptotic"
    (sqrt (2. *. 2. /. (3. *. p)))
    (Tdonly.e_x ~b:2 p)

let test_rtt_scaling () =
  (* Send rate scales as 1/RTT. *)
  check_float ~eps:1e-9 "1/RTT scaling"
    (2. *. Tdonly.send_rate ~rtt:0.4 ~b:2 0.01)
    (Tdonly.send_rate ~rtt:0.2 ~b:2 0.01)

let test_send_rate_capped () =
  let params = Params.make ~rtt:0.1 ~t0:1. ~wm:10 () in
  check_float "cap binds at tiny p" 100. (Tdonly.send_rate_capped params 1e-6);
  Alcotest.(check bool) "no cap at large p" true
    (Tdonly.send_rate_capped params 0.3 < 100.)

(* --- Qhat (eqs. 22-25) ---------------------------------------------------------- *)

let test_a_prob_normalized () =
  List.iter
    (fun (p, w) ->
      let total = ref 0. in
      for k = 0 to w - 1 do
        total := !total +. Qhat.a_prob ~p ~w k
      done;
      check_float ~eps:1e-9 (Printf.sprintf "A(w=%d, .) sums to 1 at p=%g" w p)
        1. !total)
    [ (0.1, 5); (0.01, 20); (0.5, 3); (0.001, 50) ]

let test_c_prob_normalized () =
  List.iter
    (fun (p, n) ->
      let total = ref 0. in
      for m = 0 to n do
        total := !total +. Qhat.c_prob ~p ~n m
      done;
      check_float ~eps:1e-9 (Printf.sprintf "C(n=%d, .) sums to 1 at p=%g" n p)
        1. !total)
    [ (0.1, 5); (0.3, 1); (0.01, 10) ]

let test_qhat_small_windows () =
  List.iter
    (fun w -> check_float "Q-hat = 1 for w <= 3" 1. (Qhat.exact ~p:0.05 w))
    [ 1; 2; 3 ]

let test_qhat_exact_equals_closed_form () =
  (* The algebraic reduction (24) of the double sum (22) is exact. *)
  List.iter
    (fun (p, w) ->
      check_float ~eps:1e-9
        (Printf.sprintf "exact = closed at p=%g w=%d" p w)
        (Qhat.exact ~p w)
        (Qhat.closed_form ~p (float_of_int w)))
    [ (0.01, 4); (0.01, 10); (0.1, 8); (0.3, 20); (0.05, 50); (0.7, 6) ]

let test_qhat_limit () =
  (* lim_{p->0} Q-hat(w) = 3/w (the L'Hopital observation). *)
  List.iter
    (fun w ->
      close ~rel:0.02
        (Printf.sprintf "p->0 limit at w=%d" w)
        (3. /. float_of_int w)
        (Qhat.closed_form ~p:1e-6 (float_of_int w)))
    [ 5; 10; 30 ]

let test_qhat_approx () =
  check_float "min(1, 3/w) above 3" 0.3 (Qhat.approx 10.);
  check_float "min(1, 3/w) below 3" 1. (Qhat.approx 2.)

let test_qhat_bounds () =
  List.iter
    (fun (p, w) ->
      let q = Qhat.closed_form ~p w in
      Alcotest.(check bool)
        (Printf.sprintf "0 <= Qhat <= 1 at p=%g w=%g" p w)
        true
        (q >= 0. && q <= 1.))
    [ (0.001, 4.); (0.5, 4.); (0.9, 100.); (0.2, 1.5) ]

let test_qhat_eval_dispatch () =
  check_float "Approximate" (Qhat.approx 12.) (Qhat.eval Qhat.Approximate ~p:0.1 12.);
  check_float "Closed" (Qhat.closed_form ~p:0.1 12.) (Qhat.eval Qhat.Closed ~p:0.1 12.);
  check_float "Exact rounds w" (Qhat.exact ~p:0.1 12) (Qhat.eval Qhat.Exact_sum ~p:0.1 12.3)

let test_qhat_decreasing_in_w () =
  let prev = ref 2. in
  List.iter
    (fun w ->
      let q = Qhat.closed_form ~p:0.05 w in
      Alcotest.(check bool) "nonincreasing in w" true (q <= !prev +. 1e-12);
      prev := q)
    [ 4.; 6.; 10.; 20.; 40. ]

(* --- Timeouts (eqs. 27-29) -------------------------------------------------------- *)

let test_f_polynomial () =
  let p = 0.1 in
  let expected =
    1. +. p +. (2. *. (p ** 2.)) +. (4. *. (p ** 3.)) +. (8. *. (p ** 4.))
    +. (16. *. (p ** 5.)) +. (32. *. (p ** 6.))
  in
  check_float ~eps:1e-12 "eq. (29)" expected (Timeouts.f p)

let test_e_r () = check_float "eq. (27)" (1. /. 0.8) (Timeouts.e_r 0.2)

let test_sequence_durations () =
  (* L_k = (2^k - 1) T0 through the cap+1, then linear at 64 T0 per extra. *)
  check_float "L_1" 1. (Timeouts.sequence_duration ~t0:1. 1);
  check_float "L_3" 7. (Timeouts.sequence_duration ~t0:1. 3);
  check_float "L_6 = 63 T0" 63. (Timeouts.sequence_duration ~t0:1. 6);
  check_float "L_7 = 127 T0" 127. (Timeouts.sequence_duration ~t0:1. 7);
  check_float "L_8 = 191 T0 (paper: 63 + 64(k-6))" 191.
    (Timeouts.sequence_duration ~t0:1. 8);
  check_float "L_9" 255. (Timeouts.sequence_duration ~t0:1. 9)

let test_sequence_duration_irix_cap () =
  (* Irix freezes at 2^5: L_7 = 63 + 32 + 32. *)
  check_float "cap 5: L_6 = 63" 63.
    (Timeouts.sequence_duration ~backoff_cap:5 ~t0:1. 6);
  check_float "cap 5: L_7 = 95" 95.
    (Timeouts.sequence_duration ~backoff_cap:5 ~t0:1. 7)

let test_sequence_length_distribution () =
  let total = ref 0. in
  for k = 1 to 200 do
    total := !total +. Timeouts.p_sequence_length 0.3 k
  done;
  check_float ~eps:1e-9 "geometric sums to 1" 1. !total

let test_e_zto_closed_form_matches_series () =
  (* The key identity behind eq. (28): E[Z^TO] = T0 f(p)/(1-p). *)
  List.iter
    (fun p ->
      close ~rel:1e-6
        (Printf.sprintf "series = closed form at p=%g" p)
        (Timeouts.e_zto ~t0:2.5 p)
        (Timeouts.e_zto_series ~t0:2.5 p))
    [ 0.01; 0.05; 0.1; 0.3; 0.5 ]

let test_e_zto_irix_smaller () =
  (* A lower backoff cap shortens deep sequences. *)
  Alcotest.(check bool) "cap 5 <= cap 6" true
    (Timeouts.e_zto_series ~backoff_cap:5 ~t0:1. 0.5
    <= Timeouts.e_zto_series ~backoff_cap:6 ~t0:1. 0.5)

(* --- Full model (eqs. 28, 32) ------------------------------------------------------- *)

let test_window_limited_regimes () =
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:8 () in
  Alcotest.(check bool) "limited at small p" true
    (Full_model.window_limited params 0.001);
  Alcotest.(check bool) "unconstrained at large p" false
    (Full_model.window_limited params 0.3)

let test_full_model_branch_continuity () =
  (* At the regime boundary E[W_u] = W_m the two branches of eq. (32)
     should roughly agree (the paper switches between them there). *)
  let wm = 12 in
  let params = Params.make ~rtt:0.3 ~t0:2. ~wm () in
  (* Find p where E[W_u] crosses wm. *)
  let rec bisect lo hi n =
    if n = 0 then (lo +. hi) /. 2.
    else
      let mid = (lo +. hi) /. 2. in
      if Tdonly.e_w ~b:2 mid > float_of_int wm then bisect mid hi (n - 1)
      else bisect lo mid (n - 1)
  in
  let p_star = bisect 1e-6 0.5 60 in
  close ~rel:0.12 "branches agree at crossover"
    (Full_model.send_rate_unconstrained params p_star)
    (Full_model.send_rate_limited params p_star)

let test_full_model_spot_value () =
  (* Hand-computed eq. (28) at p=0.02, RTT=0.2, T0=2, b=2, no window limit. *)
  let p = 0.02 in
  let ew = Tdonly.e_w ~b:2 p in
  let ex = Tdonly.e_x ~b:2 p in
  let qhat = Qhat.closed_form ~p ew in
  let expected =
    (((1. -. p) /. p) +. ew +. (qhat /. (1. -. p)))
    /. ((0.2 *. (ex +. 1.)) +. (qhat *. 2. *. Timeouts.f p /. (1. -. p)))
  in
  let params = Params.make ~rtt:0.2 ~t0:2. () in
  check_float ~eps:1e-9 "eq. (28) assembled" expected
    (Full_model.send_rate params p)

let test_full_below_td_only () =
  (* Timeouts only reduce the rate: eq. (32) <= eq. (19) everywhere. *)
  let params = Params.make ~rtt:0.2 ~t0:2. () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "full <= TD-only at p=%g" p)
        true
        (Full_model.send_rate params p <= Tdonly.send_rate ~rtt:0.2 ~b:2 p))
    [ 0.001; 0.01; 0.05; 0.1; 0.3; 0.6 ]

let test_full_approaches_td_only_at_small_p () =
  (* With few timeouts (tiny p) the models coincide. *)
  let params = Params.make ~rtt:0.2 ~t0:2. () in
  close ~rel:0.05 "full ~ TD-only at p=1e-5"
    (Tdonly.send_rate ~rtt:0.2 ~b:2 1e-5)
    (Full_model.send_rate params 1e-5)

let test_full_decreasing_in_p () =
  let params = default_params in
  let prev = ref infinity in
  Array.iter
    (fun p ->
      let rate = Full_model.send_rate params p in
      Alcotest.(check bool) "decreasing" true (rate <= !prev);
      prev := rate)
    (Sweep.logspace ~lo:1e-4 ~hi:0.9 ~n:40)

let test_limited_identities () =
  (* Section II-C: E[U] + E[V] = E[X]. *)
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:10 () in
  let p = 0.003 in
  check_float ~eps:1e-9 "E[U] + E[V] = E[X]"
    (Full_model.e_u params +. Full_model.e_v params p)
    (Full_model.e_x_limited params p)

let test_timeout_fraction_range () =
  let params = default_params in
  List.iter
    (fun p ->
      let q = Full_model.timeout_fraction params p in
      Alcotest.(check bool) "Q in [0,1]" true (q >= 0. && q <= 1.))
    [ 0.001; 0.05; 0.3 ];
  (* Higher loss -> smaller windows -> more timeouts. *)
  Alcotest.(check bool) "Q grows with p" true
    (Full_model.timeout_fraction params 0.2
    > Full_model.timeout_fraction params 0.001)

let test_q_variants_close () =
  let params = default_params in
  List.iter
    (fun p ->
      close ~rel:0.25
        (Printf.sprintf "Q-hat variants agree at p=%g" p)
        (Full_model.send_rate ~q:Qhat.Closed params p)
        (Full_model.send_rate ~q:Qhat.Approximate params p))
    [ 0.005; 0.02; 0.1 ]

(* --- Approximate model (eqs. 30, 33) --------------------------------------------------- *)

let test_approx_formula () =
  (* Eq. (30) by hand at p=0.04, rtt=0.2, t0=2, b=2. *)
  let p = 0.04 in
  let td = 0.2 *. sqrt (2. *. 2. *. p /. 3.) in
  let to_ = 2. *. Float.min 1. (3. *. sqrt (3. *. 2. *. p /. 8.)) *. p *. (1. +. (32. *. p *. p)) in
  check_float ~eps:1e-12 "eq. (30)" (1. /. (td +. to_))
    (Approx_model.send_rate_uncapped ~rtt:0.2 ~t0:2. ~b:2 p)

let test_approx_capped () =
  let params = Params.make ~rtt:0.1 ~t0:1. ~wm:5 () in
  check_float "Wm/RTT cap" 50. (Approx_model.send_rate params 1e-6)

let test_approx_tracks_full () =
  (* Section III: eq. (33) is "a very good approximation" of eq. (32). *)
  let params = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 () in
  List.iter
    (fun p ->
      close ~rel:0.35
        (Printf.sprintf "approx within 35%% at p=%g" p)
        (Full_model.send_rate params p)
        (Approx_model.send_rate params p))
    [ 0.001; 0.005; 0.02; 0.05; 0.1 ]

(* --- Throughput (Section V) -------------------------------------------------------------- *)

let test_throughput_below_send_rate () =
  let params = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "T <= B at p=%g" p)
        true
        (Throughput.throughput params p <= Full_model.send_rate params p))
    [ 0.0005; 0.01; 0.05; 0.2; 0.5 ]

let test_delivery_ratio_decreasing () =
  let params = default_params in
  let prev = ref 1.1 in
  List.iter
    (fun p ->
      let ratio = Throughput.delivery_ratio params p in
      Alcotest.(check bool) "ratio in (0, 1]" true (ratio > 0. && ratio <= 1.);
      Alcotest.(check bool) "ratio decreasing" true (ratio <= !prev);
      prev := ratio)
    [ 0.001; 0.01; 0.05; 0.1; 0.3 ]

let test_throughput_printed_formula_b2 () =
  (* Eq. (37)/(38) hardcodes b=2: W(p) = 2/3 + sqrt(4(1-p)/3p + 4/9).
     Reassemble the printed first branch verbatim and compare. *)
  let p = 0.01 in
  let w = (2. /. 3.) +. sqrt ((4. *. (1. -. p) /. (3. *. p)) +. (4. /. 9.)) in
  let q =
    Float.min 1.
      ((1. -. ((1. -. p) ** 3.))
      *. (1. +. (((1. -. p) ** 3.) *. (1. -. ((1. -. p) ** (w -. 3.)))))
      /. (1. -. ((1. -. p) ** w)))
  in
  let g = Timeouts.f p in
  let rtt = 0.3 and t0 = 2. in
  let expected =
    (((1. -. p) /. p) +. (w /. 2.) +. q)
    /. ((rtt *. (w +. 1.)) +. (q *. g *. t0 /. (1. -. p)))
  in
  let params = Params.make ~rtt ~t0 () in
  check_float ~eps:1e-9 "printed eq. (37), W(p) of eq. (38)" expected
    (Throughput.throughput params p);
  check_float ~eps:1e-9 "W(p) of eq. (38) is eq. (13) at b=2" w
    (Tdonly.e_w ~b:2 p)

let test_throughput_send_rate_shared_denominator () =
  (* Eqs. (21) and (34) share the denominator E[A] + Q E[Z^TO], so the
     ratio T/B must equal the ratio of the numerators:
     ((1-p)/p + W/2 + Q) / ((1-p)/p + W + Q/(1-p)). *)
  let params = Params.make ~rtt:0.3 ~t0:2. () in
  List.iter
    (fun p ->
      let w = Tdonly.e_w ~b:2 p in
      let q = Qhat.closed_form ~p w in
      let expected_ratio =
        (((1. -. p) /. p) +. (w /. 2.) +. q)
        /. (((1. -. p) /. p) +. w +. (q /. (1. -. p)))
      in
      check_float ~eps:1e-9
        (Printf.sprintf "numerator ratio at p=%g" p)
        expected_ratio
        (Throughput.delivery_ratio params p))
    [ 0.005; 0.05; 0.3 ]

let test_throughput_limited_branch () =
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:6 () in
  let p = 0.001 in
  Alcotest.(check bool) "window limited here" true
    (Full_model.window_limited params p);
  Alcotest.(check bool) "limited throughput positive" true
    (Throughput.throughput params p > 0.)

(* --- Markov model -------------------------------------------------------------------------- *)

let test_markov_distribution_normalized () =
  let t = Markov.solve (Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 ()) 0.02 in
  let total = Array.fold_left ( +. ) 0. (Markov.window_distribution t) in
  check_float ~eps:1e-6 "stationary distribution sums to 1" 1. total

let test_markov_states () =
  let t = Markov.solve (Params.make ~rtt:0.2 ~t0:2. ~wm:10 ()) 0.05 in
  Alcotest.(check int) "states = wm * b" 20 (Markov.states t)

let test_markov_tracks_full_model () =
  (* Fig. 12: the numerical chain and the closed form closely match. *)
  let params = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 () in
  List.iter
    (fun p ->
      close ~rel:0.45
        (Printf.sprintf "markov vs closed form at p=%g" p)
        (Full_model.send_rate params p)
        (Markov.send_rate (Markov.solve params p)))
    [ 0.002; 0.01; 0.05; 0.2 ]

let test_markov_mean_window_sane () =
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:64 () in
  let t = Markov.solve params 0.01 in
  let mean = Markov.mean_window t in
  (* The chain's mean window should be of the order of E[W]. *)
  Alcotest.(check bool) "mean window near E[W]" true
    (mean > 0.3 *. Tdonly.e_w ~b:2 0.01 && mean < 2. *. Tdonly.e_w ~b:2 0.01)

let test_markov_decreasing_in_p () =
  let params = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 () in
  let r1 = Markov.send_rate (Markov.solve params 0.005) in
  let r2 = Markov.send_rate (Markov.solve params 0.05) in
  let r3 = Markov.send_rate (Markov.solve params 0.3) in
  Alcotest.(check bool) "decreasing" true (r1 > r2 && r2 > r3)

let test_markov_deterministic () =
  let params = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 () in
  check_float "same answer twice"
    (Markov.send_rate (Markov.solve params 0.03))
    (Markov.send_rate (Markov.solve params 0.03))

let test_markov_truncation () =
  let params = Params.make ~rtt:0.2 ~t0:2. () in
  let t = Markov.solve ~max_window:32 params 0.05 in
  Alcotest.(check int) "unlimited wm truncated" 64 (Markov.states t)

(* --- Inverse ----------------------------------------------------------------------------------- *)

let test_inverse_roundtrip () =
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:40 () in
  let model p = Full_model.send_rate params p in
  List.iter
    (fun p ->
      let rate = model p in
      match Inverse.loss_for_rate model rate with
      | Some found -> close ~rel:1e-3 (Printf.sprintf "roundtrip p=%g" p) p found
      | None -> Alcotest.failf "no solution for rate %g" rate)
    [ 0.002; 0.02; 0.2 ]

(* A NaN target is out of range too: it compares false with every rate,
   so only a membership test keeps it out of the bisection, which would
   walk down to the bracket's floor, 1e-9.  Both loss_budget routes: the
   unlimited window and the search on each side of the W_m knee. *)
let test_inverse_out_of_range () =
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:10 () in
  Alcotest.(check bool) "unreachable rate" true
    (Inverse.loss_budget params ~rate:1e9 = None);
  List.iter
    (fun params ->
      let label = Format.asprintf "%a" Params.pp params in
      Alcotest.(check bool) (label ^ ": NaN loss_for_rate") true
        (Inverse.loss_for_rate (Full_model.send_rate params) Float.nan = None);
      Alcotest.(check bool) (label ^ ": NaN loss_budget") true
        (Inverse.loss_budget params ~rate:Float.nan = None))
    [ Params.make ~rtt:0.2 ~t0:2. (); params ]

let test_loss_budget_monotone () =
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:40 () in
  match (Inverse.loss_budget params ~rate:10., Inverse.loss_budget params ~rate:50.) with
  | Some lo_rate_budget, Some hi_rate_budget ->
      Alcotest.(check bool) "higher target -> smaller budget" true
        (hi_rate_budget < lo_rate_budget)
  | _ -> Alcotest.fail "both budgets should exist"

(* Regression (selfcheck corpus c5-approx-plateau.case): below the
   window-limited knee eq. (33) is flat at Wm/RTT, so many losses attain the
   target.  loss_for_rate must return the largest of them — the loss
   budget — not whichever the bisection first brushed. *)
let test_inverse_plateau_largest_p () =
  let params = Params.make ~rtt:0.1 ~t0:1. ~wm:16 () in
  let target_p = 0x1.64840e1719f8p-10 in
  let model p = Approx_model.send_rate params p in
  let target = model target_p in
  check_float "target sits on the plateau" target (model (target_p /. 2.));
  match Inverse.loss_for_rate model target with
  | None -> Alcotest.fail "plateau rate should be attainable"
  | Some p_star ->
      Alcotest.(check bool) "largest attaining p" true
        (p_star >= target_p *. (1. -. 1e-6));
      Alcotest.(check bool) "still attains the target" true
        (model p_star >= target *. (1. -. 1e-9))

(* Regression (selfcheck corpus c5-full-knee.case): eq. (32) jumps upward
   where E[W_u] crosses W_m, so the set of losses attaining a rate can be
   disconnected.  loss_budget must search the unconstrained segment beyond
   the knee, not stop at the first (smaller) solution left of it. *)
let test_loss_budget_knee () =
  let params = Params.make ~b:1 ~wm:30 ~rtt:0x1.30d1c9cff2334p-7 ~t0:1. () in
  let target_p = 0x1.a0849a46a3971p-9 in
  let rate = Full_model.send_rate params target_p in
  match Inverse.loss_budget params ~rate with
  | None -> Alcotest.fail "rate attained at target_p should be attainable"
  | Some p_star ->
      Alcotest.(check bool) "budget not below the attaining loss" true
        (p_star >= target_p *. (1. -. 1e-6));
      Alcotest.(check bool) "rate still met at the budget" true
        (Full_model.send_rate params p_star >= rate *. (1. -. 1e-6))

(* Seeded sweeps over Gen.params: the cross-model ordering and the inverse
   round-trip must hold on random paths, not just the hand-picked ones. *)
let test_model_ordering_sweep () =
  for index = 0 to 39 do
    let rng = Pftk_selfcheck.Gen.rng_for ~seed:2024L ~index in
    let params = Pftk_selfcheck.Gen.params rng in
    let p = Pftk_selfcheck.Gen.loss rng in
    let cap = float_of_int params.Params.wm /. params.Params.rtt in
    let td_capped = Tdonly.send_rate_capped params p in
    List.iter
      (fun kind ->
        (* The Markov chain solves a wm x wm system; keep the sweep cheap
           and inside its well-conditioned regime. *)
        let evaluate =
          match kind with
          | Model.Markov -> params.Params.wm <= 64 && p >= 1e-3
          | _ -> true
        in
        if evaluate then begin
          let rate = Model.send_rate kind params p in
          if not (Float.is_finite rate && rate > 0.) then
            Alcotest.failf "%s not positive/finite at index %d"
              (Model.name kind) index;
          (match kind with
          | Model.Full | Model.Full_approx_q | Model.Approximate
          | Model.Throughput_model | Model.Markov ->
              if rate > cap *. (1. +. 1e-9) then
                Alcotest.failf "%s above Wm/RTT at index %d" (Model.name kind)
                  index
          | Model.Td_only | Model.Td_only_sqrt -> ());
          match kind with
          | Model.Full | Model.Full_approx_q ->
              if rate > td_capped *. (1. +. 1e-9) then
                Alcotest.failf "%s above capped TD-only at index %d"
                  (Model.name kind) index
          | _ -> ()
        end)
      Model.all;
    let full = Full_model.send_rate params p in
    let recv = Throughput.throughput params p in
    Alcotest.(check bool) "throughput <= send rate" true
      (recv <= full *. (1. +. 1e-9))
  done

let test_inverse_sweep_roundtrip () =
  for index = 0 to 39 do
    let rng = Pftk_selfcheck.Gen.rng_for ~seed:2025L ~index in
    let params = Pftk_selfcheck.Gen.params rng in
    let target_p =
      exp (Pftk_stats.Rng.float_range rng (log 1e-3) (log 0.3))
    in
    let full_rate = Full_model.send_rate params target_p in
    (match Inverse.loss_budget params ~rate:full_rate with
    | None -> Alcotest.failf "full: no budget at index %d" index
    | Some p_star ->
        if p_star < target_p *. (1. -. 1e-6) then
          Alcotest.failf "full: budget %g below attaining loss %g (index %d)"
            p_star target_p index;
        if Full_model.send_rate params p_star < full_rate *. (1. -. 1e-6) then
          Alcotest.failf "full: rate not met at budget (index %d)" index);
    let approx p = Approx_model.send_rate params p in
    match Inverse.loss_for_rate approx (approx target_p) with
    | None -> Alcotest.failf "approx: no budget at index %d" index
    | Some p_star ->
        if p_star < target_p *. (1. -. 1e-6) then
          Alcotest.failf "approx: budget %g below attaining loss %g (index %d)"
            p_star target_p index;
        if approx p_star < approx target_p *. (1. -. 1e-6) then
          Alcotest.failf "approx: rate not met at budget (index %d)" index
  done

let test_rate_in_bytes () =
  check_float "bytes conversion" 14600. (Inverse.rate_in_bytes ~mss:1460 10.)

let test_tcp_friendly_consistency () =
  let params = Params.make ~rtt:0.1 ~t0:0.4 ~wm:64 () in
  check_float "friendly = full model"
    (Full_model.send_rate params 0.02)
    (Inverse.tcp_friendly_rate params 0.02);
  check_float "simple = approximate model"
    (Approx_model.send_rate params 0.02)
    (Inverse.tcp_friendly_rate_simple params 0.02)

(* --- Sweep ---------------------------------------------------------------------------------------- *)

let test_logspace () =
  let a = Sweep.logspace ~lo:1e-3 ~hi:1. ~n:4 in
  Alcotest.(check int) "length" 4 (Array.length a);
  check_float ~eps:1e-12 "first" 1e-3 a.(0);
  check_float ~eps:1e-12 "last" 1. a.(3);
  check_float ~eps:1e-12 "geometric step" 1e-2 a.(1)

let test_linspace () =
  let a = Sweep.linspace ~lo:0. ~hi:1. ~n:5 in
  check_float "midpoint" 0.5 a.(2)

let test_series_drops_invalid () =
  let series = Sweep.series (fun p -> if p > 0.5 then nan else 1. /. p)
      [| 0.1; 0.9; 0.2 |] in
  Alcotest.(check int) "invalid dropped" 2 (List.length series)

let test_paper_grid () =
  let g = Sweep.paper_loss_grid () in
  Alcotest.(check int) "60 points" 60 (Array.length g);
  Alcotest.(check bool) "covers 1e-4 .. 0.8" true
    (g.(0) = 1e-4 && Float.abs (g.(59) -. 0.8) < 1e-9)

(* --- Model dispatch ---------------------------------------------------------------------------------- *)

let test_model_names_roundtrip () =
  List.iter
    (fun kind ->
      match Model.of_name (Model.name kind) with
      | Some back -> Alcotest.(check bool) (Model.name kind) true (back = kind)
      | None -> Alcotest.failf "name %s did not parse" (Model.name kind))
    Model.all

let test_model_aliases () =
  Alcotest.(check bool) "pftk = full" true (Model.of_name "pftk" = Some Model.Full);
  Alcotest.(check bool) "mathis = td-only" true
    (Model.of_name "mathis" = Some Model.Td_only);
  Alcotest.(check bool) "unknown" true (Model.of_name "nonsense" = None)

let test_all_models_evaluate () =
  let params = Params.make ~rtt:0.3 ~t0:2. ~wm:16 () in
  List.iter
    (fun kind ->
      let rate = Model.send_rate kind params 0.03 in
      Alcotest.(check bool)
        (Model.name kind ^ " positive and finite")
        true
        (Float.is_finite rate && rate > 0.))
    Model.all

(* --- Domain guards ------------------------------------------------------------------------------------- *)

(* Every exported entry point taking a loss probability, an RTT, or a
   timeout now validates its domain before computing (rule R4 of
   pftk-race).  Pin the exact message for one representative of each
   guard style, then sweep the rest generically. *)

let rejects msg f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

let test_guard_messages () =
  Alcotest.check_raises "Full_model.send_rate p=0"
    (Invalid_argument "loss probability p=0 outside (0, 1)") (fun () ->
      ignore (Full_model.send_rate default_params 0.));
  Alcotest.check_raises "Tdonly.send_rate rtt=0"
    (Invalid_argument "Tdonly.send_rate: rtt must be positive") (fun () ->
      ignore (Tdonly.send_rate ~rtt:0. ~b:2 0.1));
  Alcotest.check_raises "Timeouts.e_zto_series t0=0"
    (Invalid_argument "Timeouts.e_zto_series: t0 must be positive") (fun () ->
      ignore (Timeouts.e_zto_series ~t0:0. 0.1))

let test_guard_sweep () =
  List.iter
    (fun (msg, f) -> rejects msg f)
    [
      ("Full_model.send_rate p=1", fun () ->
        ignore (Full_model.send_rate default_params 1.));
      ("Full_model.window_limited p=0", fun () ->
        ignore (Full_model.window_limited default_params 0.));
      ("Full_model.timeout_fraction p=1", fun () ->
        ignore (Full_model.timeout_fraction default_params 1.));
      ("Approx_model.send_rate p=0", fun () ->
        ignore (Approx_model.send_rate default_params 0.));
      ("Model.send_rate p=0", fun () ->
        ignore (Model.send_rate Model.Full default_params 0.));
      ("Qhat.h p=0", fun () -> ignore (Qhat.h ~p:0. 4));
      ("Qhat.eval p=1", fun () -> ignore (Qhat.eval Qhat.Closed ~p:1. 4.));
      ("Throughput.throughput p=0", fun () ->
        ignore (Throughput.throughput default_params 0.));
      ("Throughput.delivery_ratio p=1", fun () ->
        ignore (Throughput.delivery_ratio default_params 1.));
      ("Timeouts.e_zto p=0", fun () -> ignore (Timeouts.e_zto ~t0:2. 0.));
      ("Tdonly.e_a p=0", fun () -> ignore (Tdonly.e_a ~rtt:0.2 ~b:2 0.));
      ("Tdonly.send_rate p=1", fun () ->
        ignore (Tdonly.send_rate ~rtt:0.2 ~b:2 1.));
      ("Tdonly.send_rate_capped p=0", fun () ->
        ignore (Tdonly.send_rate_capped default_params 0.));
      ("Inverse.tcp_friendly_rate p=0", fun () ->
        ignore (Inverse.tcp_friendly_rate default_params 0.));
      ("Inverse.tcp_friendly_rate_simple p=1", fun () ->
        ignore (Inverse.tcp_friendly_rate_simple default_params 1.));
    ]

let test_tfrc_guards () =
  let c = Tfrc.Controller.create () in
  Alcotest.check_raises "Tfrc equation_rate rtt=0"
    (Invalid_argument "Tfrc.Controller.equation_rate: rtt must be positive")
    (fun () -> ignore (Tfrc.Controller.equation_rate c 0.05 0.));
  rejects "Tfrc equation_rate p=0" (fun () ->
      ignore (Tfrc.Controller.equation_rate c 0. 0.2));
  rejects "Tfrc equation_rate p=1" (fun () ->
      ignore (Tfrc.Controller.equation_rate c 1. 0.2));
  rejects "Tfrc on_rtt_sample rtt=0" (fun () ->
      Tfrc.Controller.on_rtt_sample c 0.);
  (* A valid call right at the guard boundary still works. *)
  let r = Tfrc.Controller.equation_rate c 0.05 0.2 in
  Alcotest.(check bool) "valid call finite" true (Float.is_finite r && r > 0.)

(* --- Tfrc.Loss_history oracle ---------------------------------------------------------------------------
   Hand-computed RFC 5348 weighted averages.  With the depth-8 weights
   [1,1,1,1,0.8,0.6,0.4,0.2] (sum 6), closed intervals most-recent-first
   [80;70;60;50;40;30;20;10] give
     (80+70+60+50 + 0.8*40+0.6*30+0.4*20+0.2*10) / 6 = 320/6. *)

(* Feed [interval] packets whose last one is lost: on_packet counts the
   lost packet into the interval, so this closes (or opens) an interval of
   exactly [interval] packets. *)
let feed_interval h interval =
  for _ = 1 to interval - 1 do
    Tfrc.Loss_history.on_packet h ~lost:false
  done;
  Tfrc.Loss_history.on_packet h ~lost:true

(* RFC 5348 states the TFRC throughput equation in bytes/s with the
   segment size [s] in the numerator,
     X_Bps = s / (R sqrt(2bp/3) + t_RTO (3 sqrt(3bp/8)) p (1 + 32 p^2)),
   while [Tfrc.fair_rate] is packet-normalized (s = 1 MSS, packets/s).
   Pin one worked value: R = 200 ms, p = 1%, b = 2, t_RTO = 4R (the RFC
   rule, [fair_rate]'s default [t0_factor]), s = 1460 B.  At this p the
   paper's min(1, 3 sqrt(3bp/8)) clamp in eq. (33) does not bind, so the
   RFC spelling and eq. (33) coincide and
     X_pps = 39.715442331954421,  X_Bps = 57984.545804653455 = s * X_pps.
   Multiplying the packet rate by the MSS ([Inverse.rate_in_bytes]) must
   recover the RFC's X_Bps exactly. *)
let test_tfrc_rfc5348_worked_value () =
  let rtt = 0.2 and p = 0.01 and mss = 1460 in
  let x_pps = Tfrc.fair_rate ~rtt p in
  check_float ~eps:1e-9 "packet-normalized rate (packets/s)"
    39.715442331954421 x_pps;
  let x_bps = Inverse.rate_in_bytes ~mss x_pps in
  check_float ~eps:1e-6 "RFC 5348 X_Bps (bytes/s)" 57984.545804653455 x_bps;
  check_float ~eps:0. "conversion is exactly mss * rate"
    (float_of_int mss *. x_pps) x_bps;
  (* The controller's equation_rate is the same equation. *)
  let c = Tfrc.Controller.create () in
  check_float ~eps:0. "Controller.equation_rate agrees" x_pps
    (Tfrc.Controller.equation_rate c p rtt)

let test_loss_history_uniform () =
  let h = Tfrc.Loss_history.create () in
  (* 9 events at packets 100, 200, ..., 900: 8 closed intervals of 100. *)
  for _ = 1 to 9 do
    feed_interval h 100
  done;
  Alcotest.(check int) "nine events" 9 (Tfrc.Loss_history.loss_events h);
  check_float ~eps:0. "uniform average is exact" 100.
    (Option.get (Tfrc.Loss_history.average_interval h));
  check_float ~eps:0. "rate 1/100" 0.01
    (Option.get (Tfrc.Loss_history.loss_event_rate h))

let test_loss_history_weighted () =
  let h = Tfrc.Loss_history.create () in
  (* First event opens history; then close intervals 10, 20, ..., 80 in
     chronological order, so most-recent-first the history reads
     [80;70;...;10]. *)
  feed_interval h 5;
  List.iter (feed_interval h) [ 10; 20; 30; 40; 50; 60; 70; 80 ];
  (* with-current is weaker (current = 0), so the history average wins. *)
  check_float ~eps:1e-12 "weighted average 320/6" (320. /. 6.)
    (Option.get (Tfrc.Loss_history.average_interval h));
  check_float ~eps:1e-12 "rate 6/320" (6. /. 320.)
    (Option.get (Tfrc.Loss_history.loss_event_rate h))

let test_loss_history_discounting () =
  let h = Tfrc.Loss_history.create () in
  feed_interval h 5;
  List.iter (feed_interval h) [ 10; 20; 30; 40; 50; 60; 70; 80 ];
  (* A long open interval lifts the average immediately: with current =
     1000, the with-current average is
     (1000+80+70+60 + 0.8*50+0.6*40+0.4*30+0.2*20) / 6 = 1290/6 > 320/6. *)
  for _ = 1 to 1000 do
    Tfrc.Loss_history.on_packet h ~lost:false
  done;
  check_float ~eps:1e-12 "discounted average 1290/6" (1290. /. 6.)
    (Option.get (Tfrc.Loss_history.average_interval h));
  (* A short open interval must NOT crash the estimate: after one more
     loss the closed history rules again. *)
  Tfrc.Loss_history.on_packet h ~lost:true;
  let avg = Option.get (Tfrc.Loss_history.average_interval h) in
  Alcotest.(check bool) "closing the long interval keeps average high" true
    (avg > 320. /. 6.)

let test_loss_history_vs_online_p () =
  (* The same loss pattern — one indication every 50 packets — through both
     estimators: TFRC's loss-event rate and the streaming summary's
     observed p agree exactly (8 events / 400 packets = 0.02). *)
  let h = Tfrc.Loss_history.create () in
  for _ = 1 to 8 do
    feed_interval h 50
  done;
  let tfrc_rate = Option.get (Tfrc.Loss_history.loss_event_rate h) in
  let s = Pftk_online.Summary.create () in
  for i = 1 to 400 do
    let time = float_of_int i in
    Pftk_online.Summary.push s
      {
        Pftk_trace.Event.time;
        kind =
          Pftk_trace.Event.Segment_sent
            { seq = i; retransmission = false; cwnd = 10.; flight = 5 };
      };
    if i mod 50 = 0 then
      Pftk_online.Summary.push s
        {
          Pftk_trace.Event.time;
          kind = Pftk_trace.Event.Timer_fired { backoff = 1; rto = 2. };
        }
  done;
  let online_p =
    (Pftk_online.Summary.current s).Pftk_trace.Analyzer.observed_p
  in
  check_float ~eps:0. "tfrc rate is exactly 0.02" 0.02 tfrc_rate;
  check_float ~eps:0. "online p equals tfrc rate" tfrc_rate online_p

(* --- Oracles: the previous per-row bodies --------------------------------- *)

(* The [_unchecked] bodies of Approx_model, Tdonly and Tfrc and
   [Inverse.loss_budget] as they were before the batch kernels called
   the core bodies per row, verbatim.  The re-spelled bodies must match
   them bit for bit. *)
module Oracle = struct
  let approx_send_rate_uncapped_unchecked ~rtt ~t0 ~b p =
    let bf = float_of_int b in
    let td_term = rtt *. sqrt (2. *. bf *. p /. 3.) in
    let to_term =
      t0
      *. Float.min 1. (3. *. sqrt (3. *. bf *. p /. 8.))
      *. p
      *. (1. +. (32. *. p *. p))
    in
    1. /. (td_term +. to_term)

  let approx_send_rate_unchecked (params : Params.t) p =
    Float.min
      (float_of_int params.wm /. params.rtt)
      (approx_send_rate_uncapped_unchecked ~rtt:params.rtt ~t0:params.t0
         ~b:params.b p)

  let e_w_unchecked ~b p =
    let c = float_of_int (2 + b) /. (3. *. float_of_int b) in
    c +. sqrt ((8. *. (1. -. p) /. (3. *. float_of_int b *. p)) +. (c *. c))

  let e_x_unchecked ~b p =
    let c = float_of_int (2 + b) /. 6. in
    c +. sqrt ((2. *. float_of_int b *. (1. -. p) /. (3. *. p)) +. (c *. c))

  let tdonly_send_rate_unchecked ~rtt ~b p =
    (((1. -. p) /. p) +. e_w_unchecked ~b p)
    /. (rtt *. (e_x_unchecked ~b p +. 1.))

  let fair_rate_unchecked ~t0_factor ~rtt p =
    let t0 = Float.max 1e-3 (t0_factor *. rtt) in
    Float.min
      (float_of_int Params.unlimited_window /. rtt)
      (approx_send_rate_uncapped_unchecked ~rtt ~t0 ~b:2 p)

  let loss_budget params ~rate =
    let model p = Full_model.send_rate params p in
    let lo = 1e-9 and hi = 0.999 in
    let limited p = Full_model.window_limited params p in
    if not (limited lo) || limited hi then Inverse.loss_for_rate ~lo ~hi model rate
    else begin
      let rec knee log_lo log_hi n =
        if Int.equal n 0 then (exp log_lo, exp log_hi)
        else begin
          let log_mid = (log_lo +. log_hi) /. 2. in
          if limited (exp log_mid) then knee log_mid log_hi (n - 1)
          else knee log_lo log_mid (n - 1)
        end
      in
      let knee_left, knee_right = knee (log lo) (log hi) 40 in
      match Inverse.loss_for_rate ~lo:knee_right ~hi model rate with
      | Some _ as found -> found
      | None -> Inverse.loss_for_rate ~lo ~hi:knee_left model rate
    end
end

let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* 10^5 in-domain rows: p log-uniform over [1e-12, 0.999] with one row in
   eight near 1, rtt and t0 log-uniform over [1e-4, 1e4], b in 1..4, wm
   from 1 to unlimited; then test_batch's subnormal and extreme rows. *)
let oracle_rows =
  lazy
    (let st = Random.State.make [| 16 |] in
     let log_uniform lo hi =
       exp (log lo +. Random.State.float st (log hi -. log lo))
     in
     let row _ =
       let p =
         if Random.State.int st 8 = 0 then 1. -. log_uniform 1e-12 0.5
         else log_uniform 1e-12 0.999
       in
       let wm =
         match Random.State.int st 4 with
         | 0 -> Params.unlimited_window
         | 1 -> 1 + Random.State.int st 4
         | _ -> int_of_float (log_uniform 1. 1e6)
       in
       let b = 1 + Random.State.int st 4 in
       let rtt = log_uniform 1e-4 1e4 and t0 = log_uniform 1e-4 1e4 in
       (Params.make ~b ~wm ~rtt ~t0 (), p)
     in
     Array.append
       (Array.init 100_000 row)
       [|
         (Params.make ~wm:32 ~rtt:0.2 ~t0:2. (), 0x1p-1074);
         (Params.make ~rtt:0.2 ~t0:2. (), 0x1p-1022);
         (Params.make ~wm:8 ~rtt:1e300 ~t0:1e300 (), 1e-300);
       |])

let check_oracle name f =
  Array.iteri
    (fun i ((params : Params.t), p) ->
      let want, got = f params p in
      if not (same_bits want got) then
        Alcotest.failf "%s: row %d (%a p=%h): %h, previous body %h" name i
          Params.pp params p got want)
    (Lazy.force oracle_rows)

let test_oracle_approx () =
  check_oracle "Approx_model.send_rate_unchecked" (fun params p ->
      ( Oracle.approx_send_rate_unchecked params p,
        Approx_model.send_rate_unchecked
          (Tdonly.consts ~b:params.b)
          ~rtt:params.rtt ~t0:params.t0 ~wm:(float_of_int params.wm) p ));
  check_oracle "Approx_model.send_rate_uncapped" (fun params p ->
      ( Oracle.approx_send_rate_uncapped_unchecked ~rtt:params.rtt
          ~t0:params.t0 ~b:params.b p,
        Approx_model.send_rate_uncapped ~rtt:params.rtt ~t0:params.t0
          ~b:params.b p ))

let test_oracle_tdonly () =
  check_oracle "Tdonly.send_rate_unchecked" (fun params p ->
      ( Oracle.tdonly_send_rate_unchecked ~rtt:params.rtt ~b:params.b p,
        Tdonly.send_rate_unchecked (Tdonly.consts ~b:params.b) ~rtt:params.rtt p
      ))

(* t0_factor spans both sides of the 1 ms floor. *)
let test_oracle_tfrc () =
  check_oracle "Tfrc.fair_rate_unchecked" (fun params p ->
      let t0_factor = params.t0 /. params.rtt in
      ( Oracle.fair_rate_unchecked ~t0_factor ~rtt:params.rtt p,
        Tfrc.fair_rate_unchecked ~t0_factor ~rtt:params.rtt p ))

(* The target rate is the model's own rate at a random loss, scaled by
   0.5..2, so some rows fall outside the attainable range (None). *)
let test_oracle_loss_budget () =
  let st = Random.State.make [| 17 |] in
  check_oracle "Inverse.loss_budget" (fun params p ->
      let rate =
        Full_model.send_rate params p *. (0.5 +. Random.State.float st 1.5)
      in
      let some = function Some p -> p | None -> Float.nan in
      ( some (Oracle.loss_budget params ~rate),
        some (Inverse.loss_budget params ~rate) ))

(* --- Property tests ------------------------------------------------------------------------------------ *)

let gen_p = QCheck.float_range 1e-4 0.9

let prop_full_positive =
  QCheck.Test.make ~name:"full model positive and finite" ~count:300 gen_p
    (fun p ->
      let rate = Full_model.send_rate default_params p in
      Float.is_finite rate && rate > 0.)

let prop_full_below_tdonly =
  QCheck.Test.make ~name:"full <= TD-only" ~count:300 gen_p (fun p ->
      Full_model.send_rate default_params p
      <= Tdonly.send_rate ~rtt:0.2 ~b:2 p +. 1e-9)

let prop_throughput_below_send =
  QCheck.Test.make ~name:"T(p) <= B(p)" ~count:300 gen_p (fun p ->
      Throughput.throughput default_params p
      <= Full_model.send_rate default_params p +. 1e-9)

let prop_qhat_exact_closed =
  QCheck.Test.make ~name:"Qhat exact = closed form on integers" ~count:300
    QCheck.(pair (float_range 1e-3 0.8) (int_range 1 60))
    (fun (p, w) ->
      Float.abs (Qhat.exact ~p w -. Qhat.closed_form ~p (float_of_int w)) < 1e-7)

let prop_e_w_decreasing =
  QCheck.Test.make ~name:"E[W] decreasing in p" ~count:300
    QCheck.(pair gen_p gen_p)
    (fun (p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      QCheck.assume (lo < hi);
      Tdonly.e_w ~b:2 lo >= Tdonly.e_w ~b:2 hi -. 1e-9)

let prop_wm_caps_rate =
  QCheck.Test.make ~name:"approximate model capped by Wm/RTT" ~count:300
    QCheck.(pair gen_p (int_range 1 64))
    (fun (p, wm) ->
      let params = Params.make ~rtt:0.2 ~t0:2. ~wm () in
      Approx_model.send_rate params p <= (float_of_int wm /. 0.2) +. 1e-9)

let prop_inverse_roundtrip =
  QCheck.Test.make ~name:"inverse roundtrip" ~count:50
    (QCheck.float_range 1e-3 0.5) (fun p ->
      let model q = Full_model.send_rate default_params q in
      match Inverse.loss_for_rate model (model p) with
      | Some found -> Float.abs (found -. p) /. p < 0.01
      | None -> false)

(* The fused eq. (32) body the batch kernels call per row is the guarded
   path bit for bit, for both Q-hat variants, b = 1..4 and wm from 1 to
   unlimited. *)
let prop_fused_full_model =
  QCheck.Test.make ~name:"fused eq. (32) body = send_rate, bit for bit"
    ~count:20_000
    QCheck.(
      quad (float_range 1e-9 0.999) (int_range 1 4)
        (oneof [ int_range 1 64; int_range 1 100_000; always Params.unlimited_window ])
        (pair bool (pair (float_range 1e-3 10.) (float_range 1e-3 100.))))
    (fun (p, b, wm, (approx_q, (rtt, t0))) ->
      let params = Params.make ~b ~wm ~rtt ~t0 () in
      let q = if approx_q then Qhat.Approximate else Qhat.Closed in
      same_bits
        (Full_model.send_rate ~q params p)
        (Full_model.send_rate_unchecked ~approx_q (Tdonly.consts ~b) ~rtt ~t0
           ~wm:(float_of_int wm) p))

let props =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_full_positive;
      prop_full_below_tdonly;
      prop_throughput_below_send;
      prop_qhat_exact_closed;
      prop_e_w_decreasing;
      prop_wm_caps_rate;
      prop_inverse_roundtrip;
      prop_fused_full_model;
    ]

let () =
  Alcotest.run "pftk_core"
    [
      ( "params",
        [
          case "defaults" test_params_defaults;
          case "validation" test_params_validation;
          case "check_p" test_check_p;
          case "equal" test_params_equal;
        ] );
      ( "tdonly",
        [
          case "eq. (4) E[alpha]" test_e_alpha;
          case "eq. (13) E[W]" test_e_w_formula;
          case "eq. (14) asymptotic" test_e_w_asymptotic;
          case "eq. (11) E[X] relation" test_e_x_relation;
          case "eq. (16) E[A]" test_e_a;
          case "eq. (17) asymptotic" test_e_x_asymptotic;
          case "eq. (5) E[Y]" test_e_y;
          case "eq. (19) ratio" test_send_rate_is_ratio;
          case "eq. (20) sqrt" test_sqrt_formula;
          case "sqrt approximates exact" test_sqrt_approximates_exact;
          case "1/RTT scaling" test_rtt_scaling;
          case "window cap" test_send_rate_capped;
        ] );
      ( "qhat",
        [
          case "A(w,k) normalized" test_a_prob_normalized;
          case "C(n,m) normalized" test_c_prob_normalized;
          case "w <= 3 forces TO" test_qhat_small_windows;
          case "eq. (22) = eq. (24)" test_qhat_exact_equals_closed_form;
          case "p->0 limit 3/w" test_qhat_limit;
          case "eq. (25) approx" test_qhat_approx;
          case "bounds" test_qhat_bounds;
          case "eval dispatch" test_qhat_eval_dispatch;
          case "decreasing in w" test_qhat_decreasing_in_w;
        ] );
      ( "timeouts",
        [
          case "eq. (29) f(p)" test_f_polynomial;
          case "eq. (27) E[R]" test_e_r;
          case "L_k durations" test_sequence_durations;
          case "Irix cap 5" test_sequence_duration_irix_cap;
          case "geometric normalized" test_sequence_length_distribution;
          case "E[Z^TO] closed = series" test_e_zto_closed_form_matches_series;
          case "lower cap shortens" test_e_zto_irix_smaller;
        ] );
      ( "full-model",
        [
          case "regime switch" test_window_limited_regimes;
          case "branch continuity" test_full_model_branch_continuity;
          case "eq. (28) assembled" test_full_model_spot_value;
          case "full <= TD-only" test_full_below_td_only;
          case "agrees with TD-only at tiny p" test_full_approaches_td_only_at_small_p;
          case "decreasing in p" test_full_decreasing_in_p;
          case "II-C identities" test_limited_identities;
          case "timeout fraction" test_timeout_fraction_range;
          case "Q-hat variants close" test_q_variants_close;
        ] );
      ( "approx-model",
        [
          case "eq. (30) assembled" test_approx_formula;
          case "Wm/RTT cap" test_approx_capped;
          case "tracks full model" test_approx_tracks_full;
        ] );
      ( "throughput",
        [
          case "T <= B" test_throughput_below_send_rate;
          case "delivery ratio" test_delivery_ratio_decreasing;
          case "printed eq. (37)/(38) at b=2" test_throughput_printed_formula_b2;
          case "shared denominator identity" test_throughput_send_rate_shared_denominator;
          case "limited branch" test_throughput_limited_branch;
        ] );
      ( "markov",
        [
          case "distribution normalized" test_markov_distribution_normalized;
          case "state count" test_markov_states;
          case "tracks closed form" test_markov_tracks_full_model;
          case "mean window sane" test_markov_mean_window_sane;
          case "decreasing in p" test_markov_decreasing_in_p;
          case "deterministic" test_markov_deterministic;
          case "truncation" test_markov_truncation;
        ] );
      ( "inverse",
        [
          case "roundtrip" test_inverse_roundtrip;
          case "out of range" test_inverse_out_of_range;
          case "budget monotone" test_loss_budget_monotone;
          case "plateau returns largest p" test_inverse_plateau_largest_p;
          case "budget across the knee" test_loss_budget_knee;
          case "model ordering sweep" test_model_ordering_sweep;
          case "inverse sweep roundtrip" test_inverse_sweep_roundtrip;
          case "bytes conversion" test_rate_in_bytes;
          case "tcp-friendly aliases" test_tcp_friendly_consistency;
        ] );
      ( "sweep",
        [
          case "logspace" test_logspace;
          case "linspace" test_linspace;
          case "series drops invalid" test_series_drops_invalid;
          case "paper grid" test_paper_grid;
        ] );
      ( "model-dispatch",
        [
          case "name roundtrip" test_model_names_roundtrip;
          case "aliases" test_model_aliases;
          case "all evaluate" test_all_models_evaluate;
        ] );
      ( "domain-guards",
        [
          case "pinned messages" test_guard_messages;
          case "entry-point sweep" test_guard_sweep;
          case "tfrc controller" test_tfrc_guards;
        ] );
      ( "tfrc-oracle",
        [
          case "uniform intervals" test_loss_history_uniform;
          case "weighted history" test_loss_history_weighted;
          case "history discounting" test_loss_history_discounting;
          case "agrees with online p" test_loss_history_vs_online_p;
          case "RFC 5348 worked value" test_tfrc_rfc5348_worked_value;
        ] );
      ( "oracle",
        [
          case "approx-model bodies" test_oracle_approx;
          case "tdonly body" test_oracle_tdonly;
          case "tfrc body" test_oracle_tfrc;
          case "loss budget" test_oracle_loss_budget;
        ] );
      ("properties", props);
    ]
