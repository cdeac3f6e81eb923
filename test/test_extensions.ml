(* Tests for the extension modules: the Cardwell short-flow latency model,
   the TFRC controller, trace serialization, and the round simulator's TCP
   flavors. *)

open Pftk_core
module Round_sim = Pftk_tcp.Round_sim
module Loss = Pftk_loss.Loss_process
module Serialize = Pftk_trace.Serialize
module Recorder = Pftk_trace.Recorder
module Event = Pftk_trace.Event

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let close ?(rel = 0.05) msg expected actual =
  let err = Float.abs (expected -. actual) /. Float.abs expected in
  if err > rel then
    Alcotest.failf "%s: expected %g within %g%%, got %g" msg expected
      (100. *. rel) actual

(* --- Short_flow ----------------------------------------------------------- *)

let params = Params.make ~rtt:0.1 ~t0:1. ~wm:32 ()

let test_ss_data_bounds () =
  (* Expected slow-start data is at least 1 packet and at most the whole
     transfer. *)
  List.iter
    (fun (p, d) ->
      let e = Short_flow.expected_slow_start_data ~p d in
      Alcotest.(check bool)
        (Printf.sprintf "bounds at p=%g d=%d" p d)
        true
        (e >= 1. && e <= float_of_int d))
    [ (0.01, 1); (0.01, 100); (0.5, 100); (0.0001, 10) ]

let test_ss_data_tiny_p_sends_everything () =
  (* With negligible loss the whole transfer fits in slow start. *)
  check_float ~eps:0.1 "all 50 packets in slow start" 50.
    (Short_flow.expected_slow_start_data ~p:1e-7 50)

let test_ss_window_growth () =
  (* gamma = 1.5 for b = 2: after sending 1 + 1.5 + 2.25 = 4.75 packets the
     window is 1.5^3 = 3.375. *)
  close ~rel:1e-6 "geometric window" 3.375
    (Short_flow.slow_start_window ~b:2 ~wm:1000 4.75)

let test_ss_window_capped () =
  check_float "cap respected" 8.
    (Short_flow.slow_start_window ~b:2 ~wm:8 1e6)

let test_ss_rounds_uncapped () =
  (* 4.75 packets need exactly 3 rounds at gamma = 1.5 from w = 1. *)
  close ~rel:1e-6 "3 rounds" 3. (Short_flow.slow_start_rounds ~b:2 ~wm:1000 4.75)

let test_ss_rounds_capped_linear_tail () =
  (* Beyond the cap the sender adds wm packets per round. *)
  let base = Short_flow.slow_start_rounds ~b:2 ~wm:8 100. in
  let more = Short_flow.slow_start_rounds ~b:2 ~wm:8 108. in
  close ~rel:1e-6 "one extra round per wm packets" 1. (more -. base)

let test_latency_monotone_in_size () =
  let prev = ref 0. in
  List.iter
    (fun packets ->
      let t = (Short_flow.expected_latency params ~p:0.02 ~packets).Short_flow.total in
      Alcotest.(check bool) "monotone in size" true (t > !prev);
      prev := t)
    [ 1; 5; 20; 100; 1000 ]

let test_latency_monotone_in_p () =
  let at p = (Short_flow.expected_latency params ~p ~packets:100).Short_flow.total in
  Alcotest.(check bool) "monotone in p" true
    (at 0.001 < at 0.01 && at 0.01 < at 0.1)

let test_latency_converges_to_bulk () =
  (* For huge transfers, effective rate -> B(p). *)
  let p = 0.02 in
  let packets = 200_000 in
  let phases = Short_flow.expected_latency params ~p ~packets in
  close ~rel:0.02 "per-packet cost tends to 1/B"
    (Full_model.send_rate params p)
    (Short_flow.mean_rate phases ~packets)

let test_latency_handshake_toggle () =
  let with_hs = Short_flow.expected_latency params ~p:0.01 ~packets:10 in
  let without = Short_flow.expected_latency ~handshake:false params ~p:0.01 ~packets:10 in
  check_float "handshake costs one RTT" params.Params.rtt
    (with_hs.Short_flow.total -. without.Short_flow.total)

let test_latency_phases_sum () =
  let ph = Short_flow.expected_latency params ~p:0.05 ~packets:40 in
  check_float ~eps:1e-9 "phases sum to total"
    (ph.Short_flow.handshake +. ph.Short_flow.slow_start +. ph.Short_flow.recovery
    +. ph.Short_flow.congestion_avoidance +. ph.Short_flow.delayed_ack)
    ph.Short_flow.total

let test_latency_validation () =
  Alcotest.check_raises "packets < 1"
    (Invalid_argument "Short_flow: packets must be >= 1") (fun () ->
      ignore (Short_flow.expected_latency params ~p:0.1 ~packets:0))

(* --- Tfrc ------------------------------------------------------------------- *)

let test_loss_history_no_event () =
  let h = Tfrc.Loss_history.create () in
  for _ = 1 to 100 do
    Tfrc.Loss_history.on_packet h ~lost:false
  done;
  Alcotest.(check bool) "no rate before first event" true
    (Tfrc.Loss_history.loss_event_rate h = None);
  Alcotest.(check int) "packets counted" 100 (Tfrc.Loss_history.packets_seen h)

let test_loss_history_periodic () =
  (* A loss every 50 packets: the estimated event rate converges to 1/50. *)
  let h = Tfrc.Loss_history.create () in
  for i = 1 to 1000 do
    Tfrc.Loss_history.on_packet h ~lost:(i mod 50 = 0)
  done;
  match Tfrc.Loss_history.loss_event_rate h with
  | Some rate -> close ~rel:0.05 "1/50" 0.02 rate
  | None -> Alcotest.fail "no estimate"

let test_loss_history_event_grouping () =
  (* Three consecutive losses within the event span are one event. *)
  let h = Tfrc.Loss_history.create () in
  Tfrc.Loss_history.set_event_span h 10;
  for i = 1 to 100 do
    Tfrc.Loss_history.on_packet h ~lost:(i >= 50 && i <= 52)
  done;
  Alcotest.(check int) "one event" 1 (Tfrc.Loss_history.loss_events h)

let test_loss_history_separate_events () =
  let h = Tfrc.Loss_history.create () in
  Tfrc.Loss_history.set_event_span h 5;
  for i = 1 to 100 do
    Tfrc.Loss_history.on_packet h ~lost:(i = 10 || i = 40 || i = 80)
  done;
  Alcotest.(check int) "three events" 3 (Tfrc.Loss_history.loss_events h)

let test_loss_history_discounting () =
  (* A long loss-free current interval must raise the average promptly. *)
  let h = Tfrc.Loss_history.create () in
  for i = 1 to 200 do
    Tfrc.Loss_history.on_packet h ~lost:(i mod 20 = 0)
  done;
  let before = Option.get (Tfrc.Loss_history.average_interval h) in
  for _ = 1 to 500 do
    Tfrc.Loss_history.on_packet h ~lost:false
  done;
  let after = Option.get (Tfrc.Loss_history.average_interval h) in
  Alcotest.(check bool) "average rose" true (after > before)

let test_controller_slow_start () =
  let c = Tfrc.Controller.create ~initial_rate:1. () in
  Tfrc.Controller.on_rtt_sample c 0.1;
  Tfrc.Controller.feedback_epoch c;
  Tfrc.Controller.feedback_epoch c;
  check_float "doubled twice" 4. (Tfrc.Controller.allowed_rate c)

let test_controller_tracks_equation () =
  (* Under steady Bernoulli loss the controller should settle within a
     small factor of eq. (33) at the true loss rate (loss-event grouping
     biases it a little high). *)
  let c = Tfrc.Controller.create () in
  let rng = Pftk_stats.Rng.create ~seed:77L () in
  let p = 0.03 and rtt = 0.1 in
  for _ = 1 to 400 do
    Tfrc.Controller.on_rtt_sample c rtt;
    let n = max 1 (int_of_float (Tfrc.Controller.allowed_rate c *. rtt)) in
    for _ = 1 to n do
      Tfrc.Controller.on_packet c ~lost:(Pftk_stats.Rng.bernoulli rng p)
    done;
    Tfrc.Controller.feedback_epoch c
  done;
  let fair =
    Approx_model.send_rate (Params.make ~rtt ~t0:(4. *. rtt) ()) p
  in
  let rate = Tfrc.Controller.allowed_rate c in
  Alcotest.(check bool)
    (Printf.sprintf "within 3x of fair (%.1f vs %.1f)" rate fair)
    true
    (rate > fair /. 3. && rate < fair *. 3.)

let test_controller_min_rate_floor () =
  let c = Tfrc.Controller.create ~initial_rate:1. ~min_rate:0.5 () in
  Tfrc.Controller.on_rtt_sample c 0.1;
  (* Saturate with losses: every packet lost. *)
  for _ = 1 to 50 do
    Tfrc.Controller.on_packet c ~lost:true;
    Tfrc.Controller.feedback_epoch c
  done;
  Alcotest.(check bool) "floor holds" true
    (Tfrc.Controller.allowed_rate c >= 0.5)

let test_controller_validation () =
  Alcotest.check_raises "bad gain"
    (Invalid_argument "Tfrc.Controller: rtt_gain outside (0, 1]") (fun () ->
      ignore (Tfrc.Controller.create ~rtt_gain:0. ()))

(* --- Serialize ----------------------------------------------------------------- *)

let sample_events =
  [
    { Event.time = 0.; kind = Event.Round_started { index = 1; window = 3.5 } };
    {
      Event.time = 0.1;
      kind =
        Event.Segment_sent
          { seq = 0; retransmission = false; cwnd = 3.5; flight = 1 };
    };
    { Event.time = 0.25; kind = Event.Ack_received { ack = 1 } };
    {
      Event.time = 0.25;
      kind = Event.Rtt_sample { sample = 0.15; srtt = 0.15; rto = 0.6 };
    };
    { Event.time = 1.; kind = Event.Timer_fired { backoff = 2; rto = 1.2 } };
    { Event.time = 1.5; kind = Event.Fast_retransmit_triggered { seq = 7 } };
    { Event.time = 2.; kind = Event.Connection_closed };
  ]

let test_serialize_roundtrip_lines () =
  List.iter
    (fun e ->
      match Serialize.event_of_line (Serialize.line_of_event e) with
      | Some back ->
          Alcotest.(check bool)
            (Serialize.line_of_event e)
            true (back = e)
      | None -> Alcotest.failf "line dropped: %s" (Serialize.line_of_event e))
    sample_events

let test_serialize_comments_skipped () =
  Alcotest.(check bool) "comment" true (Serialize.event_of_line "# hello" = None);
  Alcotest.(check bool) "blank" true (Serialize.event_of_line "   " = None)

let test_serialize_malformed () =
  Alcotest.check_raises "garbage"
    (Serialize.Error
       {
         Serialize.file = None;
         line = 0;
         reason = "malformed line \"1.0 frobnicate 3\"";
       })
    (fun () -> ignore (Serialize.event_of_line "1.0 frobnicate 3"))

let test_serialize_file_roundtrip () =
  let recorder = Recorder.create () in
  List.iter (fun { Event.time; kind } -> Recorder.record recorder ~time kind)
    sample_events;
  let path = Filename.temp_file "pftk" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save path recorder;
      let back = Serialize.load path in
      Alcotest.(check int) "same length" (Recorder.length recorder)
        (Recorder.length back);
      Alcotest.(check bool) "identical events" true
        (Recorder.events recorder = Recorder.events back))

let test_serialize_real_trace_reanalysis () =
  (* A simulated trace must analyze identically after a save/load cycle. *)
  let rng = Pftk_stats.Rng.create ~seed:5L () in
  let loss = Loss.round_correlated rng ~p:0.05 in
  let recorder = Recorder.create () in
  ignore
    (Round_sim.run ~recorder ~duration:300. ~loss Round_sim.default_config);
  let path = Filename.temp_file "pftk" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save path recorder;
      let back = Serialize.load path in
      let a = Pftk_trace.Analyzer.summarize recorder in
      let b = Pftk_trace.Analyzer.summarize back in
      Alcotest.(check bool) "summaries identical" true (a = b))

(* --- Round_sim flavors ------------------------------------------------------------ *)

let flavor_rate flavor p =
  let rng = Pftk_stats.Rng.create ~seed:31L () in
  let loss = Loss.round_correlated rng ~p in
  let config =
    {
      Round_sim.default_config with
      Round_sim.flavor;
      wm = 32;
      rtt_jitter = 0.;
      t0 = 1.5;
    }
  in
  (Round_sim.run ~seed:31L ~duration:20_000. ~loss config).Round_sim.send_rate

let test_tahoe_slower_at_low_p () =
  (* Where TDs dominate, Tahoe's full restarts cost real throughput. *)
  Alcotest.(check bool) "tahoe < reno at p=0.005" true
    (flavor_rate Round_sim.Tahoe 0.005
    < 0.95 *. flavor_rate Round_sim.Reno_slow_start 0.005)

let test_flavors_converge_at_high_p () =
  (* Where timeouts dominate, the flavors behave alike. *)
  let tahoe = flavor_rate Round_sim.Tahoe 0.2 in
  let reno = flavor_rate Round_sim.Reno_slow_start 0.2 in
  close ~rel:0.1 "tahoe ~ reno at p=0.2" reno tahoe

let test_model_reno_default () =
  Alcotest.(check bool) "default flavor" true
    (Round_sim.default_config.Round_sim.flavor = Round_sim.Model_reno)

let test_slow_start_recovers_faster_than_linear () =
  (* After a timeout, the slow-starting flavor reopens the window
     geometrically; sampled windows shortly after a reset must exceed the
     linear grower's.  Compare mean windows under identical loss. *)
  let samples flavor =
    let rng = Pftk_stats.Rng.create ~seed:32L () in
    let loss = Loss.round_correlated rng ~p:0.02 in
    let config =
      { Round_sim.default_config with Round_sim.flavor; wm = 64; rtt_jitter = 0. }
    in
    Round_sim.window_samples ~seed:32L ~rounds:2000 ~loss config
  in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  Alcotest.(check bool) "slow start raises mean window" true
    (mean (samples Round_sim.Reno_slow_start) > mean (samples Round_sim.Model_reno))

(* --- Shared bottleneck / fairness -------------------------------------------------- *)

module SB = Pftk_tcp.Shared_bottleneck

let test_bottleneck_reno_share_fairly () =
  let result =
    SB.run ~seed:61L ~duration:90. [ SB.reno "a"; SB.reno "b"; SB.reno "c" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "jain %.2f > 0.8" result.SB.jain_fairness)
    true
    (result.SB.jain_fairness > 0.8);
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f > 0.85" result.SB.bottleneck_utilization)
    true
    (result.SB.bottleneck_utilization > 0.85)

let test_bottleneck_tfrc_friendly () =
  let outcome =
    Pftk_experiments.Fairness.evaluate ~seed:62L
      {
        Pftk_experiments.Fairness.label = "test";
        reno_flows = 3;
        tfrc_flows = 1;
        duration = 120.;
      }
  in
  let ratio = outcome.Pftk_experiments.Fairness.friendliness_ratio in
  Alcotest.(check bool)
    (Printf.sprintf "tfrc/reno ratio %.2f within [0.3, 3]" ratio)
    true
    (ratio > 0.3 && ratio < 3.);
  Alcotest.(check bool) "overall fairness decent" true
    (outcome.Pftk_experiments.Fairness.result.SB.jain_fairness > 0.7)

let test_bottleneck_late_start () =
  let result =
    SB.run ~seed:63L ~duration:60.
      [ SB.reno "early"; { (SB.reno "late") with SB.start_time = 30. } ]
  in
  match result.SB.flows with
  | [ early; late ] ->
      Alcotest.(check bool) "late flow sent fewer packets" true
        (late.SB.packets_sent < early.SB.packets_sent)
  | _ -> Alcotest.fail "expected two flows"

let test_bottleneck_validation () =
  Alcotest.check_raises "empty flows"
    (Invalid_argument "Shared_bottleneck.run: no flows") (fun () ->
      ignore (SB.run ~duration:1. []));
  (* Reno's timer keeps the event queue busy: an infinite run never ends. *)
  Alcotest.check_raises "infinite duration"
    (Invalid_argument "Shared_bottleneck.run: duration must be finite")
    (fun () -> ignore (SB.run ~duration:Float.infinity [ SB.reno "reno" ]))

let test_bottleneck_conservation () =
  (* Per flow, delivered <= sent; summed goodput <= bottleneck capacity. *)
  let bandwidth = 750_000. in
  let result =
    SB.run ~seed:64L ~bandwidth ~duration:60.
      [ SB.reno "a"; SB.reno "b"; SB.tfrc "t" ]
  in
  List.iter
    (fun (f : SB.flow_result) ->
      Alcotest.(check bool) (f.SB.name ^ " conserves") true
        (f.SB.packets_delivered <= f.SB.packets_sent))
    result.SB.flows;
  let total = List.fold_left (fun acc f -> acc +. f.SB.goodput) 0. result.SB.flows in
  Alcotest.(check bool) "total under capacity" true
    (total <= bandwidth /. 1500. *. 1.05)

(* --- Validation experiment -------------------------------------------------------------- *)

let test_validation_report () =
  let report =
    Pftk_experiments.Validation.generate ~seed:73L ~duration:200.
      ~grid:[| 0.005; 0.02; 0.08 |] ()
  in
  Alcotest.(check int) "three usable points" 3
    (List.length report.Pftk_experiments.Validation.points);
  Alcotest.(check bool) "full model decent (< 0.5)" true
    (report.Pftk_experiments.Validation.full_error < 0.5);
  Alcotest.(check bool) "full beats TD-only" true
    (report.Pftk_experiments.Validation.full_error
    < report.Pftk_experiments.Validation.td_only_error)

(* --- Generalized AIMD ------------------------------------------------------------------------ *)

let test_aimd_reduces_to_tcp () =
  (* AIMD(1, 1/2) must reproduce eq. (20) and eq. (14)'s asymptotics. *)
  List.iter
    (fun p ->
      check_float ~eps:1e-9 "eq. (20) at (1, 1/2)"
        (Tdonly.send_rate_sqrt ~rtt:0.2 ~b:2 p)
        (Aimd.send_rate Aimd.tcp ~rtt:0.2 ~b:2 p))
    [ 0.001; 0.01; 0.1 ];
  close ~rel:1e-3 "eq. (14) asymptotic at (1, 1/2)"
    (Tdonly.e_w_asymptotic ~b:2 1e-6)
    (Aimd.e_w Aimd.tcp ~b:2 1e-6 /. sqrt (1. -. 1e-6))

let test_aimd_friendly_line () =
  List.iter
    (fun beta ->
      let alpha = Aimd.tcp_friendly_alpha ~beta in
      Alcotest.(check bool)
        (Printf.sprintf "friendly at beta=%g" beta)
        true
        (Aimd.is_tcp_friendly (Aimd.make ~alpha ~beta));
      (* Friendly pairs get exactly TCP's rate. *)
      check_float ~eps:1e-9 "equal rate"
        (Aimd.send_rate Aimd.tcp ~rtt:0.1 ~b:2 0.01)
        (Aimd.send_rate (Aimd.make ~alpha ~beta) ~rtt:0.1 ~b:2 0.01))
    [ 0.125; 0.25; 0.5; 0.8 ];
  Alcotest.(check bool) "non-friendly pair detected" false
    (Aimd.is_tcp_friendly (Aimd.make ~alpha:1. ~beta:0.125))

let test_aimd_monotone_in_alpha () =
  let rate alpha =
    Aimd.send_rate (Aimd.make ~alpha ~beta:0.5) ~rtt:0.2 ~b:2 0.01
  in
  Alcotest.(check bool) "more aggressive is faster" true
    (rate 2. > rate 1. && rate 1. > rate 0.5)

let test_aimd_gentle_decrease_is_faster () =
  let rate beta =
    Aimd.send_rate (Aimd.make ~alpha:1. ~beta) ~rtt:0.2 ~b:2 0.01
  in
  Alcotest.(check bool) "smaller beta, higher rate" true (rate 0.125 > rate 0.5)

let test_aimd_matches_simulation () =
  (* Round simulator with the AIMD knobs vs the formula, timeouts
     suppressed (the formula is TD-only). *)
  List.iter
    (fun (alpha, beta) ->
      let p = 0.0005 in
      let rng = Pftk_stats.Rng.create ~seed:17L () in
      let loss = Loss.round_correlated rng ~p in
      let config =
        {
          Round_sim.default_config with
          Round_sim.aimd_increase = alpha;
          aimd_decrease = beta;
          wm = 100_000;
          rtt_jitter = 0.;
          dup_ack_threshold = 1;
        }
      in
      let r = Round_sim.run ~seed:17L ~duration:60_000. ~loss config in
      close ~rel:0.15
        (Printf.sprintf "AIMD(%g, %g) sim vs formula" alpha beta)
        (Aimd.send_rate (Aimd.make ~alpha ~beta) ~rtt:0.2 ~b:2 p)
        r.Round_sim.send_rate)
    [ (1., 0.5); (0.2, 0.125); (2., 0.8) ]

let test_aimd_validation () =
  Alcotest.check_raises "beta = 1" (Invalid_argument "Aimd.make: beta outside (0, 1)")
    (fun () -> ignore (Aimd.make ~alpha:1. ~beta:1.))

(* --- Window distribution -------------------------------------------------------------------- *)

let test_window_dist_agreement () =
  let r = Pftk_experiments.Window_dist.generate ~seed:91L ~rounds:100_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "TV distance %.3f < 0.1"
       r.Pftk_experiments.Window_dist.total_variation)
    true
    (r.Pftk_experiments.Window_dist.total_variation < 0.1);
  close ~rel:0.15 "means agree" r.Pftk_experiments.Window_dist.markov_mean
    r.Pftk_experiments.Window_dist.simulated_mean

let test_window_dist_normalized () =
  let r = Pftk_experiments.Window_dist.generate ~seed:92L ~rounds:20_000 () in
  let sum a = Array.fold_left ( +. ) 0. a in
  check_float ~eps:1e-6 "markov normalized" 1.
    (sum r.Pftk_experiments.Window_dist.markov_dist);
  check_float ~eps:1e-6 "simulated normalized" 1.
    (sum r.Pftk_experiments.Window_dist.simulated_dist)

(* --- Ascii plot --------------------------------------------------------------------------- *)

let render_to_string series =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Pftk_experiments.Ascii_plot.render ppf series;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_ascii_plot_renders () =
  let out =
    render_to_string
      [
        {
          Pftk_experiments.Ascii_plot.glyph = '*';
          label = "a curve";
          points = [ (0.001, 100.); (0.01, 30.); (0.1, 10.) ];
        };
      ]
  in
  Alcotest.(check bool) "contains glyph" true (String.contains out '*');
  Alcotest.(check bool) "contains legend" true
    (String.length out > 0 && String.contains out 'c')

let test_ascii_plot_empty () =
  check_float "empty output for no points" 0.
    (float_of_int (String.length (render_to_string [])))

let test_ascii_plot_skips_nonpositive () =
  (* Nonpositive values must not crash a log-scale plot. *)
  let out =
    render_to_string
      [
        {
          Pftk_experiments.Ascii_plot.glyph = 'x';
          label = "mixed";
          points = [ (0., 1.); (-1., 5.); (0.1, 10.) ];
        };
      ]
  in
  Alcotest.(check bool) "renders the positive point" true
    (String.contains out 'x')

(* --- Cross traffic as the loss source --------------------------------------------------- *)

let test_model_under_cross_traffic () =
  (* The closest analog of the paper's real campaign: TCP loses packets to
     competing bursty traffic at a shared queue, and the model predicts
     its rate from the trace's own measurements. *)
  let config =
    {
      Pftk_netsim.Cross_traffic.rate = 600.;
      packet_size = 1500;
      mean_on = 0.5;
      mean_off = 1.0;
      pareto_shape = Some 1.5;
    }
  in
  let result =
    SB.run ~seed:97L ~duration:600. ~buffer:40
      [ SB.reno "tcp"; SB.cross ~config "bg" ]
  in
  let tcp = List.hd result.SB.flows in
  let bg = List.nth result.SB.flows 1 in
  Alcotest.(check bool) "tcp suffered loss" true (tcp.SB.loss_rate > 0.001);
  Alcotest.(check bool) "background also lost packets" true
    (bg.SB.loss_rate > 0.001);
  Alcotest.(check bool) "tcp still productive" true (tcp.SB.goodput > 50.)

(* --- Sensitivity --------------------------------------------------------------------- *)

let test_elasticities_signs () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "RTT elasticity negative" true
        (e.Pftk_experiments.Sensitivity.wrt_rtt < 0.);
      Alcotest.(check bool) "T0 elasticity negative" true
        (e.Pftk_experiments.Sensitivity.wrt_t0 <= 0.);
      Alcotest.(check bool) "p elasticity negative" true
        (e.Pftk_experiments.Sensitivity.wrt_p < 0.);
      Alcotest.(check bool) "Wm elasticity nonnegative" true
        (e.Pftk_experiments.Sensitivity.wrt_wm >= -0.01))
    (Pftk_experiments.Sensitivity.elasticities ())

let test_elasticities_time_scaling () =
  (* B has dimension 1/time and RTT, T0 are the only time inputs, so their
     elasticities must sum to exactly -1. *)
  List.iter
    (fun e ->
      check_float ~eps:1e-3 "RTT + T0 elasticity = -1" (-1.)
        (e.Pftk_experiments.Sensitivity.wrt_rtt
        +. e.Pftk_experiments.Sensitivity.wrt_t0))
    (Pftk_experiments.Sensitivity.elasticities ())

let test_elasticity_sqrt_regime () =
  (* Unconstrained small p: d log B / d log p ~ -1/2. *)
  let rows =
    Pftk_experiments.Sensitivity.elasticities
      ~params:(Params.make ~rtt:0.2 ~t0:2. ()) ~grid:[| 1e-4 |] ()
  in
  match rows with
  | [ e ] ->
      close ~rel:0.1 "sqrt-law elasticity" (-0.5)
        e.Pftk_experiments.Sensitivity.wrt_p
  | _ -> Alcotest.fail "one row expected"

(* --- Analyzer/simulator cross-validation fuzz -------------------------------------------
   For any configuration, the ground-truth analyzer run over a recorded
   trace must reproduce the simulator's own counters exactly. *)

let test_analyzer_matches_round_sim_counters () =
  List.iter
    (fun (seed, p, wm, threshold) ->
      let rng = Pftk_stats.Rng.create ~seed () in
      let loss = Loss.episodic rng ~p ~burst_prob:0.4 ~mean_burst_rounds:2. in
      let recorder = Recorder.create () in
      let config =
        {
          Round_sim.default_config with
          Round_sim.wm;
          dup_ack_threshold = threshold;
        }
      in
      let result = Round_sim.run ~seed ~recorder ~duration:1500. ~loss config in
      let summary = Pftk_trace.Analyzer.summarize recorder in
      let label fmt = Printf.sprintf fmt (Int64.to_int seed) in
      Alcotest.(check int) (label "seed %d: packets") result.Round_sim.packets_sent
        summary.Pftk_trace.Analyzer.packets_sent;
      Alcotest.(check int) (label "seed %d: TD events") result.Round_sim.td_events
        summary.Pftk_trace.Analyzer.td_count;
      Alcotest.(check int)
        (label "seed %d: TO sequences")
        result.Round_sim.to_sequences
        (Array.fold_left ( + ) 0 summary.Pftk_trace.Analyzer.to_by_backoff);
      Alcotest.(check (array int))
        (label "seed %d: backoff buckets")
        result.Round_sim.to_by_backoff
        summary.Pftk_trace.Analyzer.to_by_backoff)
    [
      (1L, 0.01, 32, 3);
      (2L, 0.05, 8, 3);
      (3L, 0.12, 64, 2);
      (4L, 0.03, 4, 3);
      (5L, 0.08, 16, 1);
    ]

let test_analyzer_matches_reno_counters () =
  (* Packet-level: the trace's ground-truth TO firings must equal the
     sender's timeout counter, and TDs its fast-retransmit counter. *)
  List.iter
    (fun (seed, p) ->
      let rng = Pftk_stats.Rng.create ~seed () in
      let scenario =
        {
          Pftk_tcp.Connection.default_scenario with
          Pftk_tcp.Connection.data_loss = Some (Loss.bernoulli rng ~p);
        }
      in
      let result = Pftk_tcp.Connection.run ~seed ~duration:300. scenario in
      let summary =
        Pftk_trace.Analyzer.summarize result.Pftk_tcp.Connection.recorder
      in
      let firings =
        (* Total timer firings = sum over sequences of their length. *)
        Array.to_list (Pftk_trace.Recorder.events result.Pftk_tcp.Connection.recorder)
        |> List.filter (fun e ->
               match e.Event.kind with Event.Timer_fired _ -> true | _ -> false)
        |> List.length
      in
      Alcotest.(check int) "timer firings" result.Pftk_tcp.Connection.timeouts firings;
      Alcotest.(check int) "fast retransmits"
        result.Pftk_tcp.Connection.fast_retransmits
        summary.Pftk_trace.Analyzer.td_count;
      Alcotest.(check int) "packets"
        result.Pftk_tcp.Connection.packets_sent
        summary.Pftk_trace.Analyzer.packets_sent)
    [ (11L, 0.01); (12L, 0.05); (13L, 0.12) ]

(* --- Property tests ------------------------------------------------------------------ *)

let prop_latency_positive =
  QCheck.Test.make ~name:"short-flow latency positive and finite" ~count:200
    QCheck.(pair (float_range 1e-4 0.5) (int_range 1 5000))
    (fun (p, packets) ->
      let t = (Short_flow.expected_latency params ~p ~packets).Short_flow.total in
      Float.is_finite t && t > 0.)

let prop_serialize_roundtrip =
  let gen_event =
    QCheck.Gen.(
      map2
        (fun time pick -> { Event.time; kind = pick })
        (map Float.abs (float_bound_inclusive 1e6))
        (oneof
           [
             map2
               (fun seq flight ->
                 Event.Segment_sent
                   {
                     seq;
                     retransmission = seq mod 2 = 0;
                     cwnd = float_of_int flight +. 0.5;
                     flight;
                   })
               (int_bound 100000) (int_bound 100);
             map (fun ack -> Event.Ack_received { ack }) (int_bound 100000);
             map2
               (fun backoff rto ->
                 Event.Timer_fired { backoff = 1 + backoff; rto = Float.abs rto +. 0.001 })
               (int_bound 10)
               (float_bound_inclusive 100.);
             return Event.Connection_closed;
           ])
    )
  in
  QCheck.Test.make ~name:"serialize line roundtrip" ~count:300
    (QCheck.make gen_event) (fun e ->
      Serialize.event_of_line (Serialize.line_of_event e) = Some e)

let prop_timeline_goodput_conserves =
  (* The goodput bins integrate back to the number of sends inside them. *)
  QCheck.Test.make ~name:"timeline goodput conserves packets" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (QCheck.float_bound_inclusive 100.))
    (fun times ->
      let sorted = List.sort Float.compare (List.map Float.abs times) in
      let r = Recorder.create () in
      List.iter
        (fun time ->
          Recorder.record r ~time
            (Event.Segment_sent
               { seq = 0; retransmission = false; cwnd = 1.; flight = 0 }))
        sorted;
      let window = 10. in
      let bins = Pftk_trace.Timeline.goodput ~window r in
      let binned =
        List.fold_left
          (fun acc pt -> acc +. (pt.Pftk_trace.Timeline.value *. window))
          0. bins
      in
      let duration = Pftk_trace.Recorder.duration r in
      let covered =
        List.filter (fun t -> t < float_of_int (int_of_float (duration /. window)) *. window) sorted
      in
      Float.abs (binned -. float_of_int (List.length covered)) < 1e-6)

let props =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_latency_positive; prop_serialize_roundtrip; prop_timeline_goodput_conserves ]

let () =
  Alcotest.run "pftk_extensions"
    [
      ( "short-flow",
        [
          case "slow-start data bounds" test_ss_data_bounds;
          case "tiny p sends everything" test_ss_data_tiny_p_sends_everything;
          case "window growth" test_ss_window_growth;
          case "window cap" test_ss_window_capped;
          case "rounds uncapped" test_ss_rounds_uncapped;
          case "rounds capped tail" test_ss_rounds_capped_linear_tail;
          case "monotone in size" test_latency_monotone_in_size;
          case "monotone in p" test_latency_monotone_in_p;
          slow_case "converges to bulk" test_latency_converges_to_bulk;
          case "handshake toggle" test_latency_handshake_toggle;
          case "phases sum" test_latency_phases_sum;
          case "validation" test_latency_validation;
        ] );
      ( "tfrc",
        [
          case "no event, no rate" test_loss_history_no_event;
          case "periodic losses" test_loss_history_periodic;
          case "event grouping" test_loss_history_event_grouping;
          case "separate events" test_loss_history_separate_events;
          case "history discounting" test_loss_history_discounting;
          case "slow-start doubling" test_controller_slow_start;
          slow_case "tracks the equation" test_controller_tracks_equation;
          case "min-rate floor" test_controller_min_rate_floor;
          case "validation" test_controller_validation;
        ] );
      ( "serialize",
        [
          case "line roundtrip" test_serialize_roundtrip_lines;
          case "comments skipped" test_serialize_comments_skipped;
          case "malformed rejected" test_serialize_malformed;
          case "file roundtrip" test_serialize_file_roundtrip;
          slow_case "re-analysis identical" test_serialize_real_trace_reanalysis;
        ] );
      ( "bottleneck",
        [
          slow_case "reno flows share fairly" test_bottleneck_reno_share_fairly;
          slow_case "tfrc is friendly" test_bottleneck_tfrc_friendly;
          slow_case "late start" test_bottleneck_late_start;
          case "validation" test_bottleneck_validation;
          slow_case "conservation" test_bottleneck_conservation;
        ] );
      ( "validation-experiment",
        [ slow_case "report shape" test_validation_report ] );
      ( "cross-validation",
        [
          slow_case "analyzer = round_sim counters" test_analyzer_matches_round_sim_counters;
          slow_case "analyzer = reno counters" test_analyzer_matches_reno_counters;
        ] );
      ( "aimd",
        [
          case "reduces to TCP" test_aimd_reduces_to_tcp;
          case "friendly line" test_aimd_friendly_line;
          case "monotone in alpha" test_aimd_monotone_in_alpha;
          case "gentle decrease faster" test_aimd_gentle_decrease_is_faster;
          slow_case "matches simulation" test_aimd_matches_simulation;
          case "validation" test_aimd_validation;
        ] );
      ( "window-dist",
        [
          slow_case "markov matches monte-carlo" test_window_dist_agreement;
          case "normalized" test_window_dist_normalized;
        ] );
      ( "ascii-plot",
        [
          case "renders" test_ascii_plot_renders;
          case "empty" test_ascii_plot_empty;
          case "nonpositive skipped" test_ascii_plot_skips_nonpositive;
        ] );
      ( "cross-traffic-loss",
        [ slow_case "reno vs bursty background" test_model_under_cross_traffic ] );
      ( "sensitivity",
        [
          case "signs" test_elasticities_signs;
          case "time scaling sums to -1" test_elasticities_time_scaling;
          case "sqrt regime" test_elasticity_sqrt_regime;
        ] );
      ( "flavors",
        [
          case "default is the model" test_model_reno_default;
          slow_case "tahoe slower at low p" test_tahoe_slower_at_low_p;
          slow_case "flavors converge at high p" test_flavors_converge_at_high_p;
          case "slow start reopens faster" test_slow_start_recovers_faster_than_linear;
        ] );
      ("properties", props);
    ]
