(* Tests for pftk_online: the streaming estimators (EWMA, sliding window,
   decaying counters), the single-pass detector/Karn ports, the recorder
   subscriber API, sink combinators, the live predictor, and — the anchor —
   the streaming/post-hoc equivalence suite over the Table II path
   catalog. *)

module Event = Pftk_trace.Event
module Recorder = Pftk_trace.Recorder
module Analyzer = Pftk_trace.Analyzer
module Serialize = Pftk_trace.Serialize
module Path_profile = Pftk_dataset.Path_profile
module Workload = Pftk_dataset.Workload
module Ewma = Pftk_online.Ewma
module Window = Pftk_online.Window
module Decay = Pftk_online.Decay
module Detector = Pftk_online.Detector
module Karn = Pftk_online.Karn
module Summary = Pftk_online.Summary
module Sink = Pftk_online.Sink
module Predictor = Pftk_online.Predictor

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let send ?(rexmit = false) seq =
  Event.Segment_sent { seq; retransmission = rexmit; cwnd = 10.; flight = 5 }

let ack n = Event.Ack_received { ack = n }
let at time kind = { Event.time; kind }

let recorder_of events =
  let r = Recorder.create () in
  List.iter (fun (time, kind) -> Recorder.record r ~time kind) events;
  r

(* --- Ewma ------------------------------------------------------------------ *)

let test_ewma_seeds_and_smooths () =
  let e = Ewma.create ~gain:0.25 () in
  Alcotest.(check (option (float 0.))) "empty" None (Ewma.value e);
  Ewma.update e 1.0;
  Alcotest.(check (option (float 0.))) "first sample exact" (Some 1.0)
    (Ewma.value e);
  Ewma.update e 2.0;
  (* 0.75 * 1 + 0.25 * 2 *)
  check_float "smoothed" 1.25 (Ewma.value_or e ~default:0.);
  Ewma.reset e;
  Alcotest.(check (option (float 0.))) "reset" None (Ewma.value e)

let test_ewma_validation () =
  Alcotest.check_raises "zero gain"
    (Invalid_argument "Ewma.create: gain outside (0, 1]") (fun () ->
      ignore (Ewma.create ~gain:0. ()))

(* --- Window ---------------------------------------------------------------- *)

let test_window_span_eviction () =
  let w = Window.create ~span:10. () in
  Window.add w ~time:0. 1.;
  Window.add w ~time:5. 3.;
  Window.add w ~time:12. 5.;
  (* t=0 sample is now outside [2, 12]. *)
  Alcotest.(check int) "two in span" 2 (Window.count w ~now:12.);
  Alcotest.(check (option (float 1e-9))) "mean of last two" (Some 4.)
    (Window.mean w ~now:12.);
  Alcotest.(check (option (float 1e-9))) "all evicted" None
    (Window.mean w ~now:100.)

let test_window_capacity_bound () =
  let w = Window.create ~capacity:4 ~span:1000. () in
  for i = 1 to 10 do
    Window.add w ~time:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check int) "ring holds capacity" 4 (Window.count w ~now:10.);
  Alcotest.(check int) "dropped the rest" 6 (Window.dropped w);
  (* Last four samples: 7+8+9+10. *)
  check_float "sum of survivors" 34. (Window.sum w ~now:10.)

let test_window_validation () =
  Alcotest.check_raises "bad span"
    (Invalid_argument "Window.create: span must be positive") (fun () ->
      ignore (Window.create ~span:0. ()))

(* --- Decay ----------------------------------------------------------------- *)

let test_decay_halflife () =
  let d = Decay.create ~tau:10. () in
  Decay.bump d ~time:0.;
  check_float "fresh" 1. (Decay.value d ~time:0.);
  check_float ~eps:1e-12 "aged one tau" (exp (-1.)) (Decay.value d ~time:10.);
  Decay.bump d ~time:10.;
  check_float ~eps:1e-12 "aged plus fresh" (exp (-1.) +. 1.)
    (Decay.value d ~time:10.)

let test_decay_ratio_estimates_p () =
  (* 1 indication per 50 packets at a steady cadence: the counter ratio
     sits near 0.02 regardless of tau. *)
  let packets = Decay.create ~tau:30. () in
  let losses = Decay.create ~tau:30. () in
  for i = 1 to 2000 do
    let time = float_of_int i *. 0.1 in
    Decay.bump packets ~time;
    if i mod 50 = 0 then Decay.bump losses ~time
  done;
  let p = Decay.value losses ~time:200. /. Decay.value packets ~time:200. in
  Alcotest.(check bool) "ratio near 1/50" true (Float.abs (p -. 0.02) < 0.005)

let test_decay_hist () =
  let h = Decay.create_hist ~tau:10. ~buckets:6 in
  Decay.observe h ~time:0. 0;
  Decay.observe h ~time:0. 5;
  check_float "total" 2. (Decay.total h ~time:0.);
  Alcotest.(check int) "buckets" 6 (Decay.buckets h);
  Alcotest.check_raises "range"
    (Invalid_argument "Decay.observe: bucket out of range") (fun () ->
      Decay.observe h ~time:0. 6)

(* --- Detector: streaming = post-hoc on crafted scenarios ------------------- *)

let drain_detector mode events =
  let emitted = ref [] in
  let d = Detector.create ~on_indication:(fun i -> emitted := i :: !emitted) mode in
  List.iter (fun (time, kind) -> Detector.push d (at time kind)) events;
  let pending = match Detector.pending d with Some i -> [ i ] | None -> [] in
  List.rev !emitted @ pending

let indication = Alcotest.testable (fun ppf i ->
    match i with
    | Analyzer.Td { at } -> Format.fprintf ppf "Td@@%g" at
    | Analyzer.To { at; timeouts; first_timer } ->
        Format.fprintf ppf "To@@%g(n=%d,t=%g)" at timeouts first_timer)
    (fun a b ->
      match (a, b) with
      | Analyzer.Td { at = a }, Analyzer.Td { at = b } -> Float.equal a b
      | ( Analyzer.To { at = a; timeouts = na; first_timer = fa },
          Analyzer.To { at = b; timeouts = nb; first_timer = fb } ) ->
          Float.equal a b && na = nb && Float.equal fa fb
      | _ -> false)

let detector_scenarios =
  [
    ( "td then timeout chain",
      [
        (0.0, send 3);
        (0.1, ack 3);
        (0.2, ack 3);
        (0.3, ack 3);
        (0.35, ack 3);
        (0.4, send ~rexmit:true 3);
        (2.5, send ~rexmit:true 3);
        (6.5, send ~rexmit:true 3);
        (6.7, ack 9);
      ] );
    ( "recovery burst",
      [
        (0.0, send 3);
        (0.1, ack 3);
        (2.0, send ~rexmit:true 3);
        (2.01, send ~rexmit:true 4);
        (2.02, send ~rexmit:true 5);
      ] );
    ( "activity resets gap",
      [ (0.0, send 3); (1.9, send 4); (2.0, send ~rexmit:true 3) ] );
    ( "open sequence at end",
      [ (0.0, send 3); (0.1, ack 3); (2.0, send ~rexmit:true 3);
        (6.0, send ~rexmit:true 3) ] );
  ]

let test_detector_infer_matches_post_hoc () =
  List.iter
    (fun (name, events) ->
      let expected =
        Analyzer.infer_indications (recorder_of events)
      in
      Alcotest.(check (list indication)) name expected
        (drain_detector (Detector.infer ()) events))
    detector_scenarios

let test_detector_ground_truth_matches_post_hoc () =
  let scenarios =
    [
      ( "sequence then td",
        [
          (1., Event.Timer_fired { backoff = 1; rto = 2. });
          (3., Event.Timer_fired { backoff = 2; rto = 4. });
          (5., Event.Fast_retransmit_triggered { seq = 3 });
        ] );
      ( "backoff reset splits",
        [
          (1., Event.Timer_fired { backoff = 1; rto = 2. });
          (3., Event.Timer_fired { backoff = 2; rto = 4. });
          (10., Event.Timer_fired { backoff = 1; rto = 2. });
        ] );
    ]
  in
  List.iter
    (fun (name, events) ->
      let expected =
        Analyzer.ground_truth_indications (recorder_of events)
      in
      Alcotest.(check (list indication)) name expected
        (drain_detector Detector.Ground_truth events))
    scenarios

let test_detector_prefix_invariant () =
  (* On every prefix of a mixed scenario, emitted @ pending must equal the
     post-hoc pass over that prefix. *)
  let _, events = List.hd detector_scenarios in
  let n = List.length events in
  for len = 0 to n do
    let prefix = List.filteri (fun i _ -> i < len) events in
    let expected =
      Analyzer.infer_indications (recorder_of prefix)
    in
    Alcotest.(check (list indication))
      (Printf.sprintf "prefix %d" len)
      expected
      (drain_detector (Detector.infer ()) prefix)
  done

(* --- Karn: streaming = post-hoc -------------------------------------------- *)

let packet_trace ?(duration = 300.) ?(p = 0.02) seed =
  let rng = Pftk_stats.Rng.create ~seed () in
  let scenario =
    {
      Pftk_tcp.Connection.default_scenario with
      Pftk_tcp.Connection.data_loss =
        Some (Pftk_loss.Loss_process.bernoulli rng ~p);
    }
  in
  (Pftk_tcp.Connection.run ~seed ~duration scenario).Pftk_tcp.Connection.recorder

let test_karn_streaming_matches_post_hoc () =
  let recorder = packet_trace 31L in
  let expected = Analyzer.karn_rtt_samples recorder in
  let got = ref [] in
  let k = Karn.create ~on_sample:(fun s -> got := s :: !got) () in
  Recorder.iter (Karn.push k) recorder;
  Alcotest.(check bool) "has samples" true (Array.length expected > 0);
  Alcotest.(check (array (float 0.))) "same samples, same order" expected
    (Array.of_list (List.rev !got));
  Alcotest.(check int) "count" (Array.length expected) (Karn.samples k);
  (* Bounded state: matched segments are dropped as the ACK advances. *)
  Alcotest.(check bool) "outstanding bounded" true
    (Karn.outstanding k < Recorder.length recorder / 10)

(* --- Recorder subscriber API ------------------------------------------------ *)

let test_recorder_subscribers_in_order () =
  let r = Recorder.create () in
  let log = ref [] in
  Recorder.subscribe r (fun e -> log := ("a", e.Event.time) :: !log);
  Recorder.subscribe r (fun e -> log := ("b", e.Event.time) :: !log);
  Recorder.record r ~time:1. (send 0);
  Alcotest.(check (list (pair string (float 0.))))
    "subscription order" [ ("a", 1.); ("b", 1.) ] (List.rev !log);
  Alcotest.(check int) "still buffered" 1 (Recorder.length r)

let test_recorder_unbuffered () =
  let r = Recorder.create ~buffered:false () in
  let seen = ref 0 in
  Recorder.subscribe r (fun _ -> incr seen);
  for i = 0 to 99 do
    Recorder.record r ~time:(float_of_int i) (send i)
  done;
  Alcotest.(check bool) "reports unbuffered" false (Recorder.is_buffered r);
  Alcotest.(check int) "subscribers fed" 100 !seen;
  Alcotest.(check int) "events seen" 100 (Recorder.events_seen r);
  Alcotest.(check int) "packets counted" 100 (Recorder.packets_sent r);
  check_float "duration tracked" 99. (Recorder.duration r);
  Alcotest.check_raises "events raises"
    (Invalid_argument "Recorder.events: recorder is unbuffered") (fun () ->
      ignore (Recorder.events r))

let test_recorder_unbuffered_monotonic () =
  let r = Recorder.create ~buffered:false () in
  Recorder.record r ~time:1. (send 0);
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Recorder.record: time went backwards") (fun () ->
      Recorder.record r ~time:0.5 (send 1))

(* --- Sink combinators ------------------------------------------------------- *)

let test_sink_tee_filter_counting () =
  let sends = ref 0 in
  let c = Sink.counter () in
  let sink =
    Sink.counting c
      (Sink.tee
         [
           Sink.filter Event.is_send (fun _ -> incr sends);
           Sink.null;
         ])
  in
  sink (at 0. (send 0));
  sink (at 1. (ack 1));
  sink (at 2. (send 1));
  Alcotest.(check int) "counter sees all" 3 (Sink.events c);
  check_float "last time" 2. (Sink.last_time c);
  Alcotest.(check int) "filter passes sends" 2 !sends

let test_sink_to_recorder_roundtrip () =
  let source = recorder_of [ (0., send 0); (0.5, ack 1); (1., send 1) ] in
  let copy = Recorder.create () in
  Recorder.iter (Sink.to_recorder copy) source;
  Alcotest.(check int) "copied" (Recorder.length source) (Recorder.length copy)

(* --- Summary: degenerate totality ------------------------------------------- *)

let finite f = Float.is_finite f

let test_summary_empty_stream () =
  List.iter
    (fun mode ->
      let s = Summary.create ~mode () in
      let c = Summary.current s in
      Alcotest.(check int) "no packets" 0 c.Analyzer.packets_sent;
      check_float "p" 0. c.Analyzer.observed_p;
      check_float "rtt" 0. c.Analyzer.avg_rtt;
      check_float "t0" 0. c.Analyzer.avg_t0;
      check_float "rate" 0. c.Analyzer.send_rate;
      Alcotest.(check bool) "all finite" true
        (finite c.Analyzer.observed_p && finite c.Analyzer.avg_rtt
        && finite c.Analyzer.avg_t0 && finite c.Analyzer.send_rate))
    [ `Ground_truth; `Infer ]

let test_summary_zero_duration () =
  (* A single event at t = 0: duration 0 must not divide. *)
  let s = Summary.create () in
  Summary.push s (at 0. (send 0));
  let c = Summary.current s in
  Alcotest.(check int) "one packet" 1 c.Analyzer.packets_sent;
  check_float "rate zero, not nan" 0. c.Analyzer.send_rate;
  Alcotest.(check bool) "finite" true (finite c.Analyzer.send_rate)

(* --- Predictor --------------------------------------------------------------- *)

let test_predictor_checkpoints () =
  let snaps = ref [] in
  let params = Pftk_core.Params.make ~rtt:0.2 ~t0:2. () in
  let pr =
    Predictor.create ~interval:10. params ~on_snapshot:(fun s ->
        snaps := s :: !snaps)
  in
  (* Sends and RTT samples at 1 Hz for 35 s, a timeout at t = 12. *)
  for i = 0 to 35 do
    let time = float_of_int i in
    Predictor.push pr (at time (send i));
    Predictor.push pr
      (at time (Event.Rtt_sample { sample = 0.2; srtt = 0.2; rto = 1. }));
    if i = 12 then
      Predictor.push pr
        (at 12.5 (Event.Timer_fired { backoff = 1; rto = 2. }));
    (* A backoff reset at t = 20 closes the first sequence, so the decayed
       estimators (which hear closed indications) see it. *)
    if i = 20 then
      Predictor.push pr
        (at 20.5 (Event.Timer_fired { backoff = 1; rto = 2. }))
  done;
  Alcotest.(check int) "three boundaries crossed" 3
    (Predictor.snapshots_emitted pr);
  let times = List.rev_map (fun s -> s.Predictor.time) !snaps in
  Alcotest.(check (list (float 0.))) "boundary times" [ 10.; 20.; 30. ] times;
  (* Before the timeout there is no loss: no prediction at t=10. *)
  (match List.rev !snaps with
  | first :: _ ->
      Alcotest.(check bool) "no prediction before loss" true
        (first.Predictor.prediction = None)
  | [] -> Alcotest.fail "no snapshots");
  let last = Predictor.snapshot pr in
  (match last.Predictor.prediction with
  | Some { Predictor.full; approx } ->
      Alcotest.(check bool) "full prediction positive" true (full > 0.);
      Alcotest.(check bool) "approx prediction positive" true (approx > 0.)
  | None -> Alcotest.fail "expected a prediction after a timeout");
  Alcotest.(check bool) "decayed histogram saw the timeout" true
    ((Predictor.decayed_backoff pr).(0) > 0.)

let test_predictor_validation () =
  let params = Pftk_core.Params.make ~rtt:0.2 ~t0:2. () in
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Predictor.create: interval must be positive") (fun () ->
      ignore (Predictor.create ~interval:0. params))

let test_predictor_recorder_free_pipeline () =
  (* A long simulated transfer with no buffering anywhere: the recorder is
     unbuffered and the predictor's state is O(1). *)
  let params = Pftk_core.Params.make ~rtt:0.2 ~t0:2. () in
  let snaps = ref 0 in
  let pr = Predictor.create ~interval:100. params ~on_snapshot:(fun _ -> incr snaps) in
  let recorder = Recorder.create ~buffered:false () in
  Recorder.subscribe recorder (Predictor.sink pr);
  let rng = Pftk_stats.Rng.create ~seed:3L () in
  let loss = Pftk_loss.Loss_process.round_correlated rng ~p:0.02 in
  let result =
    Pftk_tcp.Round_sim.run ~seed:3L ~recorder ~duration:600. ~loss
      (Pftk_tcp.Round_sim.config_of_params params)
  in
  Alcotest.(check bool) "nothing buffered" false (Recorder.is_buffered recorder);
  (* Boundaries 100..500 always fire; 600 fires too when a trailing event
     lands at or past it. *)
  Alcotest.(check bool) "five or six checkpoints" true
    (!snaps = 5 || !snaps = 6);
  let summary = Predictor.summary pr in
  Alcotest.(check int) "summary agrees with simulator"
    result.Pftk_tcp.Round_sim.packets_sent summary.Analyzer.packets_sent

(* --- Equivalence suite: streaming = post-hoc on the Table II catalog -------- *)

let check_summaries ~msg (expected : Analyzer.summary) (actual : Analyzer.summary) =
  let lbl field = Printf.sprintf "%s: %s" msg field in
  check_float ~eps:0. (lbl "duration") expected.Analyzer.duration
    actual.Analyzer.duration;
  Alcotest.(check int) (lbl "packets") expected.Analyzer.packets_sent
    actual.Analyzer.packets_sent;
  Alcotest.(check int) (lbl "indications") expected.Analyzer.loss_indications
    actual.Analyzer.loss_indications;
  Alcotest.(check int) (lbl "td") expected.Analyzer.td_count
    actual.Analyzer.td_count;
  Alcotest.(check (array int)) (lbl "backoff histogram")
    expected.Analyzer.to_by_backoff actual.Analyzer.to_by_backoff;
  check_float ~eps:0. (lbl "observed p") expected.Analyzer.observed_p
    actual.Analyzer.observed_p;
  check_float ~eps:0. (lbl "send rate") expected.Analyzer.send_rate
    actual.Analyzer.send_rate;
  check_float ~eps:0. (lbl "avg rtt") expected.Analyzer.avg_rtt
    actual.Analyzer.avg_rtt;
  (* The post-hoc pass happens to sum first-timer durations in reverse
     order; same multiset, so only the last bits may differ. *)
  let rel =
    if expected.Analyzer.avg_t0 = 0. then Float.abs actual.Analyzer.avg_t0
    else
      Float.abs (actual.Analyzer.avg_t0 -. expected.Analyzer.avg_t0)
      /. expected.Analyzer.avg_t0
  in
  Alcotest.(check bool) (lbl "avg t0 within 1e-9 relative") true (rel <= 1e-9)

let stream_summary mode recorder =
  let s = Summary.create ~mode () in
  Recorder.iter (Summary.push s) recorder;
  Summary.current s

let table2_seed_trace i profile =
  let seed = Int64.of_int (4000 + i) in
  let rng = Pftk_stats.Rng.create ~seed () in
  let p = Float.max 2e-3 (Float.min 0.3 profile.Path_profile.loss_rate) in
  let loss = Pftk_loss.Loss_process.round_correlated rng ~p in
  let recorder = Recorder.create () in
  let (_ : Pftk_tcp.Round_sim.result) =
    Pftk_tcp.Round_sim.run ~seed ~recorder ~duration:300. ~loss
      (Workload.sim_config profile)
  in
  recorder

let test_equivalence_table2_catalog () =
  List.iteri
    (fun i profile ->
      let recorder = table2_seed_trace i profile in
      List.iter
        (fun (mode, tag) ->
          let expected = Analyzer.summarize ~mode recorder in
          let actual = stream_summary mode recorder in
          check_summaries
            ~msg:(Printf.sprintf "%s [%s]" (Path_profile.label profile) tag)
            expected actual)
        [ (`Ground_truth, "ground-truth"); (`Infer, "infer") ])
    Path_profile.all

let test_equivalence_packet_level () =
  (* Packet-level traces exercise the inference machinery (dup-ACK runs,
     idle gaps, Karn matching) that round-based traces cannot. *)
  List.iter
    (fun seed ->
      let recorder = packet_trace seed in
      List.iter
        (fun (mode, tag) ->
          let expected = Analyzer.summarize ~mode recorder in
          let actual = stream_summary mode recorder in
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld has indications" seed)
            true
            (expected.Analyzer.loss_indications > 0);
          check_summaries
            ~msg:(Printf.sprintf "packet seed %Ld [%s]" seed tag)
            expected actual)
        [ (`Ground_truth, "ground-truth"); (`Infer, "infer") ])
    [ 31L; 57L ]

let test_equivalence_every_prefix () =
  (* The streaming summary must match the post-hoc analyzer not just at
     stream end but at every moment: check a packet-level trace every 2000
     events, in both modes. *)
  let recorder = packet_trace ~duration:120. 77L in
  List.iter
    (fun (mode, tag) ->
      let s = Summary.create ~mode () in
      let prefix = Recorder.create () in
      let i = ref 0 in
      Recorder.iter
        (fun ({ Event.time; kind } as event) ->
          Summary.push s event;
          Recorder.record prefix ~time kind;
          incr i;
          if !i mod 2000 = 0 then
            check_summaries
              ~msg:(Printf.sprintf "prefix %d [%s]" !i tag)
              (Analyzer.summarize ~mode prefix)
              (Summary.current s))
        recorder;
      check_summaries
        ~msg:(Printf.sprintf "final [%s]" tag)
        (Analyzer.summarize ~mode prefix)
        (Summary.current s))
    [ (`Ground_truth, "ground-truth"); (`Infer, "infer") ]

let test_equivalence_streamed_from_disk () =
  (* Save, then replay through Serialize.iter_file without loading: the
     streamed summary equals the in-memory post-hoc one. *)
  let recorder = packet_trace ~duration:60. 91L in
  let path = Filename.temp_file "pftk_online" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save path recorder;
      let s = Summary.create ~mode:`Infer () in
      Serialize.iter_file path (Summary.push s);
      check_summaries ~msg:"disk replay [infer]"
        (Analyzer.summarize ~mode:`Infer recorder)
        (Summary.current s))

(* --- Convergence experiment -------------------------------------------------- *)

let test_convergence_experiment_shape () =
  (* One short run over the first profile only (generate over the full
     catalog runs in `pftk all`, whose output check.sh pins): the
     checkpoints are complete and the final summary is self-consistent. *)
  let profile = List.hd Path_profile.all in
  let snaps = ref [] in
  let pr =
    Predictor.create ~interval:50.
      (Path_profile.params profile)
      ~on_snapshot:(fun s -> snaps := s :: !snaps)
  in
  let trace =
    Workload.run_observed ~seed:5L ~duration:400. ~sink:(Predictor.sink pr)
      profile
  in
  Alcotest.(check bool) "checkpoints emitted" true (List.length !snaps >= 7);
  Alcotest.(check int) "packets agree with simulator"
    trace.Workload.result.Pftk_tcp.Round_sim.packets_sent
    (Predictor.summary pr).Analyzer.packets_sent

let () =
  Alcotest.run "pftk_online"
    [
      ( "ewma",
        [
          case "seeds and smooths" test_ewma_seeds_and_smooths;
          case "validation" test_ewma_validation;
        ] );
      ( "window",
        [
          case "span eviction" test_window_span_eviction;
          case "capacity bound" test_window_capacity_bound;
          case "validation" test_window_validation;
        ] );
      ( "decay",
        [
          case "half-life" test_decay_halflife;
          case "ratio estimates p" test_decay_ratio_estimates_p;
          case "histogram" test_decay_hist;
        ] );
      ( "detector",
        [
          case "infer matches post-hoc" test_detector_infer_matches_post_hoc;
          case "ground truth matches post-hoc"
            test_detector_ground_truth_matches_post_hoc;
          case "prefix invariant" test_detector_prefix_invariant;
        ] );
      ( "karn",
        [ slow_case "streaming matches post-hoc" test_karn_streaming_matches_post_hoc ] );
      ( "recorder",
        [
          case "subscribers in order" test_recorder_subscribers_in_order;
          case "unbuffered" test_recorder_unbuffered;
          case "unbuffered stays monotonic" test_recorder_unbuffered_monotonic;
        ] );
      ( "sink",
        [
          case "tee/filter/counting" test_sink_tee_filter_counting;
          case "to_recorder" test_sink_to_recorder_roundtrip;
        ] );
      ( "summary",
        [
          case "empty stream" test_summary_empty_stream;
          case "zero duration" test_summary_zero_duration;
        ] );
      ( "predictor",
        [
          case "checkpoints" test_predictor_checkpoints;
          case "validation" test_predictor_validation;
          slow_case "recorder-free pipeline" test_predictor_recorder_free_pipeline;
        ] );
      ( "equivalence",
        [
          slow_case "table2 catalog, both modes" test_equivalence_table2_catalog;
          slow_case "packet-level, both modes" test_equivalence_packet_level;
          slow_case "every prefix" test_equivalence_every_prefix;
          case "streamed from disk" test_equivalence_streamed_from_disk;
        ] );
      ( "convergence",
        [ slow_case "experiment shape" test_convergence_experiment_shape ] );
    ]
