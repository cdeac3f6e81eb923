(* Tests for pftk_trace: the recorder, the ground-truth and inference
   analyzers (including cross-validation on a real packet-level trace), the
   Karn RTT matcher, and interval binning. *)

module Recorder = Pftk_trace.Recorder
module Event = Pftk_trace.Event
module Analyzer = Pftk_trace.Analyzer
module Intervals = Pftk_trace.Intervals

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.equal (String.sub s i n) sub || scan (i + 1)) in
  scan 0

let send ?(rexmit = false) seq =
  Event.Segment_sent { seq; retransmission = rexmit; cwnd = 10.; flight = 5 }

let ack n = Event.Ack_received { ack = n }

let recorder_of events =
  let r = Recorder.create () in
  List.iter (fun (time, kind) -> Recorder.record r ~time kind) events;
  r

(* --- Recorder -------------------------------------------------------------- *)

let test_recorder_basic () =
  let r = recorder_of [ (0., send 0); (0.1, ack 1); (0.2, send 1) ] in
  Alcotest.(check int) "length" 3 (Recorder.length r);
  Alcotest.(check int) "packets sent" 2 (Recorder.packets_sent r);
  check_float "duration" 0.2 (Recorder.duration r)

let test_recorder_time_monotonic () =
  let r = Recorder.create () in
  Recorder.record r ~time:1. (send 0);
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Recorder.record: time went backwards") (fun () ->
      Recorder.record r ~time:0.5 (send 1))

let test_recorder_between () =
  let r =
    recorder_of [ (0., send 0); (1., send 1); (2., send 2); (3., send 3) ]
  in
  let slice = Recorder.between r ~start:1. ~stop:3. in
  Alcotest.(check int) "half-open window" 2 (Array.length slice)

let test_recorder_growth () =
  (* Exceed the initial buffer to exercise resizing. *)
  let r = Recorder.create () in
  for i = 0 to 4999 do
    Recorder.record r ~time:(float_of_int i) (send i)
  done;
  Alcotest.(check int) "5000 events" 5000 (Recorder.length r);
  Alcotest.(check int) "all sends" 5000 (Recorder.packets_sent r)

(* The buffer holds no pointers: recording into a live recorder leaves
   nothing young for a minor collection to promote (storing each event as
   a heap value promoted ~10 words per send). *)
let test_recorder_promotes_nothing () =
  let r = Recorder.create () in
  let n = 200_000 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 0 to n - 1 do
    Recorder.record r ~time:(float_of_int i) (send i)
  done;
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  Alcotest.(check int) "all buffered" n (Recorder.length r);
  if not (promoted /. float_of_int n < 0.1) then
    Alcotest.failf "%.0f words promoted for %d sends" promoted n

let test_recorder_fold_iter () =
  let r = recorder_of [ (0., send 0); (1., ack 1) ] in
  let count = Recorder.fold (fun n _ -> n + 1) 0 r in
  Alcotest.(check int) "fold visits all" 2 count

(* Every constructor with extreme fields, over several storage blocks:
   each field must come back bit for bit, in order, through every reader.
   Times run from -0. through the smallest subnormal to infinity and a
   NaN with a payload, which the monotonicity check lets through. *)
let nan_payload = Int64.float_of_bits 0x7FF0_0000_0000_0001L
let neg_nan_payload = Int64.float_of_bits 0xFFF8_0000_DEAD_BEEFL
let subnormal = Int64.float_of_bits 1L
let extreme_ints = [| min_int; max_int; 0; -1; 1 lsl 61 |]

let extreme_floats =
  [| nan_payload; infinity; neg_infinity; -0.; subnormal; neg_nan_payload; 1.5 |]

let extreme_trace n =
  List.init n (fun i ->
      (* Event [i] is the [i / 7]-th of its kind: each field cycles through
         every extreme value as the kind recurs. *)
      let int k = extreme_ints.(((i / 7) + k) mod Array.length extreme_ints) in
      let float k = extreme_floats.(((i / 7) + k) mod Array.length extreme_floats) in
      let time =
        if i = 0 then -0.
        else if i = 1 then subnormal
        else if i = n - 2 then infinity
        else if i = n - 1 then nan_payload
        else float_of_int i
      in
      let kind =
        match i mod 7 with
        | 0 ->
            Event.Segment_sent
              {
                seq = int 0;
                retransmission = i mod 2 = 0;
                cwnd = float 0;
                flight = int 1;
              }
        | 1 -> Event.Ack_received { ack = int 0 }
        | 2 -> Event.Timer_fired { backoff = int 0; rto = float 0 }
        | 3 -> Event.Fast_retransmit_triggered { seq = int 0 }
        | 4 -> Event.Rtt_sample { sample = float 0; srtt = float 1; rto = float 2 }
        | 5 -> Event.Round_started { index = int 0; window = float 0 }
        | _ -> Event.Connection_closed
      in
      { Event.time; kind })

(* Floats as their bit patterns, so NaN payloads and -0. compare exactly. *)
let bits { Event.time; kind } =
  let f x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let fields =
    match kind with
    | Event.Segment_sent { seq; retransmission; cwnd; flight } ->
        Printf.sprintf "send %d %b %s %d" seq retransmission (f cwnd) flight
    | Event.Ack_received { ack } -> Printf.sprintf "ack %d" ack
    | Event.Timer_fired { backoff; rto } -> Printf.sprintf "timeout %d %s" backoff (f rto)
    | Event.Fast_retransmit_triggered { seq } -> Printf.sprintf "fastrexmit %d" seq
    | Event.Rtt_sample { sample; srtt; rto } ->
        Printf.sprintf "rtt %s %s %s" (f sample) (f srtt) (f rto)
    | Event.Round_started { index; window } ->
        Printf.sprintf "round %d %s" index (f window)
    | Event.Connection_closed -> "close"
  in
  f time ^ " " ^ fields

let test_recorder_roundtrip_extremes () =
  let n = 5000 in
  let trace = extreme_trace n in
  let r = Recorder.create () in
  let unbuffered = Recorder.create ~buffered:false () in
  List.iter
    (fun { Event.time; kind } ->
      Recorder.record r ~time kind;
      Recorder.record unbuffered ~time kind)
    trace;
  let expected = List.map bits trace in
  let same what events = Alcotest.(check (list string)) what expected (List.map bits events) in
  same "events" (Array.to_list (Recorder.events r));
  let iterated = ref [] in
  Recorder.iter (fun e -> iterated := e :: !iterated) r;
  same "iter" (List.rev !iterated);
  same "fold" (List.rev (Recorder.fold (fun acc e -> e :: acc) [] r));
  let time_bits time = Int64.bits_of_float time in
  Alcotest.(check (list int64)) "time in place"
    (List.map (fun e -> time_bits e.Event.time) trace)
    (List.init n (fun i -> time_bits (Recorder.time r i)));
  let start = 1000.5 and stop = 3000.5 in
  Alcotest.(check (list string)) "between"
    (List.filter_map
       (fun e -> if e.Event.time >= start && e.Event.time < stop then Some (bits e) else None)
       trace)
    (List.map bits (Array.to_list (Recorder.between r ~start ~stop)));
  let path = Filename.temp_file "pftk_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pftk_trace.Serialize.save path r;
      let written = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "Serialize.write"
        (String.concat ""
           ("# pftk trace v1\n"
           :: List.map (fun e -> Pftk_trace.Serialize.line_of_event e ^ "\n") trace))
        written;
      (* The last time is NaN, which the reader's monotonic guard lets by. *)
      Alcotest.(check int) "Serialize.load" n (Recorder.length (Pftk_trace.Serialize.load path)));
  Alcotest.(check int) "unbuffered counts" n (Recorder.events_seen unbuffered);
  Alcotest.(check int) "same sends" (Recorder.packets_sent r)
    (Recorder.packets_sent unbuffered);
  Alcotest.check_raises "unbuffered events"
    (Invalid_argument "Recorder.events: recorder is unbuffered") (fun () ->
      ignore (Recorder.events unbuffered));
  Alcotest.check_raises "unbuffered iter"
    (Invalid_argument "Recorder.iter: recorder is unbuffered") (fun () ->
      Recorder.iter ignore unbuffered)

(* --- Ground-truth analyzer ---------------------------------------------------- *)

let test_ground_truth_td () =
  let r =
    recorder_of
      [
        (0., send 0);
        (1., Event.Fast_retransmit_triggered { seq = 0 });
        (2., Event.Fast_retransmit_triggered { seq = 5 });
      ]
  in
  match Analyzer.ground_truth_indications r with
  | [ Analyzer.Td { at = 1. }; Analyzer.Td { at = 2. } ] -> ()
  | other -> Alcotest.failf "expected two TDs, got %d" (List.length other)

let test_ground_truth_to_sequence () =
  (* Three timer firings with increasing backoff = one sequence of 3. *)
  let r =
    recorder_of
      [
        (0., send 0);
        (1., Event.Timer_fired { backoff = 1; rto = 2. });
        (3., Event.Timer_fired { backoff = 2; rto = 4. });
        (7., Event.Timer_fired { backoff = 3; rto = 8. });
      ]
  in
  match Analyzer.ground_truth_indications r with
  | [ Analyzer.To { at = 1.; timeouts = 3; first_timer = 2. } ] -> ()
  | other -> Alcotest.failf "expected one sequence of 3, got %d" (List.length other)

let test_ground_truth_two_sequences () =
  (* A backoff reset (fresh backoff = 1) starts a new sequence. *)
  let r =
    recorder_of
      [
        (1., Event.Timer_fired { backoff = 1; rto = 2. });
        (3., Event.Timer_fired { backoff = 2; rto = 4. });
        (10., Event.Timer_fired { backoff = 1; rto = 2. });
      ]
  in
  match Analyzer.ground_truth_indications r with
  | [ Analyzer.To { timeouts = 2; _ }; Analyzer.To { timeouts = 1; _ } ] -> ()
  | other -> Alcotest.failf "expected [2;1], got %d items" (List.length other)

let test_ground_truth_td_closes_sequence () =
  let r =
    recorder_of
      [
        (1., Event.Timer_fired { backoff = 1; rto = 2. });
        (5., Event.Fast_retransmit_triggered { seq = 3 });
      ]
  in
  match Analyzer.ground_truth_indications r with
  | [ Analyzer.To { timeouts = 1; _ }; Analyzer.Td _ ] -> ()
  | other -> Alcotest.failf "expected TO then TD, got %d items" (List.length other)

(* --- Inference analyzer --------------------------------------------------------- *)

let test_infer_td () =
  (* Three duplicate ACKs for 5, then a retransmission of 5: a TD. *)
  let events =
    [
      (0.0, send 5);
      (0.1, ack 5);
      (0.2, ack 5);
      (0.3, ack 5);
      (0.35, ack 5);
      (0.4, send ~rexmit:true 5);
    ]
  in
  (* First ack sets the baseline; three more make three duplicates. *)
  match Analyzer.infer_indications (recorder_of events) with
  | [ Analyzer.Td { at = 0.4 } ] -> ()
  | other -> Alcotest.failf "expected one TD, got %d items" (List.length other)

let test_infer_timeout () =
  (* A retransmission after a long idle gap is a timeout. *)
  let events = [ (0.0, send 7); (0.1, ack 7); (2.0, send ~rexmit:true 7) ] in
  match Analyzer.infer_indications (recorder_of events) with
  | [ Analyzer.To { timeouts = 1; first_timer; _ } ] ->
      check_float "gap measured" 1.9 first_timer
  | other -> Alcotest.failf "expected one TO, got %d items" (List.length other)

let test_infer_backoff_chain () =
  (* Repeated gap-separated retransmissions without progress chain into one
     sequence; an advancing ACK closes it. *)
  let events =
    [
      (0.0, send 3);
      (0.1, ack 3);
      (2.0, send ~rexmit:true 3);
      (6.0, send ~rexmit:true 3);
      (14.0, send ~rexmit:true 3);
      (14.2, ack 9);
    ]
  in
  match Analyzer.infer_indications (recorder_of events) with
  | [ Analyzer.To { timeouts = 3; _ } ] -> ()
  | other -> Alcotest.failf "expected a 3-timeout sequence, got %d items"
      (List.length other)

let test_infer_recovery_burst_not_counted () =
  (* Back-to-back retransmissions right after a timeout (go-back-N burst)
     are not extra timeouts. *)
  let events =
    [
      (0.0, send 3);
      (0.1, ack 3);
      (2.0, send ~rexmit:true 3);
      (2.01, send ~rexmit:true 4);
      (2.02, send ~rexmit:true 5);
    ]
  in
  match Analyzer.infer_indications (recorder_of events) with
  | [ Analyzer.To { timeouts = 1; _ } ] -> ()
  | other -> Alcotest.failf "expected a single TO, got %d items" (List.length other)

let test_infer_new_data_resets_gap () =
  (* Ordinary transmissions refresh the activity clock, so a retransmission
     shortly after them is not mistaken for a timeout. *)
  let events =
    [
      (0.0, send 3);
      (1.9, send 4);
      (2.0, send ~rexmit:true 3);
    ]
  in
  Alcotest.(check int) "no indications" 0
    (List.length
       (Analyzer.infer_indications (recorder_of events)))

(* --- Karn RTT matching ------------------------------------------------------------ *)

let test_karn_basic () =
  let events = [ (0.0, send 0); (0.3, ack 1) ] in
  Alcotest.(check (array (float 1e-9))) "one sample" [| 0.3 |]
    (Analyzer.karn_rtt_samples (recorder_of events))

let test_karn_skips_retransmitted () =
  let events =
    [
      (0.0, send 0);
      (1.0, send ~rexmit:true 0);
      (1.3, ack 1);
      (1.4, send 1);
      (1.7, ack 2);
    ]
  in
  (* Segment 0 was retransmitted: no sample.  Segment 1 is clean: 0.3 s. *)
  Alcotest.(check (array (float 1e-9))) "karn's rule" [| 0.3 |]
    (Analyzer.karn_rtt_samples (recorder_of events))

let test_karn_cumulative_ack_covers_many () =
  let events =
    [ (0.0, send 0); (0.05, send 1); (0.1, send 2); (0.4, ack 3) ] in
  (* All three clean segments are sampled from the single cumulative ACK. *)
  Alcotest.(check int) "three samples" 3
    (Array.length (Analyzer.karn_rtt_samples (recorder_of events)))

(* --- Summaries --------------------------------------------------------------------- *)

let test_summarize_ground_truth () =
  let r =
    recorder_of
      [
        (0., send 0);
        (0.1, send 1);
        (0.2, Event.Rtt_sample { sample = 0.2; srtt = 0.2; rto = 1. });
        (1., Event.Timer_fired { backoff = 1; rto = 2. });
        (3., Event.Timer_fired { backoff = 2; rto = 4. });
        (10., Event.Fast_retransmit_triggered { seq = 1 });
        (10.5, send 2);
      ]
  in
  let s = Analyzer.summarize r in
  Alcotest.(check int) "packets" 3 s.Analyzer.packets_sent;
  Alcotest.(check int) "indications" 2 s.Analyzer.loss_indications;
  Alcotest.(check int) "one td" 1 s.Analyzer.td_count;
  Alcotest.(check (array int)) "one double timeout" [| 0; 1; 0; 0; 0; 0 |]
    s.Analyzer.to_by_backoff;
  check_float "avg rtt from samples" 0.2 s.Analyzer.avg_rtt;
  check_float "avg t0 from first timers" 2. s.Analyzer.avg_t0;
  check_float ~eps:1e-6 "observed p" (2. /. 3.) s.Analyzer.observed_p

let test_summarize_empty () =
  let s = Analyzer.summarize (Recorder.create ()) in
  Alcotest.(check int) "no packets" 0 s.Analyzer.packets_sent;
  check_float "p zero" 0. s.Analyzer.observed_p

let test_inference_matches_ground_truth_on_real_trace () =
  (* Cross-validate the two analyzers on a packet-level Reno trace, the way
     the paper validated its programs against tcptrace/ns. *)
  let rng = Pftk_stats.Rng.create ~seed:21L () in
  let scenario =
    {
      Pftk_tcp.Connection.default_scenario with
      Pftk_tcp.Connection.data_loss =
        Some (Pftk_loss.Loss_process.bernoulli rng ~p:0.02);
    }
  in
  let result = Pftk_tcp.Connection.run ~seed:21L ~duration:600. scenario in
  let truth = Analyzer.summarize ~mode:`Ground_truth result.Pftk_tcp.Connection.recorder in
  let inferred = Analyzer.summarize ~mode:`Infer result.Pftk_tcp.Connection.recorder in
  let rel a b = Float.abs (a -. b) /. Float.max 1. b in
  Alcotest.(check bool) "indication count within 25%" true
    (rel
       (float_of_int inferred.Analyzer.loss_indications)
       (float_of_int truth.Analyzer.loss_indications)
    < 0.25);
  Alcotest.(check bool) "td count within 25%" true
    (rel (float_of_int inferred.Analyzer.td_count)
       (float_of_int truth.Analyzer.td_count)
    < 0.25);
  Alcotest.(check bool) "rtt within 30%" true
    (Float.abs (inferred.Analyzer.avg_rtt -. truth.Analyzer.avg_rtt)
     /. truth.Analyzer.avg_rtt
    < 0.3)

(* --- Intervals ----------------------------------------------------------------------- *)

let test_intervals_binning () =
  let r =
    recorder_of
      [
        (10., send 0);
        (20., send 1);
        (110., send 2);
        (150., Event.Timer_fired { backoff = 1; rto = 2. });
        (210., send 3);
        (250., Event.Fast_retransmit_triggered { seq = 3 });
        (305., send 4);
      ]
  in
  let bins = Intervals.split ~width:100. r in
  Alcotest.(check int) "three full bins" 3 (List.length bins);
  let b0 = List.nth bins 0 and b1 = List.nth bins 1 and b2 = List.nth bins 2 in
  Alcotest.(check int) "bin0 packets" 2 b0.Intervals.packets_sent;
  Alcotest.(check bool) "bin0 quiet" true (b0.Intervals.classification = Intervals.Quiet);
  Alcotest.(check int) "bin1 indications" 1 b1.Intervals.loss_indications;
  Alcotest.(check bool) "bin1 is T0" true (b1.Intervals.classification = Intervals.T0);
  Alcotest.(check bool) "bin2 is TD" true
    (b2.Intervals.classification = Intervals.Td_only);
  check_float "bin1 observed p" 1. b1.Intervals.observed_p

let test_intervals_classification_ladder () =
  let mk backoffs =
    let time = ref 0. in
    let events =
      List.concat_map
        (fun depth ->
          List.init depth (fun i ->
              time := !time +. 1.;
              (!time, Event.Timer_fired { backoff = i + 1; rto = 2. })))
        backoffs
    in
    (* A closing event past t = 100 completes the first bin. *)
    let r = recorder_of (((0.1, send 0) :: events) @ [ (100.5, send 999) ]) in
    (List.hd (Intervals.split ~width:100. r)).Intervals.classification
  in
  Alcotest.(check bool) "single timeout -> T0" true (mk [ 1 ] = Intervals.T0);
  Alcotest.(check bool) "double timeout -> T1" true (mk [ 2 ] = Intervals.T1);
  Alcotest.(check bool) "triple timeout -> T2+" true (mk [ 3 ] = Intervals.T2_plus);
  Alcotest.(check bool) "deepest wins" true (mk [ 1; 3; 1 ] = Intervals.T2_plus)

(* Bin [k] is [k *. w, k *. w +. w), both rounded, so with w = 0.1 bins 5
   and 6 leave a gap at 0.6 and bins 12 and 13 overlap at 1.3.  Sends on
   every edge, a float either side, and at [duration] must land in exactly
   the bins the rule names, counted the slow way. *)
let test_intervals_bin_edges () =
  let width = 0.1 in
  let bins = 30 in
  let edges =
    List.concat
      (List.init (bins + 1) (fun k ->
           let start = float_of_int k *. width in
           [ start; start +. width ]))
  in
  let times =
    List.concat_map (fun t -> [ Float.pred t; t; Float.succ t ]) edges
    |> List.filter (fun t -> t >= 0.)
    |> List.sort Float.compare
  in
  let duration = float_of_int bins *. width in
  let times = List.filter (fun t -> t <= duration) times @ [ duration ] in
  let r = recorder_of (List.mapi (fun i t -> (t, send i)) times) in
  let in_bin k t =
    let start = float_of_int k *. width in
    t >= start && t < start +. width
  in
  let naive k = List.length (List.filter (in_bin k) times) in
  let split = Intervals.split ~width r in
  Alcotest.(check int) "bin count" (int_of_float (duration /. width)) (List.length split);
  List.iter
    (fun b ->
      Alcotest.(check int)
        (Printf.sprintf "bin %d" b.Intervals.index)
        (naive b.Intervals.index) b.Intervals.packets_sent)
    split;
  Alcotest.(check bool) "0.6 is in no bin" false (in_bin 5 0.6 || in_bin 6 0.6);
  Alcotest.(check bool) "1.3 is in two bins" true (in_bin 12 1.3 && in_bin 13 1.3)

let test_intervals_validation () =
  Alcotest.check_raises "bad width"
    (Invalid_argument "Intervals.split: width must be positive") (fun () ->
      ignore (Intervals.split ~width:0. (Recorder.create ())))

let test_classification_labels () =
  Alcotest.(check string) "TD" "TD" (Intervals.classification_label Intervals.Td_only);
  Alcotest.(check string) "T2+" "T2+" (Intervals.classification_label Intervals.T2_plus)

(* --- Timeline ------------------------------------------------------------------------ *)

module Timeline = Pftk_trace.Timeline

let test_timeline_sequence () =
  let r =
    recorder_of
      [ (0., send 0); (1., send 1); (2., send ~rexmit:true 0); (3., send 2) ]
  in
  let firsts, rexmits = Timeline.sequence_numbers r in
  Alcotest.(check int) "three first transmissions" 3 (List.length firsts);
  Alcotest.(check int) "one retransmission" 1 (List.length rexmits);
  match rexmits with
  | [ { Timeline.time; value } ] ->
      check_float "rexmit time" 2. time;
      check_float "rexmit seq" 0. value
  | _ -> Alcotest.fail "unexpected rexmit series"

let test_timeline_ack_progress () =
  let r = recorder_of [ (0., send 0); (0.5, ack 1); (1., ack 3) ] in
  match Timeline.ack_progress r with
  | [ a; b ] ->
      check_float "first ack" 1. a.Timeline.value;
      check_float "second ack" 3. b.Timeline.value
  | _ -> Alcotest.fail "expected two points"

let test_timeline_goodput () =
  (* 4 sends in [0, 10), 2 in [10, 20): rates 0.4 and 0.2 pkt/s. *)
  let r =
    recorder_of
      [
        (1., send 0); (2., send 1); (3., send 2); (4., send 3);
        (12., send 4); (13., send 5); (20.5, send 6);
      ]
  in
  match Timeline.goodput ~window:10. r with
  | [ a; b ] ->
      check_float "bin 1 rate" 0.4 a.Timeline.value;
      check_float "bin 2 rate" 0.2 b.Timeline.value
  | pts -> Alcotest.failf "expected 2 bins, got %d" (List.length pts)

let test_timeline_cwnd_and_rtt () =
  let r =
    recorder_of
      [
        (0., send 0);
        (0.3, Event.Rtt_sample { sample = 0.3; srtt = 0.3; rto = 1. });
      ]
  in
  Alcotest.(check int) "cwnd series" 1 (List.length (Timeline.congestion_window r));
  match Timeline.rtt_series r with
  | [ { Timeline.value; _ } ] -> check_float "rtt point" 0.3 value
  | _ -> Alcotest.fail "expected one rtt point"

let test_timeline_summary () =
  let r = recorder_of [ (0., send 0); (5., send ~rexmit:true 0) ] in
  let line = Timeline.summary_line r in
  Alcotest.(check bool) "mentions retransmissions" true
    (String.length line > 0)

(* --- Degenerate summaries --------------------------------------------------
   Pinned behaviour on inputs the estimators must not choke on: zero
   duration and traces without RTT samples yield zeros, never NaN/inf. *)

let all_finite s =
  List.for_all Float.is_finite
    [
      s.Analyzer.duration;
      s.Analyzer.observed_p;
      s.Analyzer.avg_rtt;
      s.Analyzer.avg_t0;
      s.Analyzer.send_rate;
    ]

let test_summarize_zero_duration () =
  let s = Analyzer.summarize (recorder_of [ (0., send 0) ]) in
  check_float ~eps:0. "duration" 0. s.Analyzer.duration;
  Alcotest.(check int) "one packet" 1 s.Analyzer.packets_sent;
  check_float ~eps:0. "rate is 0, not NaN" 0. s.Analyzer.send_rate;
  Alcotest.(check bool) "all fields finite" true (all_finite s)

let test_summarize_no_rtt_samples () =
  let s =
    Analyzer.summarize
      (recorder_of
         [
           (0., send 0);
           (1., Event.Timer_fired { backoff = 1; rto = 2. });
           (3., send ~rexmit:true 0);
         ])
  in
  check_float ~eps:0. "avg rtt zero" 0. s.Analyzer.avg_rtt;
  Alcotest.(check bool) "all fields finite" true (all_finite s);
  Alcotest.(check int) "timeout still counted" 1 s.Analyzer.loss_indications

(* --- Serialization ----------------------------------------------------------
   Write-then-read identity over randomized streams covering all seven
   event kinds.  Exact comparison: the %h encoding must round-trip floats
   bit-for-bit. *)

let random_kind rng i =
  let module Rng = Pftk_stats.Rng in
  match Rng.int rng 7 with
  | 0 ->
      Event.Segment_sent
        {
          seq = i;
          retransmission = Rng.bool rng;
          cwnd = Rng.float_range rng 1. 100.;
          flight = Rng.int rng 64;
        }
  | 1 -> Event.Ack_received { ack = Rng.int rng 100_000 }
  | 2 ->
      Event.Timer_fired
        { backoff = 1 + Rng.int rng 6; rto = Rng.exponential rng 2. }
  | 3 -> Event.Fast_retransmit_triggered { seq = Rng.int rng 100_000 }
  | 4 ->
      let sample = Rng.float_range rng 1e-4 3. in
      Event.Rtt_sample
        { sample; srtt = sample *. 0.9; rto = Rng.exponential rng 1. }
  | 5 -> Event.Round_started { index = i; window = Rng.float_range rng 1. 50. }
  | _ -> Event.Connection_closed

let random_trace ~seed ~n =
  let rng = Pftk_stats.Rng.create ~seed () in
  let time = ref 0. in
  List.init n (fun i ->
      time := !time +. Pftk_stats.Rng.exponential rng 10.;
      { Event.time = !time; kind = random_kind rng i })

let kind_tag = function
  | Event.Segment_sent _ -> 0
  | Event.Ack_received _ -> 1
  | Event.Timer_fired _ -> 2
  | Event.Fast_retransmit_triggered _ -> 3
  | Event.Rtt_sample _ -> 4
  | Event.Round_started _ -> 5
  | Event.Connection_closed -> 6

let event =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Pftk_trace.Serialize.line_of_event e))
    ( = )

let test_serialize_line_roundtrip () =
  let events = random_trace ~seed:123L ~n:500 in
  let tags = List.sort_uniq compare (List.map (fun e -> kind_tag e.Event.kind) events) in
  Alcotest.(check (list int)) "all seven kinds exercised" [ 0; 1; 2; 3; 4; 5; 6 ] tags;
  List.iter
    (fun e ->
      match Pftk_trace.Serialize.(event_of_line (line_of_event e)) with
      | Some e' -> Alcotest.check event "line roundtrip" e e'
      | None -> Alcotest.fail "event encoded as a comment/blank line")
    events

let test_serialize_file_roundtrip () =
  let r = Recorder.create () in
  List.iter
    (fun { Event.time; kind } -> Recorder.record r ~time kind)
    (random_trace ~seed:321L ~n:300);
  let path = Filename.temp_file "pftk_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pftk_trace.Serialize.save path r;
      let r' = Pftk_trace.Serialize.load path in
      let events_of rec_ = Array.to_list (Recorder.events rec_) in
      Alcotest.(check (list event)) "save/load identity" (events_of r)
        (events_of r');
      (* Streaming read sees the same events as the batch read. *)
      let streamed = ref [] in
      Pftk_trace.Serialize.iter_file path (fun e -> streamed := e :: !streamed);
      Alcotest.(check (list event)) "iter_file identity" (events_of r)
        (List.rev !streamed))

let test_serialize_rejects_malformed () =
  Alcotest.(check bool) "comment skipped" true
    (Pftk_trace.Serialize.event_of_line "# comment" = None);
  Alcotest.(check bool) "blank skipped" true
    (Pftk_trace.Serialize.event_of_line "   " = None);
  match Pftk_trace.Serialize.event_of_line "0.5 bogus 1 2 3" with
  | exception Pftk_trace.Serialize.Error { reason; _ } ->
      Alcotest.(check bool) "reason carries the line" true
        (contains ~sub:"0.5 bogus 1 2 3" reason)
  | _ -> Alcotest.fail "malformed line accepted"

let with_trace_file content k =
  let path = Filename.temp_file "pftk_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      k path)

let test_serialize_error_locates_line () =
  (* Line 1 is a comment, lines 2-3 parse, line 4 is garbage. *)
  with_trace_file "# header\n0 send 0 false 0x1p+1 1\n0x1p-1 ack 1\nwhat is this\n"
    (fun path ->
      match Pftk_trace.Serialize.load path with
      | _ -> Alcotest.fail "corrupt file accepted"
      | exception Pftk_trace.Serialize.Error { file; line; reason } ->
          Alcotest.(check (option string)) "file" (Some path) file;
          Alcotest.(check int) "line" 4 line;
          Alcotest.(check bool) "reason carries content" true
            (contains ~sub:"what is this" reason))

let test_serialize_error_backwards_time () =
  with_trace_file "0x1p+1 ack 1\n0x1p-2 ack 2\n" (fun path ->
      match Pftk_trace.Serialize.load path with
      | _ -> Alcotest.fail "backwards time accepted"
      | exception Pftk_trace.Serialize.Error ({ line; reason; _ } as e) ->
          Alcotest.(check int) "line" 2 line;
          (* Times are spelled in decimal, not %h hex floats. *)
          Alcotest.(check bool) "human-readable times" true
            (contains ~sub:"0.25 s after 2 s" reason);
          Alcotest.(check bool) "message locates the file" true
            (contains ~sub:":2: " (Pftk_trace.Serialize.error_message e)))

(* --- Serialization against the Printf and split_on_char spellings ----------
   The reader scans lines in place and decodes the writer's own %h and %d
   tokens itself; the writer spells them without Printf.  [Oracle] is the
   module's previous code, kept verbatim as the reference both must match
   byte for byte, bit for bit, error for error. *)

module Serialize = Pftk_trace.Serialize

module Oracle = struct
  let line_of_event { Event.time; kind } =
    match kind with
    | Event.Segment_sent { seq; retransmission; cwnd; flight } ->
        Printf.sprintf "%h send %d %b %h %d" time seq retransmission cwnd flight
    | Event.Ack_received { ack } -> Printf.sprintf "%h ack %d" time ack
    | Event.Timer_fired { backoff; rto } ->
        Printf.sprintf "%h timeout %d %h" time backoff rto
    | Event.Fast_retransmit_triggered { seq } ->
        Printf.sprintf "%h fastrexmit %d" time seq
    | Event.Rtt_sample { sample; srtt; rto } ->
        Printf.sprintf "%h rtt %h %h %h" time sample srtt rto
    | Event.Round_started { index; window } ->
        Printf.sprintf "%h round %d %h" time index window
    | Event.Connection_closed -> Printf.sprintf "%h close" time

  let malformed line =
    raise
      (Serialize.Error
         { file = None; line = 0; reason = Printf.sprintf "malformed line %S" line })

  let event_of_line line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else begin
      let fail () = malformed line in
      let float_of s = try float_of_string s with Failure _ -> fail () in
      let int_of s = try int_of_string s with Failure _ -> fail () in
      let bool_of s = try bool_of_string s with Invalid_argument _ -> fail () in
      match String.split_on_char ' ' line with
      | time :: "send" :: [ seq; rexmit; cwnd; flight ] ->
          Some
            {
              Event.time = float_of time;
              kind =
                Event.Segment_sent
                  {
                    seq = int_of seq;
                    retransmission = bool_of rexmit;
                    cwnd = float_of cwnd;
                    flight = int_of flight;
                  };
            }
      | time :: "ack" :: [ ack ] ->
          Some
            { Event.time = float_of time; kind = Event.Ack_received { ack = int_of ack } }
      | time :: "timeout" :: [ backoff; rto ] ->
          Some
            {
              Event.time = float_of time;
              kind =
                Event.Timer_fired { backoff = int_of backoff; rto = float_of rto };
            }
      | time :: "fastrexmit" :: [ seq ] ->
          Some
            {
              Event.time = float_of time;
              kind = Event.Fast_retransmit_triggered { seq = int_of seq };
            }
      | time :: "rtt" :: [ sample; srtt; rto ] ->
          Some
            {
              Event.time = float_of time;
              kind =
                Event.Rtt_sample
                  {
                    sample = float_of sample;
                    srtt = float_of srtt;
                    rto = float_of rto;
                  };
            }
      | time :: "round" :: [ index; window ] ->
          Some
            {
              Event.time = float_of time;
              kind =
                Event.Round_started
                  { index = int_of index; window = float_of window };
            }
      | [ time; "close" ] ->
          Some { Event.time = float_of time; kind = Event.Connection_closed }
      | _ -> fail ()
    end
end

(* A parse result as a string: events bit for bit, errors with their
   reason. *)
let outcome parse line =
  match parse line with
  | Some e -> "event " ^ bits e
  | None -> "none"
  | exception Serialize.Error { line; reason; _ } -> Printf.sprintf "error %d %s" line reason

(* The token shapes the scanner decodes itself: up to 18 decimal digits,
   or [[-]0x<hex>[.<hex>]p±<dec>] with 1 to 14 lowercase hex digits below
   2^53 and 1 to 5 exponent digits.  Anything else takes the fallback. *)
let fast_token tok =
  let body =
    if String.starts_with ~prefix:"-" tok then String.sub tok 1 (String.length tok - 1)
    else tok
  in
  let is_dec c = c >= '0' && c <= '9' in
  let is_hex c = is_dec c || (c >= 'a' && c <= 'f') in
  let nonempty_all p s = s <> "" && String.for_all p s in
  let hex_form () =
    match String.index_opt body 'p' with
    | Some k when String.starts_with ~prefix:"0x" body ->
        let mantissa = String.sub body 2 (k - 2) in
        let exp = String.sub body (k + 1) (String.length body - k - 1) in
        let digits = String.concat "" (String.split_on_char '.' mantissa) in
        List.length (String.split_on_char '.' mantissa) <= 2
        && nonempty_all is_hex digits
        && String.length digits <= 14
        && int_of_string ("0x" ^ digits) < 1 lsl 53
        && String.length exp >= 2
        && String.length exp <= 6
        && (exp.[0] = '+' || exp.[0] = '-')
        && nonempty_all is_dec (String.sub exp 1 (String.length exp - 1))
    | _ -> false
  in
  (nonempty_all is_dec body && String.length body <= 18) || hex_form ()

(* Accepted lines whose every numeric field is decoded in place. *)
let fast_line line =
  match String.split_on_char ' ' (String.trim line) with
  | time :: _tag :: fields ->
      List.for_all
        (fun f -> f = "true" || f = "false" || fast_token f)
        (time :: fields)
  | _ -> false

let sample_lines =
  List.map Oracle.line_of_event (extreme_trace 70)
  @ List.map Oracle.line_of_event (random_trace ~seed:99L ~n:40)
  @ [
      (* Spellings the writer never emits, all decoded by the stdlib. *)
      "0x1.8p+1 ack 007";
      "1.5 send 3 true 2.5 4";
      "nan ack 1";
      "-nan timeout 2 infinity";
      "infinity rtt 0x1p-3 -infinity nan";
      "0x1p+0 round +5 0x10";
      "0x1_0p+0 ack 1_000";
      "0X1P+0 ack 0x10";
      "0x1.p+0 close";
      "0x.8p+0 close";
      "0x1.fffffffffffffp+1023 timeout 1 0x0.0000000000001p-1022";
      "0x1.ffffffffffffffp+0 ack 1";
      "0x123456789abcdef0p+0 ack 1";
      "0x10000000000000000p+0 ack 1";
      "0x1p+123456 ack 1";
      "0x1p123 ack 1";
      "0x1p-0 fastrexmit -0";
      "0x1p+99999 ack 1";
      "0x1p-99999 ack 1";
      "1e400 ack 1";
      "-0x0p+0 ack 123456789012345678";
      "0x1p+0 ack 1234567890123456789";
      "0x1p+0 ack 4611686018427387904";
      "0x1p+0 ack -4611686018427387904";
      "0x1p+0 ack 0u123";
      "0x1p+0 ack 0b101";
      "0x1p+0 send 1 True 0x1p+0 1";
      "  0x1p+0 ack 1  \r";
      "\t0x1p+0 ack 1";
      "0x1p+0  ack 1";
      "0x1p+0 ack";
      "0x1p+0 ack 1 2";
      "0x1p+0 close 1";
      "# comment";
      "";
      "   ";
      "#";
    ]

(* Byte-level mutations of [line]: every truncation, and every position
   overwritten with or preceded by each byte below; then overlong hex
   mantissas and exponents, and empty fields. *)
let mutation_bytes = "\r\t\000\255_+-XPxp .09afAg#\ne"

let mutations line =
  let n = String.length line in
  let with_byte i c ~keep =
    String.sub line 0 i ^ String.make 1 c ^ String.sub line (i + keep) (n - i - keep)
  in
  let splice i s = String.sub line 0 i ^ s ^ String.sub line i (n - i) in
  List.concat
    (List.init (n + 1) (fun i ->
         String.sub line 0 i
         :: splice i "fffffff"
         :: splice i "00000"
         :: splice i " "
         :: List.concat_map
              (fun c -> if i < n then [ with_byte i c ~keep:1; with_byte i c ~keep:0 ] else [])
              (List.of_seq (String.to_seq mutation_bytes))))

let test_serialize_reader_matches_oracle () =
  let fast = ref 0 and fallback = ref 0 and rejected = ref 0 and lines = ref 0 in
  List.iter
    (fun base ->
      List.iter
        (fun line ->
          incr lines;
          let expected = outcome Oracle.event_of_line line in
          let actual = outcome Serialize.event_of_line line in
          if not (String.equal expected actual) then
            Alcotest.failf "%S: scanner gives %S, oracle %S" line actual expected;
          if String.starts_with ~prefix:"event" expected then
            incr (if fast_line line then fast else fallback)
          else if String.starts_with ~prefix:"error" expected then incr rejected)
        (base :: mutations base))
    sample_lines;
  (* Each class is at least 1% of the mutated lines. *)
  List.iter
    (fun (what, count) ->
      if !count * 100 < !lines then
        Alcotest.failf "%s: only %d of %d mutated lines" what !count !lines)
    [ ("fast path", fast); ("fallback", fallback); ("rejected", rejected) ]

(* Writer: the Printf spelling for the extreme floats and ints, and for
   10^5 random bit patterns. *)
let test_serialize_writer_matches_printf () =
  let floats =
    [
      0.; -0.; Int64.float_of_bits 1L; Float.min_float; Float.max_float;
      infinity; neg_infinity; Float.nan; Float.neg Float.nan; 1.; -1.5; 0.1;
    ]
  in
  let ints = [ min_int; max_int; -1; 0; 1; -42; 1 lsl 53 ] in
  let check_event e =
    Alcotest.(check string) "line" (Oracle.line_of_event e) (Serialize.line_of_event e)
  in
  let events time x n =
    [
      Event.Segment_sent { seq = n; retransmission = n land 1 = 0; cwnd = x; flight = -n };
      Event.Ack_received { ack = n };
      Event.Timer_fired { backoff = n; rto = x };
      Event.Fast_retransmit_triggered { seq = n };
      Event.Rtt_sample { sample = x; srtt = time; rto = -.x };
      Event.Round_started { index = n; window = x };
      Event.Connection_closed;
    ]
    |> List.iter (fun kind -> check_event { Event.time; kind })
  in
  List.iter (fun x -> List.iter (fun n -> events x x n) ints) floats;
  Alcotest.(check string) "sign of a NaN, min_int" "-nan ack -4611686018427387904"
    (Serialize.line_of_event
       { Event.time = Float.neg Float.nan; kind = Event.Ack_received { ack = min_int } });
  Alcotest.(check string) "subnormal" "0x0.0000000000001p-1022 close"
    (Serialize.line_of_event { Event.time = Int64.float_of_bits 1L; kind = Event.Connection_closed });
  let rng = Pftk_stats.Rng.create ~seed:2024L () in
  for _ = 1 to 100_000 do
    let x = Int64.float_of_bits (Pftk_stats.Rng.bits64 rng) in
    let time = Int64.float_of_bits (Pftk_stats.Rng.bits64 rng) in
    let n = Int64.to_int (Pftk_stats.Rng.bits64 rng) in
    let kind =
      match Pftk_stats.Rng.int rng 7 with
      | 0 -> Event.Segment_sent { seq = n; retransmission = n < 0; cwnd = x; flight = n asr 7 }
      | 1 -> Event.Ack_received { ack = n }
      | 2 -> Event.Timer_fired { backoff = n asr 40; rto = x }
      | 3 -> Event.Fast_retransmit_triggered { seq = n asr 20 }
      | 4 -> Event.Rtt_sample { sample = x; srtt = time; rto = x *. 0.5 }
      | 5 -> Event.Round_started { index = n; window = x }
      | _ -> Event.Connection_closed
    in
    let e = { Event.time; kind } in
    let expected = Oracle.line_of_event e in
    if not (String.equal expected (Serialize.line_of_event e)) then
      Alcotest.failf "writer gives %S, Printf %S" (Serialize.line_of_event e) expected
  done

let load_outcome path =
  match Serialize.load path with
  | r -> Printf.sprintf "%d events" (Recorder.length r)
  | exception Serialize.Error { file; line; reason } ->
      Printf.sprintf "%s:%d: %s" (if file = Some path then "FILE" else "?") line reason

(* The file-level contract of the block reader, pinned case by case. *)
let test_serialize_file_edges () =
  let cases =
    [
      ("last line without a newline", "0x0p+0 ack 1\n0x1p+0 ack 2", "2 events");
      ("CRLF", "# header\r\n0x0p+0 ack 1\r\n0x1p+0 ack 2\r\n", "2 events");
      ("empty file", "", "0 events");
      ("comments and blanks only", "# pftk trace v1\n\n   \n# end", "0 events");
      ( "an overlong comment",
        "0x0p+0 ack 1\n# " ^ String.make 5000 'x' ^ "\n0x1p+0 ack 2\n",
        "2 events" );
      ( "an overlong malformed line, quoted whole",
        "0x0p+0 ack 1\n\n0x1p+0 ack " ^ String.make 5000 '7' ^ "\n",
        Printf.sprintf "FILE:3: malformed line %S" ("0x1p+0 ack " ^ String.make 5000 '7') );
      ( "line numbers count comments and blank lines",
        "# header\n\n0x0p+0 ack 1\n   \n# note\n0x1p+0 ack x\n",
        "FILE:6: malformed line \"0x1p+0 ack x\"" );
      ( "a NUL inside a field",
        "0x0p+0 ack 1\n0x1p+0 ack 2\000\n",
        "FILE:2: malformed line \"0x1p+0 ack 2\\000\"" );
      ( "an error on an unterminated last line",
        "0x1p+0 ack 1\n0x1p-1 ack 2",
        "FILE:2: time went backwards: 0.5 s after 1 s" );
      ("a negative first time", "# header\n-0x1p+0 ack 1\n", "FILE:2: negative time: -1 s");
      ( "a negative time after NaN",
        "nan ack 1\n-0x1p-1 ack 2\n0x1p+0 ack 3\n",
        "FILE:2: negative time: -0.5 s" );
      ("a negative zero", "-0x0p+0 ack 1\n0x0p+0 ack 2\n", "2 events");
    ]
  in
  List.iter
    (fun (what, content, expected) ->
      with_trace_file content (fun path ->
          Alcotest.(check string) what expected (load_outcome path)))
    cases

(* A NaN time passes the monotonic guard but must not reset it. *)
let test_serialize_nan_time_keeps_guard () =
  with_trace_file "0x1p+3 ack 1\nnan ack 2\n0x1p+0 ack 3\n" (fun path ->
      Alcotest.(check string) "fails at the step back"
        "FILE:3: time went backwards: 1 s after 8 s" (load_outcome path));
  with_trace_file "0x1p+3 ack 1\nnan ack 2\n0x1p+4 ack 3\n" (fun path ->
      Alcotest.(check string) "NaN-timed lines still load" "3 events" (load_outcome path))

(* The previous file reader: [input_line], then [Oracle.event_of_line],
   then the monotonic guard with its NaN rule; every line counts.  Its
   guard starts at [start]: [neg_infinity] for [iter_channel], 0 for
   [read], which starts where a recorder's clock does and names a time
   below it. *)
let oracle_iter_channel ~start ?file f ic =
  let line = ref 0 and last = ref start in
  let fail reason = raise (Serialize.Error { file; line = !line; reason }) in
  try
    while true do
      let text = input_line ic in
      incr line;
      match Oracle.event_of_line text with
      | None -> ()
      | Some e ->
          let time = e.Event.time in
          if time < !last then
            fail
              (if time < start then Printf.sprintf "negative time: %g s" time
               else Printf.sprintf "time went backwards: %g s after %g s" time !last);
          if not (Float.is_nan time) then last := time;
          f e
      | exception Serialize.Error { reason; _ } -> fail reason
    done
  with End_of_file -> ()

(* What a reader made of a file: the events it delivered, and "ok" or
   the error with its file, line and reason. *)
let file_outcome read path =
  let events = ref [] in
  let last =
    match read path (fun e -> events := e :: !events) with
    | () -> "ok"
    | exception Serialize.Error { file; line; reason } ->
        Printf.sprintf "error %s:%d: %s" (if file = Some path then "FILE" else "?") line reason
  in
  (List.rev !events, last)

let on_channel (iter : ?file:string -> (Event.t -> unit) -> in_channel -> unit) path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> iter ~file:path f ic)

let loaded path f = Recorder.iter f (Serialize.load path)

(* Whole files through the block reader, against the previous reader.
   They are made of the mutation corpus's accepted lines in time order,
   with comments of up to 3000 bytes, blank lines, CRLF line ends,
   unterminated last lines and at most one malformed line or step back.
   A first line of [case mod 1024] bytes moves every case's first event
   line to another offset of the 1 KiB read block. *)
let test_serialize_files_match_oracle () =
  let module Rng = Pftk_stats.Rng in
  let accepted = ref [] and rejected = ref [] in
  List.iter
    (fun base ->
      List.iter
        (fun line ->
          if not (String.contains line '\n') then
            match Oracle.event_of_line line with
            | Some e -> accepted := (e.Event.time, line) :: !accepted
            | None -> ()
            | exception Serialize.Error _ -> rejected := line :: !rejected)
        (base :: mutations base))
    sample_lines;
  let accepted =
    Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !accepted)
  in
  let rejected = Array.of_list !rejected in
  let rng = Rng.create ~seed:19L () in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let starts = Array.make 1024 false in
  let oks = ref 0 and malformed = ref 0 and backwards = ref 0 and negative = ref 0 in
  for case = 0 to 1199 do
    let b = Buffer.create 4096 in
    let eol = if Rng.int rng 4 = 0 then "\r\n" else "\n" in
    let add line =
      starts.(Buffer.length b mod 1024) <- true;
      Buffer.add_string b line;
      Buffer.add_string b eol
    in
    (match case mod 1024 with
    | 0 -> ()
    | 1 -> Buffer.add_char b '\n'
    | k -> Buffer.add_string b ("#" ^ String.make (k - 2) 'x' ^ "\n"));
    let n = if Rng.int rng 8 = 0 then 100 + Rng.int rng 200 else Rng.int rng 40 in
    let lines = Array.init n (fun _ -> Rng.int rng (Array.length accepted)) in
    Array.sort compare lines;
    let lines = Array.map (fun k -> snd accepted.(k)) lines in
    (match Rng.int rng 6 with
    | 0 when n > 0 -> lines.(Rng.int rng n) <- pick rejected
    | 1 when n > 1 ->
        let k = Rng.int rng (n - 1) in
        let first = lines.(k) in
        lines.(k) <- lines.(k + 1);
        lines.(k + 1) <- first
    | _ -> ());
    Array.iter
      (fun line ->
        (match Rng.int rng 12 with
        | 0 ->
            let len = if Rng.int rng 10 = 0 then Rng.int rng 3000 else Rng.int rng 80 in
            add ("#" ^ String.init len (fun _ -> Char.chr (32 + Rng.int rng 95)))
        | 1 -> add (pick [| ""; " "; "\t"; "\r"; " \t \r"; "\012" |])
        | _ -> ());
        add line)
      lines;
    let content = Buffer.contents b in
    let content =
      if Rng.int rng 3 = 0 && String.ends_with ~suffix:"\n" content then
        String.sub content 0 (String.length content - 1)
      else content
    in
    with_trace_file content (fun path ->
        let events, last = file_outcome (on_channel (oracle_iter_channel ~start:neg_infinity)) path in
        let show (events, last) = String.concat "\n" (List.map bits events @ [ last ]) in
        let check what actual expected =
          if not (String.equal (show actual) (show expected)) then
            Alcotest.failf "case %d: %s gives\n%s\nthe previous reader\n%s" case what (show actual)
              (show expected)
        in
        check "iter_channel" (file_outcome (on_channel Serialize.iter_channel) path) (events, last);
        (* [load] hands over no event when it fails, and its guard starts
           at 0. *)
        let events, loaded_last = file_outcome (on_channel (oracle_iter_channel ~start:0.)) path in
        check "load" (file_outcome loaded path)
          ((if String.equal loaded_last "ok" then events else []), loaded_last);
        if contains ~sub:"negative time" loaded_last then incr negative;
        incr
          (if String.equal last "ok" then oks
           else if contains ~sub:"time went backwards" last then backwards
           else malformed))
  done;
  Array.iteri
    (fun offset hit -> if not hit then Alcotest.failf "no line starts at offset %d of a block" offset)
    starts;
  List.iter
    (fun (what, count) -> if !count < 50 then Alcotest.failf "only %d files %s" !count what)
    [
      ("read whole", oks);
      ("stop at a malformed line", malformed);
      ("step back", backwards);
      ("refused by load at a negative time", negative);
    ]

(* Allocation per event, writing a packet-level trace and streaming it
   back: on this trace the Printf writer took 112 minor words per event
   and the split_on_char reader 64.  The block reader allocates only the
   [Event.t], 10.4 words per event here. *)
let test_serialize_allocation () =
  let result = Pftk_tcp.Connection.run ~seed:5L ~duration:300. Pftk_tcp.Connection.default_scenario in
  let r = result.Pftk_tcp.Connection.recorder in
  let n = float_of_int (Recorder.length r) in
  let path = Filename.temp_file "pftk_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let before = Gc.minor_words () in
      Serialize.write oc r;
      let write_words = (Gc.minor_words () -. before) /. n in
      close_out oc;
      let before = Gc.minor_words () in
      Serialize.iter_file path (fun _ -> ());
      let read_words = (Gc.minor_words () -. before) /. n in
      let over =
        List.filter_map
          (fun (what, words, bound) ->
            if words < bound then None
            else Some (Printf.sprintf "%s: %.1f minor words per event, over %g" what words bound))
          [ ("write", write_words, 40.); ("iter_file", read_words, 16.) ]
      in
      if over <> [] then Alcotest.fail (String.concat "; " over))

let () =
  Alcotest.run "pftk_trace"
    [
      ( "recorder",
        [
          case "basic" test_recorder_basic;
          case "monotonic time" test_recorder_time_monotonic;
          case "between" test_recorder_between;
          case "growth" test_recorder_growth;
          case "fold/iter" test_recorder_fold_iter;
          case "recording promotes nothing" test_recorder_promotes_nothing;
          case "round trip of extreme fields" test_recorder_roundtrip_extremes;
        ] );
      ( "ground-truth",
        [
          case "TDs" test_ground_truth_td;
          case "TO sequence" test_ground_truth_to_sequence;
          case "two sequences" test_ground_truth_two_sequences;
          case "TD closes sequence" test_ground_truth_td_closes_sequence;
        ] );
      ( "inference",
        [
          case "TD from dup acks" test_infer_td;
          case "TO from idle gap" test_infer_timeout;
          case "backoff chain" test_infer_backoff_chain;
          case "recovery burst ignored" test_infer_recovery_burst_not_counted;
          case "activity resets gap" test_infer_new_data_resets_gap;
        ] );
      ( "karn",
        [
          case "basic sample" test_karn_basic;
          case "skips retransmitted" test_karn_skips_retransmitted;
          case "cumulative ack" test_karn_cumulative_ack_covers_many;
        ] );
      ( "summary",
        [
          case "ground truth" test_summarize_ground_truth;
          case "empty trace" test_summarize_empty;
          case "zero duration" test_summarize_zero_duration;
          case "no rtt samples" test_summarize_no_rtt_samples;
          slow_case "inference vs ground truth" test_inference_matches_ground_truth_on_real_trace;
        ] );
      ( "serialize",
        [
          case "line roundtrip 500 random events" test_serialize_line_roundtrip;
          case "file roundtrip" test_serialize_file_roundtrip;
          case "rejects malformed" test_serialize_rejects_malformed;
          case "error locates line" test_serialize_error_locates_line;
          case "backwards time readable" test_serialize_error_backwards_time;
          case "reader matches the previous parser" test_serialize_reader_matches_oracle;
          case "writer matches Printf" test_serialize_writer_matches_printf;
          case "file edges" test_serialize_file_edges;
          case "NaN time keeps the guard" test_serialize_nan_time_keeps_guard;
          case "files match the previous reader" test_serialize_files_match_oracle;
          case "allocation per event" test_serialize_allocation;
        ] );
      ( "timeline",
        [
          case "sequence numbers" test_timeline_sequence;
          case "ack progress" test_timeline_ack_progress;
          case "goodput bins" test_timeline_goodput;
          case "cwnd and rtt" test_timeline_cwnd_and_rtt;
          case "summary line" test_timeline_summary;
        ] );
      ( "intervals",
        [
          case "binning" test_intervals_binning;
          case "classification ladder" test_intervals_classification_ladder;
          case "sends on bin edges" test_intervals_bin_edges;
          case "validation" test_intervals_validation;
          case "labels" test_classification_labels;
        ] );
    ]
