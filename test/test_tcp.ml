(* Tests for pftk_tcp: RTO estimation, the delayed-ACK receiver, the
   packet-level Reno sender (via end-to-end connections), and the
   round-based model simulator. *)

module Sim = Pftk_netsim.Sim
module Rto = Pftk_tcp.Rto
module Receiver = Pftk_tcp.Receiver
module Reno = Pftk_tcp.Reno
module Connection = Pftk_tcp.Connection
module Round_sim = Pftk_tcp.Round_sim
module Segment = Pftk_tcp.Segment
module SB = Pftk_tcp.Shared_bottleneck
module Loss = Pftk_loss.Loss_process
open Pftk_core

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let close ?(rel = 0.05) msg expected actual =
  let err = Float.abs (expected -. actual) /. Float.abs expected in
  if err > rel then
    Alcotest.failf "%s: expected %g within %g%%, got %g" msg expected
      (100. *. rel) actual

(* --- Rto --------------------------------------------------------------------- *)

let test_rto_initial () =
  let t = Rto.create () in
  check_float "initial rto" 3. (Rto.rto t);
  Alcotest.(check bool) "no srtt yet" true (Rto.srtt t = None)

let test_rto_first_sample () =
  let t = Rto.create () in
  Rto.observe t 0.5;
  check_float "srtt = r" 0.5 (Option.get (Rto.srtt t));
  check_float "rttvar = r/2" 0.25 (Option.get (Rto.rttvar t));
  (* rto = srtt + 4 * rttvar = 1.5 *)
  check_float "rto" 1.5 (Rto.rto t)

let test_rto_ewma () =
  let t = Rto.create () in
  Rto.observe t 1.;
  Rto.observe t 1.;
  (* Second identical sample: rttvar = 0.75*0.5 + 0.25*0 = 0.375; srtt = 1. *)
  check_float "srtt stable" 1. (Option.get (Rto.srtt t));
  check_float "rttvar decays" 0.375 (Option.get (Rto.rttvar t))

let test_rto_clamps () =
  let t = Rto.create ~min_rto:1. ~max_rto:2. () in
  Rto.observe t 0.01;
  check_float "min clamp" 1. (Rto.rto t);
  let t2 = Rto.create ~min_rto:0.1 ~max_rto:2. () in
  Rto.observe t2 10.;
  check_float "max clamp" 2. (Rto.rto t2)

let test_rto_converges () =
  let t = Rto.create ~min_rto:0.01 () in
  for _ = 1 to 200 do
    Rto.observe t 0.3
  done;
  (* With constant samples rttvar -> 0, so rto -> srtt + granularity. *)
  close ~rel:0.05 "converges to srtt + granularity" 0.4 (Rto.rto t);
  Alcotest.(check int) "sample count" 200 (Rto.samples t)

let test_rto_validation () =
  Alcotest.check_raises "nonpositive sample"
    (Invalid_argument "Rto.observe: sample must be positive") (fun () ->
      Rto.observe (Rto.create ()) 0.)

(* --- Receiver ------------------------------------------------------------------ *)

let make_receiver ?ack_every () =
  let sim = Sim.create () in
  let acks = ref [] in
  let receiver =
    Receiver.create ?ack_every ~sim
      ~send_ack:(fun a -> acks := a.Segment.ack :: !acks)
      ()
  in
  (sim, receiver, acks)

let data seq = { Segment.seq; size = 1500; retransmission = false }

let test_receiver_delayed_ack () =
  let sim, receiver, acks = make_receiver () in
  Receiver.on_data receiver (data 0);
  Alcotest.(check (list int)) "first segment held" [] !acks;
  Receiver.on_data receiver (data 1);
  Alcotest.(check (list int)) "acked every 2" [ 2 ] !acks;
  ignore sim

let test_receiver_delayed_ack_timer () =
  let sim, receiver, acks = make_receiver () in
  Receiver.on_data receiver (data 0);
  Sim.run sim;
  (* The 200 ms delayed-ACK timer flushes the pending ACK. *)
  Alcotest.(check (list int)) "timer flushes" [ 1 ] !acks

let test_receiver_out_of_order_dup_acks () =
  let _sim, receiver, acks = make_receiver () in
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 1);
  (* Hole at 2: each later arrival elicits an immediate duplicate ACK of 2. *)
  Receiver.on_data receiver (data 3);
  Receiver.on_data receiver (data 4);
  Receiver.on_data receiver (data 5);
  Alcotest.(check (list int)) "dup acks" [ 2; 2; 2; 2 ] !acks

let test_receiver_hole_fill () =
  let _sim, receiver, acks = make_receiver () in
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 1);
  Receiver.on_data receiver (data 3);
  Receiver.on_data receiver (data 2);
  (* Filling the hole acknowledges through 4 immediately. *)
  Alcotest.(check int) "cumulative point" 4 (Receiver.rcv_nxt receiver);
  Alcotest.(check (list int)) "final ack covers buffer" [ 4; 2; 2 ] !acks

let test_receiver_duplicate_data () =
  let _sim, receiver, acks = make_receiver () in
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 1);
  Receiver.on_data receiver (data 0);
  Alcotest.(check int) "duplicate counted" 1 (Receiver.duplicates_received receiver);
  Alcotest.(check (list int)) "duplicate elicits immediate ack" [ 2; 2 ] !acks

let test_receiver_counters () =
  let _sim, receiver, _ = make_receiver () in
  List.iter (fun s -> Receiver.on_data receiver (data s)) [ 0; 1; 2; 3 ];
  Alcotest.(check int) "segments received" 4 (Receiver.segments_received receiver);
  Alcotest.(check int) "acks sent" 2 (Receiver.acks_sent receiver)

let test_receiver_ack_every_1 () =
  let _sim, receiver, acks = make_receiver ~ack_every:1 () in
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 1);
  Alcotest.(check (list int)) "b = 1 acks immediately" [ 2; 1 ] !acks

(* --- Connection (packet-level Reno, end to end) ---------------------------------- *)

let lossless_scenario =
  {
    Connection.default_scenario with
    Connection.forward_bandwidth = 1_250_000.;
    reverse_bandwidth = 1_250_000.;
    forward_delay = 0.05;
    reverse_delay = 0.05;
    buffer = Pftk_netsim.Queue_discipline.drop_tail ~capacity:100;
  }

let test_connection_lossless_window_limited () =
  (* No loss: the flow settles at Wm per RTT. *)
  let result = Connection.run ~duration:60. lossless_scenario in
  Alcotest.(check int) "no retransmissions" 0 result.Connection.retransmissions;
  Alcotest.(check int) "no timeouts" 0 result.Connection.timeouts;
  (* Wm 32 packets / ~0.11 s RTT (0.1 prop + serialization) ~ 280 pkt/s. *)
  close ~rel:0.2 "rate ~ Wm/RTT" 280. result.Connection.send_rate

let test_connection_delivers_everything_lossless () =
  let result = Connection.run ~duration:30. lossless_scenario in
  (* In-flight at cutoff accounts for any tiny difference. *)
  Alcotest.(check bool) "sent ~ delivered" true
    (result.Connection.packets_sent - result.Connection.segments_delivered < 64)

let test_connection_fast_retransmit_on_random_loss () =
  let rng = Pftk_stats.Rng.create ~seed:2L () in
  let scenario =
    { lossless_scenario with
      Connection.data_loss = Some (Loss.bernoulli rng ~p:0.005) }
  in
  let result = Connection.run ~seed:2L ~duration:120. scenario in
  Alcotest.(check bool) "fast retransmits happen" true
    (result.Connection.fast_retransmits > 0);
  Alcotest.(check bool) "rate dropped below lossless" true
    (result.Connection.send_rate < 280.)

let test_connection_timeouts_under_heavy_loss () =
  let rng = Pftk_stats.Rng.create ~seed:3L () in
  let scenario =
    { lossless_scenario with
      Connection.data_loss = Some (Loss.bernoulli rng ~p:0.15) }
  in
  let result = Connection.run ~seed:3L ~duration:300. scenario in
  Alcotest.(check bool) "timeouts happen" true (result.Connection.timeouts > 10);
  (* Regression test for the pipe-leak stall: the connection must keep
     making progress for the whole run. *)
  Alcotest.(check bool) "no stall" true (result.Connection.packets_sent > 300)

let test_connection_queue_loss_only () =
  (* Tiny buffer, no random loss: drops come from the bottleneck queue and
     the flow self-clocks around them. *)
  let scenario =
    {
      lossless_scenario with
      Connection.forward_bandwidth = 125_000.;
      buffer = Pftk_netsim.Queue_discipline.drop_tail ~capacity:5;
    }
  in
  let result = Connection.run ~duration:120. scenario in
  Alcotest.(check bool) "queue drops occurred" true
    (result.Connection.forward_stats.Pftk_netsim.Link.dropped_queue > 0);
  (* Bottleneck is ~85 pkt/s (125 kB/s / 1500 B); the flow should get most
     of it. *)
  Alcotest.(check bool) "keeps the pipe busy" true
    (result.Connection.send_rate > 40.)

let test_connection_model_agreement () =
  (* The headline validation: measured send rate within 40% of the full
     model evaluated at the trace's own measurements. *)
  let rng = Pftk_stats.Rng.create ~seed:4L () in
  let scenario =
    { lossless_scenario with
      Connection.data_loss = Some (Loss.bernoulli rng ~p:0.02) }
  in
  let result = Connection.run ~seed:4L ~duration:600. scenario in
  let summary = Pftk_trace.Analyzer.summarize result.Connection.recorder in
  let params =
    Params.make ~rtt:summary.Pftk_trace.Analyzer.avg_rtt
      ~t0:(Float.max 0.2 summary.Pftk_trace.Analyzer.avg_t0)
      ~wm:32 ()
  in
  let predicted =
    Full_model.send_rate params summary.Pftk_trace.Analyzer.observed_p
  in
  close ~rel:0.4 "model vs packet-level sim" predicted
    result.Connection.send_rate

let test_connection_rtt_samples_positive () =
  let result = Connection.run ~duration:30. lossless_scenario in
  Alcotest.(check bool) "has rtt samples" true
    (Array.length result.Connection.rtt_flight_samples > 10);
  Array.iter
    (fun (rtt, flight) ->
      Alcotest.(check bool) "positive sample" true (rtt > 0. && flight >= 0))
    result.Connection.rtt_flight_samples

let test_connection_deterministic () =
  let r1 = Connection.run ~seed:9L ~duration:30. lossless_scenario in
  let r2 = Connection.run ~seed:9L ~duration:30. lossless_scenario in
  Alcotest.(check int) "same packet count" r1.Connection.packets_sent
    r2.Connection.packets_sent

let test_connection_dup_ack_threshold_2 () =
  (* A Linux-style sender (threshold 2) fires fast retransmit more easily:
     with the same loss it should see at least as many fast retransmits. *)
  let run threshold seed =
    let rng = Pftk_stats.Rng.create ~seed () in
    let scenario =
      {
        lossless_scenario with
        Connection.data_loss = Some (Loss.bernoulli rng ~p:0.01);
        sender = { Reno.default_config with dup_ack_threshold = threshold };
      }
    in
    (Connection.run ~seed ~duration:200. scenario).Connection.fast_retransmits
  in
  Alcotest.(check bool) "threshold 2 >= threshold 3" true
    (run 2 11L >= run 3 11L)

let test_connection_validation () =
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Connection.run: duration must be positive") (fun () ->
      ignore (Connection.run ~duration:0. lossless_scenario));
  (* Reno's timer keeps the event queue busy: an infinite run never ends. *)
  Alcotest.check_raises "infinite duration"
    (Invalid_argument "Connection.run: duration must be finite") (fun () ->
      ignore (Connection.run ~duration:Float.infinity lossless_scenario))

(* --- Golden outputs of the packet-level simulator ------------------------------
   Recorded at the commit before the event core and the links were
   rewritten: the sender's trace (MD5 of the pftk text format), the
   forward link's stats and the result counters of scenarios that
   [pftk all --quick] never runs over netsim (NewReno and SACK recovery,
   RED, ACK loss, bursty loss, TFRC and cross traffic).  A change to the
   simulator that moves a random draw, a float operation or a packet
   shows up here.  Events at equal times are rare in these runs, so
   their order is left to test_netsim's oracles. *)

let bernoulli seed p = Some (Loss.bernoulli (Pftk_stats.Rng.create ~seed ()) ~p)

let golden_connections =
  [
    ( "reno bernoulli",
      21L,
      { lossless_scenario with Connection.data_loss = bernoulli 21L 0.02 },
      "sent 5582 delivered 5476 rexmit 106 to 22 fr 76 rtt 1029 link \
       5582/5480/0/102/8220000/7 trace 8affe0fd20624cc995dc89d914defbf3" );
    ( "newreno",
      22L,
      {
        lossless_scenario with
        Connection.data_loss = bernoulli 22L 0.03;
        sender = { Reno.default_config with recovery = Reno.Newreno_recovery };
      },
      "sent 4429 delivered 4291 rexmit 131 to 36 fr 73 rtt 957 link \
       4429/4298/0/124/6447000/5 trace ad44b628e8be3c62c884820559bdea04" );
    ( "sack",
      23L,
      {
        lossless_scenario with
        Connection.data_loss = bernoulli 23L 0.03;
        sender = { Reno.default_config with recovery = Reno.Sack_recovery };
      },
      "sent 4454 delivered 4308 rexmit 145 to 22 fr 100 rtt 972 link \
       4454/4314/0/139/6471000/8 trace a83dd2cbcc7ccf28f60f52596b9ee544" );
    ( "red",
      24L,
      {
        lossless_scenario with
        Connection.forward_bandwidth = 125_000.;
        buffer =
          Pftk_netsim.Queue_discipline.red ~capacity:30 ~min_threshold:5.
            ~max_threshold:15. ~max_probability:0.1 ();
      },
      "sent 9137 delivered 9093 rexmit 41 to 3 fr 38 rtt 724 link \
       9137/9093/41/0/13639500/24 trace 525d4b4dd6693435df3a1ffae3536703" );
    ( "ack loss",
      25L,
      {
        lossless_scenario with
        Connection.reverse_bandwidth = 16_000.;
        forward_delay = 0.03;
        reverse_delay = 0.07;
        data_loss = bernoulli 25L 0.01;
        ack_loss = bernoulli 26L 0.2;
        ack_every = 1;
        sender =
          { Reno.default_config with dup_ack_threshold = 2; backoff_cap = 5 };
      },
      "sent 9553 delivered 9426 rexmit 121 to 20 fr 97 rtt 1006 link \
       9553/9440/0/107/14160000/16 trace 6be3965cf036f353b22c2f7b913deb29" );
    ( "bursty",
      27L,
      {
        lossless_scenario with
        Connection.data_loss =
          Some
            (Loss.gilbert (Pftk_stats.Rng.create ~seed:27L ())
               ~p_enter_bad:0.01 ~p_exit_bad:0.3 ());
      },
      "sent 6064 delivered 5828 rexmit 235 to 51 fr 55 rtt 870 link \
       6064/5870/0/193/8805000/11 trace c8b8631747dd3298aeb78d1f692e5292" );
  ]

let connection_digest (r : Connection.result) =
  let path = Filename.temp_file "pftk-golden" ".trace" in
  Pftk_trace.Serialize.save path r.Connection.recorder;
  let md5 = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  let s = r.Connection.forward_stats in
  Printf.sprintf
    "sent %d delivered %d rexmit %d to %d fr %d rtt %d link %d/%d/%d/%d/%d/%d \
     trace %s"
    r.Connection.packets_sent r.Connection.segments_delivered
    r.Connection.retransmissions r.Connection.timeouts
    r.Connection.fast_retransmits
    (Array.length r.Connection.rtt_flight_samples)
    s.Pftk_netsim.Link.offered s.Pftk_netsim.Link.delivered
    s.Pftk_netsim.Link.dropped_queue s.Pftk_netsim.Link.dropped_random
    s.Pftk_netsim.Link.bytes_delivered s.Pftk_netsim.Link.max_queue md5

let test_golden_connections () =
  List.iter
    (fun (name, seed, scenario, expected) ->
      Alcotest.(check string) name expected
        (connection_digest (Connection.run ~seed ~duration:120. scenario)))
    golden_connections

let golden_bottlenecks =
  [
    ( "mixed drop-tail",
      (fun () ->
        SB.run ~seed:31L ~buffer:32 ~bandwidth:625_000. ~duration:40.
          [
            SB.reno "reno";
            SB.reno
              ~config:{ Reno.default_config with recovery = Reno.Newreno_recovery }
              "newreno";
            {
              (SB.reno
                 ~config:{ Reno.default_config with recovery = Reno.Sack_recovery }
                 "sack")
              with
              SB.start_time = 5.;
            };
            SB.tfrc "tfrc";
            SB.cross "cross";
          ]),
      "reno:3119/3015 newreno:4532/4462 sack:3326/3248 tfrc:4902/4219 \
       cross:1760/1646 util 0x1.eea209aaa4726p-1 queue 0x1.454520ce46b0bp+4 \
       jain 0x1.d69408af56ab6p-1" );
    ( "red pareto",
      (fun () ->
        SB.run ~seed:32L
          ~discipline:
            (Pftk_netsim.Queue_discipline.red ~capacity:80 ~min_threshold:10.
               ~max_threshold:40. ())
          ~duration:40.
          (List.init 6 (fun i -> SB.reno (Printf.sprintf "reno-%d" i))
          @ [
              SB.cross
                ~config:
                  {
                    Pftk_netsim.Cross_traffic.default with
                    Pftk_netsim.Cross_traffic.rate = 400.;
                    pareto_shape = Some 1.5;
                  }
                "pareto";
            ])),
      "reno-0:4658/4595 reno-1:4678/4604 reno-2:4005/3927 reno-3:4478/4410 \
       reno-4:4911/4828 reno-5:4502/4424 pareto:4307/4158 util \
       0x1.c6c3760bf6566p-1 queue 0x1.5a8c609cd3c54p+3 jain \
       0x1.fdfa0fb614449p-1" );
  ]

let bottleneck_digest (r : SB.result) =
  String.concat " "
    (List.map
       (fun (f : SB.flow_result) ->
         Printf.sprintf "%s:%d/%d" f.SB.name f.SB.packets_sent
           f.SB.packets_delivered)
       r.SB.flows)
  ^ Printf.sprintf " util %h queue %h jain %h" r.SB.bottleneck_utilization
      r.SB.bottleneck_mean_queue r.SB.jain_fairness

let test_golden_bottlenecks () =
  List.iter
    (fun (name, run, expected) ->
      Alcotest.(check string) name expected (bottleneck_digest (run ())))
    golden_bottlenecks

(* Per packet sent, a run allocates the segment and ACK records, the
   recorder's event and a few boxed floats; the event core and the links
   allocate nothing.  Before they were rewritten the validate scenario took
   150 minor words per packet and the 32-flow bottleneck 155. *)
let check_words_per_packet what ~packets words =
  let per_packet = words /. float_of_int packets in
  if not (per_packet < 80.) then
    Alcotest.failf "%s: %.0f minor words for %d packets (%.1f per packet)" what
      words packets per_packet

let test_connection_allocation () =
  (* The validate artifact's scenario: 300 s at p = 0.02. *)
  let scenario =
    {
      lossless_scenario with
      Connection.data_loss = bernoulli 42L 0.02;
      sender = { Reno.default_config with wm = 32 };
    }
  in
  let before = Gc.minor_words () in
  let r = Connection.run ~seed:42L ~duration:300. scenario in
  check_words_per_packet "validate run" ~packets:r.Connection.packets_sent
    (Gc.minor_words () -. before)

let test_bottleneck_allocation () =
  let specs = List.init 32 (fun i -> SB.reno (Printf.sprintf "reno-%d" i)) in
  let before = Gc.minor_words () in
  let r = SB.run ~seed:61L ~duration:40. specs in
  let packets =
    List.fold_left (fun n (f : SB.flow_result) -> n + f.SB.packets_sent) 0 r.SB.flows
  in
  check_words_per_packet "32-flow bottleneck" ~packets (Gc.minor_words () -. before)

(* --- Reno mechanics under a microscope ------------------------------------------------
   Deterministic scenarios with scripted losses, verified event by event
   from the trace. *)

let scripted_scenario pattern =
  {
    lossless_scenario with
    Connection.data_loss = Some (Loss.scripted pattern);
  }

(* Drop exactly the [n]-th data packet (0-based), nothing else. *)
let drop_only n total =
  Array.init total (fun i -> i = n)

let events_of result = Pftk_trace.Recorder.events result.Connection.recorder

let test_exact_fast_retransmit () =
  (* One mid-stream loss with a big window behind it: detection must be by
     exactly [threshold] duplicate ACKs, and the loss must cost no
     timeout. *)
  let result =
    Connection.run ~duration:20. (scripted_scenario (drop_only 40 100_000))
  in
  Alcotest.(check int) "one fast retransmit" 1 result.Connection.fast_retransmits;
  Alcotest.(check int) "no timeouts" 0 result.Connection.timeouts;
  Alcotest.(check int) "exactly one retransmission" 1 result.Connection.retransmissions;
  (* The retransmission is of the dropped sequence number. *)
  let rexmit_seqs =
    Array.to_list (events_of result)
    |> List.filter_map (fun e ->
           match e.Pftk_trace.Event.kind with
           | Pftk_trace.Event.Segment_sent { seq; retransmission = true; _ } ->
               Some seq
           | _ -> None)
  in
  Alcotest.(check (list int)) "retransmitted the dropped packet" [ 40 ] rexmit_seqs

let test_dup_ack_count_before_retransmit () =
  (* Count duplicate ACKs between the loss and the retransmission: must be
     exactly the threshold (3). *)
  let result =
    Connection.run ~duration:20. (scripted_scenario (drop_only 40 100_000))
  in
  let events = events_of result in
  let rexmit_time = ref infinity in
  Array.iter
    (fun e ->
      match e.Pftk_trace.Event.kind with
      | Pftk_trace.Event.Fast_retransmit_triggered _ ->
          rexmit_time := e.Pftk_trace.Event.time
      | _ -> ())
    events;
  let dup_acks = ref 0 and last_ack = ref (-1) in
  Array.iter
    (fun e ->
      match e.Pftk_trace.Event.kind with
      | Pftk_trace.Event.Ack_received { ack }
        when e.Pftk_trace.Event.time <= !rexmit_time ->
          if ack = !last_ack && ack = 40 then incr dup_acks;
          last_ack := ack
      | _ -> ())
    events;
  Alcotest.(check int) "three duplicate ACKs" 3 !dup_acks

let test_cwnd_halves_after_fast_retransmit () =
  let result =
    Connection.run ~duration:20. (scripted_scenario (drop_only 200 100_000))
  in
  let events = events_of result in
  (* cwnd just before the fast retransmit vs shortly after recovery. *)
  let fr_time = ref infinity in
  Array.iter
    (fun e ->
      match e.Pftk_trace.Event.kind with
      | Pftk_trace.Event.Fast_retransmit_triggered _ ->
          if !fr_time = infinity then fr_time := e.Pftk_trace.Event.time
      | _ -> ())
    events;
  let before = ref 0. and after = ref None in
  Array.iter
    (fun e ->
      match e.Pftk_trace.Event.kind with
      | Pftk_trace.Event.Segment_sent { cwnd; retransmission = false; _ } ->
          if e.Pftk_trace.Event.time < !fr_time then before := cwnd
          else if
            !after = None
            && e.Pftk_trace.Event.time > !fr_time +. 0.2 (* past recovery *)
          then after := Some cwnd
      | _ -> ())
    events;
  match !after with
  | Some after_cwnd ->
      Alcotest.(check bool)
        (Printf.sprintf "halved (%.1f -> %.1f)" !before after_cwnd)
        true
        (after_cwnd < 0.7 *. !before && after_cwnd > 0.3 *. !before)
  | None -> Alcotest.fail "no post-recovery send found"

let test_timeout_when_window_too_small () =
  (* Drop a packet when the window is 1 (the very first): no dup ACKs are
     possible, so recovery must be by timeout. *)
  let result =
    Connection.run ~duration:20. (scripted_scenario (drop_only 0 100_000))
  in
  Alcotest.(check int) "no fast retransmit" 0 result.Connection.fast_retransmits;
  Alcotest.(check bool) "recovered by timeout" true (result.Connection.timeouts >= 1);
  Alcotest.(check bool) "transfer proceeded" true
    (result.Connection.packets_sent > 1000)

let test_exponential_backoff_timing () =
  (* Kill the data path completely: successive timer firings must be
     (roughly) doubly spaced until the cap. *)
  let all_drops = Loss.scripted [| true |] in
  let scenario =
    { lossless_scenario with Connection.data_loss = Some all_drops }
  in
  let result = Connection.run ~duration:120. scenario in
  let firings =
    Array.to_list (events_of result)
    |> List.filter_map (fun e ->
           match e.Pftk_trace.Event.kind with
           | Pftk_trace.Event.Timer_fired { backoff; _ } ->
               Some (backoff, e.Pftk_trace.Event.time)
           | _ -> None)
  in
  Alcotest.(check bool) "several firings" true (List.length firings >= 4);
  (* Backoff counters increase 1, 2, 3, ... *)
  List.iteri
    (fun i (backoff, _) ->
      Alcotest.(check int) "backoff counts up" (i + 1) backoff)
    firings;
  (* Inter-firing gaps roughly double while below the cap. *)
  let times = List.map snd firings in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  let rec check_doubling = function
    | g1 :: (g2 :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "gap doubles (%.2f -> %.2f)" g1 g2)
          true
          (g2 > 1.5 *. g1 && g2 < 2.5 *. g1);
        check_doubling rest
    | _ -> ()
  in
  check_doubling (gaps (List.filteri (fun i _ -> i < 5) times))

let test_receiver_window_clamps_flight () =
  let scenario =
    { lossless_scenario with
      Connection.sender = { Reno.default_config with wm = 4 } }
  in
  let result = Connection.run ~duration:30. scenario in
  Array.iter
    (fun e ->
      match e.Pftk_trace.Event.kind with
      | Pftk_trace.Event.Segment_sent { flight; _ } ->
          Alcotest.(check bool) "flight <= wm" true (flight <= 4)
      | _ -> ())
    (events_of result)

let test_delayed_ack_ratio () =
  (* Lossless with delayed ACKs: roughly one ACK per two packets. *)
  let result = Connection.run ~duration:30. lossless_scenario in
  let acks =
    Array.fold_left
      (fun n e ->
        match e.Pftk_trace.Event.kind with
        | Pftk_trace.Event.Ack_received _ -> n + 1
        | _ -> n)
      0 (events_of result)
  in
  let ratio = float_of_int result.Connection.packets_sent /. float_of_int acks in
  Alcotest.(check bool)
    (Printf.sprintf "packets/acks ~ 2 (%.2f)" ratio)
    true
    (ratio > 1.8 && ratio < 2.2)

(* --- Recovery styles: Reno vs NewReno vs SACK ------------------------------------------
   The Fall-Floyd comparison (the paper's reference [3]): multiple losses
   in one window tell the three apart. *)

let recovery_scenario recovery pattern =
  {
    lossless_scenario with
    Connection.data_loss = Some (Loss.scripted pattern);
    sender = { Reno.default_config with recovery };
  }

(* Drop three spread packets of one window. *)
let three_drops = Array.init 100_000 (fun i -> i = 100 || i = 103 || i = 106)

let test_reno_multi_loss_times_out () =
  let r = Connection.run ~duration:30. (recovery_scenario Reno.Reno_recovery three_drops) in
  Alcotest.(check bool) "classic Reno needs a timeout" true
    (r.Connection.timeouts >= 1)

let test_newreno_multi_loss_no_timeout () =
  let r =
    Connection.run ~duration:30. (recovery_scenario Reno.Newreno_recovery three_drops)
  in
  Alcotest.(check int) "no timeout" 0 r.Connection.timeouts;
  Alcotest.(check int) "one recovery episode" 1 r.Connection.fast_retransmits;
  Alcotest.(check int) "retransmits exactly the three holes" 3
    r.Connection.retransmissions

let test_sack_multi_loss_no_timeout () =
  let r =
    Connection.run ~duration:30. (recovery_scenario Reno.Sack_recovery three_drops)
  in
  Alcotest.(check int) "no timeout" 0 r.Connection.timeouts;
  Alcotest.(check int) "retransmits exactly the three holes" 3
    r.Connection.retransmissions

let test_recovery_style_ordering () =
  (* Under random loss: SACK >= NewReno >= Reno in rate, and timeouts in
     the opposite order. *)
  let run recovery =
    let rng = Pftk_stats.Rng.create ~seed:14L () in
    let scenario =
      {
        lossless_scenario with
        Connection.data_loss = Some (Loss.bernoulli rng ~p:0.03);
        sender = { Reno.default_config with recovery };
      }
    in
    Connection.run ~seed:14L ~duration:300. scenario
  in
  let reno = run Reno.Reno_recovery in
  let newreno = run Reno.Newreno_recovery in
  let sack = run Reno.Sack_recovery in
  Alcotest.(check bool) "newreno >= reno rate" true
    (newreno.Connection.send_rate >= 0.95 *. reno.Connection.send_rate);
  Alcotest.(check bool) "sack > reno rate" true
    (sack.Connection.send_rate > reno.Connection.send_rate);
  Alcotest.(check bool) "sack fewer timeouts than reno" true
    (sack.Connection.timeouts < reno.Connection.timeouts)

let test_sack_receiver_blocks () =
  (* The SACK receiver reports the held runs. *)
  let sim = Sim.create () in
  let acks = ref [] in
  let receiver =
    Receiver.create ~sack:true ~sim ~send_ack:(fun a -> acks := a :: !acks) ()
  in
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 1);
  (* Holes at 2 and 5: runs (3,4) and (6,6). *)
  Receiver.on_data receiver (data 3);
  Receiver.on_data receiver (data 4);
  Receiver.on_data receiver (data 6);
  match !acks with
  | { Segment.ack = 2; sacked = [ (3, 4); (6, 6) ] } :: _ -> ()
  | { Segment.ack; sacked } :: _ ->
      Alcotest.failf "unexpected ack %d with %d blocks" ack (List.length sacked)
  | [] -> Alcotest.fail "no acks"

let test_sack_blocks_capped_at_three () =
  let sim = Sim.create () in
  let acks = ref [] in
  let receiver =
    Receiver.create ~sack:true ~sim ~send_ack:(fun a -> acks := a :: !acks) ()
  in
  (* Four separate runs above the cumulative point. *)
  List.iter (fun seq -> Receiver.on_data receiver (data seq)) [ 2; 4; 6; 8 ];
  match !acks with
  | { Segment.sacked; _ } :: _ ->
      Alcotest.(check int) "at most three blocks" 3 (List.length sacked)
  | [] -> Alcotest.fail "no acks"

(* --- Round_sim --------------------------------------------------------------------- *)

let base_config =
  {
    Round_sim.default_config with
    Round_sim.rtt_jitter = 0.;
    wm = 1000;
  }

let test_round_sim_lossless_growth () =
  (* Without loss the window grows 1/b per round up to Wm. *)
  let config = { base_config with Round_sim.wm = 20; initial_window = 1. } in
  let samples = Round_sim.window_samples ~rounds:100 ~loss:Loss.none config in
  check_float "starts at 1" 1. samples.(0);
  check_float "grows 1/2 per round" 1.5 samples.(1);
  check_float "caps at Wm" 20. samples.(99)

let test_round_sim_counts_consistent () =
  let rng = Pftk_stats.Rng.create ~seed:5L () in
  let loss = Loss.round_correlated rng ~p:0.03 in
  let r = Round_sim.run ~duration:2000. ~loss base_config in
  Alcotest.(check bool) "sent >= delivered" true
    (r.Round_sim.packets_sent >= r.Round_sim.packets_delivered);
  Alcotest.(check int) "indication arithmetic"
    r.Round_sim.loss_indications
    (r.Round_sim.td_events + r.Round_sim.to_sequences);
  Alcotest.(check int) "backoff buckets sum to TO sequences"
    r.Round_sim.to_sequences
    (Array.fold_left ( + ) 0 r.Round_sim.to_by_backoff);
  Alcotest.(check bool) "duration covers request" true
    (r.Round_sim.duration >= 2000.)

let test_round_sim_matches_model () =
  (* The Monte-Carlo of the model process lands near eq. (32). *)
  let params = Params.make ~rtt:0.2 ~t0:2. ~wm:64 () in
  List.iter
    (fun p ->
      let rng = Pftk_stats.Rng.create ~seed:6L () in
      let loss = Loss.round_correlated rng ~p in
      let r =
        Round_sim.run ~duration:30_000. ~loss (Round_sim.config_of_params params)
      in
      close ~rel:0.3
        (Printf.sprintf "sim vs model at p=%g" p)
        (Full_model.send_rate params p)
        r.Round_sim.send_rate)
    [ 0.005; 0.02; 0.1 ]

let test_round_sim_throughput_below_send () =
  let rng = Pftk_stats.Rng.create ~seed:7L () in
  let loss = Loss.round_correlated rng ~p:0.05 in
  let r = Round_sim.run ~duration:5000. ~loss base_config in
  Alcotest.(check bool) "throughput <= send rate" true
    (r.Round_sim.throughput <= r.Round_sim.send_rate)

let test_round_sim_wm_respected () =
  let config = { base_config with Round_sim.wm = 7 } in
  let rng = Pftk_stats.Rng.create ~seed:8L () in
  let loss = Loss.round_correlated rng ~p:0.01 in
  let samples = Round_sim.window_samples ~rounds:500 ~loss config in
  Array.iter
    (fun w -> Alcotest.(check bool) "window <= Wm" true (w <= 7.))
    samples

let test_round_sim_deep_backoff () =
  (* Episodic loss with long blackouts must produce multi-timeout
     sequences. *)
  let rng = Pftk_stats.Rng.create ~seed:9L () in
  let loss = Loss.episodic rng ~p:0.02 ~burst_prob:0.8 ~mean_burst_rounds:3. in
  let r = Round_sim.run ~duration:20_000. ~loss base_config in
  let deep = Array.fold_left ( + ) 0 (Array.sub r.Round_sim.to_by_backoff 1 5) in
  Alcotest.(check bool) "multi-timeout sequences exist" true (deep > 0)

let test_round_sim_dup_threshold_shifts_mixture () =
  (* A lower dup-ACK threshold converts marginal TOs into TDs. *)
  let run threshold =
    let rng = Pftk_stats.Rng.create ~seed:10L () in
    let loss = Loss.round_correlated rng ~p:0.05 in
    let config = { base_config with Round_sim.dup_ack_threshold = threshold } in
    let r = Round_sim.run ~duration:10_000. ~loss config in
    float_of_int r.Round_sim.td_events
    /. float_of_int (max 1 r.Round_sim.loss_indications)
  in
  Alcotest.(check bool) "threshold 2 has more TDs" true (run 2 > run 3)

let test_round_sim_observed_p_below_nominal () =
  (* Loss indications aggregate bursts, so the indication frequency sits
     below the per-packet event rate. *)
  let rng = Pftk_stats.Rng.create ~seed:11L () in
  let loss = Loss.round_correlated rng ~p:0.08 in
  let r = Round_sim.run ~duration:10_000. ~loss base_config in
  Alcotest.(check bool) "observed p <= nominal" true
    (r.Round_sim.observed_p <= 0.08 +. 0.01)

let test_round_sim_deterministic () =
  let run () =
    let rng = Pftk_stats.Rng.create ~seed:12L () in
    let loss = Loss.round_correlated rng ~p:0.03 in
    (Round_sim.run ~seed:12L ~duration:1000. ~loss base_config).Round_sim.packets_sent
  in
  Alcotest.(check int) "reproducible" (run ()) (run ())

let test_round_sim_recorder_events () =
  let rng = Pftk_stats.Rng.create ~seed:13L () in
  let loss = Loss.round_correlated rng ~p:0.05 in
  let recorder = Pftk_trace.Recorder.create () in
  let r = Round_sim.run ~recorder ~duration:500. ~loss base_config in
  Alcotest.(check int) "every send recorded" r.Round_sim.packets_sent
    (Pftk_trace.Recorder.packets_sent recorder)

(* Every packet draws from the loss process, so an unrecorded run must not
   allocate per packet: a boxed draw and an event built for no recorder
   cost ~38 words per packet. *)
let test_round_sim_unrecorded_allocation () =
  let rng = Pftk_stats.Rng.create ~seed:14L () in
  let loss = Loss.round_correlated rng ~p:0.02 in
  let before = Gc.minor_words () in
  let r = Round_sim.run ~duration:3600. ~loss Round_sim.default_config in
  let words = Gc.minor_words () -. before in
  let packets = r.Round_sim.packets_sent in
  if not (words /. float_of_int packets < 4.) then
    Alcotest.failf "%.0f minor words for %d packets (%.2f per packet)" words
      packets
      (words /. float_of_int packets)

let test_config_of_params () =
  let params = Params.make ~b:1 ~rtt:0.3 ~t0:1.5 ~wm:9 () in
  let config = Round_sim.config_of_params params in
  Alcotest.(check int) "b" 1 config.Round_sim.b;
  Alcotest.(check int) "wm" 9 config.Round_sim.wm;
  check_float "t0" 1.5 config.Round_sim.t0;
  check_float "rtt" 0.3 config.Round_sim.rtt_mean

let test_round_sim_validation () =
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Round_sim.run: duration must be positive") (fun () ->
      ignore (Round_sim.run ~duration:0. ~loss:Loss.none base_config));
  Alcotest.check_raises "infinite duration"
    (Invalid_argument "Round_sim.run: duration must be finite") (fun () ->
      ignore (Round_sim.run ~duration:Float.infinity ~loss:Loss.none base_config))

let () =
  Alcotest.run "pftk_tcp"
    [
      ( "rto",
        [
          case "initial" test_rto_initial;
          case "first sample" test_rto_first_sample;
          case "ewma" test_rto_ewma;
          case "clamps" test_rto_clamps;
          case "converges" test_rto_converges;
          case "validation" test_rto_validation;
        ] );
      ( "receiver",
        [
          case "delayed ack" test_receiver_delayed_ack;
          case "delayed ack timer" test_receiver_delayed_ack_timer;
          case "out-of-order dup acks" test_receiver_out_of_order_dup_acks;
          case "hole fill" test_receiver_hole_fill;
          case "duplicate data" test_receiver_duplicate_data;
          case "counters" test_receiver_counters;
          case "ack_every 1" test_receiver_ack_every_1;
        ] );
      ( "connection",
        [
          case "lossless window-limited" test_connection_lossless_window_limited;
          case "lossless delivery" test_connection_delivers_everything_lossless;
          case "fast retransmit" test_connection_fast_retransmit_on_random_loss;
          slow_case "timeouts under heavy loss" test_connection_timeouts_under_heavy_loss;
          case "queue loss only" test_connection_queue_loss_only;
          slow_case "model agreement" test_connection_model_agreement;
          case "rtt samples" test_connection_rtt_samples_positive;
          case "deterministic" test_connection_deterministic;
          slow_case "dup-ack threshold 2" test_connection_dup_ack_threshold_2;
          case "validation" test_connection_validation;
          case "validate run allocates little" test_connection_allocation;
          case "32-flow bottleneck allocates little" test_bottleneck_allocation;
        ] );
      ( "netsim-golden",
        [
          case "connection scenarios" test_golden_connections;
          case "shared-bottleneck scenarios" test_golden_bottlenecks;
        ] );
      ( "reno-microscope",
        [
          case "exact fast retransmit" test_exact_fast_retransmit;
          case "dup-ack count" test_dup_ack_count_before_retransmit;
          case "cwnd halves" test_cwnd_halves_after_fast_retransmit;
          case "timeout when window tiny" test_timeout_when_window_too_small;
          slow_case "exponential backoff timing" test_exponential_backoff_timing;
          case "receiver window clamps flight" test_receiver_window_clamps_flight;
          case "delayed-ack ratio" test_delayed_ack_ratio;
        ] );
      ( "recovery-styles",
        [
          case "reno times out on multi-loss" test_reno_multi_loss_times_out;
          case "newreno recovers without timeout" test_newreno_multi_loss_no_timeout;
          case "sack recovers without timeout" test_sack_multi_loss_no_timeout;
          slow_case "style ordering under random loss" test_recovery_style_ordering;
          case "sack receiver blocks" test_sack_receiver_blocks;
          case "sack blocks capped" test_sack_blocks_capped_at_three;
        ] );
      ( "round-sim",
        [
          case "lossless growth" test_round_sim_lossless_growth;
          case "count consistency" test_round_sim_counts_consistent;
          slow_case "matches model" test_round_sim_matches_model;
          case "throughput <= send" test_round_sim_throughput_below_send;
          case "Wm respected" test_round_sim_wm_respected;
          case "deep backoff" test_round_sim_deep_backoff;
          case "dup threshold mixture" test_round_sim_dup_threshold_shifts_mixture;
          case "observed p below nominal" test_round_sim_observed_p_below_nominal;
          case "deterministic" test_round_sim_deterministic;
          case "recorder events" test_round_sim_recorder_events;
          case "unrecorded run allocates little" test_round_sim_unrecorded_allocation;
          case "config_of_params" test_config_of_params;
          case "validation" test_round_sim_validation;
        ] );
    ]
