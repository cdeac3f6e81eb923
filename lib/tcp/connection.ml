module Sim = Pftk_netsim.Sim
module Link = Pftk_netsim.Link
module Path = Pftk_netsim.Path
module Queue_discipline = Pftk_netsim.Queue_discipline
module Loss_process = Pftk_loss.Loss_process
module Recorder = Pftk_trace.Recorder

type scenario = {
  forward_bandwidth : float;
  reverse_bandwidth : float;
  forward_delay : float;
  reverse_delay : float;
  buffer : Queue_discipline.t;
  data_loss : Loss_process.t option;
  ack_loss : Loss_process.t option;
  sender : Reno.config;
  ack_every : int;
}

let default_scenario =
  {
    forward_bandwidth = 187_500.;
    reverse_bandwidth = 187_500.;
    forward_delay = 0.05;
    reverse_delay = 0.05;
    buffer = Queue_discipline.drop_tail ~capacity:32;
    data_loss = None;
    ack_loss = None;
    sender = Reno.default_config;
    ack_every = 2;
  }

type result = {
  recorder : Recorder.t;
  duration : float;
  packets_sent : int;
  segments_delivered : int;
  retransmissions : int;
  timeouts : int;
  fast_retransmits : int;
  send_rate : float;
  throughput : float;
  rtt_flight_samples : (float * int) array;
  forward_stats : Link.stats;
}

let loss_hook = Option.map (fun process () -> Loss_process.drops process)

let run ?(seed = 42L) ?recorder ~duration scenario =
  if not (duration > 0.) then invalid_arg "Connection.run: duration must be positive";
  if not (Float.is_finite duration) then
    invalid_arg "Connection.run: duration must be finite";
  let sim = Sim.create () in
  let rng = Pftk_stats.Rng.create ~seed () in
  let recorder =
    match recorder with Some r -> r | None -> Recorder.create ()
  in
  (* The endpoints and the path are mutually referential; tie the knot with
     forward references resolved before the simulation starts. *)
  let sender_ref = ref None and receiver_ref = ref None in
  let path =
    Path.create
      ~forward_discipline:scenario.buffer
      ?forward_loss:(loss_hook scenario.data_loss)
      ?reverse_loss:(loss_hook scenario.ack_loss)
      ~sim ~rng
      ~forward_bandwidth:scenario.forward_bandwidth
      ~reverse_bandwidth:scenario.reverse_bandwidth
      ~forward_delay:scenario.forward_delay
      ~reverse_delay:scenario.reverse_delay
      ~deliver_data:(fun segment ->
        match !receiver_ref with
        | Some receiver -> Receiver.on_data receiver segment
        | None -> assert false)
      ~deliver_ack:(fun ack ->
        match !sender_ref with
        | Some sender -> Reno.on_ack sender ack
        | None -> assert false)
      ()
  in
  let receiver =
    Receiver.create ~ack_every:scenario.ack_every
      ~sack:(scenario.sender.Reno.recovery = Reno.Sack_recovery)
      ~sim
      ~send_ack:(fun ack -> ignore (Link.send path.Path.reverse ~size:40 ack))
      ()
  in
  receiver_ref := Some receiver;
  let sender =
    Reno.create ~config:scenario.sender ~sim ~recorder
      ~transmit:(fun segment ->
        ignore (Link.send path.Path.forward ~size:segment.Segment.size segment))
      ()
  in
  sender_ref := Some sender;
  Reno.start sender;
  Sim.run ~until:duration sim;
  Reno.stop sender;
  {
    recorder;
    duration;
    packets_sent = Reno.packets_sent sender;
    segments_delivered = Receiver.segments_received receiver;
    retransmissions = Reno.retransmissions sender;
    timeouts = Reno.timeout_count sender;
    fast_retransmits = Reno.fast_retransmit_count sender;
    send_rate = float_of_int (Reno.packets_sent sender) /. duration;
    throughput = float_of_int (Receiver.segments_received receiver) /. duration;
    rtt_flight_samples = Reno.rtt_flight_samples sender;
    forward_stats = Link.stats path.Path.forward;
  }

let rtt_window_correlation result =
  let samples = result.rtt_flight_samples in
  if Array.length samples < 2 then 0.
  else
    let rtts = Array.map fst samples in
    let flights = Array.map (fun (_, f) -> float_of_int f) samples in
    if Pftk_stats.Descriptive.std rtts = 0. || Pftk_stats.Descriptive.std flights = 0.
    then 0.
    else Pftk_stats.Correlation.pearson rtts flights
