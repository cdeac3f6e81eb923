module Loss_process = Pftk_loss.Loss_process
module Recorder = Pftk_trace.Recorder
module Event = Pftk_trace.Event
module Rng = Pftk_stats.Rng

type flavor = Model_reno | Reno_slow_start | Tahoe

type config = {
  flavor : flavor;
  b : int;
  wm : int;
  t0 : float;
  rtt_mean : float;
  rtt_jitter : float;
  aimd_increase : float;
  aimd_decrease : float;
  dup_ack_threshold : int;
  backoff_cap : int;
  initial_window : float;
}

let default_config =
  {
    flavor = Model_reno;
    b = 2;
    wm = 32;
    t0 = 2.;
    rtt_mean = 0.2;
    rtt_jitter = 0.1;
    aimd_increase = 1.;
    aimd_decrease = 0.5;
    dup_ack_threshold = 3;
    backoff_cap = 6;
    initial_window = 1.;
  }

let config_of_params ?(rtt_jitter = 0.1) (params : Pftk_core.Params.t) =
  {
    default_config with
    b = params.b;
    wm = min params.wm 1_000_000;
    t0 = params.t0;
    rtt_mean = params.rtt;
    rtt_jitter;
  }

let validate config =
  if config.b < 1 then invalid_arg "Round_sim: b must be >= 1";
  if config.wm < 1 then invalid_arg "Round_sim: wm must be >= 1";
  if not (config.t0 > 0. && config.rtt_mean > 0.) then
    invalid_arg "Round_sim: t0 and rtt_mean must be positive";
  if config.rtt_jitter < 0. then invalid_arg "Round_sim: negative rtt_jitter";
  if not (config.aimd_increase > 0.) then
    invalid_arg "Round_sim: aimd_increase must be positive";
  if not (0. < config.aimd_decrease && config.aimd_decrease < 1.) then
    invalid_arg "Round_sim: aimd_decrease outside (0, 1)";
  if config.dup_ack_threshold < 1 then
    invalid_arg "Round_sim: dup_ack_threshold must be >= 1";
  if config.backoff_cap < 0 then invalid_arg "Round_sim: backoff_cap must be >= 0";
  if not (config.initial_window >= 1.) then
    invalid_arg "Round_sim: initial_window must be >= 1"

type result = {
  duration : float;
  rounds : int;
  packets_sent : int;
  packets_delivered : int;
  td_events : int;
  to_sequences : int;
  to_by_backoff : int array;
  send_rate : float;
  throughput : float;
  loss_indications : int;
  observed_p : float;
}

type state = {
  config : config;
  rng : Rng.t;
  loss : Loss_process.t;
  recorder : Recorder.t option;
  mutable time : float;
  mutable window : float;
  mutable ssthresh : float;
  mutable next_seq : int;
  mutable rounds : int;
  mutable sent : int;
  mutable delivered : int;
  mutable td_events : int;
  mutable to_sequences : int;
  to_by_backoff : int array;
}

(* Every call site tests [recording] first, so an unrecorded run builds
   no event value. *)
let recording state = Option.is_some state.recorder

let record state kind =
  match state.recorder with
  | Some recorder -> Recorder.record recorder ~time:state.time kind
  | None -> ()

let rtt_sample state =
  let c = state.config in
  if c.rtt_jitter = 0. then c.rtt_mean
  else
    let r = Rng.normal state.rng ~mean:c.rtt_mean ~std:(c.rtt_jitter *. c.rtt_mean) in
    Float.max (c.rtt_mean /. 10.) r

(* Advance the clock by one round and log its duration as an RTT sample
   (every round's duration is a Karn-valid sample in the model: nothing in
   a loss-free flight is retransmitted). *)
let advance_round state =
  let r = rtt_sample state in
  state.time <- state.time +. r;
  if recording state then
    record state (Event.Rtt_sample { sample = r; srtt = r; rto = state.config.t0 })

(* Send [n] packets through the loss process; returns how many were
   delivered before the first loss ([n] when the round is loss-free). *)
let send_round state ~retransmission n =
  Loss_process.new_round state.loss;
  let first_loss = ref n in
  for i = 0 to n - 1 do
    let seq = state.next_seq in
    state.next_seq <- state.next_seq + 1;
    state.sent <- state.sent + 1;
    if recording state then
      record state
        (Event.Segment_sent
           { seq; retransmission; cwnd = state.window; flight = n });
    if Loss_process.drops state.loss && !first_loss = n then first_loss := i
  done;
  !first_loss

let effective_window state =
  max 1 (min state.config.wm (int_of_float (Float.round state.window)))

(* Loss-free round: slow start (geometric, below ssthresh, for the
   slow-starting flavors) or congestion avoidance (+1/b per round). *)
let grow_window state =
  let cap = float_of_int state.config.wm in
  let in_slow_start =
    state.config.flavor <> Model_reno && state.window < state.ssthresh
  in
  let next =
    if in_slow_start then
      Float.min state.ssthresh
        (state.window *. (1. +. (1. /. float_of_int state.config.b)))
    else
      state.window
      +. (state.config.aimd_increase /. float_of_int state.config.b)
  in
  state.window <- Float.min cap next

(* Window reaction to a TD indication, by flavor. *)
let on_td state =
  let reduced =
    Float.max 1. (state.window *. (1. -. state.config.aimd_decrease))
  in
  state.ssthresh <- Float.max 2. reduced;
  match state.config.flavor with
  | Model_reno | Reno_slow_start -> state.window <- reduced
  | Tahoe -> state.window <- 1.

(* A timeout sequence: the timer fires, one retransmission goes out; while
   retransmissions keep getting lost the timer doubles (capped).  Returns
   the number of timeouts. *)
let timeout_sequence state =
  let c = state.config in
  let rec attempt n =
    let timer = c.t0 *. float_of_int (1 lsl min (n - 1) c.backoff_cap) in
    state.time <- state.time +. timer;
    if recording state then
      record state (Event.Timer_fired { backoff = n; rto = timer });
    Loss_process.new_round state.loss;
    state.sent <- state.sent + 1;
    if recording state then
      record state
        (Event.Segment_sent
           { seq = state.next_seq; retransmission = true; cwnd = 1.; flight = 1 });
    state.next_seq <- state.next_seq + 1;
    if Loss_process.drops state.loss then attempt (n + 1)
    else begin
      state.delivered <- state.delivered + 1;
      n
    end
  in
  let n = attempt 1 in
  state.to_sequences <- state.to_sequences + 1;
  let bucket = min (n - 1) (Array.length state.to_by_backoff - 1) in
  state.to_by_backoff.(bucket) <- state.to_by_backoff.(bucket) + 1;
  (* Z^TD resumes immediately after the successful retransmission: the next
     TDP starts at window one (the model charges no extra round here). *)
  state.ssthresh <- Float.max 2. (state.window /. 2.);
  state.window <- 1.;
  n

let run ?(seed = 7L) ?recorder ~duration ~loss config =
  validate config;
  if not (duration > 0.) then invalid_arg "Round_sim.run: duration must be positive";
  if not (Float.is_finite duration) then
    invalid_arg "Round_sim.run: duration must be finite";
  let state =
    {
      config;
      rng = Rng.create ~seed ();
      loss;
      recorder;
      time = 0.;
      window = config.initial_window;
      ssthresh = infinity;
      next_seq = 0;
      rounds = 0;
      sent = 0;
      delivered = 0;
      td_events = 0;
      to_sequences = 0;
      to_by_backoff = Array.make 6 0;
    }
  in
  while state.time < duration do
    state.rounds <- state.rounds + 1;
    if recording state then
      record state
        (Event.Round_started { index = state.rounds; window = state.window });
    let w = effective_window state in
    let k = send_round state ~retransmission:false w in
    state.delivered <- state.delivered + k;
    advance_round state;
    if k = w then grow_window state
    else begin
      (* Loss round ("penultimate", Fig. 4): the k ACKed packets trigger a
         final round of k packets; the duplicate-ACK count is how many of
         those survive. *)
      let m =
        if k = 0 then 0
        else begin
          state.rounds <- state.rounds + 1;
          let m = send_round state ~retransmission:false k in
          state.delivered <- state.delivered + m;
          advance_round state;
          m
        end
      in
      if m >= config.dup_ack_threshold then begin
        state.td_events <- state.td_events + 1;
        if recording state then
          record state (Event.Fast_retransmit_triggered { seq = state.next_seq });
        on_td state
      end
      else ignore (timeout_sequence state)
    end
  done;
  let loss_indications = state.td_events + state.to_sequences in
  {
    duration = state.time;
    rounds = state.rounds;
    packets_sent = state.sent;
    packets_delivered = state.delivered;
    td_events = state.td_events;
    to_sequences = state.to_sequences;
    to_by_backoff = state.to_by_backoff;
    send_rate = float_of_int state.sent /. state.time;
    throughput = float_of_int state.delivered /. state.time;
    loss_indications;
    observed_p =
      (if state.sent = 0 then 0.
       else float_of_int loss_indications /. float_of_int state.sent);
  }

let window_samples ?(seed = 7L) ~rounds ~loss config =
  validate config;
  if rounds < 1 then invalid_arg "Round_sim.window_samples: rounds must be >= 1";
  let state =
    {
      config;
      rng = Rng.create ~seed ();
      loss;
      recorder = None;
      time = 0.;
      window = config.initial_window;
      ssthresh = infinity;
      next_seq = 0;
      rounds = 0;
      sent = 0;
      delivered = 0;
      td_events = 0;
      to_sequences = 0;
      to_by_backoff = Array.make 6 0;
    }
  in
  let samples = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    samples.(i) <- state.window;
    let w = effective_window state in
    let k = send_round state ~retransmission:false w in
    if k = w then grow_window state
    else begin
      let m = if k = 0 then 0 else send_round state ~retransmission:false k in
      if m >= config.dup_ack_threshold then on_td state
      else ignore (timeout_sequence state)
    end
  done;
  samples
