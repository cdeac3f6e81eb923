module Sim = Pftk_netsim.Sim
module Recorder = Pftk_trace.Recorder
module Event = Pftk_trace.Event

type recovery_style = Reno_recovery | Newreno_recovery | Sack_recovery

type config = {
  mss : int;
  header : int;
  wm : int;
  initial_cwnd : float;
  initial_ssthresh : float;
  dup_ack_threshold : int;
  backoff_cap : int;
  min_rto : float;
  max_rto : float;
  recovery : recovery_style;
}

let default_config =
  {
    mss = 1460;
    header = 40;
    wm = 32;
    initial_cwnd = 1.;
    initial_ssthresh = 64.;
    dup_ack_threshold = 3;
    backoff_cap = 6;
    min_rto = 0.2;
    max_rto = 240.;
    recovery = Reno_recovery;
  }

let validate_config c =
  if c.mss <= 0 || c.header < 0 then invalid_arg "Reno: bad segment sizes";
  if c.wm < 1 then invalid_arg "Reno: wm must be >= 1";
  if not (c.initial_cwnd >= 1.) then invalid_arg "Reno: initial_cwnd must be >= 1";
  if c.dup_ack_threshold < 1 then invalid_arg "Reno: dup_ack_threshold must be >= 1";
  if c.backoff_cap < 0 then invalid_arg "Reno: backoff_cap must be >= 0";
  if not (0. < c.min_rto && c.min_rto <= c.max_rto) then
    invalid_arg "Reno: inconsistent RTO bounds"

type t = {
  config : config;
  sim : Sim.t;
  recorder : Recorder.t;
  transmit : Segment.data -> unit;
  rto : Rto.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable dup_acks : int;
  mutable in_fast_recovery : bool;
  mutable recover : int;  (* highest seq outstanding at fast-recovery entry *)
  sacked : (int, unit) Hashtbl.t;  (* SACKed above snd_una *)
  fr_rexmitted : (int, unit) Hashtbl.t;  (* holes already resent this recovery *)
  mutable backoff : int;  (* consecutive unacked timeouts *)
  mutable pipe : int;  (* segments believed to be in the network *)
  mutable rexmit_next : int;  (* go-back-N cursor, meaningful below recovery_point *)
  mutable recovery_point : int;
  timer : Sim.timer;  (* the retransmission timer *)
  on_timer : unit -> unit;
  mutable timing : (int * float * int) option;
      (* (seq, sent_at, flight_then): the one segment currently being timed
         for an RTT sample, BSD-style. *)
  mutable stopped : bool;
  mutable packets_sent : int;
  mutable retransmissions : int;
  mutable timeout_count : int;
  mutable fast_retransmit_count : int;
  mutable rtt_flight : (float * int) list;
}

let flight t = t.snd_nxt - t.snd_una

let effective_window t =
  min (max 1 (int_of_float t.cwnd)) t.config.wm

let timer_value t =
  let multiplier = float_of_int (1 lsl min t.backoff t.config.backoff_cap) in
  Float.min t.config.max_rto (Rto.rto t.rto *. multiplier)

let record t kind = Recorder.record t.recorder ~time:(Sim.now t.sim) kind

let send_segment t ~seq ~retransmission =
  let wire = t.config.mss + t.config.header in
  t.packets_sent <- t.packets_sent + 1;
  t.pipe <- t.pipe + 1;
  if retransmission then begin
    t.retransmissions <- t.retransmissions + 1;
    (* Karn: a retransmission invalidates any in-progress timing of that
       segment. *)
    match t.timing with
    | Some (timed, _, _) when timed = seq -> t.timing <- None
    | Some _ | None -> ()
  end
  else if t.timing = None then t.timing <- Some (seq, Sim.now t.sim, flight t);
  record t
    (Event.Segment_sent
       { seq; retransmission; cwnd = t.cwnd; flight = flight t });
  t.transmit { Segment.seq; size = wire; retransmission }

let arm_timer t =
  if t.stopped then Sim.disarm t.timer
  else Sim.arm t.timer ~delay:(timer_value t) t.on_timer

let on_timeout t =
  if not t.stopped then begin
    let expired = timer_value t in
    t.backoff <- t.backoff + 1;
    t.timeout_count <- t.timeout_count + 1;
    record t (Event.Timer_fired { backoff = t.backoff; rto = expired });
    t.ssthresh <- Float.max 2. (float_of_int (flight t) /. 2.);
    t.cwnd <- 1.;
    t.dup_acks <- 0;
    t.in_fast_recovery <- false;
    (* Go-back-N: everything outstanding is presumed lost; resend it
       progressively as the window reopens, pruning on cumulative ACKs. *)
    t.recovery_point <- t.snd_nxt;
    t.rexmit_next <- t.snd_una;
    t.pipe <- 0;
    (* Whatever was being timed is now meaningless: its ACK, if it ever
       comes, will have waited out the recovery. *)
    t.timing <- None;
    Hashtbl.reset t.sacked;
    Hashtbl.reset t.fr_rexmitted;
    send_segment t ~seq:t.snd_una ~retransmission:true;
    t.rexmit_next <- t.snd_una + 1;
    arm_timer t
  end

let create ?(config = default_config) ~sim ~recorder ~transmit () =
  validate_config config;
  let rec t =
    {
      config;
      sim;
      recorder;
      transmit;
      rto = Rto.create ~min_rto:config.min_rto ~max_rto:config.max_rto ();
      snd_una = 0;
      snd_nxt = 0;
      cwnd = config.initial_cwnd;
      ssthresh = config.initial_ssthresh;
      dup_acks = 0;
      in_fast_recovery = false;
      recover = -1;
      sacked = Hashtbl.create 64;
      fr_rexmitted = Hashtbl.create 64;
      backoff = 0;
      pipe = 0;
      rexmit_next = 0;
      recovery_point = 0;
      timer = Sim.timer sim;
      on_timer = (fun () -> on_timeout t);
      timing = None;
      stopped = false;
      packets_sent = 0;
      retransmissions = 0;
      timeout_count = 0;
      fast_retransmit_count = 0;
      rtt_flight = [];
    }
  in
  t

(* How many segments the window permits right now: the congestion window
   minus the pipe estimate (segments believed still in the network -- the
   cumulative-ACK analog of RFC 3517's pipe).  During go-back-N recovery
   the sendable segments are retransmissions below [recovery_point]. *)
let fill_window t =
  if not t.stopped then begin
    let budget = ref (effective_window t - t.pipe) in
    (* SACK hole-filling pass: during fast recovery, resend un-SACKed
       segments below [recover] exactly once per recovery (RFC 6675's
       scoreboard, cumulative-ACK flavored).  A hole only counts as lost
       once at least [dup_ack_threshold] segments above it have been
       SACKed (the IsLost rule), so in-flight data is not resent
       spuriously. *)
    if t.in_fast_recovery && t.config.recovery = Sack_recovery then begin
      let total_sacked = Hashtbl.length t.sacked in
      let sacked_at_or_below = ref 0 in
      let seq = ref t.snd_una in
      while !budget > 0 && !seq <= t.recover do
        let is_sacked = Hashtbl.mem t.sacked !seq in
        if is_sacked then incr sacked_at_or_below;
        let sacked_above = total_sacked - !sacked_at_or_below in
        if
          (not is_sacked)
          && sacked_above >= t.config.dup_ack_threshold
          && not (Hashtbl.mem t.fr_rexmitted !seq)
        then begin
          Hashtbl.replace t.fr_rexmitted !seq ();
          send_segment t ~seq:!seq ~retransmission:true;
          decr budget
        end;
        incr seq
      done
    end;
    (* Retransmission pass. *)
    while !budget > 0 && t.rexmit_next < t.recovery_point do
      let seq = max t.rexmit_next t.snd_una in
      if seq >= t.recovery_point then t.rexmit_next <- t.recovery_point
      else begin
        send_segment t ~seq ~retransmission:true;
        t.rexmit_next <- seq + 1;
        decr budget
      end
    done;
    (* New data pass. *)
    while !budget > 0 do
      send_segment t ~seq:t.snd_nxt ~retransmission:false;
      t.snd_nxt <- t.snd_nxt + 1;
      decr budget
    done;
    if flight t > 0 && not (Sim.armed t.timer) then arm_timer t
  end

let start t =
  if t.snd_nxt = 0 then fill_window t

let in_go_back_n t = t.rexmit_next < t.recovery_point

(* BSD-style single-segment timing with Karn's rule: exactly one segment is
   timed at a time; timing starts when the segment is first sent, is
   abandoned if that segment is retransmitted or any timeout intervenes,
   and yields a sample when the cumulative ACK first covers it.  Timing a
   single designated segment keeps recovery-delayed cumulative ACKs from
   inflating the estimator. *)
let take_rtt_sample t ~upto =
  match t.timing with
  | Some (seq, at, flight_then) when upto > seq ->
      t.timing <- None;
      let sample = Sim.now t.sim -. at in
      if sample > 0. then begin
        Rto.observe t.rto sample;
        t.rtt_flight <- (sample, flight_then) :: t.rtt_flight;
        record t
          (Event.Rtt_sample
             {
               sample;
               srtt = Option.value ~default:sample (Rto.srtt t.rto);
               rto = Rto.rto t.rto;
             })
      end
  | Some _ | None -> ()

let on_new_ack t ack =
  take_rtt_sample t ~upto:ack;
  (* Drop bookkeeping for acked segments.  Segments already SACKed were
     deducted from the pipe when their block arrived. *)
  let newly = ref 0 in
  for seq = t.snd_una to ack - 1 do
    if Hashtbl.mem t.sacked seq then Hashtbl.remove t.sacked seq
    else incr newly;
    Hashtbl.remove t.fr_rexmitted seq
  done;
  t.pipe <- max 0 (t.pipe - !newly);
  t.snd_una <- ack;
  if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
  (* Dropped copies never produce ACKs, so [pipe] would drift upward and
     throttle the window forever; anything beyond the unacked range is a
     duplicate whose fate no longer matters. *)
  t.pipe <- min t.pipe (flight t);
  t.backoff <- 0;
  if t.in_fast_recovery then begin
    let past_recovery = ack > t.recover in
    match t.config.recovery with
    | Reno_recovery ->
        (* Reno: leave fast recovery on the first ACK for new data. *)
        t.cwnd <- t.ssthresh;
        t.in_fast_recovery <- false
    | Newreno_recovery ->
        if past_recovery then begin
          t.cwnd <- t.ssthresh;
          t.in_fast_recovery <- false
        end
        else begin
          (* Partial ACK: the next hole is lost too -- resend it at once
             and stay in recovery (RFC 6582), deflating by the amount
             acked. *)
          t.cwnd <- Float.max t.ssthresh (t.cwnd -. float_of_int !newly +. 1.);
          if not (Hashtbl.mem t.fr_rexmitted t.snd_una) then begin
            Hashtbl.replace t.fr_rexmitted t.snd_una ();
            send_segment t ~seq:t.snd_una ~retransmission:true
          end;
          arm_timer t
        end
    | Sack_recovery ->
        if past_recovery then begin
          t.cwnd <- t.ssthresh;
          t.in_fast_recovery <- false;
          Hashtbl.reset t.fr_rexmitted
        end
        (* else: fill_window's hole pass keeps resending under the pipe. *)
  end
  else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1. (* slow start *)
  else t.cwnd <- t.cwnd +. (1. /. t.cwnd);
  (* congestion avoidance: +1/W per ACK, the paper's growth law *)
  t.cwnd <- Float.min t.cwnd (float_of_int t.config.wm);
  t.dup_acks <- 0;
  if flight t > 0 || in_go_back_n t then arm_timer t else Sim.disarm t.timer;
  fill_window t

let on_dup_ack t =
  if flight t > 0 && not (in_go_back_n t) then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.in_fast_recovery then begin
      (* Reno/NewReno inflate the window per dup ACK; SACK recovery is
         governed by the pipe instead (each SACK block already freed
         budget when it was processed). *)
      if t.config.recovery <> Sack_recovery then t.cwnd <- t.cwnd +. 1.;
      fill_window t
    end
    else if t.dup_acks = t.config.dup_ack_threshold then begin
      t.fast_retransmit_count <- t.fast_retransmit_count + 1;
      record t (Event.Fast_retransmit_triggered { seq = t.snd_una });
      t.ssthresh <- Float.max 2. (float_of_int (flight t) /. 2.);
      t.recover <- t.snd_nxt - 1;
      Hashtbl.reset t.fr_rexmitted;
      Hashtbl.replace t.fr_rexmitted t.snd_una ();
      send_segment t ~seq:t.snd_una ~retransmission:true;
      t.cwnd <-
        (if t.config.recovery = Sack_recovery then t.ssthresh
         else t.ssthresh +. float_of_int t.config.dup_ack_threshold);
      t.in_fast_recovery <- true;
      arm_timer t
    end
  end

(* Register newly SACKed segments; each one has left the network, so the
   pipe shrinks with it. *)
let process_sack_blocks t blocks =
  List.iter
    (fun (first, last) ->
      for seq = max first t.snd_una to last do
        if seq < t.snd_nxt && not (Hashtbl.mem t.sacked seq) then begin
          Hashtbl.replace t.sacked seq ();
          t.pipe <- max 0 (t.pipe - 1)
        end
      done)
    blocks

let on_ack t ({ Segment.ack; sacked } : Segment.ack) =
  if not t.stopped then begin
    record t (Event.Ack_received { ack });
    if t.config.recovery = Sack_recovery then process_sack_blocks t sacked;
    if ack > t.snd_una then on_new_ack t ack
    else if ack = t.snd_una then on_dup_ack t
    (* ack < snd_una: stale reordered ACK, ignore *)
  end

let stop t =
  t.stopped <- true;
  Sim.disarm t.timer;
  record t Event.Connection_closed

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let packets_sent t = t.packets_sent
let retransmissions t = t.retransmissions
let timeout_count t = t.timeout_count
let fast_retransmit_count t = t.fast_retransmit_count
let rtt_flight_samples t = Array.of_list (List.rev t.rtt_flight)
