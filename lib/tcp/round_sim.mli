(** A Monte-Carlo simulator of the paper's {e model process} itself, at
    round granularity (§II).

    Where {!module:Reno} is a faithful packet-level protocol implementation,
    this simulator executes exactly the stochastic process the analysis
    assumes: transmission proceeds in rounds of W packets lasting one RTT;
    the window grows [1/b] per round; losses within a round are correlated
    (everything after the first loss is lost) and rounds are independent;
    a loss indication is classified TD or TO by the penultimate/last-round
    duplicate-ACK count of Fig. 4; timeout sequences back off exponentially
    with the timer capped at [2^backoff_cap * T0]; after a TD the window
    halves, after a TO it restarts from one.

    Agreement between this simulator and eq. (32) validates the algebra of
    the derivation; agreement between {!module:Reno} and eq. (32) validates
    the modeling assumptions.  Both are exercised in the test suite and
    benches.

    It is also hour-long-trace fast: cost is O(packets), no event queue. *)

type flavor =
  | Model_reno
      (** Exactly the paper's model process: linear window growth
          everywhere, no slow start (the paper assumes slow-start time is
          negligible). *)
  | Reno_slow_start
      (** Reno with slow start after timeouts (window doubles by factor
          [1 + 1/b] per round below ssthresh). *)
  | Tahoe
      (** No fast recovery: a TD indication also drops the window to one
          and slow-starts back to half the old window — the SunOS-style
          behavior Paxson observed (paper §IV). *)

type config = {
  flavor : flavor;  (** Default [Model_reno]. *)
  b : int;  (** Delayed-ACK factor (window growth 1/b per round). *)
  wm : int;  (** Receiver-limited maximum window, packets. *)
  t0 : float; [@pftk.unit "s"]  (** Single-timeout duration, seconds. *)
  rtt_mean : float; [@pftk.unit "s"]  (** Mean round duration, seconds. *)
  rtt_jitter : float; [@pftk.unit "1"]
      (** Std-dev of round durations as a fraction of the mean (rounds stay
          i.i.d., per the model's assumption); 0 for deterministic. *)
  aimd_increase : float; [@pftk.unit "1"]
      (** Additive-increase constant alpha: the window grows
          [alpha / b] per loss-free round.  1 is TCP. *)
  aimd_decrease : float; [@pftk.unit "1"]
      (** Multiplicative-decrease constant beta: a TD scales the window by
          [1 - beta].  0.5 is TCP. *)
  dup_ack_threshold : int;  (** Duplicate ACKs needed for a TD (3; Linux 2). *)
  backoff_cap : int;  (** Timer frozen at [2^backoff_cap * T0] (6; Irix 5). *)
  initial_window : float; [@pftk.unit "pkt"]
}

val default_config : config
(** b 2, wm 32, T0 2 s, RTT 0.2 s, jitter 0.1, threshold 3, cap 6. *)

val config_of_params : ?rtt_jitter:float -> Pftk_core.Params.t -> config
[@@pftk.unit "1 -> _ -> _"]
(** Lift model parameters into a simulator config (identity on
    [b]/[wm]/[t0]/[rtt]). *)

type result = {
  duration : float; [@pftk.unit "s"]  (** Simulated seconds actually elapsed. *)
  rounds : int;
  packets_sent : int;
  packets_delivered : int;
  td_events : int;
  to_sequences : int;
  to_by_backoff : int array;
      (** [to_by_backoff.(k-1)] = sequences of exactly [k] timeouts, for
          [k <= 5]; index 5 collects "6 or more" — Table II's T0..T5+
          columns. *)
  send_rate : float; [@pftk.unit "pkt/s"]  (** packets/s, the model's B. *)
  throughput : float; [@pftk.unit "pkt/s"]
  (** packets/s delivered, the model's T. *)
  loss_indications : int;  (** TD events + TO sequences. *)
  observed_p : float; [@pftk.unit "prob"]
  (** loss indications / packets sent (§III's estimate). *)
}

val run :
  ?seed:int64 ->
  ?recorder:Pftk_trace.Recorder.t ->
  duration:float ->
  loss:Pftk_loss.Loss_process.t ->
  config ->
  result
[@@pftk.unit "_ -> _ -> s -> _ -> _ -> _"]
(** Simulate until the virtual clock passes [duration].  When [recorder]
    is given, per-packet [Segment_sent], per-round [Round_started], and
    ground-truth [Fast_retransmit_triggered]/[Timer_fired] events are
    recorded for the trace-analysis pipeline.  Raises [Invalid_argument]
    unless [duration] is positive and finite. *)

val window_samples :
  ?seed:int64 -> rounds:int -> loss:Pftk_loss.Loss_process.t -> config -> float array
[@@pftk.unit "_ -> _ -> _ -> _ -> pkt"]
(** The window size at the start of each of [rounds] consecutive rounds —
    the sample paths plotted in Figs. 1, 3 and 5. *)
