(** End-to-end assembly: a Reno sender and a delayed-ACK receiver joined by
    a duplex {!Pftk_netsim.Path}, with optional random loss injected on
    either direction — one simulated measurement connection of §III.

    A scenario describes the path the way the paper's Table II rows
    characterize theirs; [run] executes a bulk transfer for a given
    duration and returns the sender's trace plus endpoint statistics. *)

type scenario = {
  forward_bandwidth : float; [@pftk.unit "byte/s"]
  (** bytes/s on the data direction. *)
  reverse_bandwidth : float; [@pftk.unit "byte/s"]
  forward_delay : float; [@pftk.unit "s"]
  (** one-way propagation, seconds. *)
  reverse_delay : float; [@pftk.unit "s"]
  buffer : Pftk_netsim.Queue_discipline.t;  (** Bottleneck buffer. *)
  data_loss : Pftk_loss.Loss_process.t option;
      (** Extra random loss on data packets (cross-traffic stand-in). *)
  ack_loss : Pftk_loss.Loss_process.t option;
  sender : Reno.config;
  ack_every : int;  (** Receiver's delayed-ACK factor (the model's b). *)
}

val default_scenario : scenario
(** A 1.5 Mbit/s bottleneck, 50 ms one-way delay, 32-packet drop-tail
    buffer, no injected loss, default Reno sender, delayed ACKs (b = 2). *)

type result = {
  recorder : Pftk_trace.Recorder.t;  (** The sender-side trace. *)
  duration : float; [@pftk.unit "s"]
  packets_sent : int;
  segments_delivered : int;  (** Receiver-side distinct in-order segments. *)
  retransmissions : int;
  timeouts : int;
  fast_retransmits : int;
  send_rate : float; [@pftk.unit "pkt/s"]  (** packets/s — the paper's B. *)
  throughput : float; [@pftk.unit "pkt/s"]
  (** packets/s delivered — the paper's T. *)
  rtt_flight_samples : (float * int) array;
  forward_stats : Pftk_netsim.Link.stats;
}

val run :
  ?seed:int64 -> ?recorder:Pftk_trace.Recorder.t -> duration:float ->
  scenario -> result
[@@pftk.unit "_ -> _ -> s -> _ -> _"]
(** Simulate a saturated transfer for [duration] simulated seconds.
    [recorder] substitutes a caller-built recorder for the internal one —
    pass [Recorder.create ~buffered:false ()] with subscribed sinks to run
    arbitrarily long transfers in O(1) memory, feeding the
    [Pftk_online] estimators as the transfer progresses (the returned
    [result.recorder] is then unbuffered).  Raises [Invalid_argument]
    unless [duration] is positive and finite. *)

val rtt_window_correlation : result -> float
[@@pftk.unit "_ -> 1"]
(** Pearson correlation between RTT samples and packets in flight — the
    §IV independence check ([-0.1, 0.1] on normal paths, up to 0.97 on the
    modem path of Fig. 11).  Returns [0.] with fewer than two samples. *)
