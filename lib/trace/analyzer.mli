(** Loss-indication analysis of sender traces: the simulated counterpart of
    the paper's tcpdump post-processing programs (§III).

    Two modes:

    - {e Ground truth} uses the sender's own [Timer_fired] and
      [Fast_retransmit_triggered] events.  Consecutive timer firings with
      increasing backoff form one timeout {e sequence} (one loss
      indication, like the model's Z^TO).
    - {e Inference} reconstructs indications from [Segment_sent] and
      [Ack_received] alone, the way the paper's programs worked from raw
      packet traces: a retransmission preceded by a run of
      [dup_ack_threshold]+ duplicate ACKs is a TD; a retransmission after
      an idle gap is a timeout firing; firings without intervening
      cumulative progress chain into one sequence.  RTT samples follow
      Karn's algorithm (segments retransmitted at least once are never
      timed).

    The test suite validates inference against ground truth on
    packet-level Reno traces. *)

type indication =
  | Td of { at : float }
  | To of {
      at : float;  (** Time of the first timer firing. *)
      timeouts : int;  (** Sequence length (1 = single timeout). *)
      first_timer : float;  (** Duration of the first (undoubled) timer. *)
    }

val indication_time : indication -> float

val infer_indications :
  ?dup_ack_threshold:int ->
  ?min_timeout_gap:float ->
  Recorder.t ->
  indication list
(** Inference mode over a buffered recorder's trace.  [min_timeout_gap]
    (default 0.15 s) is the idle period that distinguishes a timeout
    retransmission from a recovery burst.  Like every pass here it raises
    [Invalid_argument] on an unbuffered recorder. *)

val ground_truth_indications : Recorder.t -> indication list

type summary = {
  duration : float;
  packets_sent : int;
  loss_indications : int;
  td_count : int;
  to_by_backoff : int array;
      (** Six buckets: sequences of exactly 1..5 timeouts, then "6+" —
          Table II's T0..T5-or-more columns. *)
  observed_p : float;  (** indications / packets sent. *)
  avg_rtt : float;  (** Mean of Karn-valid RTT samples; 0 if none. *)
  avg_t0 : float;  (** Mean first-timer duration over sequences; 0 if none. *)
  send_rate : float;  (** packets / duration. *)
}

val summarize :
  ?mode:[ `Ground_truth | `Infer ] ->
  ?dup_ack_threshold:int ->
  ?min_timeout_gap:float ->
  Recorder.t ->
  summary
(** Default mode [`Ground_truth].  In inference mode, RTT samples are
    re-derived from the send/ACK matching; in ground-truth mode the
    sender's [Rtt_sample] events are averaged.  One walk of the trace
    finds both the indications and the samples; [packets_sent] is
    {!Recorder.packets_sent}. *)

val karn_rtt_samples : Recorder.t -> float array
(** The inference-mode RTT samples: first-transmission segments matched to
    the first cumulative ACK covering them, skipping any segment that was
    ever retransmitted. *)

val pp_summary : Format.formatter -> summary -> unit
