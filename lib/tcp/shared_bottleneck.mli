(** Multiple flows through one bottleneck: the "TCP-friendliness" testbed.

    The paper's motivation (§I) for a closed-form B(p) is letting a
    non-TCP flow pick a send rate that a TCP flow would get under the same
    conditions.  This module runs N flows — TCP Reno connections and/or
    TFRC-style equation-paced flows — through a single shared drop-tail
    bottleneck and reports each flow's goodput, so the claim can be checked
    end to end: a paced flow holding to eq. (33) should neither starve nor
    starve-out the Reno flows it shares the queue with.

    Topology: every sender feeds one shared forward link (the bottleneck);
    each flow gets its own uncongested reverse path for ACKs/feedback.
    TFRC feedback is idealized (the receiver's loss/RTT observations reach
    the controller instantly once per epoch); the pacing itself and all
    data-path queueing/loss are simulated faithfully. *)

type kind =
  | Reno_flow of Reno.config
  | Tfrc_flow of { mss : int }
      (** Equation-paced at {!Pftk_core.Tfrc.Controller.allowed_rate}. *)
  | Cross_flow of Pftk_netsim.Cross_traffic.config
      (** Unresponsive ON/OFF background traffic: the stand-in for the
          congested routers' other users. *)

type spec = {
  name : string;
  kind : kind;
  start_time : float; [@pftk.unit "s"]
  (** When the flow begins sending, seconds. *)
}

val reno : ?config:Reno.config -> string -> spec
(** A Reno flow starting at t = 0. *)

val tfrc : ?mss:int -> string -> spec
(** A TFRC flow starting at t = 0 (default MSS 1460). *)

val cross : ?config:Pftk_netsim.Cross_traffic.config -> string -> spec
(** An ON/OFF background source starting at t = 0. *)

type flow_result = {
  name : string;
  kind_label : string;  (** "reno", "tfrc" or "cross". *)
  packets_sent : int;
  packets_delivered : int;
  goodput : float; [@pftk.unit "pkt/s"]
  (** Delivered packets/s over the flow's active time. *)
  loss_rate : float; [@pftk.unit "prob"]
  (** Fraction of this flow's packets dropped. *)
}

type result = {
  flows : flow_result list;
  bottleneck_utilization : float; [@pftk.unit "1"]
  (** Busy fraction of the shared link. *)
  bottleneck_mean_queue : float; [@pftk.unit "pkt"]
      (** Time-averaged bottleneck occupancy, packets — the observable the
          mean-field backend's equilibrium queue predicts. *)
  jain_fairness : float; [@pftk.unit "1"]
      (** Jain's index over per-flow goodputs, in [(1/n), 1]. *)
}

val run :
  ?seed:int64 ->
  ?buffer:int ->
  ?discipline:Pftk_netsim.Queue_discipline.t ->
  ?bandwidth:float ->
  ?one_way_delay:float ->
  duration:float ->
  spec list ->
  result
(** Defaults: 64-packet drop-tail buffer, 1.25 MB/s bottleneck, 20 ms
    one-way delay.  [discipline] overrides the bottleneck's queue
    management wholesale (e.g. RED for the mean-field cross-validation);
    when given, [buffer] is ignored.  Raises [Invalid_argument] on an
    empty flow list or a duration that is not positive and finite. *)
