(** A unidirectional network link: a FIFO service queue drained at a fixed
    bandwidth, followed by a fixed propagation delay, with a pluggable
    buffer-management discipline and an optional random-loss hook.

    The payload type is abstract so the TCP layer can ship its own segment
    records through without the simulator knowing about TCP. *)

type 'a t

type stats = {
  offered : int;  (** Packets presented to {!send}. *)
  delivered : int;  (** Packets handed to the receive callback. *)
  dropped_queue : int;  (** Dropped by the queue discipline. *)
  dropped_random : int;  (** Dropped by the random-loss hook. *)
  bytes_delivered : int;
  max_queue : int;  (** High-water mark of the queue, packets. *)
}

val create :
  ?discipline:Queue_discipline.t ->
  ?random_loss:(unit -> bool) ->
  sim:Sim.t ->
  rng:Pftk_stats.Rng.t ->
  bandwidth:float ->
  delay:float ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [create ~sim ~rng ~bandwidth ~delay ~deliver ()] where [bandwidth] is in
    bytes per second and [delay] is one-way propagation in seconds.
    [discipline] defaults to a 64-packet drop-tail queue.  [random_loss],
    when supplied, is consulted per packet {e before} the queue: returning
    [true] discards the packet (models drops elsewhere on the path).
    Raises [Invalid_argument] for nonpositive or NaN [bandwidth] or a
    negative or NaN [delay]. *)

val send : 'a t -> size:int -> 'a -> bool
(** Offer a packet of [size] bytes.  [false] if it was dropped on entry;
    [true] means it will be delivered after queueing + transmission +
    propagation.  Raises [Invalid_argument] when [size <= 0]. *)

val queue_length : 'a t -> int
(** Packets waiting or in transmission. *)

val in_flight : 'a t -> int
(** Packets currently in propagation (sent, not yet delivered). *)

val stats : 'a t -> stats

val busy_time : 'a t -> float
(** Cumulative transmission time, for utilization accounting. *)

val mean_queue : 'a t -> float
(** Time-averaged queue length (packets waiting or in transmission) from
    time 0 to the simulator's current time; 0 before any time has passed.
    This is the occupancy observable the mean-field backend predicts. *)

val delay : 'a t -> float
(** The link's one-way propagation delay, seconds. *)
