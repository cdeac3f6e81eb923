(** The sender's trace stream: an append-only, timestamped sequence of
    events, optionally buffered in memory.

    Two consumption styles:

    - {e Post hoc}: the default ([buffered = true]) recorder keeps every
      event; {!events}, {!iter}, {!fold} and {!between} walk the complete
      trace afterwards, the way the paper's programs re-read tcpdump files.
    - {e Streaming}: any number of sinks attached with {!subscribe} see
      each event the moment it is recorded.  With [buffered = false] the
      recorder keeps {b no} event storage at all — only O(1) counters —
      so arbitrarily long simulations can run with online consumers (see
      [lib/online]) without the trace ever living in memory.

    The buffer packs events into fixed-size blocks of 64-bit words and
    floats that hold no pointers, never into {!Event.t} values: recording
    promotes nothing to the major heap, and an {!Event.t} is built only
    for a subscriber or a reader.  Analysis passes read fields in place
    with {!tag}, {!time} and the accessors after them. *)

type t

val create : ?buffered:bool -> unit -> t
(** [buffered] defaults to [true].  An unbuffered recorder still
    timestamps, validates monotonicity, counts, and notifies subscribers;
    it just never stores events. *)

val is_buffered : t -> bool

val subscribe : t -> (Event.t -> unit) -> unit
(** Attach a sink.  Sinks run synchronously inside {!record}, in
    subscription order, after the event has been appended to the buffer
    (when there is one).  A sink must not record into the same recorder. *)

val record : t -> time:float -> Event.kind -> unit
(** Timestamps must be non-decreasing; raises [Invalid_argument]
    otherwise (the simulator never goes back in time). *)

val length : t -> int
(** Number of {e buffered} events ([0] for an unbuffered recorder). *)

val events_seen : t -> int
(** Number of events recorded, buffered or not. *)

val events : t -> Event.t array
(** Snapshot copy, in record order.  Raises [Invalid_argument] on an
    unbuffered recorder — as do {!iter}, {!fold}, {!between} and {!pp}:
    streaming pipelines must consume via {!subscribe} instead. *)

val iter : (Event.t -> unit) -> t -> unit
val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val between : t -> start:float -> stop:float -> Event.t array
(** Events with [start <= time < stop]. *)

val duration : t -> float
(** Timestamp of the last recorded event, [0.] when none; works for
    unbuffered recorders too. *)

val packets_sent : t -> int
(** Count of [Segment_sent] events recorded (retransmissions included —
    the paper's send rate counts every transmission); O(1), works for
    unbuffered recorders too. *)

val pp : Format.formatter -> t -> unit

(** {2 Reading in place}

    The [n]-th buffered event, read without building an {!Event.t}.
    Every accessor requires [0 <= n < length t].  Each field accessor is
    meaningful only for the tags it names; on other events it returns an
    unspecified value. *)

type tag = Send | Ack | Timeout | Fast_retransmit | Rtt | Round | Close
(** One per {!Event.kind} constructor, in declaration order. *)

val tag : t -> int -> tag
val time : t -> int -> float

val seq : t -> int -> int
(** [Send], [Fast_retransmit]. *)

val retransmission : t -> int -> bool
(** [Send]. *)

val ack : t -> int -> int
(** [Ack]. *)

val backoff : t -> int -> int
(** [Timeout]. *)

val rto : t -> int -> float
(** [Timeout]: the timer value that expired. *)

val sample : t -> int -> float
(** [Rtt]: the measured sample. *)
