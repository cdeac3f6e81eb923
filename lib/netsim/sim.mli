(** Discrete-event simulation core: a virtual clock and a priority queue of
    timestamped actions.

    Every dispatch is keyed by [(time, seq)], where [seq] is a monotone
    sequence number taken when the action is scheduled: events at equal
    timestamps fire in scheduling order, which keeps runs fully
    deterministic.

    Three kinds of entry share the queue: one-shot actions ({!schedule}),
    reusable {!timer}s that re-key their entry in place, and FIFO delay
    {!line}s that hold one entry for their head.  Scheduling, dispatching
    and re-arming allocate nothing beyond the closures the caller hands
    in. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds.  Starts at 0. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] once at [now t +. delay].
    Raises [Invalid_argument] if [delay] is negative or NaN. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant.  Raises [Invalid_argument] if [time] precedes
    [now t] or is NaN. *)

(** {2 Timers} *)

type timer
(** A reusable deadline with at most one pending firing, made once per
    object (a retransmission timer, a delayed-ACK timer). *)

val timer : t -> timer
(** A new, disarmed timer. *)

val arm : timer -> delay:float -> (unit -> unit) -> unit
(** [arm tm ~delay f] makes [tm] fire [f] at [now t +. delay], replacing
    any pending deadline.  Each call takes one sequence number, as
    {!schedule} does, so re-arming orders exactly like cancelling and
    scheduling afresh.  Raises [Invalid_argument] if [delay] is negative
    or NaN. *)

val disarm : timer -> unit
(** Drop the pending deadline; a no-op on a disarmed timer. *)

val armed : timer -> bool
(** [true] from {!arm} until the timer fires or is disarmed. *)

(** {2 Delay lines} *)

type line
(** A FIFO with a fixed delay, such as a link's propagation stage:
    whatever is pushed fires [delay] seconds later, in push order. *)

val line : t -> delay:float -> line
(** Raises [Invalid_argument] if [delay] is negative or NaN. *)

val push : line -> (unit -> unit) -> unit
(** [push l f] fires [f] at [now t +. delay].  Each push takes one
    sequence number and keeps the key it gets, so a line dispatches
    exactly as {!schedule} with the same delay would. *)

val pending : t -> int
(** Dispatches still to come: one-shot actions, armed timers and the
    entries of every line. *)

val run : ?until:float -> t -> unit
(** Dispatch events in timestamp order.  With [until], stops once the clock
    would pass it (the clock is left at [until]); otherwise runs until no
    events remain. *)

val step : t -> bool
(** Dispatch the single next event; [false] when none remain. *)
