(** Plain-text trace serialization: one event per line, so simulated traces
    can be saved, inspected with standard Unix tools, and re-analyzed later
    — the workflow the paper had with raw tcpdump files.

    Format: [<time> <tag> <fields...>] with tags
    [send seq rexmit cwnd flight | ack n | timeout backoff rto |
     fastrexmit seq | rtt sample srtt rto | round index window | close].
    Lines starting with [#] are comments.  The format round-trips every
    {!Event.t} exactly (property-tested, including non-finite floats).

    Bad input never escapes as a bare [Failure]: every parse problem is
    reported as {!Error} carrying the source file (when known), the 1-based
    line number of the offending line, and a human-readable reason. *)

type error = {
  file : string option;  (** Source path; [None] for bare channels/lines. *)
  line : int;  (** 1-based offending line; [0] when unknown. *)
  reason : string;  (** Human-readable description, offending content inline. *)
}

exception Error of error

val error_message : error -> string
(** ["file:line: reason"], omitting the parts that are unknown. *)

val write_event : out_channel -> Event.t -> unit
val write : out_channel -> Recorder.t -> unit

val event_of_line : string -> Event.t option
(** [None] on comments and blank lines; raises {!Error} (with [line = 0] —
    a bare line has no position) on a malformed line, with the offending
    content in [reason]. *)

val read : ?file:string -> in_channel -> Recorder.t
(** Reads to EOF.  Raises {!Error} on malformed input, a negative time
    (a recorder's clock starts at 0) or non-monotonic timestamps,
    locating the offending line; [file] seeds the error's location.  A
    NaN time is accepted, as {!Recorder.record} accepts it, but it does
    not reset the monotonic check: the next time is compared with the
    last time that was not NaN, or with 0.

    The channel is read ahead in blocks, so its position after a return
    or an error is unspecified. *)

val iter_channel : ?file:string -> (Event.t -> unit) -> in_channel -> unit
(** Streaming variant of {!read}: feeds each parsed event to the callback
    without building a recorder, so saved traces of any length can be
    replayed through the online estimators in O(1) memory.  Same failure
    contract, NaN rule and read-ahead as {!read}, except that the first
    time may be negative: the monotonic check starts at [neg_infinity]. *)

val iter_file : string -> (Event.t -> unit) -> unit
(** {!iter_channel} over a file path; errors carry the path. *)

val save : string -> Recorder.t -> unit
(** Write to a file path.  A file that cannot be opened or written,
    including a write that fails when the file is closed, raises
    [Sys_error]. *)

val load : string -> Recorder.t
(** Read from a file path; errors carry the path. *)

val line_of_event : Event.t -> string
(** The single-line encoding (no trailing newline). *)
