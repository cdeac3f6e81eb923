(** The line protocol of [pftk serve --batch].

    Input grammar, one query per line (any amount of blanks/tabs
    between fields; trailing [\r] tolerated):

    {v <p> <rtt-seconds> <t0-seconds> <wm-packets> v}

    Units: [p] is the loss probability (dimensionless, [0 < p < 1]),
    [rtt] and [t0] are seconds, [wm] is packets, and every output rate
    is packets per second — multiply by the MSS in bytes
    ([Pftk_core.Inverse.rate_in_bytes]) for bytes/s.

    Numbers are OCaml float literals ([float_of_string]); [wm <= 0]
    denotes "no receiver limit" (the CLI's [--wm] convention).  Output
    is exactly one line per input line: the send rate in packets/s
    printed with ["%.17g"] (round-trips the double exactly), or the
    sentinel ["nan"] for a rejected line.  Rejections (parse failures
    and out-of-domain values) are reported on stderr as
    ["pftk serve: line %d: <message>"] without aborting the stream.

    The scanner and the writer work on bytes in place; {!parse_line} and
    {!format_rate} are the same code applied to one string. *)

type query = {
  p : float; [@pftk.unit "prob"]  (** loss probability, dimensionless *)
  rtt : float; [@pftk.unit "s"]  (** round-trip time, seconds *)
  t0 : float; [@pftk.unit "s"]  (** initial timeout, seconds *)
  wm : float; [@pftk.unit "pkt"]  (** receiver window, packets *)
}

val max_line_bytes : int
(** 4096: longer lines are rejected (never evaluated) with a
    ["line exceeds %d bytes (got %d)"] diagnostic naming the observed
    length, bounding per-line work and memory for untrusted input: the
    stream counts the bytes of such a line without keeping them.  A line
    of exactly [max_line_bytes] bytes is still accepted. *)

val too_long : int -> string
(** The diagnostic for a line of [n > max_line_bytes] bytes. *)

val sentinel : string
(** ["nan"]: the output line for a rejected input line. *)

val max_rate_bytes : int
(** 24: the longest text {!write_rate} writes. *)

val write_rate : Bytes.t -> int -> float -> int
[@@pftk.unit "_ -> _ -> pkt/s -> _"]
(** [write_rate b pos r] writes [r] as ["%.17g"] spells it to [b] from
    [pos] on and returns the position after it; [b] must have
    {!max_rate_bytes} bytes of room. *)

val format_rate : float -> string
[@@pftk.unit "pkt/s -> _"]
(** ["%.17g"] — shortest text that round-trips the exact double. *)

type cursor = {
  eol : int;
      (** A ['\n'] at or after [eol] ends a line; one before it (only in
          the string {!parse_line} reads) is a byte of the line. *)
  mutable limit : int;
      (** Where the reader stored a ['\n'] after the bytes read so far,
          while the input may hold more; [-1] once it has ended. *)
  mutable pos : int;  (** After {!scan_line}: the ['\n'] that ends the line. *)
}
(** Where {!scan_line} walks: bytes that always end in a ['\n']. *)

exception Incomplete
(** The line reached [limit], so it may go on past the bytes read. *)

val scan_line : cursor -> Bytes.t -> int -> Columns.t -> int -> (unit, string) result
(** [scan_line cur s lo c j] reads the line that starts at [s.[lo]] into
    row [j] of [c], bypassing {!Columns.set} (the caller owns the dirty
    flag), in one walk that cuts, decodes and finds the line's end, left
    in [cur.pos].  Raises {!Incomplete} when that end is [cur.limit].  On
    [Error], row [j] may hold some of the line's fields.  Syntax only, as
    {!parse_line}. *)

val parse_line : string -> (query, string) result
(** Syntax only; domain checking is {!Scan.check_row}'s job (so the
    rejection messages match the scalar guards). *)
