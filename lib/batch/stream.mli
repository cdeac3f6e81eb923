(** Drive the batch engine from a newline-delimited query stream (the
    backend of [pftk serve --batch]).

    Lines are scanned in place ({!Serve.scan_line}) straight into
    columns, up to [chunk] lines per batch (rejected lines keep an
    output slot), evaluated in one engine pass, and emitted strictly 1:1
    and in order: every input line yields exactly one output line — a
    rate or {!Serve.sentinel}.  Rejections go to [err] as they are
    encountered (see {!Serve} for the message contract); the stream
    never aborts on bad input.  The last line counts even without a
    newline.

    Memory is bounded by [chunk], not by the input: a line longer than
    {!Serve.max_line_bytes} is counted as it is read, never kept, and
    rejected with its full length.  The channel is read ahead in blocks,
    so its position after a return is unspecified. *)

type outcome = { total : int; failed : int }

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?scalar:bool ->
  Kernel.t ->
  in_channel ->
  out_channel ->
  err:out_channel ->
  outcome
(** Raises [Invalid_argument] before reading when [chunk < 1].
    [scalar:true] answers each accepted line with the guarded per-row
    scalar computation instead of the batch kernel — same protocol,
    used to cross-check batch output byte-for-byte. *)
