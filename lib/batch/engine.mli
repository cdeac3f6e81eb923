(** The scanned front door to the batch kernels: validate whole columns
    once ({!Scan.validate}), then run the guard-free loops, optionally
    fanned over domains ({!Pftk_parallel}) in contiguous chunks.

    Determinism contract: the chunk grid depends only on [chunk] (never
    on [jobs]) and each chunk writes a disjoint output slice of a pure
    per-row function, so every [jobs] value — including [jobs] larger
    than the row count — produces byte-identical output
    (property-tested in [test_batch]).  [jobs] beyond the runtime's
    live-domain cap is capped by {!Pftk_parallel}, which cannot change
    the output either. *)

val default_chunk : int
(** 65536 rows (2 MiB of columns): small enough to balance the domains,
    large enough to amortize task dispatch. *)

val run_into :
  ?jobs:int -> ?chunk:int -> Kernel.t -> Columns.t -> floatarray -> unit
[@@pftk.unit "_ -> _ -> _ -> _ -> pkt/s -> _"]
(** Scan all rows, then evaluate them into [out.(0 .. n-1)].  Raises
    [Invalid_argument] ["batch row %d: <scalar message>"] on the first
    out-of-domain row, before touching [out].  The scan is skipped when
    the columns are unchanged since their last successful scan
    ({!Columns.t.dirty} is clear), so repeated evaluation runs at pure
    kernel speed. *)

val run : ?jobs:int -> ?chunk:int -> Kernel.t -> Columns.t -> floatarray
[@@pftk.unit "_ -> _ -> _ -> _ -> pkt/s"]
(** {!run_into} into a fresh array. *)

val loss_budget_into :
  ?jobs:int ->
  ?chunk:int ->
  b:int ->
  Columns.t ->
  rates:floatarray ->
  floatarray ->
  unit
[@@pftk.unit "_ -> _ -> _ -> _ -> pkt/s -> prob -> _"]
(** Batched {!Pftk_core.Inverse.loss_budget}: for each row, the largest
    loss probability under which the full model (with the row's [rtt],
    [t0], [wm] and the batch [b]) still sustains [rates.(i)] packets/s.
    The [p] column is ignored but still scanned.  Rows with no
    sustaining budget (target above the model's range) or a
    non-positive/NaN target get a NaN sentinel rather than an error. *)

val loss_budget :
  ?jobs:int -> ?chunk:int -> b:int -> Columns.t -> rates:floatarray -> floatarray
[@@pftk.unit "_ -> _ -> _ -> _ -> pkt/s -> prob"]
(** {!loss_budget_into} into a fresh array; unsolvable rows carry the
    same NaN sentinel. *)
