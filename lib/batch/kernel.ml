type model = Full | Full_approx_q | Approximate | Td_only | Tfrc of float
type t = { model : model; b : int; consts : Pftk_core.Tdonly.consts }

let make ?(b = 2) model =
  if b < 1 then invalid_arg "Batch.Kernel.make: b must be >= 1";
  (match model with
  | Tfrc t0_factor when not (t0_factor > 0.) ->
      invalid_arg "Batch.Kernel.make: t0_factor must be positive"
  | _ -> ());
  { model; b; consts = Pftk_core.Tdonly.consts ~b }

let name t =
  match t.model with
  | Full -> "full"
  | Full_approx_q -> "full-approx-q"
  | Approximate -> "approximate"
  | Td_only -> "td-only"
  | Tfrc _ -> "tfrc"

(* One loop per model, each row one call to the core's [_unchecked]
   body, which is the guarded scalar arithmetic operation for operation
   (selfcheck C11).  The bodies are [@inline], so in a build without
   -opaque (the release profile) each call is expanded in place and no
   float is boxed; the Q-hat variant is a literal, so the expanded body
   has no per-row branch on it.  The [b] constants come with the kernel.
   The loops are [@pftk.zero_alloc] and [*_unchecked], so pftk-flow
   proves the contract: callers scan first (F1), no allocating construct
   (F2), no raise (F3).  F2 resolves callees by path name, hence the
   full paths. *)

let[@pftk.zero_alloc] full_rows_unchecked k pcol rcol tcol wcol ~pos ~len out =
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set out i
      (Pftk_core.Full_model.send_rate_unchecked ~approx_q:false k
         ~rtt:(Float.Array.unsafe_get rcol i)
         ~t0:(Float.Array.unsafe_get tcol i)
         ~wm:(Float.Array.unsafe_get wcol i)
         (Float.Array.unsafe_get pcol i))
  done

let[@pftk.zero_alloc] full_approx_q_rows_unchecked k pcol rcol tcol wcol ~pos
    ~len out =
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set out i
      (Pftk_core.Full_model.send_rate_unchecked ~approx_q:true k
         ~rtt:(Float.Array.unsafe_get rcol i)
         ~t0:(Float.Array.unsafe_get tcol i)
         ~wm:(Float.Array.unsafe_get wcol i)
         (Float.Array.unsafe_get pcol i))
  done

let[@pftk.zero_alloc] approximate_rows_unchecked k pcol rcol tcol wcol ~pos
    ~len out =
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set out i
      (Pftk_core.Approx_model.send_rate_unchecked k
         ~rtt:(Float.Array.unsafe_get rcol i)
         ~t0:(Float.Array.unsafe_get tcol i)
         ~wm:(Float.Array.unsafe_get wcol i)
         (Float.Array.unsafe_get pcol i))
  done

(* Eq. (19), uncapped, as [Model.send_rate Td_only]. *)
let[@pftk.zero_alloc] td_only_rows_unchecked k pcol rcol ~pos ~len out =
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set out i
      (Pftk_core.Tdonly.send_rate_unchecked k
         ~rtt:(Float.Array.unsafe_get rcol i)
         (Float.Array.unsafe_get pcol i))
  done

(* Reads only the p and rtt columns. *)
let[@pftk.zero_alloc] tfrc_rows_unchecked ~t0_factor pcol rcol ~pos ~len out =
  for i = pos to pos + len - 1 do
    Float.Array.unsafe_set out i
      (Pftk_core.Tfrc.fair_rate_unchecked ~t0_factor
         ~rtt:(Float.Array.unsafe_get rcol i)
         (Float.Array.unsafe_get pcol i))
  done

let eval_into { model; consts = k; _ } (c : Columns.t) ~pos ~len out =
  if pos < 0 || len < 0 || pos + len > c.Columns.n then
    invalid_arg "Batch.Kernel.eval_into: range out of bounds";
  if Float.Array.length out < pos + len then
    invalid_arg "Batch.Kernel.eval_into: output array too short";
  let pcol = c.Columns.p
  and rcol = c.Columns.rtt
  and tcol = c.Columns.t0
  and wcol = c.Columns.wm in
  match model with
  | Full -> full_rows_unchecked k pcol rcol tcol wcol ~pos ~len out
  | Full_approx_q ->
      full_approx_q_rows_unchecked k pcol rcol tcol wcol ~pos ~len out
  | Approximate -> approximate_rows_unchecked k pcol rcol tcol wcol ~pos ~len out
  | Td_only -> td_only_rows_unchecked k pcol rcol ~pos ~len out
  | Tfrc t0_factor -> tfrc_rows_unchecked ~t0_factor pcol rcol ~pos ~len out

let scalar_reference t ~p ~rtt ~t0 ~wm =
  let send_rate kind =
    Pftk_core.Model.send_rate kind
      (Pftk_core.Params.make ~b:t.b ~wm:(Columns.wm_to_int wm) ~rtt ~t0 ())
      p
  in
  match t.model with
  | Full -> send_rate Pftk_core.Model.Full
  | Full_approx_q -> send_rate Pftk_core.Model.Full_approx_q
  | Approximate -> send_rate Pftk_core.Model.Approximate
  | Td_only -> send_rate Pftk_core.Model.Td_only
  | Tfrc t0_factor -> Pftk_core.Tfrc.fair_rate ~t0_factor ~rtt p
