let default_chunk = 65536

(* The scan runs only when a row may have changed since the last
   successful validation ([Columns.dirty]); evaluating the same columns
   repeatedly — several models over one grid, bisection over rates —
   pays for it once. *)
let scan_or_raise (c : Columns.t) =
  if c.Columns.dirty then
    match Scan.validate c with
    | Ok () -> ()
    | Error { Scan.row; message; _ } ->
        invalid_arg (Printf.sprintf "batch row %d: %s" row message)

let run_into ?(jobs = 1) ?(chunk = default_chunk) kernel (c : Columns.t) out =
  if jobs < 1 then invalid_arg "Batch.Engine.run_into: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Batch.Engine.run_into: chunk must be >= 1";
  if Float.Array.length out < c.Columns.n then
    invalid_arg "Batch.Engine.run_into: output array too short";
  scan_or_raise c;
  let n = c.Columns.n in
  if jobs = 1 || n <= chunk then Kernel.eval_into kernel c ~pos:0 ~len:n out
  else begin
    (* The chunk grid depends only on [chunk], never on [jobs], and
       each worker writes its own disjoint [pos, pos+len) slice of
       [out], so any [jobs] value produces byte-identical output (the
       per-row function is pure).  The mutable-capture lint cannot see
       the disjointness, hence the scoped allow. *)
    let nchunks = (n + chunk - 1) / chunk in
    ignore
      (Pftk_parallel.map ~jobs
         ((fun i ->
            let pos = i * chunk in
            let len = if n - pos < chunk then n - pos else chunk in
            Kernel.eval_into kernel c ~pos ~len out)
         [@lint.allow "R1"])
         (List.init nchunks (fun i -> i)))
  end

let run ?jobs ?chunk kernel c =
  let out = Float.Array.make c.Columns.n 0. in
  run_into ?jobs ?chunk kernel c out;
  out

(* The batched inverse rides on the scalar segment-aware bisection: at
   ~240 model evaluations per row there is nothing to gain from a
   specialized loop, only from the fan-out.  Rows whose target rate has
   no sustaining loss budget (the scalar's [None], which covers
   non-positive and NaN targets) get a NaN sentinel. *)
let loss_budget_into ?(jobs = 1) ?(chunk = default_chunk) ~b (c : Columns.t)
    ~rates out =
  if jobs < 1 then invalid_arg "Batch.Engine.loss_budget_into: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Batch.Engine.loss_budget_into: chunk must be >= 1";
  if b < 1 then invalid_arg "Batch.Engine.loss_budget_into: b must be >= 1";
  let n = c.Columns.n in
  if Float.Array.length rates < n then
    invalid_arg "Batch.Engine.loss_budget_into: rates array too short";
  if Float.Array.length out < n then
    invalid_arg "Batch.Engine.loss_budget_into: output array too short";
  scan_or_raise c;
  let row i =
    let rtt = Float.Array.unsafe_get c.Columns.rtt i in
    let t0 = Float.Array.unsafe_get c.Columns.t0 i in
    let wm = Columns.wm_to_int (Float.Array.unsafe_get c.Columns.wm i) in
    let params = Pftk_core.Params.make ~b ~wm ~rtt ~t0 () in
    let rate = Float.Array.unsafe_get rates i in
    let v =
      match Pftk_core.Inverse.loss_budget params ~rate with
      | Some p -> p
      | None -> Float.nan
    in
    Float.Array.unsafe_set out i v
  in
  if jobs = 1 || n <= chunk then
    for i = 0 to n - 1 do
      row i
    done
  else begin
    (* Same disjoint-slice argument as [run_into]. *)
    let nchunks = (n + chunk - 1) / chunk in
    ignore
      (Pftk_parallel.map ~jobs
         ((fun ci ->
            let pos = ci * chunk in
            let stop =
              if n - pos < chunk then n else pos + chunk
            in
            for i = pos to stop - 1 do
              row i
            done)
         [@lint.allow "R1"])
         (List.init nchunks (fun i -> i)))
  end

let loss_budget ?jobs ?chunk ~b c ~rates =
  let out = Float.Array.make c.Columns.n 0. in
  loss_budget_into ?jobs ?chunk ~b c ~rates out;
  out
