(* Workload "grid": in-memory capacity-planning columns evaluated by
   Engine.run_into for all five kernels, plus Engine.loss_budget_into on
   a smaller grid.  No text: the kernels, the inverse and the chunked
   fan-out over Pftk_parallel are the whole cost.  Rows are built
   directly as Columns, p ascending within each RTT x wm block.

   Checks: a seeded sample of rows per kernel is bit-identical to
   Kernel.scalar_reference, every inverse row round-trips through the
   full model, and a sample of them equals the scalar
   Inverse.loss_budget bit for bit. *)

module Batch = Pftk_batch
open Pftk_core

let rtt_levels = 16
let wm_levels = [| 0.; 8.; 32.; 1024. |]
let p_points = 16_384
let inverse_p_points = 256
let sample = 1_024
let inverse_sample = 64
let b = 2

let kernels () =
  List.map (Batch.Kernel.make ~b)
    Batch.Kernel.[ Full; Full_approx_q; Approximate; Td_only; Tfrc 4. ]

let rows = rtt_levels * Array.length wm_levels * p_points
let inverse_rows = rtt_levels * Array.length wm_levels * inverse_p_points

(* Bytes the forward pass streams: four input columns and the output. *)
let column_bytes = rows * 8 * 5

type input = {
  cols : Batch.Columns.t;
  inv : Batch.Columns.t;
  rates : floatarray;  (** Full-model rate at each inverse row's target p. *)
}

let fill st ~points cols =
  let rtts =
    Array.init rtt_levels (fun i ->
        0.01 *. (100. ** (float_of_int i /. float_of_int (rtt_levels - 1)))
        *. exp (Random.State.float st 0.2 -. 0.1))
  in
  let lo = 1e-5 *. exp (Random.State.float st 1.) and hi = 0.3 in
  let row = ref 0 in
  Array.iter
    (fun rtt ->
      let t0 = Float.max 1. (4. *. rtt) in
      Array.iter
        (fun wm ->
          for k = 0 to points - 1 do
            let p = lo *. ((hi /. lo) ** (float_of_int k /. float_of_int (points - 1))) in
            Batch.Columns.set cols !row ~p ~rtt ~t0 ~wm;
            incr row
          done)
        wm_levels)
    rtts

let params_of cols i =
  let _, rtt, t0, wm = Batch.Columns.row cols i in
  Params.make ~b ~wm:(Batch.Columns.wm_to_int wm) ~rtt ~t0 ()

(* The columns are allocated once per process, like the output buffers:
   a set-up generates the rows into them.  Allocating them afresh in each
   set-up timed page faults instead, which took 30 or 40 ms by where the
   allocator happened to place the 32 MB. *)
let columns () = (Batch.Columns.create rows, Batch.Columns.create inverse_rows)

let setup (o : Common.opts) (cols, inv) =
  let st = Common.rng ~seed:o.seed "grid" in
  fill st ~points:p_points cols;
  fill st ~points:inverse_p_points inv;
  let rates =
    Float.Array.init inverse_rows (fun i ->
        let p, _, _, _ = Batch.Columns.row inv i in
        Full_model.send_rate (params_of inv i) p)
  in
  (* Validate both column sets once, as a caller loading its grid would:
     the engine then skips the scan on every pass. *)
  if Result.is_error (Batch.Scan.validate cols) || Result.is_error (Batch.Scan.validate inv)
  then failwith "grid: generated rows fail the scan";
  { cols; inv; rates }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let verify_forward (o : Common.opts) tally k input out =
  let st = Common.rng ~seed:o.seed ("grid-sample" ^ Batch.Kernel.name k) in
  for s = 0 to sample - 1 do
    let i = Random.State.int st rows in
    let p, rtt, t0, wm = Batch.Columns.row input.cols i in
    let want = Batch.Kernel.scalar_reference k ~p ~rtt ~t0 ~wm in
    let want = if o.fault && s = 0 then want *. 2. else want in
    Common.check tally
      (same_bits (Float.Array.get out i) want)
      ~what:(Printf.sprintf "grid %s row %d" (Batch.Kernel.name k) i)
  done

let verify_inverse (o : Common.opts) tally input budget =
  for i = 0 to inverse_rows - 1 do
    let target_p, _, _, _ = Batch.Columns.row input.inv i in
    let target = Float.Array.get input.rates i in
    let p_star = Float.Array.get budget i in
    let params = params_of input.inv i in
    Common.check tally
      ((not (Float.is_nan p_star))
      && p_star >= target_p *. (1. -. 1e-6)
      && Full_model.send_rate params p_star >= target *. (1. -. 1e-6))
      ~what:(Printf.sprintf "grid inverse row %d: p*=%h target p=%h" i p_star target_p)
  done;
  let st = Common.rng ~seed:o.seed "grid-inverse-sample" in
  for _ = 1 to inverse_sample do
    let i = Random.State.int st inverse_rows in
    let want =
      Option.value ~default:Float.nan
        (Inverse.loss_budget (params_of input.inv i) ~rate:(Float.Array.get input.rates i))
    in
    Common.check tally
      (same_bits (Float.Array.get budget i) want)
      ~what:(Printf.sprintf "grid inverse row %d differs from the scalar inverse" i)
  done

(* One pass: the five kernels, then the inverse, each timed on its own
   and checked outside its timed section.  Returns the six durations. *)
let pass ?(span = fun _ f -> f ()) (o : Common.opts) tally input out budget =
  let forward =
    List.map
      (fun k ->
        let (), dt =
          Common.time (fun () ->
              span ("batch.engine." ^ Batch.Kernel.name k) (fun () ->
                  Batch.Engine.run_into ~jobs:o.jobs k input.cols out))
        in
        verify_forward o tally k input out;
        dt)
      (kernels ())
  in
  let (), inverse =
    Common.time (fun () ->
        span "core.inverse" (fun () ->
            Batch.Engine.loss_budget_into ~jobs:o.jobs ~b input.inv ~rates:input.rates budget))
  in
  verify_inverse o tally input budget;
  forward @ [ inverse ]

let run (o : Common.opts) tally =
  let out = Float.Array.make rows 0. and budget = Float.Array.make inverse_rows 0. in
  let columns = columns () in
  let _, setups, passes =
    Common.measure o ~reps:100
      ~setup:(fun () -> Common.one_step (fun () -> setup o columns))
      ~pass:(fun input -> pass o tally input out budget)
  in
  {
    Common.setups;
    passes;
    input =
      [
        ("rows", string_of_int rows);
        ("column_bytes", string_of_int column_bytes);
        ("inverse_rows", string_of_int inverse_rows);
        ("p_order", "ascending within rtt x wm blocks");
      ];
  }

let traced (o : Common.opts) tally =
  let input = Span.with_ "grid.setup" (fun () -> setup o (columns ())) in
  let out = Float.Array.make rows 0. and budget = Float.Array.make inverse_rows 0. in
  (* Warm-up: the first pass of a process also spawns domains and grows
     the heap. *)
  let sum = List.fold_left ( +. ) 0. in
  ignore (Span.with_ "grid.warmup" (fun () -> Span.paused (fun () -> pass o tally input out budget)));
  let untraced =
    Span.with_ "grid.pass.untraced" (fun () ->
        Span.paused (fun () -> sum (pass o tally input out budget)))
  in
  let traced = sum (Span.with_ "grid.pass" (fun () -> pass ~span:Span.with_ o tally input out budget)) in
  Span.with_ "grid.scan" (fun () ->
      Common.check tally (Result.is_ok (Batch.Scan.validate input.cols)) ~what:"grid scan");
  Span.with_ "grid.jobs1" (fun () ->
      List.iter
        (fun k ->
          let name = Batch.Kernel.name k in
          Span.with_ ("batch.kernel." ^ name) (fun () ->
              Batch.Kernel.eval_into k input.cols ~pos:0 ~len:rows out);
          Span.with_ ("batch.engine." ^ name ^ ".jobs1") (fun () ->
              Batch.Engine.run_into ~jobs:1 k input.cols out))
        (kernels ()));
  let names = List.map Batch.Kernel.name (kernels ()) in
  let total f = sum (List.map (fun n -> Span.total (f n)) names) in
  let r = float_of_int rows in
  List.concat_map
    (fun n ->
      [
        ("batch.kernel." ^ n ^ ".evals_per_s", r /. Span.total ("batch.kernel." ^ n));
        ("batch.engine." ^ n ^ ".evals_per_s", r /. Span.total ("batch.engine." ^ n));
      ])
    names
  @ [
      ("batch.scan.rows_per_s", r /. Span.total "grid.scan");
      ("core.inverse.rows_per_s", float_of_int inverse_rows /. Span.total "core.inverse");
      ( "parallel.grid_speedup",
        total (fun n -> "batch.engine." ^ n ^ ".jobs1") /. total (fun n -> "batch.engine." ^ n) );
      ("tracing.grid.overhead_share", (traced -. untraced) /. untraced);
    ]
