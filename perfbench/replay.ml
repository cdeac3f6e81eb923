(* Workload "replay": `pftk live --trace FILE --infer`.  Set-up runs a
   seeded one-hour packet-level Reno connection over a lossy path
   (Connection.run: both TD and TO indications occur), saves its trace
   with Serialize.save and computes the post-hoc
   Analyzer.summarize ~mode:`Infer reference.  Each pass streams the file
   through Serialize.iter_file into an inferring Predictor, the only path
   that exercises the trace reader and the online detector/Karn matcher.
   The predictor's final summary must equal the reference. *)

module Analyzer = Pftk_trace.Analyzer
module Predictor = Pftk_online.Predictor
module Serialize = Pftk_trace.Serialize

let duration = 3600.
let loss = 0.02

type input = {
  path : string;
  reference : Analyzer.summary;
  events : int;
  bytes : int;
}

let setup (o : Common.opts) =
  let seed = Int64.of_int o.seed in
  let rng = Pftk_stats.Rng.create ~seed () in
  let scenario =
    {
      Pftk_tcp.Connection.default_scenario with
      data_loss = Some (Pftk_loss.Loss_process.bernoulli rng ~p:loss);
    }
  in
  let result = Pftk_tcp.Connection.run ~seed ~duration scenario in
  let recorder = result.Pftk_tcp.Connection.recorder in
  let path = Filename.concat o.work_dir "replay-trace.txt" in
  Serialize.save path recorder;
  {
    path;
    reference = Analyzer.summarize ~mode:`Infer recorder;
    events = Pftk_trace.Recorder.events_seen recorder;
    bytes = Common.file_size path;
  }

(* `pftk live`'s default path facts; rtt and t0 are replaced by the
   streaming estimates. *)
let predictor ppf =
  Predictor.create ~mode:`Infer
    ~on_snapshot:(fun s -> Format.fprintf ppf "%a@." Predictor.pp_snapshot s)
    (Pftk_core.Params.make ~b:2 ~rtt:0.2 ~t0:2. ())

(* The streaming summary matches the post-hoc one exactly, except avg_t0
   (same multiset, summed in another order: 1e-9 relative). *)
let same_summary (a : Analyzer.summary) (b : Analyzer.summary) =
  a.duration = b.duration
  && a.packets_sent = b.packets_sent
  && a.loss_indications = b.loss_indications
  && a.td_count = b.td_count
  && a.to_by_backoff = b.to_by_backoff
  && a.observed_p = b.observed_p
  && a.send_rate = b.send_rate
  && a.avg_rtt = b.avg_rtt
  && Float.abs (a.avg_t0 -. b.avg_t0) <= 1e-9 *. Float.abs b.avg_t0

let pass input =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  let p = predictor ppf in
  let count = Pftk_online.Sink.counter () in
  Serialize.iter_file input.path (Pftk_online.Sink.counting count (Predictor.sink p));
  Format.fprintf ppf "final: %a@." Predictor.pp_snapshot (Predictor.snapshot p);
  (p, Pftk_online.Sink.events count)

let verify (o : Common.opts) tally input (p, events) =
  let summary = Predictor.summary p in
  let summary =
    if o.fault then { summary with loss_indications = summary.loss_indications + 1 }
    else summary
  in
  Common.check tally
    (events = input.events && same_summary summary input.reference)
    ~what:"replay summary differs from the post-hoc inference reference"

let run (o : Common.opts) tally =
  let input, setups, passes =
    Common.measure o ~reps:16
      ~setup:(fun () -> Common.one_step (fun () -> setup o))
      ~pass:(fun input ->
        let r, dt = Common.time (fun () -> pass input) in
        verify o tally input r;
        [ dt ])
  in
  {
    Common.setups;
    passes;
    input =
      [
        ("events", string_of_int input.events);
        ("bytes", string_of_int input.bytes);
        ("td_indications", string_of_int input.reference.td_count);
        ( "to_indications",
          string_of_int (input.reference.loss_indications - input.reference.td_count) );
      ];
  }

let traced (o : Common.opts) tally =
  let input = Span.with_ "replay.setup" (fun () -> setup o) in
  ignore (Span.with_ "replay.warmup" (fun () -> Span.paused (fun () -> pass input)));
  let _, untraced =
    Span.with_ "replay.pass.untraced" (fun () ->
        Span.paused (fun () -> Common.time (fun () -> pass input)))
  in
  let p, _ as r = Span.with_ "replay.pass" (fun () -> pass input) in
  verify o tally input r;
  Span.with_ "trace.serialize.parse" (fun () ->
      Serialize.iter_file input.path Pftk_online.Sink.null);
  let recorder = Span.with_ "trace.serialize.load" (fun () -> Serialize.load input.path) in
  let in_memory name sink = Span.with_ name (fun () -> Pftk_trace.Recorder.iter sink recorder) in
  in_memory "online.predictor.infer" (Predictor.sink (predictor (Format.formatter_of_buffer (Buffer.create 8192))));
  let summary mode = Pftk_online.Summary.create ~mode () in
  let s = summary `Infer in
  in_memory "online.summary.infer" (Pftk_online.Summary.sink s);
  Common.check tally
    (same_summary (Pftk_online.Summary.current s) input.reference)
    ~what:"replay in-memory summary differs from the reference";
  in_memory "online.summary.ground_truth" (Pftk_online.Summary.sink (summary `Ground_truth));
  let pass_s = Span.total "replay.pass" in
  [
    ("trace.serialize.parse_s", Span.total "trace.serialize.parse");
    ("online.predictor.infer_s", Span.total "online.predictor.infer");
    ("online.summary.infer_s", Span.total "online.summary.infer");
    ("online.summary.ground_truth_s", Span.total "online.summary.ground_truth");
    ("trace.replay.events", float_of_int input.events);
    ("trace.replay.bytes", float_of_int input.bytes);
    ("online.loss_indications", float_of_int input.reference.loss_indications);
    ("online.predictor.snapshots", float_of_int (Predictor.snapshots_emitted p));
    ( "replay.coverage",
      (Span.total "trace.serialize.parse" +. Span.total "online.predictor.infer") /. pass_s );
    ("tracing.replay.overhead_share", (pass_s -. untraced) /. untraced);
  ]
