(* pftk: command-line front end for the PFTK TCP-throughput model suite and
   its experiment drivers.  `pftk all` regenerates every table and figure. *)

open Cmdliner
open Pftk_core

let ppf = Format.std_formatter

(* --- Shared options ------------------------------------------------------ *)

let rtt_arg =
  let doc = "Average round-trip time, seconds." in
  Arg.(value & opt float 0.2 & info [ "rtt" ] ~docv:"SECONDS" ~doc)

let t0_arg =
  let doc = "Average single-timeout duration T0, seconds." in
  Arg.(value & opt float 2. & info [ "t0" ] ~docv:"SECONDS" ~doc)

let b_arg =
  let doc = "Packets acknowledged per ACK (2 with delayed ACKs)." in
  Arg.(value & opt int 2 & info [ "b"; "ack-factor" ] ~docv:"N" ~doc)

let wm_arg =
  let doc =
    "Receiver-advertised maximum window, packets.  $(docv) <= 0 (0 is \
     the default) means unlimited: the window-limit term of eq. (31)/(32) \
     is disabled and the models reduce to their unconstrained forms."
  in
  Arg.(value & opt int 0 & info [ "wm" ] ~docv:"PACKETS" ~doc)

let p_arg =
  let doc = "Loss-indication probability." in
  Arg.(value & opt float 0.01 & info [ "p"; "loss" ] ~docv:"PROB" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Shorter runs: 600-s traces and 30 connections per batch." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the simulation fan-out (default: the number of \
     cores).  Results are independent of $(docv)."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error (`Msg "JOBS must be >= 1")
      | None -> Error (`Msg (Printf.sprintf "invalid JOBS value %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt positive_int (Pftk_parallel.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let model_arg =
  let doc =
    "Model: full (default), approximate, td-only, td-only-sqrt, \
     full-approx-q, throughput, markov."
  in
  Arg.(value & opt string "full" & info [ "model" ] ~docv:"MODEL" ~doc)

(* A flag value the front end or the libraries reject: its message and
   exit 2, the code for bad arguments, instead of an uncaught exception. *)
let bad_argument msg =
  Format.eprintf "pftk: %s@." msg;
  exit 2

(* [f ()], where an [Invalid_argument] means a flag value the libraries
   reject. *)
let checked f =
  match f () with
  | v -> v
  | exception Invalid_argument msg -> bad_argument msg

let make_params ~rtt ~t0 ~b ~wm =
  checked (fun () ->
      if wm <= 0 then Params.make ~b ~rtt ~t0 ()
      else Params.make ~b ~wm ~rtt ~t0 ())

let parse_model name =
  match Model.of_name name with
  | Some kind -> kind
  | None -> bad_argument (Printf.sprintf "unknown model %S" name)

(* Trace files come from users; fail with a message and a nonzero exit
   instead of a backtrace when one is unreadable, malformed, or empty. *)
let fail_trace path msg : 'a =
  Format.eprintf "pftk: cannot use trace file %s: %s@." path msg;
  exit 1

(* The error already names the file; fail_trace prints the path itself. *)
let trace_error (e : Pftk_trace.Serialize.error) =
  Pftk_trace.Serialize.error_message { e with Pftk_trace.Serialize.file = None }

(* A [Sys_error] about [path] starts with "path: "; fail_trace prints the
   path itself. *)
let sys_error path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix) (String.length msg - String.length prefix)
  else msg

let load_trace path =
  match Pftk_trace.Serialize.load path with
  | recorder ->
      if Pftk_trace.Recorder.length recorder = 0 then
        fail_trace path "trace contains no events"
      else recorder
  | exception Sys_error msg -> fail_trace path (sys_error path msg)
  | exception Pftk_trace.Serialize.Error e -> fail_trace path (trace_error e)

let iter_trace path f =
  match Pftk_trace.Serialize.iter_file path f with
  | () -> ()
  | exception Sys_error msg -> fail_trace path (sys_error path msg)
  | exception Pftk_trace.Serialize.Error e -> fail_trace path (trace_error e)

(* --- rate / throughput / inverse / sweep -------------------------------- *)

let rate_cmd =
  let run rtt t0 b wm p model =
    let params = make_params ~rtt ~t0 ~b ~wm in
    let kind = parse_model model in
    let rate = checked (fun () -> Model.send_rate kind params p) in
    Format.fprintf ppf "%s model, %a, p=%g:@.  %.4f packets/s@."
      (Model.name kind) Params.pp params p rate
  in
  let doc = "Evaluate a send-rate model at one operating point." in
  Cmd.v (Cmd.info "rate" ~doc)
    Term.(const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ p_arg $ model_arg)

let throughput_cmd =
  let run rtt t0 b wm p =
    let params = make_params ~rtt ~t0 ~b ~wm in
    let b_rate = checked (fun () -> Full_model.send_rate params p) in
    let t_rate = Throughput.throughput params p in
    Format.fprintf ppf
      "%a, p=%g:@.  send rate B = %.4f pkt/s@.  throughput T = %.4f pkt/s@.  \
       delivery ratio = %.4f@."
      Params.pp params p b_rate t_rate (t_rate /. b_rate)
  in
  let doc = "Send rate vs receiver throughput (Sec. V) at one point." in
  Cmd.v (Cmd.info "throughput" ~doc)
    Term.(const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ p_arg)

let inverse_cmd =
  let target_arg =
    let doc = "Target send rate, packets/s." in
    Arg.(value & opt float 10. & info [ "target" ] ~docv:"RATE" ~doc)
  in
  let run rtt t0 b wm target =
    let params = make_params ~rtt ~t0 ~b ~wm in
    match Inverse.loss_budget params ~rate:target with
    | Some p ->
        Format.fprintf ppf
          "%a:@.  loss budget for %.2f pkt/s: p = %.6f@." Params.pp params
          target p
    | None ->
        Format.fprintf ppf
          "%a:@.  %.2f pkt/s is outside the achievable range@." Params.pp
          params target
  in
  let doc = "Largest loss probability sustaining a target rate." in
  Cmd.v (Cmd.info "inverse" ~doc)
    Term.(const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ target_arg)

let sweep_cmd =
  let run rtt t0 b wm model =
    let params = make_params ~rtt ~t0 ~b ~wm in
    let kind = parse_model model in
    let series = Model.series kind params (Sweep.paper_loss_grid ()) in
    Format.fprintf ppf "# %s over p, %a@.%a@." (Model.name kind) Params.pp
      params Sweep.pp_series series
  in
  let doc = "Print a (p, rate) series for one model over the paper's grid." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ model_arg)

let latency_cmd =
  let packets_arg =
    let doc = "Transfer size, packets." in
    Arg.(value & opt int 20 & info [ "packets" ] ~docv:"N" ~doc)
  in
  let run rtt t0 b wm p packets =
    let params = make_params ~rtt ~t0 ~b ~wm in
    let phases = checked (fun () -> Short_flow.expected_latency params ~p ~packets) in
    Format.fprintf ppf
      "short-flow latency, %a, p=%g, %d packets:@.  handshake %.3fs  slow-start %.3fs  recovery %.3fs  cong-avoidance %.3fs  delayed-ack %.3fs@.  total %.3f s  (%.2f pkt/s effective; bulk model: %.2f pkt/s)@."
      Params.pp params p packets phases.Short_flow.handshake
      phases.Short_flow.slow_start phases.Short_flow.recovery
      phases.Short_flow.congestion_avoidance phases.Short_flow.delayed_ack
      phases.Short_flow.total
      (Short_flow.mean_rate phases ~packets)
      (Full_model.send_rate params p)
  in
  let doc = "Expected completion time of a short transfer (Cardwell model)." in
  Cmd.v (Cmd.info "latency" ~doc)
    Term.(const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ p_arg $ packets_arg)

let tfrc_cmd =
  (* Each epoch sends one RTT's worth of packets, so --rtt sets the work. *)
  let max_epoch_packets = 10_000_000 in
  let run rtt p seed =
    checked (fun () -> Params.check_p p);
    let params = checked (fun () -> Params.make ~rtt ~t0:(4. *. rtt) ()) in
    if not (Float.is_finite rtt) then bad_argument "--rtt must be finite";
    let controller = Tfrc.Controller.create () in
    let rng = Pftk_stats.Rng.create ~seed () in
    Format.fprintf ppf "TFRC controller under p=%g, RTT=%gs:@." p rtt;
    Format.fprintf ppf "%8s %12s %12s@." "epoch" "rate pkt/s" "est. p";
    for epoch = 1 to 24 do
      Tfrc.Controller.on_rtt_sample controller rtt;
      (* One RTT's worth of packets at the current rate. *)
      let want = Tfrc.Controller.allowed_rate controller *. rtt in
      if want > float_of_int max_epoch_packets then
        bad_argument
          (Printf.sprintf "epoch %d would send %.3g packets, over the limit of %d" epoch want
             max_epoch_packets);
      let n = max 1 (int_of_float want) in
      for _ = 1 to n do
        Tfrc.Controller.on_packet controller
          ~lost:(Pftk_stats.Rng.bernoulli rng p)
      done;
      Tfrc.Controller.feedback_epoch controller;
      if epoch mod 2 = 0 then
        Format.fprintf ppf "%8d %12.2f %12s@." epoch
          (Tfrc.Controller.allowed_rate controller)
          (match Tfrc.Controller.loss_event_rate controller with
          | Some est -> Printf.sprintf "%.4f" est
          | None -> "-")
    done;
    Format.fprintf ppf "eq. (33) at the true p: %.2f pkt/s@."
      (Approx_model.send_rate params p)
  in
  let doc = "Drive the TFRC-style controller against synthetic loss." in
  let man =
    [
      `S Manpage.s_description;
      `P
        (Printf.sprintf
           "Each of the 24 epochs sends one RTT's worth of packets at the \
            controller's allowed rate.  A $(b,--rtt) that is not finite, or an \
            epoch that would send more than %d packets, stops the run before \
            that epoch with exit 2."
           max_epoch_packets);
    ]
  in
  Cmd.v (Cmd.info "tfrc" ~doc ~man) Term.(const run $ rtt_arg $ p_arg $ seed_arg)

(* --- simulate / analyze -------------------------------------------------- *)

let simulate_cmd =
  let duration_arg =
    let doc = "Simulated duration, seconds." in
    Arg.(value & opt float 600. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let dump_arg =
    let doc = "Write the trace to $(docv) (pftk text format)." in
    Arg.(value & opt (some string) None & info [ "dump-trace" ] ~docv:"FILE" ~doc)
  in
  let live_arg =
    let doc =
      "Attach a live predictor: print the streaming estimates and the \
       model's prediction at every 100-s checkpoint as the simulation \
       runs."
    in
    Arg.(value & flag & info [ "live" ] ~doc)
  in
  let run rtt t0 b wm p seed duration dump live =
    let params = make_params ~rtt ~t0 ~b ~wm in
    let rng = Pftk_stats.Rng.create ~seed () in
    let loss = checked (fun () -> Pftk_loss.Loss_process.round_correlated rng ~p) in
    (* Buffering is only needed to dump the trace afterwards; the live
       predictor consumes events as a recorder subscriber either way. *)
    let recorder =
      Pftk_trace.Recorder.create ~buffered:(Option.is_some dump) ()
    in
    if live then begin
      let predictor =
        Pftk_online.Predictor.create params ~on_snapshot:(fun s ->
            Format.fprintf ppf "%a@." Pftk_online.Predictor.pp_snapshot s)
      in
      Pftk_trace.Recorder.subscribe recorder
        (Pftk_online.Predictor.sink predictor)
    end;
    let result =
      checked (fun () ->
          Pftk_tcp.Round_sim.run ~seed ~recorder ~duration ~loss
            (Pftk_tcp.Round_sim.config_of_params params))
    in
    (match dump with
    | Some path ->
        (match Pftk_trace.Serialize.save path recorder with
        | () -> ()
        | exception Sys_error msg -> fail_trace path (sys_error path msg));
        Format.fprintf ppf "trace written to %s (%d events)@." path
          (Pftk_trace.Recorder.length recorder)
    | None -> ());
    let open Pftk_tcp.Round_sim in
    Format.fprintf ppf
      "round-based simulation, %a, p=%g, %.0f s:@.  packets sent %d \
       (delivered %d), rounds %d@.  loss indications %d (TD %d, TO \
       sequences %d)@.  send rate %.3f pkt/s (model: %.3f), observed p \
       %.5f@."
      Params.pp params p duration result.packets_sent result.packets_delivered
      result.rounds result.loss_indications result.td_events
      result.to_sequences result.send_rate
      (Full_model.send_rate params p)
      result.observed_p
  in
  let doc = "Monte-Carlo the model process and compare with eq. (32)." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ p_arg $ seed_arg
      $ duration_arg $ dump_arg $ live_arg)

let analyze_cmd =
  let trace_arg =
    let doc = "Analyze a saved trace file instead of running a simulation." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run seed quick trace =
    match trace with
    | Some path ->
        let recorder = load_trace path in
        let summary = Pftk_trace.Analyzer.summarize recorder in
        Format.fprintf ppf "%s: %a@." path Pftk_trace.Analyzer.pp_summary summary
    | None ->
    let duration = if quick then 300. else 1800. in
    let rng = Pftk_stats.Rng.create ~seed () in
    let scenario =
      {
        Pftk_tcp.Connection.default_scenario with
        data_loss = Some (Pftk_loss.Loss_process.bernoulli rng ~p:0.02);
      }
    in
    let result = Pftk_tcp.Connection.run ~seed ~duration scenario in
    let truth =
      Pftk_trace.Analyzer.summarize ~mode:`Ground_truth
        result.Pftk_tcp.Connection.recorder
    in
    let inferred =
      Pftk_trace.Analyzer.summarize ~mode:`Infer
        result.Pftk_tcp.Connection.recorder
    in
    Format.fprintf ppf
      "packet-level Reno over a lossy path (%.0f s):@.  ground truth: %a@.  \
       inferred:     %a@."
      duration Pftk_trace.Analyzer.pp_summary truth
      Pftk_trace.Analyzer.pp_summary inferred
  in
  let doc =
    "Run a packet-level connection and compare trace-inference against the \
     sender's ground truth."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ seed_arg $ quick_arg $ trace_arg)

let live_cmd =
  let duration_arg =
    let doc = "Simulated duration, seconds." in
    Arg.(value & opt float 600. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let interval_arg =
    let doc = "Checkpoint spacing, seconds." in
    Arg.(value & opt float 100. & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let trace_arg =
    let doc =
      "Replay a saved trace file through the live predictor instead of \
       simulating (streaming: the file is never loaded whole)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let infer_arg =
    let doc =
      "Infer loss indications from sends and ACKs alone (packet-trace \
       mode) instead of using the sender's own timer events."
    in
    Arg.(value & flag & info [ "infer" ] ~doc)
  in
  let run rtt t0 b wm p seed duration interval trace infer =
    let params = make_params ~rtt ~t0 ~b ~wm in
    let mode = if infer then `Infer else `Ground_truth in
    let predictor =
      checked (fun () ->
          Pftk_online.Predictor.create ~mode ~interval params ~on_snapshot:(fun s ->
              Format.fprintf ppf "%a@." Pftk_online.Predictor.pp_snapshot s))
    in
    let sink = Pftk_online.Predictor.sink predictor in
    (match trace with
    | Some path ->
        let count = Pftk_online.Sink.counter () in
        iter_trace path (Pftk_online.Sink.counting count sink);
        if Pftk_online.Sink.events count = 0 then
          fail_trace path "trace contains no events"
    | None ->
        let rng = Pftk_stats.Rng.create ~seed () in
        let loss = checked (fun () -> Pftk_loss.Loss_process.round_correlated rng ~p) in
        let recorder = Pftk_trace.Recorder.create ~buffered:false () in
        Pftk_trace.Recorder.subscribe recorder sink;
        ignore
          (checked (fun () ->
               Pftk_tcp.Round_sim.run ~seed ~recorder ~duration ~loss
                 (Pftk_tcp.Round_sim.config_of_params params))
            : Pftk_tcp.Round_sim.result));
    Format.fprintf ppf "final: %a@." Pftk_online.Predictor.pp_snapshot
      (Pftk_online.Predictor.snapshot predictor);
    Format.fprintf ppf "summary: %a@." Pftk_trace.Analyzer.pp_summary
      (Pftk_online.Predictor.summary predictor)
  in
  let doc =
    "Stream a connection (simulated, or a saved trace) through the online \
     estimators, printing predicted vs observed rate at every checkpoint."
  in
  Cmd.v (Cmd.info "live" ~doc)
    Term.(
      const run $ rtt_arg $ t0_arg $ b_arg $ wm_arg $ p_arg $ seed_arg
      $ duration_arg $ interval_arg $ trace_arg $ infer_arg)

(* --- selfcheck ------------------------------------------------------------ *)

let selfcheck_cmd =
  let cases_arg =
    let doc = "Number of generated cases." in
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let invariant_arg =
    let doc =
      "Check only one invariant, by id (C1..C12) or name (e.g. \
       inverse-roundtrip)."
    in
    Arg.(value & opt (some string) None & info [ "invariant" ] ~docv:"CK" ~doc)
  in
  let pin_arg =
    let doc =
      "Write each failure's shrunk counterexample to $(docv) as a corpus \
       file (one per failure, named after the invariant and case index)."
    in
    Arg.(value & opt (some string) None & info [ "pin" ] ~docv:"DIR" ~doc)
  in
  let run cases seed jobs invariant pin =
    let report =
      checked (fun () ->
          Pftk_selfcheck.Runner.run
            { Pftk_selfcheck.Runner.cases; seed; jobs; only = invariant })
    in
    Pftk_selfcheck.Runner.pp_report ppf report;
    (match pin with
    | Some dir ->
        List.iter
          (fun f ->
            let path =
              Filename.concat dir
                (Printf.sprintf "%s-case%d.case"
                   (String.lowercase_ascii
                      f.Pftk_selfcheck.Runner.invariant.Pftk_selfcheck.Invariant.id)
                   f.Pftk_selfcheck.Runner.index)
            in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc
                  (Pftk_selfcheck.Runner.counterexample_to_string ~seed f));
            Format.fprintf ppf "counterexample pinned to %s@." path)
          report.Pftk_selfcheck.Runner.failures
    | None -> ());
    if not (Pftk_selfcheck.Runner.ok report) then exit 1
  in
  let doc =
    "Property-based self-check: generate random cases and verify the \
     paper-guaranteed invariants (C1..C12) across the whole suite, \
     shrinking any counterexample.  Deterministic in --seed; the report \
     is byte-identical for every --jobs value."
  in
  Cmd.v (Cmd.info "selfcheck" ~doc)
    Term.(const run $ cases_arg $ seed_arg $ jobs_arg $ invariant_arg $ pin_arg)

(* --- batch: serve / bench-batch ------------------------------------------- *)

let batch_model_arg =
  let doc =
    "Batch model: full (default), full-approx-q, approximate, td-only, tfrc."
  in
  Arg.(value & opt string "full" & info [ "model" ] ~docv:"MODEL" ~doc)

let t0_factor_arg =
  let doc = "The tfrc model's RTO stand-in: T0 = $(docv) * RTT." in
  Arg.(value & opt float 4. & info [ "t0-factor" ] ~docv:"FACTOR" ~doc)

let chunk_arg =
  let doc =
    "Rows per engine chunk (the parallel work grain).  Output is \
     byte-identical for every $(docv) and --jobs value."
  in
  Arg.(
    value
    & opt int Pftk_batch.Engine.default_chunk
    & info [ "chunk" ] ~docv:"ROWS" ~doc)

let parse_batch_model ~t0_factor name =
  match String.lowercase_ascii name with
  | "tfrc" -> Pftk_batch.Kernel.Tfrc t0_factor
  | other -> (
      match Model.of_name other with
      | Some Model.Full -> Pftk_batch.Kernel.Full
      | Some Model.Full_approx_q -> Pftk_batch.Kernel.Full_approx_q
      | Some Model.Approximate -> Pftk_batch.Kernel.Approximate
      | Some Model.Td_only -> Pftk_batch.Kernel.Td_only
      | Some _ ->
          bad_argument
            (Printf.sprintf
               "model %S has no batch kernel (batch models: full, \
                full-approx-q, approximate, td-only, tfrc)"
               name)
      | None -> bad_argument (Printf.sprintf "unknown model %S" name))

let batch_kernel ~b ~t0_factor name =
  let model = parse_batch_model ~t0_factor name in
  checked (fun () -> Pftk_batch.Kernel.make ~b model)

let serve_cmd =
  let file_arg =
    let doc = "Read queries from $(docv) instead of stdin." in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let batch_arg =
    let doc =
      "Answer with the columnar batch engine.  This is the default; the \
       flag exists to make invocations explicit."
    in
    Arg.(value & flag & info [ "batch" ] ~doc)
  in
  let scalar_arg =
    let doc =
      "Answer each line with the guarded per-row scalar computation \
       instead of the batch engine.  Same protocol and (bit-identical) \
       output; exists to cross-check the engine."
    in
    Arg.(value & flag & info [ "scalar" ] ~doc)
  in
  let run model b t0_factor file batch scalar jobs chunk =
    ignore batch;
    let kernel = batch_kernel ~b ~t0_factor model in
    let ic =
      match file with
      | None -> stdin
      | Some path -> (
          try open_in path
          with Sys_error msg ->
            Format.eprintf "pftk serve: %s@." msg;
            exit 2)
    in
    let outcome =
      checked (fun () ->
          Pftk_batch.Stream.run ~jobs ~chunk ~scalar kernel ic stdout ~err:stderr)
    in
    (match file with Some _ -> close_in ic | None -> ());
    if
      outcome.Pftk_batch.Stream.total > 0
      && outcome.Pftk_batch.Stream.failed = outcome.Pftk_batch.Stream.total
    then exit 1
  in
  let doc =
    Printf.sprintf
      "Answer a newline-delimited query stream ('p rtt t0 wm' per line, \
       wm=0 for unlimited) with one send rate per line.  Units: p is the \
       loss probability (dimensionless, 0 < p < 1), rtt and t0 are \
       seconds, wm is packets, and each output rate is packets per \
       second (multiply by the MSS in bytes for bytes/s).  Malformed or \
       out-of-domain lines get the sentinel 'nan' on stdout and a 'pftk \
       serve: line N: ...' diagnostic on stderr without aborting the \
       stream; the exit status is nonzero only when every input line \
       failed.  Input lines are capped at %d bytes: a longer line is \
       rejected (never evaluated) with a diagnostic naming its observed \
       length."
      Pftk_batch.Serve.max_line_bytes
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ batch_model_arg $ b_arg $ t0_factor_arg $ file_arg
      $ batch_arg $ scalar_arg $ jobs_arg $ chunk_arg)

let bench_batch_cmd =
  let rows_arg =
    let doc = "Rows per measured pass." in
    Arg.(value & opt int 1_000_000 & info [ "rows" ] ~docv:"N" ~doc)
  in
  let min_speedup_arg =
    let doc =
      "Exit 1 unless single-thread batch throughput is at least $(docv) \
       times the scalar baseline."
    in
    Arg.(value & opt float 0. & info [ "min-speedup" ] ~docv:"X" ~doc)
  in
  let scalar_model_arg =
    let doc =
      "Scalar baseline for the speedup ratio (default: the batch model \
       itself, an apples-to-apples comparison).  Passing a different \
       model makes the cross-model ratio explicit, e.g. batch \
       'approximate' vs today's scalar 'full' default query path."
    in
    Arg.(
      value & opt (some string) None & info [ "scalar-model" ] ~docv:"MODEL" ~doc)
  in
  let run model scalar_model b t0_factor rows jobs min_speedup =
    if rows < 1 then bad_argument "--rows must be >= 1";
    let kernel = batch_kernel ~b ~t0_factor model in
    let scalar_kernel =
      match scalar_model with
      | None -> kernel
      | Some name -> batch_kernel ~b ~t0_factor name
    in
    (* Deterministic synthetic workload spanning both regimes of
       eq. (32): log-spaced p, a spread of RTTs, and a window cycle
       including small (limiting) and unlimited values. *)
    let wm_cycle = [| 0.; 8.; 32.; 1024. |] in
    let cols = Pftk_batch.Columns.create rows in
    let denom = float_of_int (max 1 (rows - 1)) in
    for i = 0 to rows - 1 do
      (* p ascends across the batch — the realistic shape (model sweeps
         over a loss grid) and the branch-predictable one; DESIGN
         "Batch evaluation" quantifies the shuffled-p penalty. *)
      let p = 10. ** (-4. +. (3. *. (float_of_int i /. denom))) in
      let rtt = 0.02 +. (0.38 *. (float_of_int (i mod 13) /. 12.)) in
      Pftk_batch.Columns.set cols i ~p ~rtt ~t0:(4. *. rtt)
        ~wm:wm_cycle.(i mod 4)
    done;
    (* Repeat each measured pass until >= 0.3 s of wall clock. *)
    let throughput f =
      let start = Unix.gettimeofday () in
      let reps = ref 0 in
      let elapsed = ref 0. in
      while !elapsed < 0.3 do
        f ();
        incr reps;
        elapsed := Unix.gettimeofday () -. start
      done;
      float_of_int (!reps * rows) /. !elapsed
    in
    let sink = ref 0. in
    let scalar_rate =
      throughput (fun () ->
          for i = 0 to rows - 1 do
            let p, rtt, t0, wm = Pftk_batch.Columns.row cols i in
            sink :=
              !sink
              +. Pftk_batch.Kernel.scalar_reference scalar_kernel ~p ~rtt ~t0
                   ~wm
          done)
    in
    let out = Float.Array.make rows 0. in
    let batch1_rate =
      throughput (fun () ->
          Pftk_batch.Engine.run_into ~jobs:1 kernel cols out)
    in
    let batchj_rate =
      if jobs = 1 then batch1_rate
      else throughput (fun () -> Pftk_batch.Engine.run_into ~jobs kernel cols out)
    in
    (* Bitwise sanity: the batch output must equal the batch model's own
       scalar results on a prefix of the rows. *)
    let check_rows = min rows 4096 in
    Pftk_batch.Engine.run_into ~jobs:1 kernel cols out;
    for i = 0 to check_rows - 1 do
      let p, rtt, t0, wm = Pftk_batch.Columns.row cols i in
      let want = Pftk_batch.Kernel.scalar_reference kernel ~p ~rtt ~t0 ~wm in
      let got = Float.Array.get out i in
      if not (Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got))
      then begin
        Format.eprintf
          "pftk bench-batch: batch/scalar mismatch at row %d: %h vs %h@." i
          got want;
        exit 1
      end
    done;
    (* Minor words a jobs=1 pass allocates per row: 0 when the core
       bodies are expanded in the kernel loops, which takes a build
       without -opaque (the release profile, not dune's dev profile). *)
    let words_per_row =
      let before = Gc.minor_words () in
      Pftk_batch.Engine.run_into ~jobs:1 kernel cols out;
      (Gc.minor_words () -. before) /. float_of_int rows
    in
    let speedup = batch1_rate /. scalar_rate in
    Format.fprintf ppf
      "batch-bench: model=%s b=%d rows=%d@.  scalar (%s): %.3g evals/s@.  \
       batch jobs=1: %.3g evals/s  (%.2fx vs scalar)@.  batch jobs=%d: %.3g \
       evals/s@.  bitwise check: OK (%d rows)@.  batch jobs=1 minor words \
       per row: %g@."
      (Pftk_batch.Kernel.name kernel)
      b rows
      (Pftk_batch.Kernel.name scalar_kernel)
      scalar_rate batch1_rate speedup jobs batchj_rate check_rows
      words_per_row;
    if min_speedup > 0. && speedup < min_speedup then begin
      Format.eprintf
        "pftk bench-batch: speedup %.2fx below required %.2fx@." speedup
        min_speedup;
      exit 1
    end
  in
  let doc =
    "Measure batch-engine throughput against the per-row scalar query path \
     on a synthetic workload, verify bit-identical results, and optionally \
     enforce a minimum speedup (CI smoke)."
  in
  Cmd.v (Cmd.info "bench-batch" ~doc)
    Term.(
      const run $ batch_model_arg $ scalar_model_arg $ b_arg $ t0_factor_arg
      $ rows_arg $ jobs_arg $ min_speedup_arg)

(* --- experiment drivers --------------------------------------------------- *)

let hour_duration quick = if quick then 600. else 3600.
let batch_count quick = if quick then 30 else 100

let table1_cmd =
  let run () = Pftk_experiments.Table1.print ppf in
  Cmd.v (Cmd.info "table1" ~doc:"Table I: measurement hosts.") Term.(const run $ const ())

let table2_cmd =
  let run seed quick jobs =
    Pftk_experiments.Table2.(
      print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ()))
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Table II: 1-hour trace summaries, sim vs paper.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig7_cmd =
  let run seed quick jobs =
    Pftk_experiments.Fig7.(
      print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ()))
  in
  Cmd.v (Cmd.info "fig7" ~doc:"Fig. 7: interval scatter vs model curves.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig8_cmd =
  let run seed quick jobs =
    Pftk_experiments.Fig8.(
      print ppf (generate ~seed ~count:(batch_count quick) ~jobs ()))
  in
  Cmd.v (Cmd.info "fig8" ~doc:"Fig. 8: 100-s traces vs model predictions.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig9_cmd =
  let run seed quick jobs =
    Pftk_experiments.Fig9.(
      print ppf ~title:"Fig. 9: Comparison of the models for 1-h traces"
        (generate ~seed ~duration:(hour_duration quick) ~jobs ()))
  in
  Cmd.v (Cmd.info "fig9" ~doc:"Fig. 9: average error on 1-hour traces.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig10_cmd =
  let run seed quick jobs =
    Pftk_experiments.Fig10.(
      print ppf (generate ~seed ~count:(batch_count quick) ~jobs ()))
  in
  Cmd.v (Cmd.info "fig10" ~doc:"Fig. 10: average error on 100-s traces.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig11_cmd =
  let run seed quick jobs =
    let duration = if quick then 900. else 3600. in
    Pftk_experiments.Fig11.(
      print ppf
        (generate ~seed ~wide_duration:duration ~modem_duration:duration ~jobs
           ()))
  in
  Cmd.v (Cmd.info "fig11" ~doc:"Fig. 11 / Sec. IV: modem correlation study.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig12_cmd =
  let run seed quick jobs =
    let mc_duration = if quick then 5_000. else 30_000. in
    Pftk_experiments.Fig12.(print ppf (generate ~seed ~mc_duration ~jobs ()))
  in
  Cmd.v (Cmd.info "fig12" ~doc:"Fig. 12: full model vs numerical Markov model.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fig13_cmd =
  let run () = Pftk_experiments.Fig13.(print ppf (generate ())) in
  Cmd.v (Cmd.info "fig13" ~doc:"Fig. 13: throughput vs send rate.")
    Term.(const run $ const ())

let timeline_cmd =
  let trace_arg =
    let doc = "Plot a saved trace file instead of simulating." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run seed trace =
    let recorder =
      match trace with
      | Some path -> load_trace path
      | None ->
          let rng = Pftk_stats.Rng.create ~seed () in
          let scenario =
            {
              Pftk_tcp.Connection.default_scenario with
              Pftk_tcp.Connection.data_loss =
                Some (Pftk_loss.Loss_process.bernoulli rng ~p:0.02);
            }
          in
          (Pftk_tcp.Connection.run ~seed ~duration:120. scenario)
            .Pftk_tcp.Connection.recorder
    in
    Format.fprintf ppf "%s@." (Pftk_trace.Timeline.summary_line recorder);
    let to_points pts =
      List.map (fun { Pftk_trace.Timeline.time; value } -> (time, value)) pts
    in
    Pftk_experiments.Ascii_plot.render ppf ~logx:false ~logy:false
      ~x_label:"time (s)" ~y_label:"cwnd (pkts)"
      [
        {
          Pftk_experiments.Ascii_plot.glyph = '.';
          label = "congestion window";
          points = to_points (Pftk_trace.Timeline.congestion_window recorder);
        };
      ];
    Pftk_experiments.Ascii_plot.render ppf ~logx:false ~logy:false
      ~x_label:"time (s)" ~y_label:"pkt/s"
      [
        {
          Pftk_experiments.Ascii_plot.glyph = '#';
          label = "goodput (10-s bins)";
          points = to_points (Pftk_trace.Timeline.goodput recorder);
        };
      ]
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"tcptrace-style views of a (simulated or saved) connection.")
    Term.(const run $ seed_arg $ trace_arg)

let convergence_cmd =
  let run seed quick jobs =
    Pftk_experiments.Convergence.(
      print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ()))
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:
         "Streaming estimation over the Table II paths: when do the live \
          estimates settle to the final summary?")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let validate_cmd =
  let run seed quick jobs =
    Pftk_experiments.Validation.(
      print ppf
        (generate ~seed ~duration:(if quick then 300. else 900.) ~jobs ()))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Model vs the packet-level Reno simulator across loss rates.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let fairness_cmd =
  let run seed quick jobs =
    let scenarios =
      if quick then
        [
          {
            Pftk_experiments.Fairness.label = "3 reno + 1 tfrc";
            reno_flows = 3;
            tfrc_flows = 1;
            duration = 60.;
          };
        ]
      else Pftk_experiments.Fairness.default_scenarios
    in
    Pftk_experiments.Fairness.(print ppf (generate ~seed ~scenarios ~jobs ()))
  in
  Cmd.v
    (Cmd.info "fairness"
       ~doc:"TCP-friendliness of an equation-paced flow at a shared bottleneck.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let sensitivity_cmd =
  let run () =
    Pftk_experiments.Sensitivity.(print ppf (elasticities ()))
  in
  Cmd.v
    (Cmd.info "sensitivity" ~doc:"Input elasticities of the full model.")
    Term.(const run $ const ())

let ablations_cmd =
  let run () = Pftk_experiments.Ablations.print ppf in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Ablations: the paper's design choices (Q-hat, eq. (33), loss \
          process, stack quirks, TCP flavor, recovery, queue discipline, \
          AIMD, delayed ACKs) varied one at a time, at fixed seeds.")
    Term.(const run $ const ())

let figwindow_cmd =
  let run seed = Pftk_experiments.Fig_window.(print ppf (generate ~seed ())) in
  Cmd.v
    (Cmd.info "figwindow" ~doc:"Figs. 1/3/5: window-evolution sample paths.")
    Term.(const run $ seed_arg)

(* --- mean-field backend --------------------------------------------------- *)

let meanfield_cmd =
  let module Solver = Pftk_meanfield.Solver in
  let module Dynamics = Pftk_meanfield.Dynamics in
  let module Queue_law = Pftk_meanfield.Queue_law in
  let flows_arg =
    let doc = "Population size: the number of homogeneous TCP flows." in
    Arg.(value & opt int 100_000 & info [ "flows" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc = "Bottleneck capacity, packets per second; positive and finite." in
    Arg.(value & opt float 10_000. & info [ "capacity" ] ~docv:"PKT/S" ~doc)
  in
  let base_rtt_arg =
    let doc =
      "Two-way propagation delay excluding queueing, seconds; positive and finite."
    in
    Arg.(value & opt float 0.1 & info [ "base-rtt" ] ~docv:"SECONDS" ~doc)
  in
  let buffer_arg =
    let doc =
      "Buffer hard limit, packets.  $(docv) <= 0 (0 is the default) sizes \
       it to one bandwidth-delay product, at least 8 packets."
    in
    Arg.(value & opt int 0 & info [ "buffer" ] ~docv:"PACKETS" ~doc)
  in
  let law_arg =
    let doc =
      "Drop law at the bottleneck: $(b,red) (ramp between the thresholds), \
       $(b,droptail) (loss only at a full buffer), or $(b,constant) (fixed \
       loss probability, no queue)."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("red", `Red); ("droptail", `Droptail); ("constant", `Constant) ]) `Red
      & info [ "law" ] ~docv:"LAW" ~doc)
  in
  let red_min_arg =
    let doc = "RED minimum threshold, packets; <= 0 (the default) means buffer/6." in
    Arg.(value & opt float 0. & info [ "red-min" ] ~docv:"PACKETS" ~doc)
  in
  let red_max_arg =
    let doc = "RED maximum threshold, packets; <= 0 (the default) means buffer/2." in
    Arg.(value & opt float 0. & info [ "red-max" ] ~docv:"PACKETS" ~doc)
  in
  let red_maxp_arg =
    let doc = "RED drop probability at the top of the ramp." in
    Arg.(value & opt float 0.1 & info [ "red-maxp" ] ~docv:"PROB" ~doc)
  in
  let red_weight_arg =
    let doc = "RED average-queue EWMA weight (per packet)." in
    Arg.(value & opt float 0.002 & info [ "red-weight" ] ~docv:"WEIGHT" ~doc)
  in
  let constant_p_arg =
    let doc = "Loss probability for the constant law." in
    Arg.(value & opt float 0.01 & info [ "constant-p" ] ~docv:"PROB" ~doc)
  in
  let rate_law_arg =
    let doc = "Per-flow rate model: eq. (32) ($(b,full)) or eq. (33) ($(b,approximate))." in
    Arg.(
      value
      & opt (Arg.enum [ ("full", Solver.Full); ("approximate", Solver.Approximate) ]) Solver.Full
      & info [ "rate-law" ] ~docv:"MODEL" ~doc)
  in
  let damping_arg =
    let doc = "Fixed-point damping factor in (0, 1]." in
    Arg.(value & opt float 0.5 & info [ "damping" ] ~docv:"GAMMA" ~doc)
  in
  let equilibrium_only_arg =
    let doc =
      "Skip the time-domain integration: report the fixed point without the \
       stable/oscillating verdict."
    in
    Arg.(value & flag & info [ "equilibrium-only" ] ~doc)
  in
  let max_solver_seconds_arg =
    let doc =
      "Fail (exit 1) when the equilibrium solve takes longer than $(docv) \
       wall-clock seconds; 0 (the default) disables the check, and a \
       negative or NaN $(docv) is rejected.  CI uses this to hold the \
       scale promise: equilibria for 100000+ flows in well under a second."
    in
    Arg.(value & opt float 0. & info [ "max-solver-seconds" ] ~docv:"SECONDS" ~doc)
  in
  let cross_validate_arg =
    let doc =
      "Run the netsim cross-validation instead: N = 2..64 reno flows \
       through the packet-level shared bottleneck vs the same scenarios \
       under the mean-field solver, with per-flow goodput relative errors."
    in
    Arg.(value & flag & info [ "cross-validate" ] ~doc)
  in
  let run flows capacity base_rtt buffer law red_min red_max red_maxp
      red_weight constant_p rate_law damping b wm equilibrium_only
      max_solver_seconds cross_validate seed quick jobs =
    if not (max_solver_seconds >= 0.) then
      bad_argument "--max-solver-seconds must be >= 0";
    if cross_validate then begin
      let scenarios =
        if quick then Pftk_experiments.Meanfield_xval.quick_scenarios
        else Pftk_experiments.Meanfield_xval.default_scenarios
      in
      Pftk_experiments.Meanfield_xval.(
        print ppf (generate ~seed ~scenarios ~jobs ()))
    end
    else begin
      let buffer =
        if buffer > 0 then buffer
        else Int.max 8 (int_of_float (capacity *. base_rtt))
      in
      let law =
        checked (fun () ->
            match law with
            | `Droptail -> Queue_law.drop_tail ~capacity:buffer
            | `Constant -> Queue_law.constant ~p:constant_p
            | `Red ->
                let bf = float_of_int buffer in
                let min_threshold = if red_min > 0. then red_min else bf /. 6. in
                let max_threshold = if red_max > 0. then red_max else bf /. 2. in
                Queue_law.red ~weight:red_weight ~max_probability:red_maxp
                  ~capacity:buffer ~min_threshold ~max_threshold ())
      in
      let cfg =
        {
          (Solver.default ~flows ~capacity ~base_rtt ~law) with
          Solver.b;
          wm;
          rate_law;
          damping;
        }
      in
      let t_start = Unix.gettimeofday () in
      let eq = checked (fun () -> Solver.solve cfg) in
      let solver_seconds = Unix.gettimeofday () -. t_start in
      Format.fprintf ppf "Mean-field equilibrium (%d flows)@." flows;
      Format.fprintf ppf "  law: %s@."
        (match law with
        | Queue_law.Drop_tail c -> Printf.sprintf "droptail(buffer=%d pkt)" c
        | Queue_law.Constant p -> Printf.sprintf "constant(p=%g)" p
        | Queue_law.Red r ->
            Printf.sprintf
              "red(buffer=%d pkt, min=%g, max=%g, maxp=%g, weight=%g)"
              r.Queue_law.red_capacity r.Queue_law.min_threshold
              r.Queue_law.max_threshold r.Queue_law.max_probability
              r.Queue_law.weight);
      Format.fprintf ppf "  loss probability p:  %.6f@." eq.Solver.p;
      Format.fprintf ppf "  queue occupancy:     %.1f pkt@." eq.Solver.queue;
      Format.fprintf ppf "  rtt:                 %.4f s@." eq.Solver.rtt;
      Format.fprintf ppf "  per-flow rate:       %.2f pkt/s@."
        eq.Solver.per_flow_rate;
      Format.fprintf ppf "  per-flow goodput:    %.2f pkt/s@."
        eq.Solver.per_flow_goodput;
      Format.fprintf ppf "  utilization:         %.3f@." eq.Solver.utilization;
      Format.fprintf ppf "  window-limited:      %s@."
        (if eq.Solver.window_limited then "yes" else "no");
      (match eq.Solver.outcome with
      | Solver.Converged ->
          Format.fprintf ppf
            "  solver: converged in %d iterations (residual %.2e pkt, loop \
             gain %.2f)@."
            eq.Solver.iterations eq.Solver.residual eq.Solver.loop_gain
      | Solver.Oscillating amplitude ->
          Format.fprintf ppf
            "  solver: no fixed point after %d iterations (queue bouncing \
             +-%.1f pkt, loop gain %.2f)@."
            eq.Solver.iterations amplitude eq.Solver.loop_gain);
      if not equilibrium_only then begin
        let d = checked (fun () -> Dynamics.run (Dynamics.default cfg)) in
        (match d.Dynamics.verdict with
        | Dynamics.Stable ->
            Format.fprintf ppf "  verdict: stable (queue settles at %.1f pkt)@."
              d.Dynamics.mean_queue
        | Dynamics.Oscillating { Dynamics.amplitude; period } ->
            Format.fprintf ppf
              "  verdict: oscillating (amplitude %.1f pkt%s — RED \
               instability)@."
              amplitude
              (if period > 0. then Printf.sprintf ", period %.2f s" period
               else ""));
        Format.fprintf ppf "  dynamics: queue %.1f..%.1f pkt, mean window %.1f \
                            pkt, mean goodput %.2f pkt/s@."
          d.Dynamics.queue_min d.Dynamics.queue_max d.Dynamics.mean_window
          d.Dynamics.mean_goodput
      end;
      (* Timing to stderr so stdout stays byte-comparable across runs. *)
      Format.eprintf "solver time: %.6f s (%.3g flows/s)@." solver_seconds
        (float_of_int flows /. Float.max 1e-9 solver_seconds);
      if max_solver_seconds > 0. && solver_seconds > max_solver_seconds then begin
        Format.eprintf
          "pftk meanfield: solver took %.3f s, over the %.3f s budget@."
          solver_seconds max_solver_seconds;
        exit 1
      end
    end
  in
  let doc =
    "Mean-field equilibrium and stability of N TCP flows behind one RED, \
     drop-tail or constant drop law."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Solves the population fixed point of the PFTK model behind a drop \
         law: inputs are the population size, the bottleneck capacity in \
         packets per second, the base round-trip time in seconds and the \
         drop law; the cost is independent of the number of flows.";
      `P
        "The report gives the equilibrium loss probability, queue occupancy \
         in packets, RTT, per-flow send rate and goodput in packets per \
         second, link utilization, and the solver's convergence record.  \
         Unless --equilibrium-only is given, the time-domain mean-field \
         dynamics then deliver the verdict line: $(b,stable) when the queue \
         settles, $(b,oscillating) with the limit-cycle amplitude and \
         period when RED's averaging lag and feedback delay sustain a \
         queue-law oscillation (Reynier's RED instability) — a result, \
         not an error.";
    ]
  in
  Cmd.v
    (Cmd.info "meanfield" ~doc ~man)
    Term.(
      const run $ flows_arg $ capacity_arg $ base_rtt_arg $ buffer_arg
      $ law_arg $ red_min_arg $ red_max_arg $ red_maxp_arg $ red_weight_arg
      $ constant_p_arg $ rate_law_arg $ damping_arg $ b_arg $ wm_arg
      $ equilibrium_only_arg $ max_solver_seconds_arg $ cross_validate_arg
      $ seed_arg $ quick_arg $ jobs_arg)

let redstability_cmd =
  let run quick jobs =
    let cells =
      if quick then Pftk_experiments.Red_stability.quick_cells
      else Pftk_experiments.Red_stability.default_cells
    in
    Pftk_experiments.Red_stability.(print ppf (generate ~cells ~jobs ()))
  in
  Cmd.v
    (Cmd.info "redstability"
       ~doc:
         "RED stability boundary: stable vs oscillating mean-field regimes \
          over an EWMA-weight x capacity x population sweep.")
    Term.(const run $ quick_arg $ jobs_arg)

let all_cmd =
  let run seed quick jobs =
    Pftk_experiments.Table1.print ppf;
    Pftk_experiments.Table2.(
      print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ()));
    Pftk_experiments.Fig_window.(print ppf (generate ~seed ()));
    Pftk_experiments.Fig7.(
      print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ()));
    Pftk_experiments.Fig8.(
      print ppf (generate ~seed ~count:(batch_count quick) ~jobs ()));
    Pftk_experiments.Fig9.(
      print ppf ~title:"Fig. 9: Comparison of the models for 1-h traces"
        (generate ~seed ~duration:(hour_duration quick) ~jobs ()));
    Pftk_experiments.Fig10.(
      print ppf (generate ~seed ~count:(batch_count quick) ~jobs ()));
    (let duration = if quick then 900. else 3600. in
     Pftk_experiments.Fig11.(
       print ppf
         (generate ~seed ~wide_duration:duration ~modem_duration:duration ~jobs
            ())));
    Pftk_experiments.Fig12.(
      print ppf
        (generate ~seed ~mc_duration:(if quick then 5_000. else 30_000.) ~jobs ()));
    Pftk_experiments.Fig13.(print ppf (generate ()));
    Pftk_experiments.Validation.(
      print ppf (generate ~seed ~duration:(if quick then 300. else 900.) ~jobs ()));
    Pftk_experiments.Convergence.(
      print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ()));
    Pftk_experiments.Window_dist.(
      print ppf
        (generate ~seed ~rounds:(if quick then 50_000 else 200_000) ~jobs ()));
    Pftk_experiments.Sensitivity.(print ppf (elasticities ()));
    Pftk_experiments.Fairness.(
      print ppf
        (generate ~seed
           ~scenarios:
             (if quick then
                [
                  {
                    label = "3 reno + 1 tfrc";
                    reno_flows = 3;
                    tfrc_flows = 1;
                    duration = 60.;
                  };
                ]
              else default_scenarios)
           ~jobs ()));
    Pftk_experiments.Meanfield_xval.(
      print ppf
        (generate ~seed
           ~scenarios:(if quick then quick_scenarios else default_scenarios)
           ~jobs ()));
    Pftk_experiments.Red_stability.(
      print ppf
        (generate ~cells:(if quick then quick_cells else default_cells) ~jobs ()))
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table and figure.")
    Term.(const run $ seed_arg $ quick_arg $ jobs_arg)

let main_cmd =
  let doc =
    "PFTK TCP-throughput model suite: models, simulators, and the paper's \
     experiments."
  in
  Cmd.group (Cmd.info "pftk" ~version:"1.0.0" ~doc)
    [
      rate_cmd;
      throughput_cmd;
      inverse_cmd;
      sweep_cmd;
      latency_cmd;
      tfrc_cmd;
      simulate_cmd;
      analyze_cmd;
      live_cmd;
      serve_cmd;
      bench_batch_cmd;
      selfcheck_cmd;
      convergence_cmd;
      table1_cmd;
      table2_cmd;
      fig7_cmd;
      fig8_cmd;
      fig9_cmd;
      fig10_cmd;
      fig11_cmd;
      fig12_cmd;
      fig13_cmd;
      figwindow_cmd;
      timeline_cmd;
      validate_cmd;
      fairness_cmd;
      sensitivity_cmd;
      ablations_cmd;
      meanfield_cmd;
      redstability_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
