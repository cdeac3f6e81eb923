(* The ablation studies: each varies one of the paper's design choices and
   prints what moves.  Closed forms are evaluated on a grid; simulated
   rows run the round-based or packet-level simulator at fixed seeds, so
   the output is deterministic. *)

open Pftk_core

let print ppf =
  Report.heading ppf "Ablations: the paper's design choices, one at a time";
  let params = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 () in
  let grid = Sweep.logspace ~lo:1e-3 ~hi:0.5 ~n:20 in

  Report.subheading ppf
    "Q-hat: exact eq. (24) vs min(1, 3/w) approximation (rate deltas)";
  Format.fprintf ppf "# p  full(closed-q)  full(approx-q)  delta%%@.";
  Array.iter
    (fun p ->
      let exact = Full_model.send_rate ~q:Qhat.Closed params p in
      let approx = Full_model.send_rate ~q:Qhat.Approximate params p in
      Format.fprintf ppf "%.4f %10.3f %10.3f %8.2f@." p exact approx
        (100. *. (approx -. exact) /. exact))
    grid;

  Report.subheading ppf
    "Full model eq. (32) vs one-line approximation eq. (33)";
  Format.fprintf ppf "# p  full  approximate  delta%%@.";
  Array.iter
    (fun p ->
      let full = Full_model.send_rate params p in
      let approx = Approx_model.send_rate params p in
      Format.fprintf ppf "%.4f %10.3f %10.3f %8.2f@." p full approx
        (100. *. (approx -. full) /. full))
    grid;

  Report.subheading ppf
    "Loss-model robustness: round simulator under three processes";
  Format.fprintf ppf "# p  model  correlated  bernoulli  gilbert@.";
  List.iter
    (fun p ->
      let run make_loss seed =
        let rng = Pftk_stats.Rng.create ~seed () in
        let r =
          Pftk_tcp.Round_sim.run ~seed ~duration:20_000. ~loss:(make_loss rng)
            (Pftk_tcp.Round_sim.config_of_params params)
        in
        r.Pftk_tcp.Round_sim.send_rate
      in
      let correlated =
        run (fun rng -> Pftk_loss.Loss_process.round_correlated rng ~p) 1L
      in
      let bernoulli =
        run (fun rng -> Pftk_loss.Loss_process.bernoulli rng ~p) 2L
      in
      let gilbert =
        (* Same stationary loss rate, bursty (mean burst of 3 packets). *)
        run
          (fun rng ->
            Pftk_loss.Loss_process.gilbert rng
              ~p_enter_bad:(Float.min 0.9 (p /. 3. /. Float.max 0.01 (1. -. p)))
              ~p_exit_bad:(1. /. 3.) ())
          3L
      in
      Format.fprintf ppf "%.4f %8.3f %8.3f %8.3f %8.3f@." p
        (Full_model.send_rate params p)
        correlated bernoulli gilbert)
    [ 0.005; 0.02; 0.08 ];

  Report.subheading ppf
    "Stack quirks: dup-ACK threshold and backoff cap (simulated rate)";
  Format.fprintf ppf "# threshold cap rate@.";
  List.iter
    (fun (threshold, cap) ->
      let rng = Pftk_stats.Rng.create ~seed:4L () in
      let loss = Pftk_loss.Loss_process.round_correlated rng ~p:0.05 in
      let config =
        {
          (Pftk_tcp.Round_sim.config_of_params params) with
          Pftk_tcp.Round_sim.dup_ack_threshold = threshold;
          backoff_cap = cap;
        }
      in
      let r = Pftk_tcp.Round_sim.run ~seed:4L ~duration:20_000. ~loss config in
      Format.fprintf ppf "%9d %3d %8.3f@." threshold cap
        r.Pftk_tcp.Round_sim.send_rate)
    [ (3, 6); (2, 6); (3, 5); (2, 5) ];

  Report.subheading ppf
    "TCP flavor: the model's process vs Reno-with-slow-start vs Tahoe";
  Format.fprintf ppf "# p  model  model-reno  reno+ss  tahoe@.";
  List.iter
    (fun p ->
      let rate flavor seed =
        let rng = Pftk_stats.Rng.create ~seed () in
        let loss = Pftk_loss.Loss_process.round_correlated rng ~p in
        let config =
          { (Pftk_tcp.Round_sim.config_of_params params) with
            Pftk_tcp.Round_sim.flavor }
        in
        (Pftk_tcp.Round_sim.run ~seed ~duration:20_000. ~loss config)
          .Pftk_tcp.Round_sim.send_rate
      in
      Format.fprintf ppf "%.4f %8.3f %8.3f %8.3f %8.3f@." p
        (Full_model.send_rate params p)
        (rate Pftk_tcp.Round_sim.Model_reno 5L)
        (rate Pftk_tcp.Round_sim.Reno_slow_start 6L)
        (rate Pftk_tcp.Round_sim.Tahoe 7L))
    [ 0.005; 0.02; 0.08 ];

  Report.subheading ppf
    "Recovery style at packet level: Reno vs NewReno vs SACK (p = 0.03)";
  Format.fprintf ppf "# style  rate  timeouts  fast-rexmits@.";
  List.iter
    (fun (label, recovery) ->
      let rng = Pftk_stats.Rng.create ~seed:14L () in
      let scenario =
        {
          Pftk_tcp.Connection.default_scenario with
          Pftk_tcp.Connection.forward_bandwidth = 1_250_000.;
          reverse_bandwidth = 1_250_000.;
          forward_delay = 0.05;
          reverse_delay = 0.05;
          buffer = Pftk_netsim.Queue_discipline.drop_tail ~capacity:100;
          data_loss = Some (Pftk_loss.Loss_process.bernoulli rng ~p:0.03);
          sender = { Pftk_tcp.Reno.default_config with recovery };
        }
      in
      let r = Pftk_tcp.Connection.run ~seed:14L ~duration:300. scenario in
      Format.fprintf ppf "%-8s %8.2f %8d %8d@." label
        r.Pftk_tcp.Connection.send_rate r.Pftk_tcp.Connection.timeouts
        r.Pftk_tcp.Connection.fast_retransmits)
    [
      ("reno", Pftk_tcp.Reno.Reno_recovery);
      ("newreno", Pftk_tcp.Reno.Newreno_recovery);
      ("sack", Pftk_tcp.Reno.Sack_recovery);
    ];

  Report.subheading ppf
    "Queue discipline: model accuracy when loss comes only from the buffer";
  Format.fprintf ppf "# discipline  observed-p  measured  predicted  ratio@.";
  List.iter
    (fun (label, buffer) ->
      let scenario =
        {
          Pftk_tcp.Connection.default_scenario with
          Pftk_tcp.Connection.forward_bandwidth = 250_000.;
          reverse_bandwidth = 250_000.;
          forward_delay = 0.04;
          reverse_delay = 0.04;
          buffer;
        }
      in
      let result = Pftk_tcp.Connection.run ~seed:9L ~duration:900. scenario in
      let s = Pftk_trace.Analyzer.summarize result.Pftk_tcp.Connection.recorder in
      if s.Pftk_trace.Analyzer.loss_indications > 0 then begin
        let rtt = s.Pftk_trace.Analyzer.avg_rtt in
        let t0 =
          if s.Pftk_trace.Analyzer.avg_t0 > 0. then s.Pftk_trace.Analyzer.avg_t0
          else 4. *. rtt
        in
        let model =
          Full_model.send_rate
            (Params.make ~rtt ~t0 ~wm:32 ())
            s.Pftk_trace.Analyzer.observed_p
        in
        Format.fprintf ppf "%-22s %10.4f %9.2f %10.2f %6.2f@." label
          s.Pftk_trace.Analyzer.observed_p
          result.Pftk_tcp.Connection.send_rate model
          (model /. result.Pftk_tcp.Connection.send_rate)
      end
      else Format.fprintf ppf "%-22s (no loss indications)@." label)
    [
      ("drop-tail(12)", Pftk_netsim.Queue_discipline.drop_tail ~capacity:12);
      ( "RED(3..9/12)",
        Pftk_netsim.Queue_discipline.red ~capacity:12 ~min_threshold:3.
          ~max_threshold:9. () );
    ];

  Report.subheading ppf
    "Endogenous loss: TCP competing with bursty ON/OFF cross-traffic";
  begin
    let config =
      {
        Pftk_netsim.Cross_traffic.rate = 600.;
        packet_size = 1500;
        mean_on = 0.5;
        mean_off = 1.0;
        pareto_shape = Some 1.5;
      }
    in
    let result =
      Pftk_tcp.Shared_bottleneck.run ~seed:97L ~duration:600. ~buffer:40
        [
          Pftk_tcp.Shared_bottleneck.reno "tcp";
          Pftk_tcp.Shared_bottleneck.cross ~config "background";
        ]
    in
    List.iter
      (fun (f : Pftk_tcp.Shared_bottleneck.flow_result) ->
        Format.fprintf ppf "%-12s %-6s goodput %7.1f pkt/s  loss %.4f@."
          f.Pftk_tcp.Shared_bottleneck.name
          f.Pftk_tcp.Shared_bottleneck.kind_label
          f.Pftk_tcp.Shared_bottleneck.goodput
          f.Pftk_tcp.Shared_bottleneck.loss_rate)
      result.Pftk_tcp.Shared_bottleneck.flows
  end;

  Report.subheading ppf
    "Generalized AIMD: formula vs simulation, and the TCP-friendly line";
  Format.fprintf ppf "# alpha beta  formula  simulated  friendly?@.";
  List.iter
    (fun (alpha, beta) ->
      let p = 0.001 in
      let rng = Pftk_stats.Rng.create ~seed:17L () in
      let loss = Pftk_loss.Loss_process.round_correlated rng ~p in
      let config =
        {
          Pftk_tcp.Round_sim.default_config with
          Pftk_tcp.Round_sim.aimd_increase = alpha;
          aimd_decrease = beta;
          wm = 100_000;
          rtt_jitter = 0.;
          dup_ack_threshold = 1;
        }
      in
      let r = Pftk_tcp.Round_sim.run ~seed:17L ~duration:30_000. ~loss config in
      Format.fprintf ppf "%5.2f %5.3f %8.2f %10.2f %10b@." alpha beta
        (Aimd.send_rate (Aimd.make ~alpha ~beta) ~rtt:0.2 ~b:2 p)
        r.Pftk_tcp.Round_sim.send_rate
        (Aimd.is_tcp_friendly (Aimd.make ~alpha ~beta)))
    [ (1., 0.5); (0.2, 0.125); (2., 0.8); (1., 0.125) ];

  Report.subheading ppf
    "Delayed ACKs: b = 1 vs b = 2 across the grid";
  Format.fprintf ppf "# p  B(b=1)  B(b=2)  ratio@.";
  Array.iter
    (fun p ->
      let b1 = Params.make ~b:1 ~rtt:0.47 ~t0:3.2 ~wm:12 () in
      let r1 = Full_model.send_rate b1 p in
      let r2 = Full_model.send_rate params p in
      Format.fprintf ppf "%.4f %8.3f %8.3f %6.3f@." p r1 r2 (r1 /. r2))
    (Sweep.logspace ~lo:1e-3 ~hi:0.3 ~n:8)
