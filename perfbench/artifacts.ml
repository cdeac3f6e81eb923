(* Workload "artifacts": the Part-1 set of `pftk all --quick` — the
   paper-reproduction path — printed into memory, one pass per
   regeneration.  Every pass's output digest must equal the jobs = 1
   reference computed during set-up.

   The traced run adds probes: the costliest artifacts' pipelines re-run
   through public calls with the same seeds, paths and counts, so their
   time splits into dataset calibration, round simulation, trace
   analysis, model evaluation, packet-level TCP/netsim, the mean-field
   solver and the Markov chain.  Each probe prints its result with the
   artifact's own printer and must reproduce the artifact's text. *)

module E = Pftk_experiments
module Path_profile = Pftk_dataset.Path_profile
module Workload = Pftk_dataset.Workload
module Analyzer = Pftk_trace.Analyzer
module Recorder = Pftk_trace.Recorder
module Round_sim = Pftk_tcp.Round_sim
module Rng = Pftk_stats.Rng
open Pftk_core

(* The `pftk all --quick` list, in its order and at its sizes. *)
let artifacts ~seed ~jobs : (string * (Format.formatter -> unit)) list =
  let seed = Int64.of_int seed in
  [
    ("table1", fun ppf -> E.Table1.print ppf);
    ( "table2",
      fun ppf -> E.Table2.(print ppf (generate ~seed ~duration:600. ~jobs ())) );
    ("figwindow", fun ppf -> E.Fig_window.(print ppf (generate ~seed ())));
    ("fig7", fun ppf -> E.Fig7.(print ppf (generate ~seed ~duration:600. ~jobs ())));
    ("fig8", fun ppf -> E.Fig8.(print ppf (generate ~seed ~count:30 ~jobs ())));
    ( "fig9",
      fun ppf ->
        E.Fig9.(
          print ppf ~title:"Fig. 9: Comparison of the models for 1-h traces"
            (generate ~seed ~duration:600. ~jobs ())) );
    ("fig10", fun ppf -> E.Fig10.(print ppf (generate ~seed ~count:30 ~jobs ())));
    ( "fig11",
      fun ppf ->
        E.Fig11.(
          print ppf (generate ~seed ~wide_duration:900. ~modem_duration:900. ~jobs ()))
    );
    ( "fig12",
      fun ppf -> E.Fig12.(print ppf (generate ~seed ~mc_duration:5_000. ~jobs ())) );
    ("fig13", fun ppf -> E.Fig13.(print ppf (generate ())));
    ( "validate",
      fun ppf -> E.Validation.(print ppf (generate ~seed ~duration:300. ~jobs ())) );
    ( "convergence",
      fun ppf -> E.Convergence.(print ppf (generate ~seed ~duration:600. ~jobs ())) );
    ( "window-dist",
      fun ppf -> E.Window_dist.(print ppf (generate ~seed ~rounds:50_000 ~jobs ())) );
    ("sensitivity", fun ppf -> E.Sensitivity.(print ppf (elasticities ())));
    ( "fairness",
      fun ppf ->
        E.Fairness.(
          print ppf
            (generate ~seed
               ~scenarios:
                 [
                   {
                     label = "3 reno + 1 tfrc";
                     reno_flows = 3;
                     tfrc_flows = 1;
                     duration = 60.;
                   };
                 ]
               ~jobs ())) );
    ( "meanfield-xval",
      fun ppf ->
        E.Meanfield_xval.(print ppf (generate ~seed ~scenarios:quick_scenarios ~jobs ()))
    );
    ( "redstability",
      fun ppf -> E.Red_stability.(print ppf (generate ~cells:quick_cells ~jobs ())) );
  ]

let names = List.map fst (artifacts ~seed:0 ~jobs:1)

(* One regeneration of the whole set.  Returns the output digest, each
   artifact's text and each artifact's duration; [tag] suffixes the
   per-artifact span names. *)
let pass ?(tag = "") ~seed ~jobs () =
  let buf = Buffer.create (256 * 1024) in
  let ppf = Format.formatter_of_buffer buf in
  let steps =
    List.map
      (fun (name, print) ->
        let from = Buffer.length buf in
        let (), dt =
          Common.time (fun () ->
              Span.with_ ("experiments." ^ name ^ tag) (fun () ->
                  print ppf;
                  Format.pp_print_flush ppf ()))
        in
        ((name, Buffer.sub buf from (Buffer.length buf - from)), dt))
      (artifacts ~seed ~jobs)
  in
  (Digest.string (Buffer.contents buf), List.map fst steps, List.map snd steps)

let run (o : Common.opts) tally =
  let (reference, bytes), setups, passes =
    Common.measure o ~reps:6
      ~setup:(fun () ->
        let digest, texts, steps = pass ~seed:o.seed ~jobs:1 () in
        ((digest, List.fold_left (fun acc (_, t) -> acc + String.length t) 0 texts), steps))
      ~pass:(fun (reference, _) ->
        let digest, _, steps = pass ~seed:o.seed ~jobs:o.jobs () in
        let digest = if o.fault then Digest.string "corrupted" else digest in
        Common.check tally
          (Digest.equal digest reference)
          ~what:(Printf.sprintf "artifacts digest differs at jobs=%d" o.jobs);
        steps)
  in
  {
    Common.setups;
    passes;
    input =
      [
        ("artifacts", string_of_int (List.length names));
        ("output_bytes", string_of_int bytes);
        ("output_md5", Digest.to_hex reference);
      ];
  }

(* --- probes (traced run only) ----------------------------------------- *)

type counters = {
  mutable rounds : int;
  mutable events : int;
  mutable packets_sent : int;
  mutable timeouts : int;
  mutable drops : int;
  mutable iterations : int;
}

let counters () =
  { rounds = 0; events = 0; packets_sent = 0; timeouts = 0; drops = 0; iterations = 0 }

let to_string print =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  print ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let model_eval f = Span.with_ "core.model_eval" f

(* Workload.run_with_calibration, through its public pieces. *)
let round_sim_trace c ~seed ~duration profile cal =
  let rng = Rng.create ~seed:(Int64.add seed 1L) () in
  let recorder = Recorder.create () in
  let result =
    Span.with_ "tcp.round_sim" (fun () ->
        Round_sim.run ~seed ~recorder ~duration
          ~loss:(Workload.loss_process rng cal)
          (Workload.sim_config profile))
  in
  c.rounds <- c.rounds + result.Round_sim.rounds;
  c.events <- c.events + Recorder.events_seen recorder;
  recorder

let calibrate ~seed profile =
  Span.with_ "dataset.calibrate" (fun () -> Workload.calibrate ~seed profile)

let analyze ?mode recorder =
  Span.with_ "trace.analyzer" (fun () -> Analyzer.summarize ?mode recorder)

let rtt_t0 (s : Analyzer.summary) (profile : Path_profile.t) =
  ( (if s.Analyzer.avg_rtt > 0. then s.Analyzer.avg_rtt else profile.rtt),
    if s.Analyzer.avg_t0 > 0. then s.Analyzer.avg_t0 else profile.t0 )

let by_td_only =
  List.sort (fun (a : E.Fig9.entry) (b : E.Fig9.entry) ->
      Float.compare a.td_only_error b.td_only_error)

let probe_table2 c ~seed =
  let rows =
    List.mapi
      (fun i profile ->
        let seed = Int64.add seed (Int64.of_int i) in
        let cal = calibrate ~seed profile in
        let recorder = round_sim_trace c ~seed ~duration:600. profile cal in
        { E.Table2.profile; summary = analyze recorder })
      Path_profile.all
  in
  to_string (fun ppf -> E.Table2.print ppf rows)

let probe_fig9 c ~seed =
  let entry i profile =
    let seed = Int64.add seed (Int64.of_int i) in
    let cal = calibrate ~seed profile in
    let recorder = round_sim_trace c ~seed ~duration:600. profile cal in
    let summary = analyze recorder in
    let usable =
      Span.with_ "trace.intervals" (fun () ->
          Pftk_trace.Intervals.split ~width:100. recorder
          |> List.filter (fun (b : Pftk_trace.Intervals.interval) ->
                 b.packets_sent > 0 && b.observed_p > 0.))
    in
    if usable = [] then None
    else
      model_eval (fun () ->
          let rtt, t0 = rtt_t0 summary profile in
          let params = Params.make ~rtt ~t0 ~wm:profile.Path_profile.wm () in
          let observed =
            Array.of_list
              (List.map
                 (fun (b : Pftk_trace.Intervals.interval) ->
                   float_of_int b.packets_sent)
                 usable)
          in
          let error model =
            Pftk_stats.Error_metrics.average_error ~observed
              ~predicted:
                (Array.of_list
                   (List.map
                      (fun (b : Pftk_trace.Intervals.interval) ->
                        model b.observed_p *. 100.)
                      usable))
          in
          Some
            {
              E.Fig9.label = Path_profile.label profile;
              full_error = error (Full_model.send_rate params);
              approx_error = error (Approx_model.send_rate params);
              td_only_error = error (Tdonly.send_rate ~rtt ~b:2);
              intervals_used = List.length usable;
            })
  in
  let entries = List.filter_map Fun.id (List.mapi entry Path_profile.all) in
  to_string (fun ppf ->
      E.Fig9.print ppf ~title:"Fig. 9: Comparison of the models for 1-h traces"
        (by_td_only entries))

let probe_fig10 c ~seed =
  let paths =
    Path_profile.all
    @ List.filter
        (fun (p : Path_profile.t) -> p.receiver <> "p5")
        Path_profile.extras
  in
  let entry i profile =
    let seed = Int64.add seed (Int64.of_int (1000 * i)) in
    let cal = calibrate ~seed profile in
    let observations =
      List.init 30 (fun k ->
          let recorder =
            round_sim_trace c
              ~seed:(Int64.add seed (Int64.of_int (100 + k)))
              ~duration:100. profile cal
          in
          let s = analyze recorder in
          if s.Analyzer.loss_indications = 0 || s.Analyzer.packets_sent = 0 then
            None
          else
            model_eval (fun () ->
                let rtt, t0 = rtt_t0 s profile in
                let params = Params.make ~rtt ~t0 ~wm:profile.Path_profile.wm () in
                let p = s.Analyzer.observed_p in
                Some
                  ( float_of_int s.Analyzer.packets_sent,
                    Full_model.send_rate params p *. 100.,
                    Approx_model.send_rate params p *. 100.,
                    Tdonly.send_rate ~rtt ~b:2 p *. 100. )))
      |> List.filter_map Fun.id
    in
    if observations = [] then None
    else
      model_eval (fun () ->
          let pick f = Array.of_list (List.map f observations) in
          let observed = pick (fun (o, _, _, _) -> o) in
          let error predicted =
            Pftk_stats.Error_metrics.average_error ~predicted ~observed
          in
          Some
            {
              E.Fig9.label = Path_profile.label profile;
              full_error = error (pick (fun (_, f, _, _) -> f));
              approx_error = error (pick (fun (_, _, a, _) -> a));
              td_only_error = error (pick (fun (_, _, _, t) -> t));
              intervals_used = List.length observations;
            })
  in
  let entries = List.filter_map Fun.id (List.mapi entry paths) in
  to_string (fun ppf -> E.Fig10.print ppf (by_td_only entries))

let probe_validation c ~seed =
  let module Connection = Pftk_tcp.Connection in
  let point i injected_p =
    let seed = Int64.add seed (Int64.of_int i) in
    let rng = Rng.create ~seed () in
    let scenario =
      {
        Connection.default_scenario with
        Connection.forward_bandwidth = 1_250_000.;
        reverse_bandwidth = 1_250_000.;
        forward_delay = 0.05;
        reverse_delay = 0.05;
        buffer = Pftk_netsim.Queue_discipline.drop_tail ~capacity:100;
        data_loss = Some (Pftk_loss.Loss_process.bernoulli rng ~p:injected_p);
        sender = { Pftk_tcp.Reno.default_config with wm = 32 };
      }
    in
    let result =
      Span.with_ "tcp.connection" (fun () ->
          Connection.run ~seed ~duration:300. scenario)
    in
    let stats = result.Connection.forward_stats in
    c.packets_sent <- c.packets_sent + result.Connection.packets_sent;
    c.timeouts <- c.timeouts + result.Connection.timeouts;
    c.drops <-
      c.drops + stats.Pftk_netsim.Link.dropped_queue
      + stats.Pftk_netsim.Link.dropped_random;
    c.events <- c.events + Recorder.events_seen result.Connection.recorder;
    let s = analyze result.Connection.recorder in
    if s.Analyzer.loss_indications = 0 || s.Analyzer.avg_rtt <= 0. then None
    else
      model_eval (fun () ->
          let rtt = s.Analyzer.avg_rtt in
          let t0 = if s.Analyzer.avg_t0 > 0. then s.Analyzer.avg_t0 else 4. *. rtt in
          let params = Params.make ~rtt ~t0 ~wm:32 () in
          let p = s.Analyzer.observed_p in
          Some
            {
              E.Validation.injected_p;
              observed_p = p;
              avg_rtt = rtt;
              avg_t0 = t0;
              measured = result.Connection.send_rate;
              full = Full_model.send_rate params p;
              approx = Approx_model.send_rate params p;
              td_only = Tdonly.send_rate ~rtt ~b:2 p;
            })
  in
  let points =
    List.filter_map Fun.id
      (List.mapi point (Array.to_list (Sweep.logspace ~lo:0.002 ~hi:0.15 ~n:8)))
  in
  let report =
    model_eval (fun () ->
        let observed =
          Array.of_list (List.map (fun (pt : E.Validation.point) -> pt.measured) points)
        in
        let error pick =
          Pftk_stats.Error_metrics.average_error ~observed
            ~predicted:(Array.of_list (List.map pick points))
        in
        {
          E.Validation.points;
          full_error = error (fun pt -> pt.E.Validation.full);
          approx_error = error (fun pt -> pt.E.Validation.approx);
          td_only_error = error (fun pt -> pt.E.Validation.td_only);
        })
  in
  to_string (fun ppf -> E.Validation.print ppf report)

let probe_meanfield_xval c ~seed =
  let module SB = Pftk_tcp.Shared_bottleneck in
  let module Solver = Pftk_meanfield.Solver in
  let row i (s : E.Meanfield_xval.scenario) =
    let seed = Int64.add seed (Int64.of_int i) in
    let specs = List.init s.flows (fun i -> SB.reno (Printf.sprintf "reno-%d" (i + 1))) in
    let result =
      Span.with_ "tcp.shared_bottleneck" (fun () ->
          SB.run ~seed ~buffer:s.buffer ~bandwidth:s.bandwidth
            ~one_way_delay:s.one_way_delay ~duration:s.duration specs)
    in
    let mean f =
      List.fold_left (fun acc r -> acc +. f r) 0. result.SB.flows
      /. float_of_int s.flows
    in
    let ns_goodput = mean (fun (r : SB.flow_result) -> r.goodput) in
    let cfg =
      {
        (Solver.default ~flows:s.flows
           ~capacity:(s.bandwidth /. float_of_int s.wire_bytes)
           ~base_rtt:(2. *. s.one_way_delay)
           ~law:(Pftk_meanfield.Queue_law.drop_tail ~capacity:s.buffer))
        with
        Solver.wm = Pftk_tcp.Reno.default_config.Pftk_tcp.Reno.wm;
      }
    in
    let eq = Span.with_ "meanfield.solver" (fun () -> Solver.solve cfg) in
    c.iterations <- c.iterations + eq.Solver.iterations;
    {
      E.Meanfield_xval.scenario = s;
      netsim_goodput = ns_goodput;
      meanfield_goodput = eq.Solver.per_flow_goodput;
      netsim_loss = mean (fun (r : SB.flow_result) -> r.loss_rate);
      meanfield_loss = eq.Solver.p;
      netsim_queue = result.SB.bottleneck_mean_queue;
      meanfield_queue = eq.Solver.queue;
      goodput_rel_err =
        (if ns_goodput > 0. then
           Float.abs (eq.Solver.per_flow_goodput -. ns_goodput) /. ns_goodput
         else Float.infinity);
    }
  in
  let rows = List.mapi row E.Meanfield_xval.quick_scenarios in
  to_string (fun ppf -> E.Meanfield_xval.print ppf rows)

let probe_redstability c =
  let module Solver = Pftk_meanfield.Solver in
  let module Dynamics = Pftk_meanfield.Dynamics in
  let outcome (cell : E.Red_stability.cell) =
    let law =
      Pftk_meanfield.Queue_law.red ~weight:cell.weight
        ~max_probability:cell.max_probability ~capacity:cell.buffer
        ~min_threshold:cell.min_threshold ~max_threshold:cell.max_threshold ()
    in
    let solver =
      Solver.default ~flows:cell.flows ~capacity:cell.capacity
        ~base_rtt:cell.base_rtt ~law
    in
    let dynamics =
      Span.with_ "meanfield.dynamics" (fun () ->
          Dynamics.run (Dynamics.default solver))
    in
    c.iterations <- c.iterations + dynamics.Dynamics.equilibrium.Solver.iterations;
    {
      E.Red_stability.cell;
      equilibrium = dynamics.Dynamics.equilibrium;
      dynamics;
      stable =
        (match dynamics.Dynamics.verdict with
        | Dynamics.Stable -> true
        | Dynamics.Oscillating _ -> false);
    }
  in
  let outcomes = List.map outcome E.Red_stability.quick_cells in
  to_string (fun ppf -> E.Red_stability.print ppf outcomes)

let chain_params () = Params.make ~rtt:0.47 ~t0:3.2 ~wm:12 ()

let probe_fig12 c ~seed =
  let params = chain_params () in
  let grid = Sweep.logspace ~lo:1e-3 ~hi:0.5 ~n:30 in
  let full = model_eval (fun () -> Sweep.series (Full_model.send_rate params) grid) in
  let markov =
    Span.with_ "core.markov_solve" (fun () ->
        Sweep.series (fun p -> Markov.send_rate (Markov.solve params p)) grid)
  in
  let approx = model_eval (fun () -> Sweep.series (Approx_model.send_rate params) grid) in
  let monte_carlo =
    List.mapi
      (fun i p ->
        let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int i)) () in
        let loss = Pftk_loss.Loss_process.round_correlated rng ~p in
        let r =
          Span.with_ "tcp.round_sim" (fun () ->
              Round_sim.run ~seed ~duration:5_000. ~loss
                (Round_sim.config_of_params params))
        in
        c.rounds <- c.rounds + r.Round_sim.rounds;
        (p, r.Round_sim.send_rate))
      (Array.to_list grid)
  in
  let points s = List.map (fun { Sweep.p; rate } -> (p, rate)) s in
  let max_gap =
    List.fold_left Float.max 0.
      (List.map2
         (fun f m -> Float.abs (f.Sweep.rate -. m.Sweep.rate) /. f.Sweep.rate)
         full markov)
  in
  let result =
    {
      E.Fig12.params;
      full = { label = "proposed (full)"; points = points full };
      markov = { label = "markov (numerical)"; points = points markov };
      approx = { label = "proposed (approximate)"; points = points approx };
      monte_carlo = { label = "monte-carlo (round sim)"; points = monte_carlo };
      max_gap;
    }
  in
  to_string (fun ppf -> E.Fig12.print ppf result)

let probe_window_dist c ~seed =
  let params = chain_params () and p = 0.02 and rounds = 50_000 in
  let markov_dist =
    Span.with_ "core.markov_solve" (fun () ->
        Markov.window_distribution (Markov.solve params p))
  in
  let wm = Array.length markov_dist in
  let chunk_size = 8_192 in
  let master = Rng.create ~seed () in
  let chunks =
    List.init ((rounds + chunk_size - 1) / chunk_size) (fun i ->
        let rng = Rng.split master in
        let sim_seed = Rng.bits64 master in
        (rng, sim_seed, min chunk_size (rounds - (i * chunk_size))))
  in
  let counts = Array.make wm 0 in
  List.iter
    (fun (rng, sim_seed, n) ->
      let loss = Pftk_loss.Loss_process.round_correlated rng ~p in
      let samples =
        Span.with_ "tcp.round_sim" (fun () ->
            Round_sim.window_samples ~seed:sim_seed ~rounds:n ~loss
              (Round_sim.config_of_params params))
      in
      c.rounds <- c.rounds + n;
      (* The artifact's own histogram binning. *)
      Span.with_ "experiments.aggregate" (fun () ->
          Array.iter
            (fun w ->
              let idx = min (wm - 1) (max 0 (int_of_float (Float.round w) - 1)) in
              counts.(idx) <- counts.(idx) + 1)
            samples))
    chunks;
  let simulated_dist =
    Array.map (fun n -> float_of_int n /. float_of_int rounds) counts
  in
  let mean dist =
    let acc = ref 0. in
    Array.iteri (fun i m -> acc := !acc +. (float_of_int (i + 1) *. m)) dist;
    !acc
  in
  let tv =
    let acc = ref 0. in
    Array.iteri (fun i m -> acc := !acc +. Float.abs (m -. simulated_dist.(i))) markov_dist;
    !acc /. 2.
  in
  let result =
    {
      E.Window_dist.params;
      p;
      markov_dist;
      simulated_dist;
      markov_mean = mean markov_dist;
      simulated_mean = mean simulated_dist;
      model_e_w =
        model_eval (fun () ->
            Float.min (float_of_int params.Params.wm) (Tdonly.e_w ~b:params.Params.b p));
      total_variation = tv;
    }
  in
  to_string (fun ppf -> E.Window_dist.print ppf result)

(* Artifact name -> probe.  Each probe runs inside an
   "artifacts.probe.<name>" span. *)
let probes c ~seed =
  let seed = Int64.of_int seed in
  [
    ("fig10", fun () -> probe_fig10 c ~seed);
    ("table2", fun () -> probe_table2 c ~seed);
    ("fig9", fun () -> probe_fig9 c ~seed);
    ("validate", fun () -> probe_validation c ~seed);
    ("meanfield-xval", fun () -> probe_meanfield_xval c ~seed);
    ("redstability", fun () -> probe_redstability c);
    ("fig12", fun () -> probe_fig12 c ~seed);
    ("window-dist", fun () -> probe_window_dist c ~seed);
  ]

let traced (o : Common.opts) tally =
  let untraced_pass name =
    Span.with_ name (fun () ->
        Span.paused (fun () ->
            Common.time (fun () ->
                let digest, _, _ = pass ~seed:o.seed ~jobs:1 () in
                digest)))
  in
  let reference, _ = untraced_pass "artifacts.setup" in
  let sequential, texts, _ =
    Span.with_ "artifacts.pass.jobs1" (fun () ->
        pass ~tag:".jobs1" ~seed:o.seed ~jobs:1 ())
  in
  (* Timed after the traced pass, so both run warm. *)
  let again, untraced = untraced_pass "artifacts.pass.jobs1.untraced" in
  Common.check tally (Digest.equal again reference)
    ~what:"repeated jobs=1 artifacts digest differs";
  let parallel, _, _ =
    Span.with_ "artifacts.pass" (fun () -> pass ~seed:o.seed ~jobs:o.jobs ())
  in
  Common.check tally (Digest.equal sequential reference)
    ~what:"traced jobs=1 artifacts digest differs from the set-up reference";
  Common.check tally (Digest.equal parallel reference)
    ~what:(Printf.sprintf "traced jobs=%d artifacts digest differs" o.jobs);
  let c = counters () in
  let probes = probes c ~seed:o.seed in
  List.iter
    (fun (name, probe) ->
      let text = Span.with_ ("artifacts.probe." ^ name) probe in
      Common.check tally
        (String.equal text (List.assoc name texts))
        ~what:("probe output differs from artifact " ^ name))
    probes;
  let probed = List.map fst probes in
  let probe_time =
    List.fold_left (fun acc n -> acc +. Span.total ("artifacts.probe." ^ n)) 0. probed
  in
  let artifact_time =
    List.fold_left (fun acc n -> acc +. Span.total ("experiments." ^ n ^ ".jobs1")) 0. probed
  in
  let probe_child_coverage =
    List.fold_left
      (fun acc n -> Float.min acc (Span.child_coverage ("artifacts.probe." ^ n)))
      1. probed
  in
  List.map (fun n -> ("experiments." ^ n ^ "_s", Span.total ("experiments." ^ n))) names
  @ [
      ( "parallel.artifacts_speedup",
        Span.total "artifacts.pass.jobs1" /. Span.total "artifacts.pass" );
      ("dataset.calibrate_s", Span.total_self "dataset.calibrate");
      ("tcp.round_sim_s", Span.total_self "tcp.round_sim");
      ("tcp.round_sim.rounds", float_of_int c.rounds);
      ("trace.recorder.events", float_of_int c.events);
      ("trace.analyzer_s", Span.total_self "trace.analyzer");
      ("trace.intervals_s", Span.total_self "trace.intervals");
      ("core.model_eval_s", Span.total_self "core.model_eval");
      ("tcp.connection_s", Span.total_self "tcp.connection");
      ("tcp.connection.packets_sent", float_of_int c.packets_sent);
      ("tcp.connection.timeouts", float_of_int c.timeouts);
      ("netsim.link.drops", float_of_int c.drops);
      ("tcp.shared_bottleneck_s", Span.total_self "tcp.shared_bottleneck");
      ("meanfield.solver_s", Span.total_self "meanfield.solver");
      ("meanfield.solver.iterations", float_of_int c.iterations);
      ("meanfield.dynamics_s", Span.total_self "meanfield.dynamics");
      ("core.markov_solve_s", Span.total_self "core.markov_solve");
      ("artifacts.coverage", probe_time /. artifact_time);
      ("artifacts.probe_child_coverage", probe_child_coverage);
      ( "tracing.artifacts.overhead_share",
        (Span.total "artifacts.pass.jobs1" -. untraced) /. untraced );
    ]
