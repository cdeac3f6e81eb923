(* Tests for lib/meanfield: solver edge cases (single flow, invalid
   configurations, the RED min=max step profile, underutilized links),
   the drop-tail provisioning equilibrium and its required-buffer round
   trip, histogram mass conservation, the pinned stable and oscillating RED
   cells (an oscillation is a reported verdict, not a divergence), the
   netsim cross-validation tolerances at N = 2..64, byte-identical
   output across --jobs, and the pinned `pftk meanfield --help` units
   contract. *)

module Queue_law = Pftk_meanfield.Queue_law
module Window_hist = Pftk_meanfield.Window_hist
module Solver = Pftk_meanfield.Solver
module Dynamics = Pftk_meanfield.Dynamics
module Red_stability = Pftk_experiments.Red_stability
module Meanfield_xval = Pftk_experiments.Meanfield_xval
module SB = Pftk_tcp.Shared_bottleneck

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let close ?(rel = 0.05) msg expected actual =
  let err = Float.abs (expected -. actual) /. Float.abs expected in
  if err > rel then
    Alcotest.failf "%s: expected %g within %g%%, got %g" msg expected
      (100. *. rel) actual

let check_invalid name thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* --- solver edge cases ---------------------------------------------------- *)

(* One flow behind a constant drop law on an unconstrained link is the
   closed-form model itself (the degenerate limit selfcheck C12 fuzzes;
   here one pinned point). *)
let test_single_flow_matches_model () =
  let params = Pftk_core.Params.make ~b:2 ~rtt:0.1 ~t0:0.4 () in
  let p = 0.02 in
  let cfg =
    {
      (Solver.default ~flows:1 ~capacity:1e9 ~base_rtt:0.1
         ~law:(Queue_law.constant ~p))
      with
      Solver.t0_factor = 4.;
    }
  in
  let eq = Solver.solve cfg in
  let expect = Pftk_core.Full_model.send_rate params p in
  Alcotest.(check bool)
    "per-flow rate = eq. (32)" true
    (Float.abs (eq.Solver.per_flow_rate -. expect) <= 1e-9 *. expect);
  Alcotest.(check bool)
    "goodput = rate*(1-p)" true
    (Float.abs (eq.Solver.per_flow_goodput -. (expect *. (1. -. p)))
    <= 1e-9 *. expect)

let test_invalid_configs () =
  let law = Queue_law.drop_tail ~capacity:64 in
  let ok = Solver.default ~flows:4 ~capacity:100. ~base_rtt:0.1 ~law in
  check_invalid "flows=0" (fun () ->
      Solver.solve { ok with Solver.flows = 0 });
  check_invalid "capacity=0" (fun () ->
      Solver.solve { ok with Solver.capacity = 0. });
  check_invalid "capacity=nan" (fun () ->
      Solver.solve { ok with Solver.capacity = Float.nan });
  check_invalid "base_rtt=0" (fun () ->
      Solver.solve { ok with Solver.base_rtt = 0. });
  check_invalid "damping=0" (fun () ->
      Solver.solve { ok with Solver.damping = 0. });
  check_invalid "damping=1.5" (fun () ->
      Solver.solve { ok with Solver.damping = 1.5 });
  check_invalid "max_iterations=0" (fun () ->
      Solver.solve { ok with Solver.max_iterations = 0 });
  check_invalid "tolerance=0" (fun () ->
      Solver.solve { ok with Solver.tolerance = 0. });
  check_invalid "drop_tail capacity=0" (fun () ->
      Queue_law.drop_tail ~capacity:0);
  check_invalid "red min>max" (fun () ->
      Queue_law.red ~capacity:100 ~min_threshold:60. ~max_threshold:40. ());
  check_invalid "constant p=1" (fun () -> Queue_law.constant ~p:1.)

(* RED with min = max is a step profile, not a validation error. *)
let test_red_step_profile () =
  let law =
    Queue_law.red ~capacity:100 ~min_threshold:30. ~max_threshold:30. ()
  in
  Alcotest.(check (float 0.))
    "below the step" 0.
    (Queue_law.drop_prob law ~avg_queue:29.9);
  Alcotest.(check (float 0.))
    "at the step" 1.
    (Queue_law.drop_prob law ~avg_queue:30.);
  let eq =
    Solver.solve (Solver.default ~flows:50 ~capacity:1000. ~base_rtt:0.1 ~law)
  in
  Alcotest.(check bool) "p finite" true (Float.is_finite eq.Solver.p);
  Alcotest.(check bool) "queue finite" true (Float.is_finite eq.Solver.queue)

let test_underutilized_link () =
  let eq =
    Solver.solve
      (Solver.default ~flows:2 ~capacity:1e6 ~base_rtt:0.1
         ~law:(Queue_law.drop_tail ~capacity:64))
  in
  Alcotest.(check (float 0.)) "no loss" 0. eq.Solver.p;
  Alcotest.(check (float 0.)) "empty queue" 0. eq.Solver.queue;
  Alcotest.(check bool) "utilization < 1" true (eq.Solver.utilization < 1.)

(* --- drop-tail provisioning ------------------------------------------------ *)

(* [solve_drop_tail] and [required_buffer] replace the law. *)
let drop_tail_cfg ?(wm = 0) ~flows ~capacity ~base_rtt () =
  let law = Queue_law.drop_tail ~capacity:1 in
  { (Solver.default ~flows ~capacity ~base_rtt ~law) with Solver.wm }

let drop_tail ?wm ~flows ~capacity ~buffer ~base_rtt () =
  let cfg = drop_tail_cfg ?wm ~flows ~capacity ~base_rtt () in
  Solver.solve_drop_tail cfg ~buffer

let test_drop_tail_underutilized () =
  (* One window-limited flow on a fat link: no loss, rate = Wm / base RTT. *)
  let eq =
    drop_tail ~wm:32 ~flows:1 ~capacity:10_000. ~buffer:100 ~base_rtt:0.1 ()
  in
  Alcotest.(check (float 1e-9)) "no equilibrium loss" 0. eq.Solver.p;
  close ~rel:0.02 "rate = Wm/RTT" 320. eq.Solver.per_flow_rate;
  Alcotest.(check bool) "window limited" true eq.Solver.window_limited

let test_drop_tail_saturated () =
  let eq = drop_tail ~flows:16 ~capacity:800. ~buffer:64 ~base_rtt:0.08 () in
  Alcotest.(check bool) "positive equilibrium loss" true (eq.Solver.p > 0.001);
  close ~rel:0.01 "flows fill the link" 1. eq.Solver.utilization;
  close ~rel:0.01 "fair share" 50. eq.Solver.per_flow_rate

let test_drop_tail_more_flows_more_loss () =
  let loss n =
    (drop_tail ~flows:n ~capacity:800. ~buffer:64 ~base_rtt:0.08 ()).Solver.p
  in
  Alcotest.(check bool) "monotone in flows" true
    (loss 4 < loss 8 && loss 8 < loss 16 && loss 16 < loss 64)

let test_drop_tail_matches_simulation () =
  (* The headline: the analytic equilibrium matches the multi-flow
     packet-level simulation. *)
  let capacity = 1_250_000. /. 1500. in
  let eq =
    drop_tail ~wm:32 ~flows:8 ~capacity ~buffer:64 ~base_rtt:0.0426 ()
  in
  let sim =
    SB.run ~seed:72L ~duration:120. ~buffer:64 ~bandwidth:1_250_000.
      ~one_way_delay:0.02
      (List.init 8 (fun i -> SB.reno (Printf.sprintf "r%d" i)))
  in
  let mean_goodput =
    List.fold_left (fun a f -> a +. f.SB.goodput) 0. sim.SB.flows /. 8.
  in
  close ~rel:0.1 "equilibrium rate matches simulation"
    mean_goodput eq.Solver.per_flow_rate

let test_required_buffer_monotone () =
  let buffer target =
    Solver.required_buffer ~target_p:target
      (drop_tail_cfg ~flows:16 ~capacity:800. ~base_rtt:0.08 ())
  in
  (* A stricter (smaller) loss target needs a bigger buffer. *)
  Alcotest.(check bool) "monotone" true (buffer 0.002 > buffer 0.02)

(* Regression (selfcheck corpus c8-buffer-truncation.case): the old
   float-returning search truncated to a buffer whose equilibrium loss sat
   just above the target.  The contract is a round trip: solving at the
   returned buffer meets target_p, and one packet less does not, down to
   the empty buffer. *)
let test_required_buffer_roundtrip () =
  List.iter
    (fun (flows, capacity, base_rtt, target_p) ->
      let cfg = drop_tail_cfg ~flows ~capacity ~base_rtt () in
      let buffer = Solver.required_buffer ~target_p cfg in
      let loss_at buffer = (Solver.solve_drop_tail cfg ~buffer).Solver.p in
      Alcotest.(check bool)
        (Printf.sprintf "buffer %d sufficient (flows=%d)" buffer flows)
        true
        (loss_at buffer <= target_p);
      if buffer > 0 && buffer < 100_000 then
        Alcotest.(check bool)
          (Printf.sprintf "buffer %d minimal (flows=%d)" buffer flows)
          true
          (loss_at (buffer - 1) > target_p))
    [
      (31, 480., 0.035, 0.02);
      (* the pinned c8 counterexample's equilibrium, verbatim *)
      (28, 0x1.d34618a0bb68ep+11, 0x1.80528d4aca1f1p-3, 0x1.2cc8711e55722p-10);
      (16, 800., 0.08, 0.002);
      (8, 200., 0.05, 0.01);
    ]

let test_drop_tail_validation () =
  Alcotest.check_raises "flows < 1"
    (Invalid_argument "Solver.solve: flows must be >= 1") (fun () ->
      ignore (drop_tail ~flows:0 ~capacity:1. ~buffer:1 ~base_rtt:0.1 ()))

(* --- histogram ------------------------------------------------------------ *)

let test_histogram_mass_conserved () =
  let h = Window_hist.create ~bins:64 ~wmax:40. () in
  Window_hist.reset h ~mean:10. ~spread:5.;
  Alcotest.(check bool)
    "unit mass after reset" true
    (Float.abs (Window_hist.total h -. 1.) <= 1e-12);
  for _ = 1 to 500 do
    Window_hist.step h ~dt:0.01 ~drift:5. ~p:0.02 ~rtt:0.1
  done;
  Alcotest.(check bool)
    "unit mass after 500 steps" true
    (Float.abs (Window_hist.total h -. 1.) <= 1e-9);
  Alcotest.(check bool)
    "mean within support" true
    (Window_hist.mean h > 0. && Window_hist.mean h <= 40.);
  check_invalid "bins=1" (fun () -> Window_hist.create ~bins:1 ~wmax:40. ());
  check_invalid "wmax=0" (fun () -> Window_hist.create ~wmax:0. ())

(* --- pinned RED stability cells ------------------------------------------- *)

(* Slow EWMA averaging on a fast link: the mean-field dynamics must
   report a bounded limit cycle — Oscillating with a finite amplitude —
   not diverge and not call it stable. *)
let test_pinned_oscillating_cell () =
  let c = Red_stability.cell ~flows:50 ~capacity:8000. ~weight:0.0005 () in
  let o = Red_stability.evaluate c in
  (match o.Red_stability.dynamics.Dynamics.verdict with
  | Dynamics.Stable -> Alcotest.fail "expected an oscillating verdict"
  | Dynamics.Oscillating { Dynamics.amplitude; period } ->
      Alcotest.(check bool)
        "amplitude in (10, 400) pkt" true
        (amplitude > 10. && amplitude < 400.);
      Alcotest.(check bool) "period finite" true (Float.is_finite period));
  Alcotest.(check bool)
    "queue excursion bounded by the buffer" true
    (o.Red_stability.dynamics.Dynamics.queue_max
    <= float_of_int o.Red_stability.cell.Red_stability.buffer +. 1e-6)

let test_pinned_stable_cell () =
  let c = Red_stability.cell ~flows:50 ~capacity:1000. ~weight:0.05 () in
  let o = Red_stability.evaluate c in
  Alcotest.(check bool) "stable" true o.Red_stability.stable;
  let d = o.Red_stability.dynamics in
  (* "Settles" means the trailing queue excursion collapses, and the
     operating point sits on the RED ramp (between min threshold and
     the buffer) — the instantaneous queue need not equal the solver's
     EWMA-averaged equilibrium. *)
  Alcotest.(check bool)
    "trailing excursion under 2 pkt" true
    (d.Dynamics.queue_max -. d.Dynamics.queue_min <= 2.);
  Alcotest.(check bool)
    "operating point on the RED ramp" true
    (d.Dynamics.mean_queue
     >= o.Red_stability.cell.Red_stability.min_threshold
    && d.Dynamics.mean_queue
       <= float_of_int o.Red_stability.cell.Red_stability.buffer)

(* --- netsim cross-validation ---------------------------------------------- *)

(* The calibrated tolerances: at the default seed the worst per-flow
   goodput relative error is ~0.12 at N=64 and under 0.06 below that;
   pinned with headroom so only a real regression trips them. *)
let test_xval_tolerances () =
  let rows = Meanfield_xval.generate () in
  Alcotest.(check int) "six scenarios" 6 (List.length rows);
  List.iter
    (fun r ->
      let flows = r.Meanfield_xval.scenario.Meanfield_xval.flows in
      let err = r.Meanfield_xval.goodput_rel_err in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d rel err %.3f <= 0.2" flows err)
        true (err <= 0.2);
      if flows <= 16 then
        Alcotest.(check bool)
          (Printf.sprintf "N=%d rel err %.3f <= 0.1" flows err)
          true (err <= 0.1))
    rows

(* --- CLI: jobs identity and the pinned help ------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_pftk ~out args =
  Sys.command (Printf.sprintf "../bin/pftk.exe %s 1>%s 2>/dev/null" args out)

let test_redstability_jobs_identity () =
  let c1 = run_pftk ~out:"mf_jobs1.txt" "redstability --quick --jobs 1" in
  let c4 = run_pftk ~out:"mf_jobs4.txt" "redstability --quick --jobs 4" in
  Alcotest.(check int) "--jobs 1 exits 0" 0 c1;
  Alcotest.(check int) "--jobs 4 exits 0" 0 c4;
  Alcotest.(check string)
    "byte-identical across --jobs" (read_file "mf_jobs1.txt")
    (read_file "mf_jobs4.txt")

(* `pftk meanfield --help` must state the units of the inputs (capacity
   packets/s, base RTT seconds, queue occupancy packets) and the
   stable/oscillating output contract.  Pinned like the serve and units
   help tests so a doc rewrite cannot drop them. *)
let test_meanfield_help_contract () =
  let code = run_pftk ~out:"mf_help.txt" "meanfield --help=plain" in
  Alcotest.(check int) "--help exits 0" 0 code;
  let help =
    String.concat " "
      (String.split_on_char '\n' (read_file "mf_help.txt")
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter (fun w -> w <> ""))
  in
  let contains needle =
    let n = String.length needle and h = String.length help in
    let rec go i = i + n <= h && (String.sub help i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "help mentions %S" needle)
        true (contains needle))
    [
      "capacity in packets per second";
      "round-trip time in seconds";
      "queue occupancy in packets";
      "stable when the queue settles";
      "oscillating with the limit-cycle amplitude";
      "a result, not an error";
    ]

let () =
  Alcotest.run "pftk_meanfield"
    [
      ( "solver",
        [
          case "single flow matches model" test_single_flow_matches_model;
          case "invalid configs rejected" test_invalid_configs;
          case "red min=max step profile" test_red_step_profile;
          case "underutilized link" test_underutilized_link;
        ] );
      ( "fixed-point",
        [
          case "underutilized" test_drop_tail_underutilized;
          case "saturated" test_drop_tail_saturated;
          case "more flows, more loss" test_drop_tail_more_flows_more_loss;
          slow_case "matches simulation" test_drop_tail_matches_simulation;
          case "required buffer" test_required_buffer_monotone;
          case "required buffer round-trip" test_required_buffer_roundtrip;
          case "validation" test_drop_tail_validation;
        ] );
      ("histogram", [ case "mass conserved" test_histogram_mass_conserved ]);
      ( "stability",
        [
          case "pinned oscillating cell" test_pinned_oscillating_cell;
          case "pinned stable cell" test_pinned_stable_cell;
        ] );
      ("cross-validation", [ case "N=2..64 tolerances" test_xval_tolerances ]);
      ( "cli",
        [
          case "redstability jobs identity" test_redstability_jobs_identity;
          case "--help units contract" test_meanfield_help_contract;
        ] );
    ]
