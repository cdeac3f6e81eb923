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

(* The previous histogram, verbatim: a full pass per transport term, the
   deposit target re-derived per bin, and an O(bins) [mean]. *)
module Oracle = struct
  type t = {
    n : int;
    h : float;  (* bin width, pkt *)
    mass : float array;  (* probability mass per bin *)
    scratch : float array;  (* halving-flux deposits, zeroed per step *)
  }

  let create ?(bins = 256) ~wmax () =
    if bins < 2 then invalid_arg "Window_hist.create: bins < 2";
    if not (wmax > 0.) then invalid_arg "Window_hist.create: wmax must be positive";
    {
      n = bins;
      h = wmax /. float_of_int bins;
      mass = Array.make bins 0.;
      scratch = Array.make bins 0.;
    }

  let bins t = t.n
  let width t = t.h
  let wmax t = t.h *. float_of_int t.n
  let center t i = (float_of_int i +. 0.5) *. t.h

  let reset t ~mean ~spread =
    Array.fill t.mass 0 t.n 0.;
    let lo = Float.max 0. (mean -. spread) in
    let hi = Float.min (wmax t) (mean +. spread) in
    if hi > lo then begin
      (* Mass proportional to each bin's overlap with [lo, hi]. *)
      for i = 0 to t.n - 1 do
        let bl = float_of_int i *. t.h and bh = float_of_int (i + 1) *. t.h in
        let overlap = Float.min hi bh -. Float.max lo bl in
        if overlap > 0. then t.mass.(i) <- overlap /. (hi -. lo)
      done;
      (* Renormalize the clipping rounding away. *)
      let s = Array.fold_left ( +. ) 0. t.mass in
      if s > 0. then
        for i = 0 to t.n - 1 do
          t.mass.(i) <- t.mass.(i) /. s
        done
    end
    else begin
      let i = int_of_float (mean /. t.h) in
      let i = if i < 0 then 0 else if i > t.n - 1 then t.n - 1 else i in
      t.mass.(i) <- 1.
    end

  let total t = Array.fold_left ( +. ) 0. t.mass

  let mean t =
    let acc = ref 0. in
    for i = 0 to t.n - 1 do
      acc := !acc +. (t.mass.(i) *. center t i)
    done;
    !acc

  let second_moment t =
    let acc = ref 0. in
    for i = 0 to t.n - 1 do
      let w = center t i in
      acc := !acc +. (t.mass.(i) *. w *. w)
    done;
    !acc

  let step t ~dt ~drift ~p ~rtt =
    let n = t.n and m = t.mass and s = t.scratch in
    (* Halving flux: bin i loses mass at rate p·w_i/rtt toward w_i/2. *)
    if p > 0. then begin
      Array.fill s 0 n 0.;
      for i = 0 to n - 1 do
        let mi = m.(i) in
        if mi > 0. then begin
          let w = center t i in
          let frac = Float.min 1. (dt *. p *. w /. rtt) in
          if frac > 0. then begin
            let out = mi *. frac in
            m.(i) <- mi -. out;
            (* Deposit at w/2, split linearly over the bracketing bins. *)
            let x = Float.max 0. ((w /. 2. /. t.h) -. 0.5) in
            let lo = int_of_float x in
            if lo >= n - 1 then s.(n - 1) <- s.(n - 1) +. out
            else begin
              let f = x -. float_of_int lo in
              s.(lo) <- s.(lo) +. (out *. (1. -. f));
              s.(lo + 1) <- s.(lo + 1) +. (out *. f)
            end
          end
        end
      done;
      for i = 0 to n - 1 do
        m.(i) <- m.(i) +. s.(i)
      done
    end;
    (* Upwind drift: mass moves right one neighbor at a time; the top bin is
       absorbing (the W_m clamp).  Walking from the top keeps each packet of
       mass from moving twice in one step. *)
    let frac = Float.min 1. (dt *. drift /. t.h) in
    if frac > 0. then
      for i = n - 2 downto 0 do
        let out = m.(i) *. frac in
        m.(i) <- m.(i) -. out;
        m.(i + 1) <- m.(i + 1) +. out
      done

  let max_dt t ~drift ~p ~rtt =
    let cfl =
      if drift > 0. then 0.9 *. t.h /. drift else Float.infinity
    in
    let halving =
      if p > 0. then 0.9 *. rtt /. (p *. wmax t) else Float.infinity
    in
    Float.min cfl halving
end

(* A histogram against the previous one, bit for bit: its shape, every
   bin, the mean, the second moment and the total.  Step 0 is the reset. *)
let check_same_hist ~config ~step a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let fail field x y =
    Alcotest.failf "config %d, step %d: %s is %h, previously %h" config step field y x
  in
  if Oracle.bins a <> Window_hist.bins b then
    Alcotest.failf "config %d: bin counts differ" config;
  if not (same (Oracle.width a) (Window_hist.width b)) then
    fail "width" (Oracle.width a) (Window_hist.width b);
  for i = 0 to Window_hist.bins b - 1 do
    let x = a.Oracle.mass.(i) and y = Window_hist.mass b i in
    if not (same x y) then fail (Printf.sprintf "bin %d" i) x y
  done;
  List.iter
    (fun (field, x, y) -> if not (same x y) then fail field x y)
    [
      ("mean", Oracle.mean a, Window_hist.mean b);
      ("second moment", Oracle.second_moment a, Window_hist.second_moment b);
      ("total", Oracle.total a, Window_hist.total b);
    ]

(* The two-sweep histogram against the previous one: random widths, bin
   counts and reset intervals (collapsed to a point mass, clipped at 0 or
   at wmax, or inside), drift 0 or positive, p 0, subnormal or 1e-6..1,
   and steps up to ten times [max_dt], where the transported fractions
   clamp at 1.  A quarter of the steps run at p = 0, without a halving. *)
let test_window_hist_matches_oracle () =
  let module Rng = Pftk_stats.Rng in
  let rng = Rng.create ~seed:20L () in
  let log_uniform lo hi = lo *. ((hi /. lo) ** Rng.float rng) in
  let bin_counts = [| 2; 3; 5; 17; 64; 128; 256; 1024 |] in
  let clamped = ref 0 and idle = ref 0 in
  for config = 0 to 511 do
    let bins = bin_counts.(config mod Array.length bin_counts) in
    let wmax = log_uniform 1. 1e4 in
    let drift = if Rng.int rng 4 = 0 then 0. else log_uniform 1e-2 1e3 in
    let p =
      match Rng.int rng 4 with
      | 0 -> 0.
      | 1 -> Int64.float_of_bits (Int64.of_int (1 + Rng.int rng 1_000_000))
      | _ -> log_uniform 1e-6 1.
    in
    let rtt = log_uniform 1e-3 2. in
    let mean, spread =
      match Rng.int rng 4 with
      | 0 -> (Rng.float_range rng (-0.2 *. wmax) (1.2 *. wmax), 0.)
      | 1 -> (Rng.float_range rng 0. wmax, -.Rng.float rng *. wmax)
      | 2 -> (Rng.float_range rng (-0.1 *. wmax) (1.1 *. wmax), wmax *. Rng.float rng)
      | _ ->
          let mean = Rng.float_range rng (0.3 *. wmax) (0.7 *. wmax) in
          (mean, Rng.float rng *. 0.2 *. wmax)
    in
    let a = Oracle.create ~bins ~wmax () and b = Window_hist.create ~bins ~wmax () in
    Oracle.reset a ~mean ~spread;
    Window_hist.reset b ~mean ~spread;
    check_same_hist ~config ~step:0 a b;
    let max_dt = Oracle.max_dt a ~drift ~p ~rtt in
    let dt_scale = if Float.is_finite max_dt then max_dt else log_uniform 1e-3 1. in
    for step = 1 to 200 do
      let dt = dt_scale *. 10. *. Rng.float rng in
      let p = if Rng.int rng 4 = 0 then 0. else p in
      if dt > max_dt then incr clamped;
      if p = 0. then incr idle;
      Oracle.step a ~dt ~drift ~p ~rtt;
      Window_hist.step b ~dt ~drift ~p ~rtt;
      check_same_hist ~config ~step a b
    done
  done;
  Alcotest.(check bool) "steps beyond max_dt" true (!clamped > 10_000);
  Alcotest.(check bool) "steps without a halving" true (!idle > 10_000)

(* A step reads and writes the histogram in place. *)
let test_window_hist_step_allocates_nothing () =
  let h = Window_hist.create ~bins:256 ~wmax:64. () in
  Window_hist.reset h ~mean:20. ~spread:10.;
  let dt = 0.002 and drift = 5. and p = 0.02 and rtt = 0.1 in
  Window_hist.step h ~dt ~drift ~p ~rtt;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Window_hist.step h ~dt ~drift ~p ~rtt
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 1000 steps" 0. words

(* --- dynamics ---------------------------------------------------------------- *)

(* The previous [Dynamics.run], verbatim over the previous histogram. *)
let oracle_run (cfg : Dynamics.config) : Dynamics.result =
  let open Dynamics in
  if not (cfg.horizon > 0.) then
    invalid_arg "Dynamics.run: horizon must be positive";
  if cfg.osc_threshold < 0. then
    invalid_arg "Dynamics.run: negative osc_threshold";
  let sc = cfg.solver in
  let eq = Solver.solve sc in
  let n = float_of_int sc.Solver.flows in
  let capacity = sc.Solver.capacity in
  let base_rtt = sc.Solver.base_rtt in
  let b_rounds = float_of_int sc.Solver.b in
  let law = sc.Solver.law in
  let buffer = float_of_int (Queue_law.capacity law) in
  (* Window span: the receiver cap when one is set, else comfortable
     headroom above the equilibrium window. *)
  let wmax =
    if sc.Solver.wm > 0 then float_of_int sc.Solver.wm
    else Float.max 8. (3. *. eq.Solver.per_flow_rate *. eq.Solver.rtt)
  in
  let hist = Oracle.create ~bins:cfg.bins ~wmax () in
  let w_eq =
    Float.max 1. (Float.min (0.95 *. wmax) (eq.Solver.per_flow_rate *. eq.Solver.rtt))
  in
  Oracle.reset hist ~mean:w_eq ~spread:(0.5 *. w_eq);
  let dt =
    if cfg.dt > 0. then cfg.dt
    else begin
      (* A fraction of the feedback delay, and under the drift CFL bound
         at the fastest (empty-queue) drift. *)
      let cfl = 0.9 *. Oracle.width hist *. b_rounds *. base_rtt in
      Float.min (base_rtt /. 16.) cfl
    end
  in
  let steps_total =
    Int.max 2 (int_of_float (Float.ceil (cfg.horizon /. dt)))
  in
  let settle = steps_total / 2 in
  let samples = Array.make (steps_total - settle) 0. in
  (* Senders react to drops one propagation round late. *)
  let delay_len = Int.max 1 (int_of_float ((base_rtt /. dt) +. 0.5)) in
  let delayed = Array.make delay_len eq.Solver.p in
  let delay_at = ref 0 in
  let q = ref eq.Solver.queue in
  let qbar = ref eq.Solver.queue in
  let sum_w = ref 0. in
  let sum_goodput = ref 0. in
  let recorded = ref 0 in
  for step = 0 to steps_total - 1 do
    let rtt = base_rtt +. (!q /. capacity) in
    let w_mean = Oracle.mean hist in
    let arrival = n *. w_mean /. rtt in
    let p_now =
      match law with
      | Queue_law.Constant p0 -> p0
      | Queue_law.Red _ -> Queue_law.drop_prob law ~avg_queue:!qbar
      | Queue_law.Drop_tail _ ->
          (* Fluid drop-tail: a full buffer sheds exactly the excess. *)
          if !q >= buffer && arrival > capacity then 1. -. (capacity /. arrival)
          else 0.
    in
    let p_seen = delayed.(!delay_at) in
    delayed.(!delay_at) <- p_now;
    delay_at := (!delay_at + 1) mod delay_len;
    Oracle.step hist ~dt ~drift:(1. /. (b_rounds *. rtt)) ~p:p_seen ~rtt;
    (match law with
    | Queue_law.Constant _ -> ()
    | Queue_law.Drop_tail _ | Queue_law.Red _ ->
        let dq = dt *. ((arrival *. (1. -. p_now)) -. capacity) in
        q := Float.max 0. (Float.min buffer (!q +. dq));
        (match law with
        | Queue_law.Red red ->
            let gain =
              Float.min 1. (red.Queue_law.weight *. arrival *. dt)
            in
            qbar := !qbar +. (gain *. (!q -. !qbar))
        | Queue_law.Drop_tail _ | Queue_law.Constant _ -> qbar := !q));
    if step >= settle then begin
      (* The oscillation signal: the queue, except in the open-loop
         constant law where only the window distribution can move. *)
      samples.(!recorded) <-
        (match law with Queue_law.Constant _ -> w_mean | _ -> !q);
      sum_w := !sum_w +. w_mean;
      sum_goodput := !sum_goodput +. (w_mean /. rtt *. (1. -. p_now));
      incr recorded
    end
  done;
  let count = Float.max 1. (float_of_int !recorded) in
  let sig_min = ref Float.infinity in
  let sig_max = ref Float.neg_infinity in
  let sig_sum = ref 0. in
  for i = 0 to !recorded - 1 do
    let s = samples.(i) in
    if s < !sig_min then sig_min := s;
    if s > !sig_max then sig_max := s;
    sig_sum := !sig_sum +. s
  done;
  let sig_mean = !sig_sum /. count in
  let amplitude = Float.max 0. ((!sig_max -. !sig_min) /. 2.) in
  let crossings = ref 0 in
  for i = 1 to !recorded - 1 do
    let a = samples.(i - 1) -. sig_mean and b = samples.(i) -. sig_mean in
    if (a < 0. && b >= 0.) || (a >= 0. && b < 0.) then incr crossings
  done;
  let verdict =
    if amplitude > Float.max cfg.osc_threshold (0.02 *. Float.max 1. sig_mean)
    then begin
      let period =
        if !crossings >= 3 then
          2. *. float_of_int !recorded *. dt /. float_of_int !crossings
        else 0.
      in
      Oscillating { amplitude; period }
    end
    else Stable
  in
  let queue_stats =
    match law with
    | Queue_law.Constant _ -> (0., 0., 0.)
    | _ -> (sig_mean, !sig_min, !sig_max)
  in
  let mean_queue, queue_min, queue_max = queue_stats in
  {
    verdict;
    equilibrium = eq;
    mean_queue;
    queue_min;
    queue_max;
    mean_window = !sum_w /. count;
    mean_goodput = !sum_goodput /. count;
    steps = steps_total;
  }

(* [Dynamics.run] against its previous body over the previous histogram:
   48 random RED, drop-tail and constant configurations, bins 2 to 1024,
   with and without a receiver window, the step chosen by [run] or given,
   and horizons of 64 to 127 base RTTs, at least 1 024 steps.  Every
   result field must keep its bits. *)
let test_dynamics_matches_oracle () =
  let module Rng = Pftk_stats.Rng in
  let rng = Rng.create ~seed:21L () in
  let log_uniform lo hi = lo *. ((hi /. lo) ** Rng.float rng) in
  let bin_counts = [| 2; 1024; 3; 17; 64; 128; 256; 5 |] in
  let bits x = Int64.bits_of_float x in
  let fields (r : Dynamics.result) =
    let e = r.Dynamics.equilibrium in
    let verdict =
      match r.Dynamics.verdict with
      | Dynamics.Stable -> [ 0L ]
      | Dynamics.Oscillating { Dynamics.amplitude; period } -> [ 1L; bits amplitude; bits period ]
    in
    let outcome =
      match e.Solver.outcome with
      | Solver.Converged -> [ 0L ]
      | Solver.Oscillating a -> [ 1L; bits a ]
    in
    verdict @ outcome
    @ List.map bits
        [
          r.Dynamics.mean_queue; r.Dynamics.queue_min; r.Dynamics.queue_max;
          r.Dynamics.mean_window; r.Dynamics.mean_goodput; e.Solver.p; e.Solver.queue;
          e.Solver.rtt; e.Solver.per_flow_rate; e.Solver.per_flow_goodput;
          e.Solver.utilization; e.Solver.residual; e.Solver.loop_gain;
        ]
    @ List.map Int64.of_int
        [
          r.Dynamics.steps; e.Solver.iterations; Bool.to_int e.Solver.window_limited;
        ]
  in
  let oscillating = ref 0 in
  for config = 0 to 47 do
    let capacity = log_uniform 100. 1e5 in
    let base_rtt = log_uniform 0.01 0.3 in
    let flows = int_of_float (log_uniform 1. 1e5) in
    let buffer = Int.max 8 (int_of_float (capacity *. base_rtt *. log_uniform 0.25 2.)) in
    let law =
      match config mod 3 with
      | 0 ->
          let bf = float_of_int buffer in
          Queue_law.red ~weight:(log_uniform 1e-4 0.1)
            ~max_probability:(log_uniform 0.02 0.5) ~capacity:buffer
            ~min_threshold:(bf /. 6.) ~max_threshold:(bf /. 2.) ()
      | 1 -> Queue_law.drop_tail ~capacity:buffer
      | _ -> Queue_law.constant ~p:(log_uniform 1e-4 0.2)
    in
    let wm = if config / 3 mod 2 = 0 then 0 else 4 + Rng.int rng 200 in
    let solver = { (Solver.default ~flows ~capacity ~base_rtt ~law) with Solver.wm } in
    let cfg =
      {
        (Dynamics.default solver) with
        Dynamics.bins = bin_counts.(config mod Array.length bin_counts);
        horizon = base_rtt *. float_of_int (64 + Rng.int rng 64);
        dt = (if config / 6 mod 2 = 0 then 0. else base_rtt /. float_of_int (16 + Rng.int rng 16));
      }
    in
    let expected = oracle_run cfg and actual = Dynamics.run cfg in
    Alcotest.(check bool) (Printf.sprintf "config %d: at least 1 024 steps" config) true
      (actual.Dynamics.steps >= 1024);
    (match actual.Dynamics.verdict with
    | Dynamics.Oscillating _ -> incr oscillating
    | Dynamics.Stable -> ());
    if not (List.equal Int64.equal (fields expected) (fields actual)) then
      Alcotest.failf "config %d: the result differs from the previous run" config
  done;
  Alcotest.(check bool) "both verdicts seen" true (!oscillating > 0 && !oscillating < 48)

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
      ( "histogram",
        [
          case "mass conserved" test_histogram_mass_conserved;
          case "window_hist matches the previous histogram" test_window_hist_matches_oracle;
          case "Window_hist.step allocates nothing" test_window_hist_step_allocates_nothing;
        ] );
      ("dynamics", [ case "dynamics matches the previous run" test_dynamics_matches_oracle ]);
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
