module Params = Pftk_core.Params
module Full_model = Pftk_core.Full_model
module Approx_model = Pftk_core.Approx_model

type rate_law = Full | Approximate

type config = {
  flows : int;
  capacity : float;
  base_rtt : float;
  b : int;
  wm : int;
  law : Queue_law.t;
  rate_law : rate_law;
  t0_factor : float;
  damping : float;
  max_iterations : int;
  tolerance : float;
}

let default ~flows ~capacity ~base_rtt ~law =
  {
    flows;
    capacity;
    base_rtt;
    b = 2;
    wm = 0;
    law;
    rate_law = Full;
    t0_factor = 4.;
    damping = 0.5;
    max_iterations = 200;
    tolerance = 1e-6;
  }

type outcome = Converged | Oscillating of float

type equilibrium = {
  p : float;
  queue : float;
  rtt : float;
  per_flow_rate : float;
  per_flow_goodput : float;
  utilization : float;
  window_limited : bool;
  iterations : int;
  residual : float;
  loop_gain : float;
  outcome : outcome;
}

(* Everything but the law, which [solve_drop_tail] replaces. *)
let validate cfg =
  if cfg.flows < 1 then invalid_arg "Solver.solve: flows must be >= 1";
  if not (cfg.capacity > 0.) then
    invalid_arg "Solver.solve: capacity must be positive";
  if not (Float.is_finite cfg.capacity) then
    invalid_arg "Solver.solve: capacity must be finite";
  if not (cfg.base_rtt > 0.) then
    invalid_arg "Solver.solve: base_rtt must be positive";
  if not (Float.is_finite cfg.base_rtt) then
    invalid_arg "Solver.solve: base_rtt must be finite";
  if cfg.b < 1 then invalid_arg "Solver.solve: b must be >= 1";
  if not (cfg.t0_factor > 0.) then
    invalid_arg "Solver.solve: t0_factor must be positive";
  if not (0. < cfg.damping && cfg.damping <= 1.) then
    invalid_arg "Solver.solve: damping outside (0, 1]";
  if cfg.max_iterations < 1 then
    invalid_arg "Solver.solve: max_iterations must be >= 1";
  if not (cfg.tolerance > 0.) then
    invalid_arg "Solver.solve: tolerance must be positive"

(* Loss probabilities the equilibrium search may visit.  [p_min] stands in
   for "no loss" (the formulas diverge at 0); [p_max] caps the bisection
   in hopeless configurations. *)
let p_min = 1e-7
let p_max = 0.95

(* The equilibrium of a validated [cfg] behind [law]. *)
let equilibrium cfg law =
  let n = float_of_int cfg.flows in
  let wm_eff = if cfg.wm <= 0 then Params.unlimited_window else cfg.wm in
  let params_at rtt =
    Params.make ~b:cfg.b ~wm:wm_eff ~rtt
      ~t0:(Float.max 1e-3 (cfg.t0_factor *. rtt))
      ()
  in
  let rate_fn =
    match cfg.rate_law with
    | Full -> fun params p -> Full_model.send_rate params p
    | Approximate -> Approx_model.send_rate
  in
  let rate rtt p = rate_fn (params_at rtt) p in
  let fair = cfg.capacity /. n in
  let rtt_of q = cfg.base_rtt +. (q /. cfg.capacity) in
  (* The loss that balances the link at occupancy [q]: the model is
     monotone decreasing in [p], so geometric bisection; 0 when even
     (near-)lossless flows cannot fill the link. *)
  let p_needed q =
    let rtt = rtt_of q in
    if rate rtt p_min <= fair then 0.
    else if rate rtt p_max >= fair then p_max
    else begin
      let rec bisect lo hi k =
        if Int.equal k 0 then (lo +. hi) /. 2.
        else
          let mid = sqrt (lo *. hi) in
          if rate rtt mid > fair then bisect mid hi (k - 1)
          else bisect lo mid (k - 1)
      in
      bisect p_min p_max 80
    end
  in
  let finish ~p ~queue ~iterations ~residual ~loop_gain ~outcome =
    let rtt = rtt_of queue in
    let params = params_at rtt in
    let p_eval = if p <= 0. then p_min else p in
    let r = rate_fn params p_eval in
    (* A loss-free equilibrium means the link (or the window) already
       limits the flows; don't let the p_min evaluation overshoot it. *)
    let r = if p <= 0. then Float.min fair r else r in
    {
      p;
      queue;
      rtt;
      per_flow_rate = r;
      per_flow_goodput = r *. (1. -. Float.max 0. p);
      utilization = n *. r /. cfg.capacity;
      window_limited = Full_model.window_limited params p_eval;
      iterations;
      residual;
      loop_gain;
      outcome;
    }
  in
  match law with
  | Queue_law.Constant p0 ->
      (* Open loop: the drop process is given, nothing couples back. *)
      let rtt = cfg.base_rtt in
      let params = params_at rtt in
      let p_eval = if p0 <= 0. then p_min else p0 in
      let r = rate_fn params p_eval in
      {
        p = p0;
        queue = 0.;
        rtt;
        per_flow_rate = r;
        per_flow_goodput = r *. (1. -. p0);
        utilization = n *. r /. cfg.capacity;
        window_limited = Full_model.window_limited params p_eval;
        iterations = 0;
        residual = 0.;
        loop_gain = 0.;
        outcome = Converged;
      }
  | Queue_law.Drop_tail _ ->
      if rate cfg.base_rtt p_min <= fair then
        (* Underutilized: the queue stays empty, loss stays ~0. *)
        finish ~p:0. ~queue:0. ~iterations:0 ~residual:0. ~loop_gain:0.
          ~outcome:Converged
      else begin
        let queue = Queue_law.queue_for_drop law ~p:1. in
        if rate (rtt_of queue) p_min <= fair then
          (* The queueing delay alone slows the flows to the fair share. *)
          finish ~p:0. ~queue ~iterations:0 ~residual:0. ~loop_gain:0.
            ~outcome:Converged
        else
          finish ~p:(p_needed queue) ~queue ~iterations:0 ~residual:0.
            ~loop_gain:0. ~outcome:Converged
      end
  | Queue_law.Red red ->
      if rate cfg.base_rtt p_min <= fair then
        finish ~p:0. ~queue:0. ~iterations:0 ~residual:0. ~loop_gain:0.
          ~outcome:Converged
      else begin
        let phi q = Queue_law.queue_for_drop law ~p:(p_needed q) in
        let trail_len = 16 in
        let trail = Array.make trail_len red.Queue_law.min_threshold in
        let q = ref red.Queue_law.min_threshold in
        let residual = ref Float.infinity in
        let iter = ref 0 in
        let converged = ref false in
        while (not !converged) && !iter < cfg.max_iterations do
          let target = phi !q in
          residual := Float.abs (target -. !q);
          q := ((1. -. cfg.damping) *. !q) +. (cfg.damping *. target);
          trail.(!iter mod trail_len) <- !q;
          incr iter;
          if !residual <= cfg.tolerance *. Float.max 1. !q then
            converged := true
        done;
        let loop_gain =
          let d = Float.max 0.25 (0.02 *. !q) in
          let lo = Float.max 0. (!q -. d) in
          let hi = !q +. d in
          if hi > lo then Float.abs (phi hi -. phi lo) /. (hi -. lo) else 0.
        in
        let outcome =
          if !converged then Converged
          else begin
            let filled = Int.min !iter trail_len in
            let qmin = ref Float.infinity and qmax = ref Float.neg_infinity in
            for i = 0 to filled - 1 do
              if trail.(i) < !qmin then qmin := trail.(i);
              if trail.(i) > !qmax then qmax := trail.(i)
            done;
            Oscillating ((!qmax -. !qmin) /. 2.)
          end
        in
        finish ~p:(p_needed !q) ~queue:!q ~iterations:!iter
          ~residual:!residual ~loop_gain ~outcome
      end

let solve cfg =
  validate cfg;
  Queue_law.validate cfg.law;
  equilibrium cfg cfg.law

(* [Queue_law.drop_tail] rejects an empty buffer; the equilibrium behind
   one is the queue-free limit, which [required_buffer] probes. *)
let solve_drop_tail cfg ~buffer =
  if buffer < 0 then invalid_arg "Solver.solve_drop_tail: negative buffer";
  validate cfg;
  equilibrium cfg (Queue_law.Drop_tail buffer)

let buffer_cap = 100_000

let required_buffer ?(target_p = 0.01) cfg =
  if not (target_p > 0. && target_p < 1.) then
    invalid_arg "Solver.required_buffer: target_p outside (0, 1)";
  (* Larger buffers inflate RTT, which slows the flows and lowers
     equilibrium loss, so loss is monotone non-increasing in the buffer
     size.  Bisect on whole packets: buffers are integers, and the loss is
     a step function of the integer buffer — a continuous bisection can
     converge inside a step and truncate to a buffer one packet short of
     the target. *)
  let loss_at buffer = (solve_drop_tail cfg ~buffer).p in
  if loss_at 0 <= target_p then 0
  else if loss_at buffer_cap > target_p then buffer_cap
  else begin
    (* Invariant: [loss_at lo > target_p >= loss_at hi]. *)
    let rec bisect lo hi =
      if hi - lo <= 1 then hi
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if loss_at mid > target_p then bisect mid hi else bisect lo mid
      end
    in
    bisect 0 buffer_cap
  end
