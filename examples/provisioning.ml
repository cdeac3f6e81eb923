(* Link provisioning with the model: the operator-side application.

   Given a bottleneck's capacity, buffer and base RTT, the mean-field
   solver predicts the equilibrium loss rate and per-flow goodput for any
   number of competing TCP flows -- and inverts the relation to size the
   buffer for a loss budget.  The analytic answers are checked against the
   multi-flow packet-level simulator.

   Run with:  dune exec examples/provisioning.exe *)

module SB = Pftk_tcp.Shared_bottleneck
module Solver = Pftk_meanfield.Solver

let capacity_bytes = 1_250_000.
let packet = 1500.
let capacity = capacity_bytes /. packet (* packets/s *)
let buffer = 64
let law = Pftk_meanfield.Queue_law.drop_tail ~capacity:buffer
let base_rtt = 0.0426 (* 2 x 20 ms propagation + serialization *)

let () =
  Format.printf
    "Bottleneck: %.0f pkt/s, %d-packet buffer, base RTT %.1f ms@.@." capacity
    buffer (1000. *. base_rtt);
  Format.printf "%-7s %12s %12s %10s %12s %12s@." "flows" "eq. loss"
    "model pkt/s" "util" "sim pkt/s" "sim loss";
  List.iter
    (fun n ->
      let eq =
        Solver.solve
          {
            (Solver.default ~flows:n ~capacity ~base_rtt ~law) with
            Solver.wm = 32;
          }
      in
      let sim =
        SB.run
          ~seed:(Int64.of_int (100 + n))
          ~duration:120. ~buffer ~bandwidth:capacity_bytes
          ~one_way_delay:0.02
          (List.init n (fun i -> SB.reno (Printf.sprintf "flow-%d" i)))
      in
      let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int n in
      let sim_rate = mean (List.map (fun f -> f.SB.goodput) sim.SB.flows) in
      let sim_loss = mean (List.map (fun f -> f.SB.loss_rate) sim.SB.flows) in
      Format.printf "%-7d %12.4f %12.1f %10.2f %12.1f %12.4f@." n
        eq.Solver.p eq.Solver.per_flow_rate eq.Solver.utilization sim_rate
        sim_loss)
    [ 1; 2; 4; 8; 16; 32 ];

  (* How much buffer does a loss budget require as the user count grows? *)
  Format.printf "@.Buffer needed to hold equilibrium loss at 1%%:@.";
  Format.printf "%-7s %14s@." "flows" "buffer (pkts)";
  List.iter
    (fun n ->
      let needed =
        Solver.required_buffer ~target_p:0.01
          (Solver.default ~flows:n ~capacity ~base_rtt ~law)
      in
      Format.printf "%-7d %14d@." n needed)
    [ 8; 16; 32; 64; 128 ];
  Format.printf
    "@.(The square-root law in reverse: doubling the user count quadruples@.";
  Format.printf
    "the per-flow loss needed to slow everyone down, so the buffer -- which@.";
  Format.printf "inflates everyone's RTT -- has to grow steeply instead.)@."
