type config = {
  rate : float;
  packet_size : int;
  mean_on : float;
  mean_off : float;
  pareto_shape : float option;
}

let default =
  {
    rate = 200.;
    packet_size = 1000;
    mean_on = 1.;
    mean_off = 2.;
    pareto_shape = None;
  }

type t = { mutable packets_sent : int }

let validate c =
  if not (c.rate > 0.) then invalid_arg "Cross_traffic: rate must be positive";
  if c.packet_size <= 0 then invalid_arg "Cross_traffic: bad packet size";
  if not (c.mean_on > 0. && c.mean_off > 0.) then
    invalid_arg "Cross_traffic: durations must be positive";
  match c.pareto_shape with
  | Some a when not (a > 1.) ->
      invalid_arg "Cross_traffic: pareto shape must exceed 1"
  | Some _ | None -> ()

(* Pareto with the requested mean: scale x_m = mean (a-1)/a, sample
   x_m * U^(-1/a). *)
let on_duration config rng =
  match config.pareto_shape with
  | None -> Pftk_stats.Rng.exponential rng config.mean_on
  | Some a ->
      let x_m = config.mean_on *. (a -. 1.) /. a in
      let u = 1. -. Pftk_stats.Rng.float rng in
      x_m *. (u ** (-1. /. a))

let start ?(config = default) ~sim ~rng ~send () =
  validate config;
  let t = { packets_sent = 0 } in
  let rec off_period () =
    Sim.schedule sim
      ~delay:(Pftk_stats.Rng.exponential rng config.mean_off)
      on_period
  and on_period () =
    let ends_at = Sim.now sim +. on_duration config rng in
    let rec burst () =
      if Sim.now sim < ends_at then begin
        t.packets_sent <- t.packets_sent + 1;
        send ~size:config.packet_size;
        Sim.schedule sim
          ~delay:(Pftk_stats.Rng.exponential rng (1. /. config.rate))
          burst
      end
      else off_period ()
    in
    burst ()
  in
  off_period ();
  t

let packets_sent t = t.packets_sent
let duty_cycle c = c.mean_on /. (c.mean_on +. c.mean_off)
let mean_rate c = c.rate *. duty_cycle c
