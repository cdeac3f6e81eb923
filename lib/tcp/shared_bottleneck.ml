module Sim = Pftk_netsim.Sim
module Link = Pftk_netsim.Link
module Queue_discipline = Pftk_netsim.Queue_discipline
module Recorder = Pftk_trace.Recorder
module Tfrc = Pftk_core.Tfrc

type kind =
  | Reno_flow of Reno.config
  | Tfrc_flow of { mss : int }
  | Cross_flow of Pftk_netsim.Cross_traffic.config

type spec = { name : string; kind : kind; start_time : float }

let reno ?(config = Reno.default_config) name =
  { name; kind = Reno_flow config; start_time = 0. }

let tfrc ?(mss = 1460) name = { name; kind = Tfrc_flow { mss }; start_time = 0. }

let cross ?(config = Pftk_netsim.Cross_traffic.default) name =
  { name; kind = Cross_flow config; start_time = 0. }

type flow_result = {
  name : string;
  kind_label : string;
  packets_sent : int;
  packets_delivered : int;
  goodput : float;
  loss_rate : float;
}

type result = {
  flows : flow_result list;
  bottleneck_utilization : float;
  bottleneck_mean_queue : float;
  jain_fairness : float;
}

(* Payload on the shared bottleneck: which flow, plus either a TCP segment
   or a paced datagram with its send timestamp (for RTT feedback). *)
type payload =
  | Tcp_data of int * Segment.data
  | Paced of { flow : int; seq : int; sent_at : float }
  | Background of int

(* Per-flow endpoint state, filled in as flows are instantiated. *)
type endpoint =
  | Tcp_endpoint of Reno.t * Receiver.t
  | Paced_endpoint of paced_state
  | Cross_endpoint of cross_state

and cross_state = {
  mutable source : Pftk_netsim.Cross_traffic.t option;
  mutable received : int;
}

and paced_state = {
  controller : Tfrc.Controller.t;
  mss : int;
  mutable next_seq : int;
  mutable rcv_expected : int;
  mutable sent : int;
  mutable delivered : int;
}

let jain goodputs =
  let n = float_of_int (Array.length goodputs) in
  let total = Array.fold_left ( +. ) 0. goodputs in
  let sq = Array.fold_left (fun acc g -> acc +. (g *. g)) 0. goodputs in
  if sq = 0. then 1. else total *. total /. (n *. sq)

let run ?(seed = 53L) ?(buffer = 64) ?discipline ?(bandwidth = 1_250_000.)
    ?(one_way_delay = 0.02) ~duration specs =
  if specs = [] then invalid_arg "Shared_bottleneck.run: no flows";
  if not (duration > 0.) then
    invalid_arg "Shared_bottleneck.run: duration must be positive";
  if not (Float.is_finite duration) then
    invalid_arg "Shared_bottleneck.run: duration must be finite";
  let sim = Sim.create () in
  let rng = Pftk_stats.Rng.create ~seed () in
  let n = List.length specs in
  let endpoints : endpoint option array = Array.make n None in
  (* Shared forward bottleneck: dispatch deliveries by flow id. *)
  let discipline =
    match discipline with
    | Some d -> d
    | None -> Queue_discipline.drop_tail ~capacity:buffer
  in
  let bottleneck =
    Link.create ~discipline ~sim ~rng ~bandwidth ~delay:one_way_delay
      ~deliver:(fun payload ->
        match payload with
        | Tcp_data (flow, segment) -> begin
            match endpoints.(flow) with
            | Some (Tcp_endpoint (_, receiver)) -> Receiver.on_data receiver segment
            | Some (Paced_endpoint _) | Some (Cross_endpoint _) | None ->
                assert false
          end
        | Background flow -> begin
            match endpoints.(flow) with
            | Some (Cross_endpoint state) -> state.received <- state.received + 1
            | Some _ | None -> assert false
          end
        | Paced { flow; seq; sent_at } -> begin
            match endpoints.(flow) with
            | Some (Paced_endpoint state) ->
                (* In-order FIFO link: a gap means the skipped packets were
                   dropped at the bottleneck. *)
                let lost = max 0 (seq - state.rcv_expected) in
                for _ = 1 to lost do
                  Tfrc.Controller.on_packet state.controller ~lost:true
                done;
                Tfrc.Controller.on_packet state.controller ~lost:false;
                state.rcv_expected <- seq + 1;
                state.delivered <- state.delivered + 1;
                (* Idealized instant feedback of the RTT sample. *)
                Tfrc.Controller.on_rtt_sample state.controller
                  (Sim.now sim -. sent_at +. one_way_delay)
            | Some (Tcp_endpoint _) | Some (Cross_endpoint _) | None ->
                assert false
          end)
      ()
  in
  (* Instantiate flows. *)
  List.iteri
    (fun flow spec ->
      match spec.kind with
      | Reno_flow config ->
          let recorder = Recorder.create () in
          let reverse =
            Link.create ~sim ~rng ~bandwidth:(bandwidth *. 4.)
              ~delay:one_way_delay
              ~deliver:(fun ack ->
                match endpoints.(flow) with
                | Some (Tcp_endpoint (sender, _)) -> Reno.on_ack sender ack
                | Some (Paced_endpoint _) | Some (Cross_endpoint _) | None ->
                    assert false)
              ()
          in
          let receiver =
            Receiver.create
              ~sack:(config.Reno.recovery = Reno.Sack_recovery)
              ~sim
              ~send_ack:(fun ack -> ignore (Link.send reverse ~size:40 ack))
              ()
          in
          let sender =
            Reno.create ~config ~sim ~recorder
              ~transmit:(fun segment ->
                ignore
                  (Link.send bottleneck ~size:segment.Segment.size
                     (Tcp_data (flow, segment))))
              ()
          in
          endpoints.(flow) <- Some (Tcp_endpoint (sender, receiver));
          Sim.schedule sim ~delay:spec.start_time (fun () -> Reno.start sender)
      | Tfrc_flow { mss } ->
          let state =
            {
              controller = Tfrc.Controller.create ~initial_rate:10. ();
              mss;
              next_seq = 0;
              rcv_expected = 0;
              sent = 0;
              delivered = 0;
            }
          in
          endpoints.(flow) <- Some (Paced_endpoint state);
          (* Pacing loop: one packet per 1/rate seconds. *)
          let rec send_next () =
            let seq = state.next_seq in
            state.next_seq <- seq + 1;
            state.sent <- state.sent + 1;
            ignore
              (Link.send bottleneck ~size:(state.mss + 40)
                 (Paced { flow; seq; sent_at = Sim.now sim }));
            let gap = 1. /. Tfrc.Controller.allowed_rate state.controller in
            Sim.schedule sim ~delay:(Float.min 10. gap) send_next
          in
          (* Feedback epochs once per ~RTT. *)
          let rec epoch () =
            Tfrc.Controller.feedback_epoch state.controller;
            let rtt =
              Option.value
                ~default:(2. *. one_way_delay)
                (Tfrc.Controller.smoothed_rtt state.controller)
            in
            Sim.schedule sim ~delay:rtt epoch
          in
          Sim.schedule sim ~delay:spec.start_time (fun () ->
              send_next ();
              epoch ())
      | Cross_flow config ->
          let state = { source = None; received = 0 } in
          endpoints.(flow) <- Some (Cross_endpoint state);
          Sim.schedule sim ~delay:spec.start_time (fun () ->
              state.source <-
                Some
                  (Pftk_netsim.Cross_traffic.start ~config ~sim ~rng
                     ~send:(fun ~size ->
                       ignore (Link.send bottleneck ~size (Background flow)))
                     ())))
    specs;
  Sim.run ~until:duration sim;
  (* Collect. *)
  let flows =
    List.mapi
      (fun flow spec ->
        let active = duration -. spec.start_time in
        match endpoints.(flow) with
        | Some (Tcp_endpoint (sender, receiver)) ->
            let sent = Reno.packets_sent sender in
            let delivered = Receiver.segments_received receiver in
            {
              name = spec.name;
              kind_label = "reno";
              packets_sent = sent;
              packets_delivered = delivered;
              goodput = float_of_int delivered /. active;
              loss_rate =
                (if sent = 0 then 0.
                 else float_of_int (sent - delivered) /. float_of_int sent);
            }
        | Some (Cross_endpoint state) ->
            let sent =
              match state.source with
              | Some source -> Pftk_netsim.Cross_traffic.packets_sent source
              | None -> 0
            in
            {
              name = spec.name;
              kind_label = "cross";
              packets_sent = sent;
              packets_delivered = state.received;
              goodput = float_of_int state.received /. active;
              loss_rate =
                (if sent = 0 then 0.
                 else float_of_int (sent - state.received) /. float_of_int sent);
            }
        | Some (Paced_endpoint state) ->
            {
              name = spec.name;
              kind_label = "tfrc";
              packets_sent = state.sent;
              packets_delivered = state.delivered;
              goodput = float_of_int state.delivered /. active;
              loss_rate =
                (if state.sent = 0 then 0.
                 else
                   float_of_int (state.sent - state.delivered)
                   /. float_of_int state.sent);
            }
        | None -> assert false)
      specs
  in
  {
    flows;
    bottleneck_utilization = Link.busy_time bottleneck /. duration;
    bottleneck_mean_queue = Link.mean_queue bottleneck;
    jain_fairness =
      jain (Array.of_list (List.map (fun f -> f.goodput) flows));
  }
