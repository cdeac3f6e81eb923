module Int_set = Set.Make (Int)

type t = {
  send_ack : Segment.ack -> unit;
  ack_every : int;
  delayed_ack_timeout : float;
  sack : bool;
  mutable rcv_nxt : int;
  mutable out_of_order : Int_set.t;
  mutable unacked_arrivals : int;
  delayed_ack : Pftk_netsim.Sim.timer;
  on_delayed_ack : unit -> unit;
  mutable segments_received : int;
  mutable duplicates_received : int;
  mutable acks_sent : int;
}

(* Maximal runs of buffered out-of-order segments, nearest the cumulative
   point first, capped at three (the SACK option's size limit). *)
let sack_blocks t =
  if not t.sack then []
  else begin
    let rec runs acc current = function
      | [] -> List.rev (match current with None -> acc | Some r -> r :: acc)
      | seq :: rest -> begin
          match current with
          | Some (first, last) when seq = last + 1 ->
              runs acc (Some (first, seq)) rest
          | Some run -> runs (run :: acc) (Some (seq, seq)) rest
          | None -> runs acc (Some (seq, seq)) rest
        end
    in
    let all = runs [] None (Int_set.elements t.out_of_order) in
    List.filteri (fun i _ -> i < 3) all
  end

let emit_ack t =
  Pftk_netsim.Sim.disarm t.delayed_ack;
  t.unacked_arrivals <- 0;
  t.acks_sent <- t.acks_sent + 1;
  t.send_ack { Segment.ack = t.rcv_nxt; sacked = sack_blocks t }

let create ?(ack_every = 2) ?(delayed_ack_timeout = 0.2) ?(sack = false) ~sim
    ~send_ack () =
  if ack_every < 1 then invalid_arg "Receiver.create: ack_every must be >= 1";
  if not (delayed_ack_timeout > 0.) then
    invalid_arg "Receiver.create: delayed_ack_timeout must be positive";
  let rec t =
    {
      send_ack;
      ack_every;
      delayed_ack_timeout;
      sack;
      rcv_nxt = 0;
      out_of_order = Int_set.empty;
      unacked_arrivals = 0;
      delayed_ack = Pftk_netsim.Sim.timer sim;
      on_delayed_ack = (fun () -> if t.unacked_arrivals > 0 then emit_ack t);
      segments_received = 0;
      duplicates_received = 0;
      acks_sent = 0;
    }
  in
  t

let arm_delayed_timer t =
  if not (Pftk_netsim.Sim.armed t.delayed_ack) then
    Pftk_netsim.Sim.arm t.delayed_ack ~delay:t.delayed_ack_timeout
      t.on_delayed_ack

(* Advance the cumulative point through any buffered segments. *)
let rec drain t =
  if Int_set.mem t.rcv_nxt t.out_of_order then begin
    t.out_of_order <- Int_set.remove t.rcv_nxt t.out_of_order;
    t.rcv_nxt <- t.rcv_nxt + 1;
    t.segments_received <- t.segments_received + 1;
    drain t
  end

let on_data t (seg : Segment.data) =
  if seg.seq < t.rcv_nxt || Int_set.mem seg.seq t.out_of_order then begin
    (* Duplicate: below the cumulative point or already buffered.  ACK
       immediately so the sender sees where we stand. *)
    t.duplicates_received <- t.duplicates_received + 1;
    emit_ack t
  end
  else if seg.seq = t.rcv_nxt then begin
    t.rcv_nxt <- t.rcv_nxt + 1;
    t.segments_received <- t.segments_received + 1;
    let filled_hole = not (Int_set.is_empty t.out_of_order) in
    drain t;
    if filled_hole then emit_ack t
    else begin
      t.unacked_arrivals <- t.unacked_arrivals + 1;
      if t.unacked_arrivals >= t.ack_every then emit_ack t
      else arm_delayed_timer t
    end
  end
  else begin
    (* Out of order: buffer and send an immediate duplicate ACK. *)
    t.out_of_order <- Int_set.add seg.seq t.out_of_order;
    emit_ack t
  end

let rcv_nxt t = t.rcv_nxt
let segments_received t = t.segments_received
let duplicates_received t = t.duplicates_received
let acks_sent t = t.acks_sent
