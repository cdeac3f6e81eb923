module Loss_history = struct
  type t = {
    depth : int;
    (* closed.(0) is the most recent completed interval length. *)
    mutable closed : float list;
    mutable current : int;  (* packets since the current event started *)
    mutable in_event : bool;  (* has any loss event occurred yet *)
    mutable event_span : int;
    mutable since_event_start : int;
    mutable loss_events : int;
    mutable packets_seen : int;
  }

  let create ?(intervals = 8) () =
    if intervals < 2 then invalid_arg "Tfrc.Loss_history: intervals must be >= 2";
    {
      depth = intervals;
      closed = [];
      current = 0;
      in_event = false;
      event_span = 1;
      since_event_start = 0;
      loss_events = 0;
      packets_seen = 0;
    }

  let set_event_span t span =
    if span < 1 then invalid_arg "Tfrc.Loss_history: span must be >= 1";
    t.event_span <- span

  let weights depth =
    (* RFC 5348: the first half of the history has weight 1, decaying
       linearly to 2/(depth+2)-ish afterwards; for depth 8 this is the
       canonical [1,1,1,1,0.8,0.6,0.4,0.2]. *)
    Array.init depth (fun i ->
        let half = depth / 2 in
        if i < half then 1.
        else 1. -. (float_of_int (i - half + 1) /. float_of_int (half + 1)))

  let on_packet t ~lost =
    t.packets_seen <- t.packets_seen + 1;
    t.current <- t.current + 1;
    t.since_event_start <- t.since_event_start + 1;
    if lost then begin
      if t.in_event && t.since_event_start <= t.event_span then
        (* Same loss event: ignore. *)
        ()
      else begin
        t.loss_events <- t.loss_events + 1;
        if t.in_event then begin
          (* Close the running interval. *)
          t.closed <- float_of_int t.current :: t.closed;
          if List.length t.closed > t.depth then
            t.closed <- List.filteri (fun i _ -> i < t.depth) t.closed
        end;
        t.in_event <- true;
        t.current <- 0;
        t.since_event_start <- 0
      end
    end

  let loss_events t = t.loss_events
  let packets_seen t = t.packets_seen

  let weighted_average intervals depth =
    let w = weights depth in
    let num = ref 0. and den = ref 0. in
    List.iteri
      (fun i s ->
        if i < depth then begin
          num := !num +. (w.(i) *. s);
          den := !den +. w.(i)
        end)
      intervals;
    if Float.equal !den 0. then None else Some (!num /. !den)

  let average_interval t =
    if not t.in_event then None
    else begin
      (* History discounting: include the open interval as interval zero if
         that *raises* the average (a long loss-free stretch should lift the
         allowed rate promptly; a short one must not crash it). *)
      let history = weighted_average t.closed t.depth in
      let with_current =
        weighted_average (float_of_int t.current :: t.closed) t.depth
      in
      match (history, with_current) with
      | None, None -> Some (Float.max 1. (float_of_int t.current))
      | None, Some c -> Some c
      | Some h, None -> Some h
      | Some h, Some c -> Some (Float.max h c)
    end

  let loss_event_rate t =
    match average_interval t with
    | Some avg when avg > 0. -> Some (Float.min 1. (1. /. avg))
    | Some _ | None -> None
end

(* The throughput equation as a standalone function of (t0_factor, rtt,
   p): exactly what [Controller.equation_rate] computes, factored out so
   the batch engine can evaluate it columnwise.  [fair_rate_unchecked]
   follows the validated-input convention (caller vouches for
   [t0_factor > 0], [rtt > 0] and [0 < p < 1]) and is eq. (33) on the
   fields [Params.make ~rtt ~t0 ()] would hold (b = 2, unlimited
   window), spelled without [Params.make], whose validation raises, so
   the F3 no-raise contract holds.  [Float.max] is a branch (they agree
   off NaN). *)
let b2 = Tdonly.consts ~b:2
let unlimited_wm = float_of_int Params.unlimited_window

let[@inline] [@pftk.zero_alloc] fair_rate_unchecked ~t0_factor ~rtt p =
  let t0 =
    let x = t0_factor *. rtt in
    if x > 1e-3 then x else 1e-3
  in
  Approx_model.send_rate_unchecked b2 ~rtt ~t0 ~wm:unlimited_wm p

let fair_rate ?(t0_factor = 4.) ~rtt p =
  Params.check_p p;
  if not (rtt > 0.) then invalid_arg "Tfrc.fair_rate: rtt must be positive";
  if not (t0_factor > 0.) then
    invalid_arg "Tfrc.fair_rate: t0_factor must be positive";
  fair_rate_unchecked ~t0_factor ~rtt p

module Controller = struct
  type t = {
    history : Loss_history.t;
    min_rate : float;
    rtt_gain : float;
    t0_factor : float;
    mutable rate : float;
    mutable srtt : float option;
  }

  let create ?(initial_rate = 1.) ?(min_rate = 1. /. 64.) ?(rtt_gain = 0.1)
      ?(t0_factor = 4.) () =
    if not (initial_rate > 0. && min_rate > 0.) then
      invalid_arg "Tfrc.Controller: rates must be positive";
    if not (0. < rtt_gain && rtt_gain <= 1.) then
      invalid_arg "Tfrc.Controller: rtt_gain outside (0, 1]";
    if not (t0_factor > 0.) then
      invalid_arg "Tfrc.Controller: t0_factor must be positive";
    {
      history = Loss_history.create ();
      min_rate;
      rtt_gain;
      t0_factor;
      rate = initial_rate;
      srtt = None;
    }

  let on_rtt_sample t r =
    if not (r > 0.) then invalid_arg "Tfrc.Controller: rtt sample must be positive";
    t.srtt <-
      (match t.srtt with
      | None -> Some r
      | Some s -> Some (((1. -. t.rtt_gain) *. s) +. (t.rtt_gain *. r)))

  let on_packet t ~lost =
    (* Group losses within roughly one RTT's worth of packets at the
       current rate into a single event. *)
    (match t.srtt with
    | Some rtt ->
        Loss_history.set_event_span t.history
          (Int.max 1 (int_of_float (t.rate *. rtt)))
    | None -> ());
    Loss_history.on_packet t.history ~lost

  let equation_rate t p rtt =
    Params.check_p p;
    if not (rtt > 0.) then
      invalid_arg "Tfrc.Controller.equation_rate: rtt must be positive";
    fair_rate_unchecked ~t0_factor:t.t0_factor ~rtt p

  let feedback_epoch t =
    match (Loss_history.loss_event_rate t.history, t.srtt) with
    | Some p, Some rtt when p > 0. && p < 1. ->
        t.rate <- Float.max t.min_rate (equation_rate t p rtt)
    | _, Some rtt ->
        (* No loss event yet: slow-start doubling, capped so one epoch's
           doubling cannot exceed an entire window per RTT forever --
           standard practice caps at twice the received rate; here we just
           double. *)
        ignore rtt;
        t.rate <- t.rate *. 2.
    | _, None -> ()

  let allowed_rate t = Float.max t.min_rate t.rate
  let loss_event_rate t = Loss_history.loss_event_rate t.history
  let smoothed_rtt t = t.srtt
end
