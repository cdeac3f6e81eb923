type indication =
  | Td of { at : float }
  | To of { at : float; timeouts : int; first_timer : float }

let indication_time = function Td { at } -> at | To { at; _ } -> at

(* Every pass below is one walk of the recorder's packed buffer, reading
   fields in place: no pass builds an [Event.t]. *)
let buffered_length recorder =
  if not (Recorder.is_buffered recorder) then
    invalid_arg "Analyzer: recorder is unbuffered";
  Recorder.length recorder

(* --- Ground-truth mode ------------------------------------------------- *)

(* [on_rtt] receives the sender's own [Rtt_sample]s. *)
let ground_truth_walk ~on_rtt recorder =
  let out = ref [] in
  let open_seq = ref None in
  let close () =
    match !open_seq with
    | Some (at, count, first_timer) ->
        out := To { at; timeouts = count; first_timer } :: !out;
        open_seq := None
    | None -> ()
  in
  for i = 0 to buffered_length recorder - 1 do
    match Recorder.tag recorder i with
    | Fast_retransmit ->
        close ();
        out := Td { at = Recorder.time recorder i } :: !out
    | Timeout -> begin
        match !open_seq with
        | Some (at, count, first_timer)
          when Recorder.backoff recorder i = count + 1 ->
            open_seq := Some (at, count + 1, first_timer)
        | _ ->
            close ();
            open_seq := Some (Recorder.time recorder i, 1, Recorder.rto recorder i)
      end
    | Rtt -> on_rtt (Recorder.sample recorder i)
    | Send | Ack | Round | Close ->
        (* A backoff-1 firing after progress starts a new sequence; the
           chain above keys on the backoff counter, so ordinary events
           need no action here. *)
        ()
  done;
  close ();
  List.rev !out

let ground_truth_indications recorder = ground_truth_walk ~on_rtt:ignore recorder

(* --- Inference mode ----------------------------------------------------- *)

(* Karn matching: first-transmission send times by seq, the seqs ever
   retransmitted, and the highest cumulative ACK so far. *)
type karn = {
  send_time : (int, float) Hashtbl.t;
  tainted : (int, unit) Hashtbl.t;
  mutable acked : int;
  on_rtt : float -> unit;
}

let karn_send k ~seq ~retransmission time =
  if retransmission then Hashtbl.replace k.tainted seq ()
  else if not (Hashtbl.mem k.send_time seq) then Hashtbl.replace k.send_time seq time

let karn_ack k ~ack time =
  if ack > k.acked then begin
    for seq = k.acked to ack - 1 do
      (match Hashtbl.find_opt k.send_time seq with
      | Some sent when not (Hashtbl.mem k.tainted seq) -> k.on_rtt (time -. sent)
      | Some _ | None -> ());
      Hashtbl.remove k.send_time seq;
      Hashtbl.remove k.tainted seq
    done;
    k.acked <- ack
  end

(* [on_rtt], when given, receives the Karn-valid RTT samples. *)
let infer_walk ?(dup_ack_threshold = 3) ?(min_timeout_gap = 0.15) ?on_rtt
    recorder =
  if dup_ack_threshold < 1 then
    invalid_arg "Analyzer.infer_indications: dup_ack_threshold must be >= 1";
  if not (min_timeout_gap > 0.) then
    invalid_arg "Analyzer.infer_indications: min_timeout_gap must be positive";
  let karn =
    Option.map
      (fun on_rtt ->
        { send_time = Hashtbl.create 512; tainted = Hashtbl.create 64; acked = 0; on_rtt })
      on_rtt
  in
  let out = ref [] in
  let highest_ack = ref (-1) in
  let dup_ack = ref (-1) in
  let dup_count = ref 0 in
  let last_activity = ref 0. in
  (* Open timeout sequence: (start time, firing count, first gap). *)
  let open_seq = ref None in
  let close () =
    match !open_seq with
    | Some (at, count, first_timer) ->
        out := To { at; timeouts = count; first_timer } :: !out;
        open_seq := None
    | None -> ()
  in
  for i = 0 to buffered_length recorder - 1 do
    match Recorder.tag recorder i with
    | Ack ->
        let ack = Recorder.ack recorder i and time = Recorder.time recorder i in
        if ack > !highest_ack then begin
          (* Cumulative progress ends any ongoing timeout sequence. *)
          close ();
          highest_ack := ack;
          dup_ack := ack;
          dup_count := 0
        end
        else if ack = !dup_ack then incr dup_count
        else begin
          dup_ack := ack;
          dup_count := 1
        end;
        last_activity := time;
        (match karn with Some k -> karn_ack k ~ack time | None -> ())
    | Send ->
        let seq = Recorder.seq recorder i
        and retransmission = Recorder.retransmission recorder i
        and time = Recorder.time recorder i in
        if retransmission then begin
          let gap = time -. !last_activity in
          if seq = !dup_ack && !dup_count >= dup_ack_threshold then begin
            close ();
            out := Td { at = time } :: !out;
            dup_count := 0
          end
          else if gap >= min_timeout_gap then begin
            match !open_seq with
            | Some (at, count, first_timer) ->
                open_seq := Some (at, count + 1, first_timer)
            | None -> open_seq := Some (time, 1, gap)
          end
          (* else: recovery-burst retransmission, not a new indication *)
        end;
        last_activity := time;
        (match karn with
        | Some k -> karn_send k ~seq ~retransmission time
        | None -> ())
    | Timeout | Fast_retransmit | Rtt | Round | Close -> ()
  done;
  close ();
  List.rev !out

let infer_indications ?dup_ack_threshold ?min_timeout_gap recorder =
  infer_walk ?dup_ack_threshold ?min_timeout_gap recorder

(* --- Karn RTT matching -------------------------------------------------- *)

let karn_rtt_samples recorder =
  let samples = ref [] in
  ignore (infer_walk ~on_rtt:(fun s -> samples := s :: !samples) recorder);
  Array.of_list (List.rev !samples)

(* --- Summaries ----------------------------------------------------------- *)

type summary = {
  duration : float;
  packets_sent : int;
  loss_indications : int;
  td_count : int;
  to_by_backoff : int array;
  observed_p : float;
  avg_rtt : float;
  avg_t0 : float;
  send_rate : float;
}

let bucketize indications =
  let to_by_backoff = Array.make 6 0 in
  let td_count = ref 0 in
  let first_timers = ref [] in
  List.iter
    (function
      | Td _ -> incr td_count
      | To { timeouts; first_timer; _ } ->
          let bucket = min (timeouts - 1) 5 in
          to_by_backoff.(bucket) <- to_by_backoff.(bucket) + 1;
          first_timers := first_timer :: !first_timers)
    indications;
  (!td_count, to_by_backoff, !first_timers)

let mean_or_zero = function
  | [] -> 0.
  | samples -> Pftk_stats.Descriptive.mean_list samples

let summarize ?(mode = `Ground_truth) ?dup_ack_threshold ?min_timeout_gap
    recorder =
  (* RTT samples are summed in record order, as [Descriptive.mean_list]
     would sum them. *)
  let rtt_sum = ref 0. and rtt_count = ref 0 in
  let on_rtt sample =
    rtt_sum := !rtt_sum +. sample;
    incr rtt_count
  in
  let indications =
    match mode with
    | `Ground_truth -> ground_truth_walk ~on_rtt recorder
    | `Infer -> infer_walk ?dup_ack_threshold ?min_timeout_gap ~on_rtt recorder
  in
  let td_count, to_by_backoff, first_timers = bucketize indications in
  let packets_sent = Recorder.packets_sent recorder in
  let duration = Recorder.duration recorder in
  let loss_indications = List.length indications in
  {
    duration;
    packets_sent;
    loss_indications;
    td_count;
    to_by_backoff;
    observed_p =
      (if packets_sent = 0 then 0.
       else float_of_int loss_indications /. float_of_int packets_sent);
    avg_rtt =
      (if !rtt_count = 0 then 0. else !rtt_sum /. float_of_int !rtt_count);
    avg_t0 = mean_or_zero first_timers;
    send_rate =
      (if duration > 0. then float_of_int packets_sent /. duration else 0.);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "packets=%d indications=%d (td=%d, to=[%s]) p=%.4f rtt=%.3f t0=%.3f rate=%.2f"
    s.packets_sent s.loss_indications s.td_count
    (String.concat ";" (Array.to_list (Array.map string_of_int s.to_by_backoff)))
    s.observed_p s.avg_rtt s.avg_t0 s.send_rate
