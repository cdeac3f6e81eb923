type classification = Td_only | T0 | T1 | T2_plus | Quiet

let classification_label = function
  | Td_only -> "TD"
  | T0 -> "T0"
  | T1 -> "T1"
  | T2_plus -> "T2+"
  | Quiet -> "quiet"

type interval = {
  index : int;
  start : float;
  stop : float;
  packets_sent : int;
  loss_indications : int;
  observed_p : float;
  classification : classification;
}

let classify indications =
  let deepest = ref (-1) in
  let any_td = ref false in
  List.iter
    (function
      | Analyzer.Td _ -> any_td := true
      | Analyzer.To { timeouts; _ } -> deepest := max !deepest timeouts)
    indications;
  if !deepest >= 3 then T2_plus
  else if !deepest = 2 then T1
  else if !deepest = 1 then T0
  else if !any_td then Td_only
  else Quiet

let split ?(mode = `Ground_truth) ?dup_ack_threshold ~width recorder =
  if not (width > 0.) then invalid_arg "Intervals.split: width must be positive";
  let indications =
    match mode with
    | `Ground_truth -> Analyzer.ground_truth_indications recorder
    | `Infer -> Analyzer.infer_indications ?dup_ack_threshold recorder
  in
  let duration = Recorder.duration recorder in
  let bins = int_of_float (duration /. width) in
  (* Bin [index] is [start, start +. width) with [start = index *. width],
     both rounded: adjacent bins can overlap or leave a gap by an ulp, so
     [t /. width] only locates a send to within one bin and the exact test
     decides. *)
  let in_bin index t =
    let start = float_of_int index *. width in
    t >= start && t < start +. width
  in
  let sends = Array.make (Int.max 0 bins) 0 in
  for n = 0 to Recorder.length recorder - 1 do
    match Recorder.tag recorder n with
    | Send ->
        let t = Recorder.time recorder n in
        let guess = int_of_float (t /. width) in
        for index = guess - 1 to guess + 1 do
          if index >= 0 && index < bins && in_bin index t then
            sends.(index) <- sends.(index) + 1
        done
    | Ack | Timeout | Fast_retransmit | Rtt | Round | Close -> ()
  done;
  List.init bins (fun index ->
      let start = float_of_int index *. width in
      let packets_sent = sends.(index) in
      let here =
        List.filter (fun i -> in_bin index (Analyzer.indication_time i)) indications
      in
      let loss_indications = List.length here in
      {
        index;
        start;
        stop = start +. width;
        packets_sent;
        loss_indications;
        observed_p =
          (if packets_sent = 0 then 0.
           else float_of_int loss_indications /. float_of_int packets_sent);
        classification = classify here;
      })
