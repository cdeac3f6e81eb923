(* Buffered events live in fixed-size blocks of [block_events] events: a
   [Bytes.t] holding three 64-bit words per event and a [Float.Array.t]
   holding two floats per event.

     event kind                 words                    floats
     Segment_sent               tag+rexmit  seq  flight  time  cwnd
     Ack_received               tag  ack                 time
     Timer_fired                tag  backoff             time  rto
     Fast_retransmit_triggered  tag  seq                 time
     Rtt_sample                 tag  srtt  rto           time  sample
     Round_started              tag  index               time  window
     Connection_closed          tag                      time

   Ints are stored as 64-bit words, so every field keeps its full width;
   [retransmission] shares the tag word as bit 3, and Rtt_sample's srtt
   and rto are stored as their IEEE bit patterns.  Neither block holds a
   pointer, so recording writes plain words, the GC never scans a block,
   and nothing recorded is ever promoted.  A full block is followed by a
   new one instead of being copied into a bigger buffer. *)

type tag = Send | Ack | Timeout | Fast_retransmit | Rtt | Round | Close

let block_shift = 10
let block_events = 1 lsl block_shift
let words_per_event = 3
let floats_per_event = 2
let rexmit_bit = 8

(* Kept apart from [t]: a float field of a mixed record boxes on every
   store. *)
type clock = { mutable last_time : float }

type t = {
  mutable words : Bytes.t array;
  mutable floats : Float.Array.t array;
  mutable size : int;
  clock : clock;
  mutable seen : int;
  mutable sends : int;
  buffered : bool;
  mutable subscribers : (Event.t -> unit) list;  (* subscription order *)
}

let create ?(buffered = true) () =
  {
    words = [||];
    floats = [||];
    size = 0;
    clock = { last_time = 0. };
    seen = 0;
    sends = 0;
    buffered;
    subscribers = [];
  }

let is_buffered t = t.buffered
let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let tag_code = function
  | Send -> 0
  | Ack -> 1
  | Timeout -> 2
  | Fast_retransmit -> 3
  | Rtt -> 4
  | Round -> 5
  | Close -> 6

let add_block t =
  let n = t.size lsr block_shift in
  if n = Array.length t.words then begin
    let spine = Int.max 4 (2 * n) in
    let grow old fill =
      let bigger = Array.make spine fill in
      Array.blit old 0 bigger 0 n;
      bigger
    in
    t.words <- grow t.words Bytes.empty;
    t.floats <- grow t.floats (Float.Array.create 0)
  end;
  t.words.(n) <- Bytes.make (8 * words_per_event * block_events) '\000';
  t.floats.(n) <- Float.Array.make (floats_per_event * block_events) 0.

let set_word words i v = Bytes.set_int64_le words (8 * i) (Int64.of_int v)
let set_bits words i x = Bytes.set_int64_le words (8 * i) (Int64.bits_of_float x)

let store t ~time (kind : Event.kind) =
  let slot = t.size land (block_events - 1) in
  if slot = 0 then add_block t;
  let words = t.words.(t.size lsr block_shift)
  and floats = t.floats.(t.size lsr block_shift) in
  let w = words_per_event * slot and f = floats_per_event * slot in
  Float.Array.set floats f time;
  (match kind with
  | Segment_sent { seq; retransmission; cwnd; flight } ->
      set_word words w ((if retransmission then rexmit_bit else 0) lor tag_code Send);
      set_word words (w + 1) seq;
      set_word words (w + 2) flight;
      Float.Array.set floats (f + 1) cwnd
  | Ack_received { ack } ->
      set_word words w (tag_code Ack);
      set_word words (w + 1) ack
  | Timer_fired { backoff; rto } ->
      set_word words w (tag_code Timeout);
      set_word words (w + 1) backoff;
      Float.Array.set floats (f + 1) rto
  | Fast_retransmit_triggered { seq } ->
      set_word words w (tag_code Fast_retransmit);
      set_word words (w + 1) seq
  | Rtt_sample { sample; srtt; rto } ->
      set_word words w (tag_code Rtt);
      set_bits words (w + 1) srtt;
      set_bits words (w + 2) rto;
      Float.Array.set floats (f + 1) sample
  | Round_started { index; window } ->
      set_word words w (tag_code Round);
      set_word words (w + 1) index;
      Float.Array.set floats (f + 1) window
  | Connection_closed -> set_word words w (tag_code Close));
  t.size <- t.size + 1

let record t ~time kind =
  if time < t.clock.last_time then
    invalid_arg "Recorder.record: time went backwards";
  t.clock.last_time <- time;
  if t.buffered then store t ~time kind;
  t.seen <- t.seen + 1;
  (match kind with Event.Segment_sent _ -> t.sends <- t.sends + 1 | _ -> ());
  (* Subscribers run in subscription order, after the buffer append, so a
     sink that queries the recorder sees a state that includes the event. *)
  match t.subscribers with
  | [] -> ()
  | subscribers ->
      let event : Event.t = { time; kind } in
      List.iter (fun f -> f event) subscribers

let length t = t.size
let events_seen t = t.seen

(* --- Reading in place ---------------------------------------------------- *)

let[@inline] tag_of_code code =
  match code land (rexmit_bit - 1) with
  | 0 -> Send
  | 1 -> Ack
  | 2 -> Timeout
  | 3 -> Fast_retransmit
  | 4 -> Rtt
  | 5 -> Round
  | _ -> Close

(* Byte offset of event [n]'s word [k] in its block, and index of its
   float [k]. *)
let[@inline] word_at n k = 8 * ((words_per_event * (n land (block_events - 1))) + k)
let[@inline] float_at n k = (floats_per_event * (n land (block_events - 1))) + k

let[@inline] int_word t n k =
  Int64.to_int (Bytes.get_int64_le t.words.(n lsr block_shift) (word_at n k))

let[@inline] float_slot t n k = Float.Array.get t.floats.(n lsr block_shift) (float_at n k)

(* Inlined into the analysis passes of other modules, so a float read in
   place is never boxed. *)
let[@inline] tag t n = tag_of_code (int_word t n 0)
let[@inline] time t n = float_slot t n 0
let[@inline] retransmission t n = int_word t n 0 land rexmit_bit <> 0
let[@inline] seq t n = int_word t n 1
let ack = seq
let backoff = seq
let[@inline] rto t n = float_slot t n 1
let sample = rto

let event t n : Event.t =
  let words = t.words.(n lsr block_shift) and floats = t.floats.(n lsr block_shift) in
  let header = Int64.to_int (Bytes.get_int64_le words (word_at n 0)) in
  let int1 = Int64.to_int (Bytes.get_int64_le words (word_at n 1)) in
  let float1 = Float.Array.get floats (float_at n 1) in
  let kind : Event.kind =
    match tag_of_code header with
    | Send ->
        Segment_sent
          {
            seq = int1;
            retransmission = header land rexmit_bit <> 0;
            cwnd = float1;
            flight = Int64.to_int (Bytes.get_int64_le words (word_at n 2));
          }
    | Ack -> Ack_received { ack = int1 }
    | Timeout -> Timer_fired { backoff = int1; rto = float1 }
    | Fast_retransmit -> Fast_retransmit_triggered { seq = int1 }
    | Rtt ->
        Rtt_sample
          {
            sample = float1;
            srtt = Int64.float_of_bits (Bytes.get_int64_le words (word_at n 1));
            rto = Int64.float_of_bits (Bytes.get_int64_le words (word_at n 2));
          }
    | Round -> Round_started { index = int1; window = float1 }
    | Close -> Connection_closed
  in
  { time = Float.Array.get floats (float_at n 0); kind }

(* --- Readers ------------------------------------------------------------- *)

let require_buffer t name =
  if not t.buffered then
    invalid_arg (Printf.sprintf "Recorder.%s: recorder is unbuffered" name)

let events t =
  require_buffer t "events";
  Array.init t.size (event t)

let iter f t =
  require_buffer t "iter";
  for n = 0 to t.size - 1 do
    f (event t n)
  done

let fold f init t =
  let acc = ref init in
  iter (fun e -> acc := f !acc e) t;
  !acc

let between t ~start ~stop =
  require_buffer t "between";
  let out = ref [] in
  for n = t.size - 1 downto 0 do
    let time = time t n in
    if time >= start && time < stop then out := event t n :: !out
  done;
  Array.of_list !out

let duration t = if t.seen = 0 then 0. else t.clock.last_time
let packets_sent t = t.sends

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter (fun e -> Format.fprintf ppf "%a@ " Event.pp e) t;
  Format.fprintf ppf "@]"
