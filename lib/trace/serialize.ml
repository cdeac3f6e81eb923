(* %h floats round-trip exactly through hexadecimal notation; times use it
   so that re-analysis of a saved trace is bit-identical.

   Both directions work on bytes in place.  The writer spells %h floats
   and %d ints straight into a [Buffer]; the reader walks each line once
   inside one reused read block, decoding each field where it cuts it.
   DESIGN.md ("Trace text format") explains why the reader's fast paths
   agree bit for bit with the stdlib conversions they stand in for. *)

type error = { file : string option; line : int; reason : string }

exception Error of error

let error_message { file; line; reason } =
  match (file, line) with
  | Some f, l when l > 0 -> Printf.sprintf "%s:%d: %s" f l reason
  | Some f, _ -> Printf.sprintf "%s: %s" f reason
  | None, l when l > 0 -> Printf.sprintf "line %d: %s" l reason
  | None, _ -> reason

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Serialize.Error: " ^ error_message e)
    | _ -> None)

(* --- Writer ------------------------------------------------------------- *)

(* More than any line needs: the longest, an rtt line of four 24-byte %h
   floats, takes 104 bytes with its newline. *)
let max_line = 128

(* [write] flushes its buffer before a line could grow it past this size,
   which keeps the buffer under the 256-word minor-heap limit. *)
let chunk_bytes = 1024

let hex_digits = "0123456789abcdef"

(* The decimal digits of [-n], for [n <= 0]: counting on the negative side
   needs no special case for [min_int]. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

(* Printf's %d. *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* Printf's %h, as the runtime spells it: sign, [0x1] (normal) or [0x0]
   (zero, subnormal), the 52-bit fraction in hex without trailing zeros,
   and a signed decimal exponent; [nan] and [infinity] keep the sign. *)
let add_hex_float b x =
  if Float.sign_bit x then Buffer.add_char b '-';
  let bits = Int64.bits_of_float x in
  let exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  if exp = 0x7ff then Buffer.add_string b (if frac = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b (if exp = 0 then "0x0" else "0x1");
    if frac <> 0 then begin
      Buffer.add_char b '.';
      let rest = ref frac and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char b (String.unsafe_get hex_digits ((!rest lsr !shift) land 0xf));
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    Buffer.add_char b 'p';
    let e = if exp > 0 then exp - 1023 else if frac = 0 then 0 else -1022 in
    if e >= 0 then Buffer.add_char b '+';
    add_int b e
  end

let add_event b { Event.time; kind } =
  add_hex_float b time;
  match kind with
  | Event.Segment_sent { seq; retransmission; cwnd; flight } ->
      Buffer.add_string b " send ";
      add_int b seq;
      Buffer.add_string b (if retransmission then " true " else " false ");
      add_hex_float b cwnd;
      Buffer.add_char b ' ';
      add_int b flight
  | Event.Ack_received { ack } ->
      Buffer.add_string b " ack ";
      add_int b ack
  | Event.Timer_fired { backoff; rto } ->
      Buffer.add_string b " timeout ";
      add_int b backoff;
      Buffer.add_char b ' ';
      add_hex_float b rto
  | Event.Fast_retransmit_triggered { seq } ->
      Buffer.add_string b " fastrexmit ";
      add_int b seq
  | Event.Rtt_sample { sample; srtt; rto } ->
      Buffer.add_string b " rtt ";
      add_hex_float b sample;
      Buffer.add_char b ' ';
      add_hex_float b srtt;
      Buffer.add_char b ' ';
      add_hex_float b rto
  | Event.Round_started { index; window } ->
      Buffer.add_string b " round ";
      add_int b index;
      Buffer.add_char b ' ';
      add_hex_float b window
  | Event.Connection_closed -> Buffer.add_string b " close"

let line_of_event event =
  let b = Buffer.create max_line in
  add_event b event;
  Buffer.contents b

let write_event oc event =
  let b = Buffer.create max_line in
  add_event b event;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

let write oc recorder =
  output_string oc "# pftk trace v1\n";
  let b = Buffer.create chunk_bytes in
  Recorder.iter
    (fun event ->
      add_event b event;
      Buffer.add_char b '\n';
      if Buffer.length b > chunk_bytes - max_line then begin
        Buffer.output_buffer oc b;
        Buffer.clear b
      end)
    recorder;
  Buffer.output_buffer oc b

(* --- Reader ------------------------------------------------------------- *)

(* A field that neither a fast path nor the stdlib conversion accepts. *)
exception Bad_field

(* The walk met the end of the bytes read before the line's end. *)
exception Incomplete

(* Where a walk is.  Every line ends at a '\n': one in the input, or the
   sentinel stored after the last byte read, so the walk needs no bounds.
   [pos] is where the last field read ended: the start of the next field,
   or the '\n' that ends the line.  [floats] holds the line's float
   fields unboxed until the line is known to be whole. *)
type cursor = {
  eol : int;
      (* A '\n' at or after [eol] ends the line.  One before it, in the
         string [event_of_line] reads, is a blank to [String.trim] and a
         byte of a field to [String.split_on_char]. *)
  mutable limit : int;
      (* The sentinel while the channel may hold more bytes, else -1: a
         line that ends at [limit] may go on. *)
  mutable pos : int;
  floats : floatarray;
}

(* A line has at most four float fields (rtt). *)
let cursor ~eol ~limit = { eol; limit; pos = 0; floats = Float.Array.create 4 }

let[@inline] at_end s i cur = Bytes.unsafe_get s i = '\n' && i >= cur.eol

(* [String.trim]'s blanks. *)
let[@inline] is_blank s i cur =
  match Bytes.unsafe_get s i with
  | ' ' | '\012' | '\r' | '\t' -> true
  | '\n' -> i < cur.eol
  | _ -> false

let rec skip s i cur = if is_blank s i cur then skip s (i + 1) cur else i
let rec line_end s i cur = if at_end s i cur then i else line_end s (i + 1) cur

(* The end of the trimmed text [s.[lo .. hi-1]], which holds no line end. *)
let rec trimmed_stop s lo hi cur =
  if hi > lo && is_blank s (hi - 1) cur then trimmed_stop s lo (hi - 1) cur else hi

let rec space_or_end s i cur =
  if Bytes.unsafe_get s i = ' ' || at_end s i cur then i else space_or_end s (i + 1) cur

let rec has_space s lo hi = lo < hi && (Bytes.unsafe_get s lo = ' ' || has_space s (lo + 1) hi)

(* Whether the field a fast path read ends at [k], as [String.split_on_char
   ' '] cuts the trimmed line: at a space, unless it is the [last] field,
   which ends where only blanks are left before the line's end.  If so,
   [cur.pos] moves past the field. *)
let[@inline] field_ends s k cur last =
  if last then begin
    let k = skip s k cur in
    at_end s k cur
    && begin
         cur.pos <- k;
         true
       end
  end
  else
    Bytes.unsafe_get s k = ' '
    && begin
         cur.pos <- k + 1;
         true
       end

(* The bytes of the field starting at [i], for a fallback conversion,
   which runs only on a whole line.  A field that is not [last] but meets
   the line's end is missing its successors. *)
let field_text s i cur last =
  let nl = line_end s i cur in
  if nl = cur.limit then raise_notrace Incomplete;
  if last then begin
    let stop = trimmed_stop s i nl cur in
    if has_space s i stop then raise_notrace Bad_field;
    cur.pos <- nl;
    Bytes.sub_string s i (stop - i)
  end
  else begin
    let stop = space_or_end s i cur in
    if stop = nl then raise_notrace Bad_field;
    cur.pos <- stop + 1;
    Bytes.sub_string s i (stop - i)
  end

(* The value of each lowercase hex digit, 16 for every other byte. *)
let hex_value =
  String.init 256 (fun i ->
      Char.chr
        (if i >= Char.code '0' && i <= Char.code '9' then i - Char.code '0'
         else if i >= Char.code 'a' && i <= Char.code 'f' then i - Char.code 'a' + 10
         else 16))

let[@inline] hex s i = Char.code (String.unsafe_get hex_value (Char.code (Bytes.unsafe_get s i)))
let[@inline] decimal s i = Char.code (Bytes.unsafe_get s i) - Char.code '0'
let[@inline] is_decimal d = d >= 0 && d <= 9

(* Every token the fast paths decline goes to the stdlib conversion on a
   copy, which accepts, rejects and decodes it as it always has: [nan],
   [infinity], decimals, [+5], [0x10], [1_000], uppercase hex. *)
let slow_float s i cur last slot =
  match float_of_string (field_text s i cur last) with
  | x -> Float.Array.unsafe_set cur.floats slot x
  | exception Failure _ -> raise_notrace Bad_field

let slow_int s i cur last =
  match int_of_string (field_text s i cur last) with
  | n -> n
  | exception Failure _ -> raise_notrace Bad_field

(* The float field starting at [i], stored in [cur.floats.(slot)].  The
   writer's %h form, [[-]0x<hex>[.<hex>]p±<dec>] with 1 to 14 lowercase
   digits and 1 to 5 exponent digits, is [ldexp m (e - 4 * frac)] negated
   for a sign: the two steps of the runtime's own hex conversion, so the
   bits agree.  Anything else goes to [float_of_string]. *)
let float_field s i cur last slot =
  let neg = Bytes.unsafe_get s i = '-' in
  let j = if neg then i + 1 else i in
  if Bytes.unsafe_get s j <> '0' || Bytes.unsafe_get s (j + 1) <> 'x' then
    slow_float s i cur last slot
  else begin
    (* The mantissa digits, and how many of them precede a point. *)
    let m = ref 0 and digits = ref 0 and point = ref (-1) and k = ref (j + 2) and more = ref true in
    while !more do
      let d = hex s !k in
      if d < 16 then begin
        m := (!m lsl 4) lor d;
        incr digits;
        incr k
      end
      else if Bytes.unsafe_get s !k = '.' && !point < 0 then begin
        point := !digits;
        incr k
      end
      else more := false
    done;
    let sign = if Bytes.unsafe_get s !k = 'p' then Bytes.unsafe_get s (!k + 1) else ' ' in
    if (sign <> '+' && sign <> '-') || !digits = 0 || !digits > 14 || !m >= 1 lsl 53 then
      slow_float s i cur last slot
    else begin
      let e = ref 0 and stop = ref (!k + 2) in
      while is_decimal (decimal s !stop) do
        e := (10 * !e) + decimal s !stop;
        incr stop
      done;
      let exp_digits = !stop - !k - 2 in
      if exp_digits < 1 || exp_digits > 5 || not (field_ends s !stop cur last) then
        slow_float s i cur last slot
      else begin
        let frac = if !point < 0 then 0 else !digits - !point in
        let e = if sign = '-' then - !e else !e in
        let x = ldexp (float_of_int !m) (e - (4 * frac)) in
        Float.Array.unsafe_set cur.floats slot (if neg then -.x else x)
      end
    end
  end

(* The int field starting at [i]: up to 18 decimal digits after an
   optional [-], else [int_of_string]. *)
let int_field s i cur last =
  let neg = Bytes.unsafe_get s i = '-' in
  let j = if neg then i + 1 else i in
  let n = ref 0 and k = ref j in
  while is_decimal (decimal s !k) do
    n := (10 * !n) + decimal s !k;
    incr k
  done;
  let digits = !k - j in
  if digits >= 1 && digits <= 18 && field_ends s !k cur last then if neg then - !n else !n
  else slow_int s i cur last

let rec same s pos lit i =
  i = String.length lit
  || (Bytes.unsafe_get s (pos + i) = String.unsafe_get lit i && same s pos lit (i + 1))

(* Whether the field at [i] is [lit] and another field follows it; if so,
   [cur.pos] moves to that one. *)
let[@inline] is s i lit cur =
  same s i lit 0
  && Bytes.unsafe_get s (i + String.length lit) = ' '
  && begin
       cur.pos <- i + String.length lit + 1;
       true
     end

(* [bool_of_string]: exactly [true] or [false]; never the last field. *)
let bool_field s i cur =
  if is s i "true" cur then true
  else if is s i "false" cur then false
  else raise_notrace Bad_field

(* The line ends at the last byte read: it may go on. *)
let[@inline] complete cur = if cur.pos = cur.limit then raise_notrace Incomplete

(* The event on the line whose first non-blank byte, neither a line end
   nor a [#], is [s.[i]].  Each field is decoded where it is cut, and
   the last one finds the line's end, left in [cur.pos]; the event is
   made only once the line is known to be whole. *)
let scan_event s i cur =
  let v = cur.floats in
  float_field s i cur false 0;
  let t = cur.pos in
  let kind =
    if is s t "send" cur then begin
      let seq = int_field s cur.pos cur false in
      let retransmission = bool_field s cur.pos cur in
      float_field s cur.pos cur false 1;
      let flight = int_field s cur.pos cur true in
      complete cur;
      Event.Segment_sent { seq; retransmission; cwnd = Float.Array.unsafe_get v 1; flight }
    end
    else if is s t "ack" cur then begin
      let ack = int_field s cur.pos cur true in
      complete cur;
      Event.Ack_received { ack }
    end
    else if is s t "timeout" cur then begin
      let backoff = int_field s cur.pos cur false in
      float_field s cur.pos cur true 1;
      complete cur;
      Event.Timer_fired { backoff; rto = Float.Array.unsafe_get v 1 }
    end
    else if is s t "fastrexmit" cur then begin
      let seq = int_field s cur.pos cur true in
      complete cur;
      Event.Fast_retransmit_triggered { seq }
    end
    else if is s t "rtt" cur then begin
      float_field s cur.pos cur false 1;
      float_field s cur.pos cur false 2;
      float_field s cur.pos cur true 3;
      complete cur;
      Event.Rtt_sample
        {
          sample = Float.Array.unsafe_get v 1;
          srtt = Float.Array.unsafe_get v 2;
          rto = Float.Array.unsafe_get v 3;
        }
    end
    else if is s t "round" cur then begin
      let index = int_field s cur.pos cur false in
      float_field s cur.pos cur true 1;
      complete cur;
      Event.Round_started { index; window = Float.Array.unsafe_get v 1 }
    end
    else if same s t "close" 0 && field_ends s (t + String.length "close") cur true then begin
      complete cur;
      Event.Connection_closed
    end
    else raise_notrace Bad_field
  in
  { Event.time = Float.Array.unsafe_get v 0; kind }

(* A malformed line is quoted whole, trimmed. *)
let malformed file line s i nl cur : exn =
  Error
    {
      file;
      line;
      reason =
        Printf.sprintf "malformed line %S" (Bytes.sub_string s i (trimmed_stop s i nl cur - i));
    }

let event_of_line line =
  let n = String.length line in
  let s = Bytes.create (n + 1) in
  Bytes.blit_string line 0 s 0 n;
  Bytes.unsafe_set s n '\n';
  let cur = cursor ~eol:n ~limit:(-1) in
  let i = skip s 0 cur in
  if i = n || Bytes.unsafe_get s i = '#' then None
  else
    match scan_event s i cur with
    | event -> Some event
    | exception Bad_field -> raise (malformed None 0 s i n cur)

(* The last non-NaN time delivered, or [earliest] before the first: 0
   or [neg_infinity].  A NaN time passes the guard (it is not smaller
   than anything) but does not move it, so it cannot hide a later step
   backwards.  All-float, so updates do not box. *)
type clock = { mutable last : float; earliest : float }

let deliver file f clock line event =
  let time = event.Event.time in
  if time < clock.last then
    raise
      (Error
         {
           file;
           line;
           reason =
             (if time < clock.earliest then Printf.sprintf "negative time: %g s" time
              else Printf.sprintf "time went backwards: %g s after %g s" time clock.last);
         });
  if not (Float.is_nan time) then clock.last <- time;
  f event

(* Reads the line that starts at [s.[lo]] and returns where the next one
   starts, or -1 when the line reaches [cur.limit] and may go on.  Blank
   and [#] lines are counted and skipped. *)
let next_line file f clock line s lo cur =
  let i = skip s lo cur in
  match Bytes.unsafe_get s i with
  | '\n' | '#' ->
      let nl = line_end s i cur in
      if nl = cur.limit then -1
      else begin
        incr line;
        nl + 1
      end
  | _ -> (
      match scan_event s i cur with
      | event ->
          incr line;
          deliver file f clock !line event;
          cur.pos + 1
      | exception Incomplete -> -1
      | exception Bad_field ->
          let nl = line_end s i cur in
          if nl = cur.limit then -1
          else begin
            incr line;
            raise (malformed file !line s i nl cur)
          end)

(* Reads go into one block, under the 256-word minor-heap limit; it
   doubles only to hold a longer line. *)
let block_bytes = 1024

(* Reads into [s] from [pos] until one byte is left, for the sentinel, or
   the channel ends; returns the end of the bytes read. *)
let rec fill ic s pos =
  let room = Bytes.length s - 1 - pos in
  if room = 0 then pos
  else
    match input ic s pos room with
    | 0 -> pos
    | n -> fill ic s (pos + n)

let iter_from ~earliest ?file f ic =
  let clock = { last = earliest; earliest } in
  let cur = cursor ~eol:0 ~limit:0 in
  let buf = ref (Bytes.create block_bytes) in
  (* [start, stop) holds read bytes not yet walked, and [!buf.[stop]] is
     the sentinel. *)
  let start = ref 0 and stop = ref 0 and line = ref 0 in
  while cur.limit >= 0 || !start < !stop do
    let next = if !start < !stop then next_line file f clock line !buf !start cur else -1 in
    if next >= 0 then start := next
    else begin
      (* Keep the unfinished line, fill the rest of the block and walk the
         line again; a full block holding one line doubles. *)
      let s = !buf and kept = !stop - !start in
      if kept + 1 = Bytes.length s then buf := Bytes.create (2 * Bytes.length s);
      Bytes.blit s !start !buf 0 kept;
      let s = !buf in
      start := 0;
      stop := fill ic s kept;
      Bytes.unsafe_set s !stop '\n';
      cur.limit <- (if !stop < Bytes.length s - 1 then -1 else !stop)
    end
  done

let iter_channel ?file f ic = iter_from ~earliest:neg_infinity ?file f ic

(* A recorder's clock starts at 0, so the guard does too: a negative time
   is an error on its line, not [Recorder.record]'s [Invalid_argument]. *)
let read ?file ic =
  let recorder = Recorder.create () in
  iter_from ~earliest:0. ?file
    (fun { Event.time; kind } -> Recorder.record recorder ~time kind)
    ic;
  recorder

(* Closing flushes, so it can fail (a full disk); that failure must
   reach the caller as the [Sys_error] it is, not wrapped in
   [Fun.Finally_raised]. *)
let save path recorder =
  let oc = open_out path in
  match write oc recorder with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ~file:path ic)

let iter_file path f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> iter_channel ~file:path f ic)
