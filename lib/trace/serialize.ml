(* %h floats round-trip exactly through hexadecimal notation; times use it
   so that re-analysis of a saved trace is bit-identical.

   Both directions work on bytes in place.  The writer spells %h floats
   and %d ints straight into a [Buffer]; the reader scans each line inside
   one reused read block.  DESIGN.md ("Trace text format") explains why
   the reader's fast paths agree bit for bit with the stdlib conversions
   they stand in for. *)

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
let slow_float s lo hi =
  match float_of_string (Bytes.sub_string s lo (hi - lo)) with
  | x -> x
  | exception Failure _ -> raise_notrace Bad_field

let slow_int s lo hi =
  match int_of_string (Bytes.sub_string s lo (hi - lo)) with
  | n -> n
  | exception Failure _ -> raise_notrace Bad_field

(* The exponent of a %h token, a sign and 1 to 5 decimal digits filling
   [s.[i .. hi-1]]; [min_int] when it is not one. *)
let hex_exponent s i hi =
  if hi - i < 2 || hi - i > 6 then min_int
  else begin
    let e = ref 0 and j = ref (i + 1) in
    while !j < hi && is_decimal (decimal s !j) do
      e := (10 * !e) + decimal s !j;
      incr j
    done;
    if !j < hi then min_int
    else if Bytes.unsafe_get s i = '+' then !e
    else if Bytes.unsafe_get s i = '-' then - !e
    else min_int
  end

(* A float field.  The writer's %h form, [[-]0x<hex>[.<hex>]p±<dec>] with
   at most 14 lowercase digits, is [ldexp m (e - 4 * frac)] negated for a
   sign: the two steps of the runtime's own hex conversion, so the bits
   agree.  Anything else goes to [float_of_string]. *)
let float_field s lo hi =
  let neg = lo < hi && Bytes.unsafe_get s lo = '-' in
  let i = if neg then lo + 1 else lo in
  if not (i + 2 < hi && Bytes.unsafe_get s i = '0' && Bytes.unsafe_get s (i + 1) = 'x')
  then slow_float s lo hi
  else begin
    (* The mantissa digits, and how many of them precede a point. *)
    let m = ref 0 and digits = ref 0 and point = ref (-1) and j = ref (i + 2) in
    while !j < hi && (hex s !j < 16 || (Bytes.unsafe_get s !j = '.' && !point < 0)) do
      if hex s !j < 16 then begin
        m := (!m lsl 4) lor hex s !j;
        incr digits
      end
      else point := !digits;
      incr j
    done;
    let frac = if !point < 0 then 0 else !digits - !point in
    let e = if !j < hi && Bytes.unsafe_get s !j = 'p' then hex_exponent s (!j + 1) hi else min_int in
    if !digits = 0 || !digits > 14 || !m >= 1 lsl 53 || e = min_int then slow_float s lo hi
    else begin
      let x = ldexp (float_of_int !m) (e - (4 * frac)) in
      if neg then -.x else x
    end
  end

(* An int field: up to 18 decimal digits after an optional [-], else
   [int_of_string]. *)
let int_field s lo hi =
  let start = if lo < hi && Bytes.unsafe_get s lo = '-' then lo + 1 else lo in
  if hi - start < 1 || hi - start > 18 then slow_int s lo hi
  else begin
    let n = ref 0 and j = ref start in
    while !j < hi && is_decimal (decimal s !j) do
      n := (10 * !n) + decimal s !j;
      incr j
    done;
    if !j < hi then slow_int s lo hi else if start > lo then - !n else !n
  end

let rec same s pos lit i =
  i = String.length lit
  || (Bytes.unsafe_get s (pos + i) = String.unsafe_get lit i && same s pos lit (i + 1))

let is s lo hi lit = hi - lo = String.length lit && same s lo lit 0

(* [bool_of_string]: exactly [true] or [false]. *)
let bool_field s lo hi =
  if is s lo hi "true" then true
  else if is s lo hi "false" then false
  else raise_notrace Bad_field

(* Fields are separated by single spaces, as [String.split_on_char ' ']
   splits them. *)
let rec field_end s i hi = if i < hi && Bytes.unsafe_get s i <> ' ' then field_end s (i + 1) hi else i

(* The start of the field after the one ending at [e]. *)
let next e hi = if e < hi then e + 1 else raise_notrace Bad_field

(* The field starting at [i] ends the line. *)
let last s i hi = if field_end s i hi <> hi then raise_notrace Bad_field

(* The event on the trimmed, non-comment line [s.[lo .. hi-1]]. *)
let scan_event s lo hi =
  let time_end = field_end s lo hi in
  let tag = next time_end hi in
  let tag_end = field_end s tag hi in
  let time = float_field s lo time_end in
  let kind =
    if is s tag tag_end "send" then begin
      let a = next tag_end hi in
      let a_end = field_end s a hi in
      let b = next a_end hi in
      let b_end = field_end s b hi in
      let c = next b_end hi in
      let c_end = field_end s c hi in
      let d = next c_end hi in
      last s d hi;
      Event.Segment_sent
        {
          seq = int_field s a a_end;
          retransmission = bool_field s b b_end;
          cwnd = float_field s c c_end;
          flight = int_field s d hi;
        }
    end
    else if is s tag tag_end "ack" then begin
      let a = next tag_end hi in
      last s a hi;
      Event.Ack_received { ack = int_field s a hi }
    end
    else if is s tag tag_end "timeout" then begin
      let a = next tag_end hi in
      let a_end = field_end s a hi in
      let b = next a_end hi in
      last s b hi;
      Event.Timer_fired { backoff = int_field s a a_end; rto = float_field s b hi }
    end
    else if is s tag tag_end "fastrexmit" then begin
      let a = next tag_end hi in
      last s a hi;
      Event.Fast_retransmit_triggered { seq = int_field s a hi }
    end
    else if is s tag tag_end "rtt" then begin
      let a = next tag_end hi in
      let a_end = field_end s a hi in
      let b = next a_end hi in
      let b_end = field_end s b hi in
      let c = next b_end hi in
      last s c hi;
      Event.Rtt_sample
        {
          sample = float_field s a a_end;
          srtt = float_field s b b_end;
          rto = float_field s c hi;
        }
    end
    else if is s tag tag_end "round" then begin
      let a = next tag_end hi in
      let a_end = field_end s a hi in
      let b = next a_end hi in
      last s b hi;
      Event.Round_started { index = int_field s a a_end; window = float_field s b hi }
    end
    else if is s tag tag_end "close" && tag_end = hi then Event.Connection_closed
    else raise_notrace Bad_field
  in
  { Event.time; kind }

(* [String.trim]'s blanks. *)
let is_blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec trimmed_start s lo hi =
  if lo < hi && is_blank (Bytes.unsafe_get s lo) then trimmed_start s (lo + 1) hi else lo

let rec trimmed_stop s lo hi =
  if hi > lo && is_blank (Bytes.unsafe_get s (hi - 1)) then trimmed_stop s lo (hi - 1) else hi

(* The event on the trimmed line [s.[lo .. hi-1]], which is neither blank
   nor a comment; a malformed line is quoted whole. *)
let event_in file line s lo hi =
  match scan_event s lo hi with
  | event -> event
  | exception Bad_field ->
      raise
        (Error
           {
             file;
             line;
             reason = Printf.sprintf "malformed line %S" (Bytes.sub_string s lo (hi - lo));
           })

let is_event s lo hi = lo < hi && Bytes.unsafe_get s lo <> '#'

let event_of_line line =
  let s = Bytes.unsafe_of_string line in
  let lo = trimmed_start s 0 (String.length line) in
  let hi = trimmed_stop s lo (String.length line) in
  if is_event s lo hi then Some (event_in None 0 s lo hi) else None

(* The last non-NaN time delivered.  A NaN time passes the guard (it is
   not smaller than anything) but does not move it, so it cannot hide a
   later step backwards.  All-float, so updates do not box. *)
type clock = { mutable last : float }

let deliver file f clock line s lo hi =
  let lo = trimmed_start s lo hi in
  let hi = trimmed_stop s lo hi in
  if is_event s lo hi then begin
    let event = event_in file line s lo hi in
    let time = event.Event.time in
    if time < clock.last then
      raise
        (Error
           {
             file;
             line;
             reason = Printf.sprintf "time went backwards: %g s after %g s" time clock.last;
           });
    if not (Float.is_nan time) then clock.last <- time;
    f event
  end

(* Reads go into one block, under the 256-word minor-heap limit; it
   doubles only to hold a longer line. *)
let block_bytes = 1024

let rec newline s i stop = if i < stop && Bytes.unsafe_get s i <> '\n' then newline s (i + 1) stop else i

let iter_channel ?file f ic =
  let clock = { last = neg_infinity } in
  let buf = ref (Bytes.create block_bytes) in
  (* [start, stop) holds read bytes not yet delivered; [start, scan) holds
     no newline. *)
  let start = ref 0 and scan = ref 0 and stop = ref 0 in
  let line = ref 0 and reading = ref true in
  while !reading do
    let s = !buf in
    let nl = newline s !scan !stop in
    if nl < !stop then begin
      incr line;
      deliver file f clock !line s !start nl;
      start := nl + 1;
      scan := nl + 1
    end
    else begin
      let kept = !stop - !start in
      if kept = Bytes.length s then buf := Bytes.create (2 * kept);
      Bytes.blit s !start !buf 0 kept;
      let s = !buf in
      start := 0;
      scan := kept;
      stop := kept;
      let n = input ic s kept (Bytes.length s - kept) in
      if n > 0 then stop := kept + n
      else begin
        reading := false;
        if kept > 0 then begin
          incr line;
          deliver file f clock !line s 0 kept
        end
      end
    end
  done

let read ?file ic =
  let recorder = Recorder.create () in
  iter_channel ?file
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
