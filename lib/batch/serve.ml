(* Both directions work on bytes in place: the scanner walks a line once
   inside the caller's bytes, storing each field straight into a column
   row as it cuts it, and the writer spells a rate straight into the
   caller's bytes.
   DESIGN.md ("Serve text format") explains why the fast paths agree bit
   for bit and byte for byte with [float_of_string] and ["%.17g"]. *)

type query = { p : float; rtt : float; t0 : float; wm : float }

let max_line_bytes = 4096
let sentinel = "nan"

let too_long n = Printf.sprintf "line exceeds %d bytes (got %d)" max_line_bytes n

(* The powers of ten that are exact doubles: 10^k = 2^k * 5^k, and
   5^22 < 2^53. *)
let pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13;
    1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* --- Writer ----------------------------------------------------------- *)

(* The longest ["%.17g"] spelling, e.g. ["-2.2250738585072014e-308"]. *)
let max_rate_bytes = 24

let e16 = 10_000_000_000_000_000
let e17 = 100_000_000_000_000_000

let slow_rate b pos x =
  let t = Printf.sprintf "%.17g" x in
  Bytes.blit_string t 0 b pos (String.length t);
  pos + String.length t

(* [a * 10^k] rounded to an integer, ties to even, exactly.  [hi + lo] is
   the exact product (an FMA two-product: [10^k] is exact for [k <= 22]).
   Where the result is used, [hi >= 10^16 > 2^53] is an even integer, so
   rounding [lo] to an integer, a tie to the even one, rounds the sum. *)
let[@inline] scaled a k =
  let p = Array.unsafe_get pow10 k in
  let hi = a *. p in
  let lo = Float.fma a p (-.hi) in
  let r = int_of_float lo in
  let f = lo -. float_of_int r in
  let r =
    if f > 0.5 || (f = 0.5 && r land 1 = 1) then r + 1
    else if f < -0.5 || (f = -0.5 && r land 1 = 1) then r - 1
    else r
  in
  int_of_float hi + r

(* Writes the [n] low decimal digits of [d] to [b.[stop-n .. stop-1]] and
   returns the digits above them. *)
let rec put_digits b stop d n =
  if n = 0 then d
  else begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (d mod 10)));
    put_digits b (stop - 1) (d / 10) (n - 1)
  end

let rec put_zeros b pos n =
  if n = 0 then pos
  else begin
    Bytes.unsafe_set b pos '0';
    put_zeros b (pos + 1) (n - 1)
  end

(* The end of a fraction whose point is at [point] once %g has dropped
   its trailing zeros, and the point itself when no digit is left. *)
let rec trim b point stop =
  if stop = point + 1 then point
  else if Bytes.unsafe_get b (stop - 1) = '0' then trim b point (stop - 1)
  else stop

(* The ["%.17g"] layout of [d * 10^(e - 16)], for 17-digit [d] and
   [-100 < e <= 15]: fixed notation from [e = -4] up, with [16 - e]
   fraction digits, and [d.ddd...e-05] below. *)
let layout b pos e d =
  if e >= 0 then begin
    let point = pos + e + 1 in
    let high = put_digits b (point + 17 - e) d (16 - e) in
    Bytes.unsafe_set b point '.';
    ignore (put_digits b point high (e + 1) : int);
    trim b point (point + 17 - e)
  end
  else if e >= -4 then begin
    Bytes.unsafe_set b pos '0';
    Bytes.unsafe_set b (pos + 1) '.';
    let first = put_zeros b (pos + 2) (-e - 1) in
    ignore (put_digits b (first + 17) d 17 : int);
    trim b (pos + 1) (first + 17)
  end
  else begin
    let lead = put_digits b (pos + 18) d 16 in
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 + lead));
    Bytes.unsafe_set b (pos + 1) '.';
    let stop = trim b (pos + 1) (pos + 18) in
    Bytes.unsafe_set b stop 'e';
    Bytes.unsafe_set b (stop + 1) '-';
    ignore (put_digits b (stop + 4) (-e) 2 : int);
    stop + 4
  end

let signed b pos neg e d =
  if neg then begin
    Bytes.unsafe_set b pos '-';
    layout b (pos + 1) e d
  end
  else layout b pos e d

(* ["%.17g"] for [1e-5 <= |x| < 1e16], everything else through [Printf].
   [(e2 * 78913) asr 18] is [floor (e2 * log10 2)] for these binary
   exponents, so the decimal exponent is [e0] or [e0 + 1]; the digit
   count of the first rounding says which.  The 17 digits are then
   rounded as glibc rounds them. *)
let write_rate b pos x =
  let a = Float.abs x in
  if not (a >= 1e-5 && a < 1e16) then slow_rate b pos x
  else begin
    let e2 = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) - 1023 in
    let e0 = (e2 * 78913) asr 18 in
    let d0 = scaled a (16 - e0) in
    let e = if d0 > e17 then e0 + 1 else e0 in
    let d = if e = e0 then d0 else scaled a (16 - e) in
    (* A 17-digit rounding up to 10^17 is 10^16 at the next exponent. *)
    let up = d = e17 in
    let e = if up then e + 1 else e in
    let d = if up then e16 else d in
    if d < e16 || d >= e17 || e > 15 then slow_rate b pos x
    else signed b pos (x < 0.) e d
  end

let format_rate x =
  let b = Bytes.create max_rate_bytes in
  Bytes.sub_string b 0 (write_rate b 0 x)

(* --- Scanner ---------------------------------------------------------- *)

type cursor = { eol : int; mutable limit : int; mutable pos : int }

exception Incomplete

let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r'
let[@inline] at_end s i cur = Bytes.unsafe_get s i = '\n' && i >= cur.eol
let[@inline] ends_field s i cur = is_blank (Bytes.unsafe_get s i) || at_end s i cur
let[@inline] digit s i = Char.code (Bytes.unsafe_get s i) - Char.code '0'
let[@inline] is_digit d = d >= 0 && d <= 9

let rec skip s i = if is_blank (Bytes.unsafe_get s i) then skip s (i + 1) else i
let rec field_end s i cur = if ends_field s i cur then i else field_end s (i + 1) cur
let rec line_end s i cur = if at_end s i cur then i else line_end s (i + 1) cur

(* Every token the fast path declines goes to [float_of_string] on a
   copy, which accepts, rejects and decodes it as it always has: [nan],
   [inf], [0x1p-3], [1_0], a NUL, 19 or more significand digits.  It
   converts only fields of a whole line. *)
let slow_number s i cur col j =
  let stop = field_end s i cur in
  if line_end s stop cur = cur.limit then raise_notrace Incomplete;
  cur.pos <- stop;
  match float_of_string_opt (Bytes.sub_string s i (stop - i)) with
  | Some x ->
      Float.Array.set col j x;
      true
  | None -> false

(* Stores the number spelled by the field starting at [s.[i]] in
   [col.(j)], leaves its end in [cur.pos], and says whether it is one.  A
   token [[+-]d*[.d*][(e|E)[+-]d{1,4}]] with 1 to 18 significand digits
   [w <= 2^53] and a net decimal exponent [|e| <= 22] is [w * 10^e] or
   [w / 10^-e]: one correctly rounded operation on two exact doubles,
   which is what glibc's [strtod] returns. *)
let number s i cur col j =
  let c = Bytes.unsafe_get s i in
  let start = if c = '+' || c = '-' then i + 1 else i in
  let w = ref 0 and digits = ref 0 and point = ref (-1) and k = ref start and more = ref true in
  while !more do
    let d = digit s !k in
    if is_digit d then begin
      w := (10 * !w) + d;
      incr digits;
      incr k
    end
    else if Bytes.unsafe_get s !k = '.' && !point < 0 then begin
      point := !digits;
      incr k
    end
    else more := false
  done;
  (* The exponent: [e] or [E], an optional sign and 1 to 4 digits. *)
  let exp = ref 0 and exp_digits = ref 1 in
  if Bytes.unsafe_get s !k = 'e' || Bytes.unsafe_get s !k = 'E' then begin
    let sign = Bytes.unsafe_get s (!k + 1) in
    let first = if sign = '+' || sign = '-' then !k + 2 else !k + 1 in
    k := first;
    while is_digit (digit s !k) do
      exp := (10 * !exp) + digit s !k;
      incr k
    done;
    exp_digits := !k - first;
    if sign = '-' then exp := - !exp
  end;
  let e = !exp - if !point < 0 then 0 else !digits - !point in
  if
    !digits = 0 || !digits > 18 || !w > 1 lsl 53 || !exp_digits < 1 || !exp_digits > 4
    || e < -22 || e > 22
    || not (ends_field s !k cur)
  then slow_number s i cur col j
  else begin
    let x =
      if e >= 0 then float_of_int !w *. Array.unsafe_get pow10 e
      else float_of_int !w /. Array.unsafe_get pow10 (-e)
    in
    Float.Array.set col j (if c = '-' then -.x else x);
    cur.pos <- !k;
    true
  end

let field_names = [| "p"; "rtt"; "t0"; "wm" |]

let not_a_number idx s lo hi =
  Error
    (Printf.sprintf "field %d (%s): %S is not a number" (idx + 1) field_names.(idx)
       (Bytes.sub_string s lo (hi - lo)))

let column (c : Columns.t) k =
  match k with 0 -> c.Columns.p | 1 -> c.Columns.rtt | 2 -> c.Columns.t0 | _ -> c.Columns.wm

(* One walk cuts the fields at blanks and decodes the first four into row
   [j] as it goes, counting all of them, and stops at the line's end; the
   diagnostics are then chosen in their order: length, empty line, field
   count, the first field that is not a number. *)
let scan_line cur s lo (c : Columns.t) j =
  let fields = ref 0 and bad = ref (-1) and bad_lo = ref 0 and bad_hi = ref 0 in
  let i = ref (skip s lo) in
  while not (at_end s !i cur) do
    let f = !i in
    if !fields >= 4 then cur.pos <- field_end s f cur
    else if (not (number s f cur (column c !fields) j)) && !bad < 0 then begin
      bad := !fields;
      bad_lo := f;
      bad_hi := cur.pos
    end;
    incr fields;
    i := skip s cur.pos
  done;
  let stop = !i in
  cur.pos <- stop;
  if stop = cur.limit then raise_notrace Incomplete;
  if stop - lo > max_line_bytes then Error (too_long (stop - lo))
  else if !fields = 0 then Error "empty line"
  else if !fields <> 4 then
    Error (Printf.sprintf "expected 4 fields (p rtt t0 wm), got %d" !fields)
  else if !bad >= 0 then not_a_number !bad s !bad_lo !bad_hi
  else begin
    (* wm <= 0 denotes "no receiver limit", the CLI's --wm convention;
       NaN stays NaN and is rejected by the scan. *)
    if Float.Array.get c.Columns.wm j <= 0. then
      Float.Array.set c.Columns.wm j Columns.unlimited_wm;
    Ok ()
  end

let parse_line line =
  let n = String.length line in
  let s = Bytes.create (n + 1) in
  Bytes.blit_string line 0 s 0 n;
  Bytes.unsafe_set s n '\n';
  let c = Columns.create 1 in
  match scan_line { eol = n; limit = -1; pos = 0 } s 0 c 0 with
  | Ok () ->
      Ok
        {
          p = Float.Array.get c.Columns.p 0;
          rtt = Float.Array.get c.Columns.rtt 0;
          t0 = Float.Array.get c.Columns.t0 0;
          wm = Float.Array.get c.Columns.wm 0;
        }
  | Error msg -> Error msg
