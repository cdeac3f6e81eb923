(* Both directions work on bytes in place: the scanner cuts a line's
   fields inside the caller's bytes and stores them straight into a
   column row, the writer spells a rate straight into the caller's bytes.
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

let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r'
let[@inline] digit s i = Char.code (Bytes.unsafe_get s i) - Char.code '0'
let[@inline] is_digit d = d >= 0 && d <= 9

let rec skip s i hi = if i < hi && is_blank (Bytes.unsafe_get s i) then skip s (i + 1) hi else i

let rec field_end s i hi =
  if i < hi && not (is_blank (Bytes.unsafe_get s i)) then field_end s (i + 1) hi else i

let rec count_fields s i hi n =
  let i = skip s i hi in
  if i >= hi then n else count_fields s (field_end s i hi) hi (n + 1)

(* Every token the fast path declines goes to [float_of_string] on a
   copy, which accepts, rejects and decodes it as it always has: [nan],
   [inf], [0x1p-3], [1_0], a NUL, 19 or more significand digits. *)
let slow_number s lo hi col j =
  match float_of_string_opt (Bytes.sub_string s lo (hi - lo)) with
  | Some x ->
      Float.Array.set col j x;
      true
  | None -> false

(* The exponent of a decimal token: [e] or [E], an optional sign and 1 to
   4 digits filling [s.[i .. hi-1]]; [min_int] when it is not one. *)
let exponent s i hi =
  let sign = if i + 1 < hi then Bytes.unsafe_get s (i + 1) else ' ' in
  let start = if sign = '+' || sign = '-' then i + 2 else i + 1 in
  if hi - start < 1 || hi - start > 4 then min_int
  else begin
    let e = ref 0 and k = ref start in
    while !k < hi && is_digit (digit s !k) do
      e := (10 * !e) + digit s !k;
      incr k
    done;
    if !k < hi then min_int else if sign = '-' then - !e else !e
  end

(* Stores the number spelled by [s.[lo .. hi-1]] in [col.(j)]; false when
   it is not one.  A token [[+-]d*[.d*][(e|E)[+-]d{1,4}]] with 1 to 18
   significand digits [w <= 2^53] and a net decimal exponent [|e| <= 22]
   is [w * 10^e] or [w / 10^-e]: one correctly rounded operation on two
   exact doubles, which is what glibc's [strtod] returns. *)
let number s lo hi col j =
  let c = if lo < hi then Bytes.unsafe_get s lo else ' ' in
  let start = if c = '+' || c = '-' then lo + 1 else lo in
  let w = ref 0 and digits = ref 0 and point = ref (-1) and k = ref start in
  while
    !k < hi
    && (is_digit (digit s !k) || (Bytes.unsafe_get s !k = '.' && !point < 0))
  do
    if is_digit (digit s !k) then begin
      w := (10 * !w) + digit s !k;
      incr digits
    end
    else point := !digits;
    incr k
  done;
  let frac = if !point < 0 then 0 else !digits - !point in
  let exp =
    if !k = hi then 0
    else if Bytes.unsafe_get s !k = 'e' || Bytes.unsafe_get s !k = 'E' then exponent s !k hi
    else min_int
  in
  if !digits = 0 || !digits > 18 || !w > 1 lsl 53 || exp = min_int then slow_number s lo hi col j
  else begin
    let e = exp - frac in
    if e < -22 || e > 22 then slow_number s lo hi col j
    else begin
      let x =
        if e >= 0 then float_of_int !w *. Array.unsafe_get pow10 e
        else float_of_int !w /. Array.unsafe_get pow10 (-e)
      in
      Float.Array.set col j (if c = '-' then -.x else x);
      true
    end
  end

let field_names = [| "p"; "rtt"; "t0"; "wm" |]

let not_a_number idx s lo hi =
  Error
    (Printf.sprintf "field %d (%s): %S is not a number" (idx + 1) field_names.(idx)
       (Bytes.sub_string s lo (hi - lo)))

let scan_line s lo hi (c : Columns.t) j =
  if hi - lo > max_line_bytes then Error (too_long (hi - lo))
  else begin
    let a = skip s lo hi in
    let a_end = field_end s a hi in
    let b = skip s a_end hi in
    let b_end = field_end s b hi in
    let t = skip s b_end hi in
    let t_end = field_end s t hi in
    let w = skip s t_end hi in
    let w_end = field_end s w hi in
    if a = hi then Error "empty line"
    else if w = hi || skip s w_end hi < hi then
      Error
        (Printf.sprintf "expected 4 fields (p rtt t0 wm), got %d" (count_fields s lo hi 0))
    else if not (number s a a_end c.Columns.p j) then not_a_number 0 s a a_end
    else if not (number s b b_end c.Columns.rtt j) then not_a_number 1 s b b_end
    else if not (number s t t_end c.Columns.t0 j) then not_a_number 2 s t t_end
    else if not (number s w w_end c.Columns.wm j) then not_a_number 3 s w w_end
    else begin
      (* wm <= 0 denotes "no receiver limit", the CLI's --wm convention;
         NaN stays NaN and is rejected by the scan. *)
      if Float.Array.get c.Columns.wm j <= 0. then
        Float.Array.set c.Columns.wm j Columns.unlimited_wm;
      Ok ()
    end
  end

let parse_line line =
  let c = Columns.create 1 in
  match scan_line (Bytes.unsafe_of_string line) 0 (String.length line) c 0 with
  | Ok () ->
      Ok
        {
          p = Float.Array.get c.Columns.p 0;
          rtt = Float.Array.get c.Columns.rtt 0;
          t0 = Float.Array.get c.Columns.t0 0;
          wm = Float.Array.get c.Columns.wm 0;
        }
  | Error msg -> Error msg
