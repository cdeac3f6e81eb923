(* The four xoshiro256** state words live in one 32-byte [Bytes.t]: s0 at
   offset 0, s1 at 8, s2 at 16, s3 at 24.  ocamlopt reads and writes them
   with the unchecked native-order primitives below as unboxed machine
   words, so a draw allocates nothing and checks no bounds, where four
   [mutable int64] record fields box a fresh word on every store.

   Skipping the checks is safe: [t] is abstract, and only [create] (so
   [split]) and [copy] make one, always 32 bytes long, so every access
   lies inside it.  Every access also uses the same byte order, so the
   words, and the stream, are the same on any platform. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let default_seed = 0x9E3779B97F4A7C15L

(* SplitMix64 step: used only to expand a 64-bit seed into the four words of
   xoshiro state, as recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ?(seed = default_seed) () =
  let st = ref seed in
  let t = Bytes.create 32 in
  for word = 0 to 3 do
    set64 t (8 * word) (splitmix64 st)
  done;
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let split t =
  let seed = bits64 t in
  create ~seed ()

(* Take the top 53 bits for a uniform double in [0, 1). *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec loop () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.sub raw v > Int64.sub (Int64.sub Int64.max_int n64) 1L then loop ()
    else Int64.to_int v
  in
  loop ()

let bool t = Int64.compare (bits64 t) 0L < 0

let bernoulli t p =
  assert (p >= 0. && p <= 1.);
  float t < p

let exponential t mean =
  assert (mean > 0.);
  let u = 1. -. float t in
  -.mean *. log u

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 1
  else
    let u = 1. -. float t in
    (* Inverse-CDF: smallest k with 1 - (1-p)^k >= u. *)
    let k = int_of_float (Float.ceil (log u /. log (1. -. p))) in
    Int.max 1 k

let normal t ~mean ~std =
  let u1 = 1. -. float t in
  let u2 = float t in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (std *. z)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
