(* What a step needs of a bin but never changes between steps is tabled
   once by [create]: the bin's center, and where the halving of its
   window lands (the deposit bin and the share of the bin above it).  A
   step is then two sweeps over the bins: the halving, and one upward
   pass that merges the deposits, applies the drift and sums the mean.
   DESIGN.md ("The histogram step") shows that the sweeps round exactly
   as separate halving, merge, drift and mean passes would, so every
   mass and mean keeps its bits.

   The sweeps index without bounds checks.  Every index is in range by
   construction: [i] runs over [0, n-1] and every array has length [n],
   and [create] stores each deposit bin [lo] in [0, n-1], with [n-1]
   meaning the top bin alone, so [lo + 1] is read only when [lo < n-1]. *)

(* The mean the last [step] or [reset] summed.  All-float, so storing it
   does not box. *)
type moments = { mutable mean : float }

type t = {
  n : int;
  h : float;  (* bin width, pkt *)
  mass : float array;  (* probability mass per bin *)
  scratch : float array;  (* halving deposits, zero between steps *)
  center : float array;  (* bin centers, pkt *)
  lo : int array;  (* the halving's deposit bin; n-1 is the top bin alone *)
  share : float array;  (* of the halved mass, deposited at lo + 1 *)
  moments : moments;
}

let create ?(bins = 256) ~wmax () =
  if bins < 2 then invalid_arg "Window_hist.create: bins < 2";
  if not (wmax > 0. && Float.is_finite wmax) then
    invalid_arg "Window_hist.create: wmax must be positive and finite";
  let n = bins in
  let h = wmax /. float_of_int n in
  let center = Array.init n (fun i -> (float_of_int i +. 0.5) *. h) in
  let lo = Array.make n (n - 1) and share = Array.make n 0. in
  for i = 0 to n - 1 do
    (* Deposit at w/2, split linearly over the bracketing bins.  [x] is
       never negative, and NaN only when [h] underflows to 0, where no bin
       ever halves (its window is 0): the comparison stores the top bin
       then, and [lo] stays in range. *)
    let x = Float.max 0. ((center.(i) /. 2. /. h) -. 0.5) in
    if x < float_of_int (n - 1) then begin
      let l = int_of_float x in
      lo.(i) <- l;
      share.(i) <- x -. float_of_int l
    end
  done;
  {
    n;
    h;
    mass = Array.make n 0.;
    scratch = Array.make n 0.;
    center;
    lo;
    share;
    moments = { mean = 0. };
  }

let bins t = t.n
let width t = t.h
let wmax t = t.h *. float_of_int t.n

let sum_mean t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. (t.mass.(i) *. t.center.(i))
  done;
  !acc

let reset t ~mean ~spread =
  Array.fill t.mass 0 t.n 0.;
  let lo = Float.max 0. (mean -. spread) in
  let hi = Float.min (wmax t) (mean +. spread) in
  if hi > lo then begin
    (* Mass proportional to each bin's overlap with [lo, hi]. *)
    for i = 0 to t.n - 1 do
      let bl = float_of_int i *. t.h and bh = float_of_int (i + 1) *. t.h in
      let overlap = Float.min hi bh -. Float.max lo bl in
      if overlap > 0. then t.mass.(i) <- overlap /. (hi -. lo)
    done;
    (* Renormalize the clipping rounding away. *)
    let s = Array.fold_left ( +. ) 0. t.mass in
    if s > 0. then
      for i = 0 to t.n - 1 do
        t.mass.(i) <- t.mass.(i) /. s
      done
  end
  else begin
    let i = int_of_float (mean /. t.h) in
    let i = if i < 0 then 0 else if i > t.n - 1 then t.n - 1 else i in
    t.mass.(i) <- 1.
  end;
  t.moments.mean <- sum_mean t

let mass t i = t.mass.(i)
let total t = Array.fold_left ( +. ) 0. t.mass
let mean t = t.moments.mean

let second_moment t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    let w = t.center.(i) in
    acc := !acc +. (t.mass.(i) *. w *. w)
  done;
  !acc

let step t ~dt ~drift ~p ~rtt =
  let n = t.n and m = t.mass and s = t.scratch and c = t.center in
  let merge = p > 0. in
  (* Sweep 1, halving: bin i loses mass at rate p·w_i/rtt toward w_i/2.
     [dt *. p *. w /. rtt] parses as [((dt *. p) *. w) /. rtt], so
     hoisting [dt *. p] changes no bit; [if f > 1. then 1. else f] is
     [Float.min 1. f], NaN included. *)
  if merge then begin
    let dtp = dt *. p in
    for i = 0 to n - 1 do
      let mi = Array.unsafe_get m i in
      if mi > 0. then begin
        let frac = dtp *. Array.unsafe_get c i /. rtt in
        let frac = if frac > 1. then 1. else frac in
        if frac > 0. then begin
          let out = mi *. frac in
          Array.unsafe_set m i (mi -. out);
          let lo = Array.unsafe_get t.lo i in
          if lo >= n - 1 then Array.unsafe_set s lo (Array.unsafe_get s lo +. out)
          else begin
            let f = Array.unsafe_get t.share i in
            Array.unsafe_set s lo (Array.unsafe_get s lo +. (out *. (1. -. f)));
            Array.unsafe_set s (lo + 1) (Array.unsafe_get s (lo + 1) +. (out *. f))
          end
        end
      end
    done
  end;
  (* Sweep 2, upward: merge bin i's deposits, then upwind drift, where
     mass moves right one neighbor per step and the top bin is absorbing
     (the W_m clamp).  Bin i ends at (m_i - out_i) + out_(i-1): its
     outflow is taken from its merged mass before its inflow arrives, so
     no mass moves twice in one step.  [carry] starts at -0., which adds
     to any float without changing it, so bin 0 needs no case.  The mean
     is summed in bin order as each bin is final. *)
  let frac = dt *. drift /. t.h in
  let frac = if frac > 1. then 1. else frac in
  let drifting = frac > 0. in
  let acc = ref 0. and carry = ref (-0.) in
  for i = 0 to n - 1 do
    let mi = Array.unsafe_get m i in
    let mi =
      if merge then begin
        let d = Array.unsafe_get s i in
        Array.unsafe_set s i 0.;
        mi +. d
      end
      else mi
    in
    let mi =
      if not drifting then mi
      else if i = n - 1 then mi +. !carry
      else begin
        let out = mi *. frac in
        let kept = mi -. out +. !carry in
        carry := out;
        kept
      end
    in
    Array.unsafe_set m i mi;
    acc := !acc +. (mi *. Array.unsafe_get c i)
  done;
  t.moments.mean <- !acc

let max_dt t ~drift ~p ~rtt =
  let cfl =
    if drift > 0. then 0.9 *. t.h /. drift else Float.infinity
  in
  let halving =
    if p > 0. then 0.9 *. rtt /. (p *. wmax t) else Float.infinity
  in
  Float.min cfl halving
