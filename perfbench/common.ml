(* Shared plumbing for the four workloads: the clock, run options,
   correctness tallies and small statistics. *)

let now = Unix.gettimeofday

type opts = {
  seed : int;
  seconds : float;  (** Measurement window of the timed phase. *)
  jobs : int;  (** Worker domains for every fan-out; never above nproc. *)
  work_dir : string;  (** Scratch files (inputs, outputs, the span dump). *)
  fault : bool;  (** Corrupt one checked answer (the self-test). *)
}

(* What an untraced run measured: set-up repetitions and timed passes,
   each as the durations of its steps, and the properties of the
   generated input. *)
type result = {
  setups : float list list;
  passes : float list list;
  input : (string * string) list;  (** Measured properties of the input. *)
}

(* Operations checked against a reference, and how many were wrong.
   [failed / attempted] is the run's failed share. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("perfbench: check failed: " ^ what)
  end

(* The sum over steps of each step's fastest duration: what a section
   costs when nothing else on the machine slows it.  Contention only ever
   adds time, and on a small shared machine it moves medians by tens of
   percent between runs while minima stay within a few; taking the
   minimum step by step means one slow moment costs one step's sample,
   not the whole section's. *)
let fastest_by_step = function
  | [] -> invalid_arg "fastest_by_step: no samples"
  | first :: rest ->
      List.fold_left ( +. ) 0. (List.fold_left (List.map2 Float.min) first rest)

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "median: empty"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f] as a one-step section: its result and its duration. *)
let one_step f =
  let v, dt = time f in
  (v, [ dt ])

(* The measurement protocol of an untraced run.  [setup] generates the
   input once, then a second of warm-up passes runs, then passes run
   until the window is spent (and at least three times).  The remaining
   [reps - 1] set-up repetitions are spread evenly over the window, their
   results discarded, so that set-up and passes sample the same stretch
   of machine time.  Each set-up starts from a collected heap and the
   count is fixed, so the peak RSS does not depend on machine speed.
   Workloads choose [reps] so that set-ups fill about two fifths of a
   20-s window, which leaves enough of both for steady minima.  [setup]
   returns its input and the durations of its steps; [pass] returns the
   durations of its timed steps and checks its output outside them.
   Returns the input, the set-ups' steps and the passes' steps after the
   warm-up. *)
let measure opts ~reps ~setup ~pass =
  let timed_setup () =
    Gc.full_major ();
    setup ()
  in
  let input, first = timed_setup () in
  let warm = now () in
  while now () -. warm < 1. do
    ignore (pass input : float list)
  done;
  let start = now () in
  let rec go setups nsetups passes npasses =
    let elapsed = now () -. start in
    if nsetups < reps
       && elapsed >= opts.seconds *. float_of_int nsetups /. float_of_int reps
    then go (snd (timed_setup ()) :: setups) (nsetups + 1) passes npasses
    else if npasses >= 3 && elapsed >= opts.seconds && nsetups >= reps then
      (input, List.rev setups, List.rev passes)
    else go setups nsetups (pass input :: passes) (npasses + 1)
  in
  go [ first ] 1 [] 0

(* A seeded generator private to one workload: the same seed and tag
   give the same stream, whatever else ran before. *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let log_uniform st ~lo ~hi =
  exp (log lo +. Random.State.float st (log hi -. log lo))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)
