module Params = Pftk_core.Params
module Event = Pftk_trace.Event
module Serialize = Pftk_trace.Serialize
module Analyzer = Pftk_trace.Analyzer
module Mf_solver = Pftk_meanfield.Solver
module Mf_law = Pftk_meanfield.Queue_law
module Mf_hist = Pftk_meanfield.Window_hist

type verdict = Pass | Skip of string | Fail of string

type t = {
  id : string;
  name : string;
  description : string;
  check : Case.t -> verdict;
}

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt
let skipf fmt = Printf.ksprintf (fun s -> Skip s) fmt

(* [a <= b] up to [tol] relative slack on [b] (rates are positive). *)
let le ~tol a b = a <= b +. (tol *. Float.max (Float.abs a) (Float.abs b))

let window_cap (c : Case.t) =
  let cap = float_of_int c.params.Params.wm /. c.params.Params.rtt in
  let check_model acc kind =
    match acc with
    | Fail _ -> acc
    | _ ->
        let rate = Pftk_core.Model.send_rate kind c.params c.p in
        if le ~tol:1e-9 rate cap then acc
        else
          failf "%s: rate %.17g > Wm/RTT %.17g at p=%h"
            (Pftk_core.Model.name kind) rate cap c.p
  in
  List.fold_left check_model Pass
    [
      Pftk_core.Model.Full;
      Pftk_core.Model.Full_approx_q;
      Pftk_core.Model.Approximate;
      Pftk_core.Model.Throughput_model;
    ]

let ordering_tdonly (c : Case.t) =
  let td = Pftk_core.Tdonly.send_rate_capped c.params c.p in
  let full = Pftk_core.Full_model.send_rate c.params c.p in
  let approx_q =
    Pftk_core.Full_model.send_rate ~q:Pftk_core.Qhat.Approximate c.params c.p
  in
  if not (le ~tol:1e-9 full td) then
    failf "full %.17g > td-only %.17g at p=%h" full td c.p
  else if not (le ~tol:1e-9 approx_q td) then
    failf "full(approx-q) %.17g > td-only %.17g at p=%h" approx_q td c.p
  else Pass

let monotone_p (c : Case.t) =
  let r1 = Pftk_core.Full_model.send_rate_unconstrained c.params c.p in
  let r2 = Pftk_core.Full_model.send_rate_unconstrained c.params c.p2 in
  if le ~tol:1e-12 r2 r1 then Pass
  else failf "rate(p=%h)=%.17g < rate(p2=%h)=%.17g" c.p r1 c.p2 r2

let markov_envelope (c : Case.t) =
  let { Params.wm; rtt; t0; _ } = c.params in
  if wm = Params.unlimited_window || wm < 2 || wm > 64 then
    skipf "wm=%d outside calibrated [2, 64]" wm
  else if c.p < 1e-3 || c.p > 0.3 then
    skipf "p=%h outside calibrated [1e-3, 0.3]" c.p
  else if t0 /. rtt > 100. then skipf "t0/rtt=%g outside calibrated [1, 100]" (t0 /. rtt)
  else begin
    let full = Pftk_core.Full_model.send_rate c.params c.p in
    let markov = Pftk_core.Markov.send_rate (Pftk_core.Markov.solve c.params c.p) in
    let ratio = markov /. full in
    if ratio >= 0.6 && ratio <= 1.05 then Pass
    else
      failf "markov/full = %.17g outside [0.6, 1.05] (markov=%.17g full=%.17g p=%h)"
        ratio markov full c.p
  end

(* Round-trip one model through Inverse.loss_for_rate.  The recovered loss
   must attain the target rate, and must be the *largest* such loss: on a
   rate plateau (window-limited regime) every p up to the plateau's right
   edge attains the target, and a fair loss budget is the largest one. *)
let inverse_one ~label ~model ~find (c : Case.t) =
  let target = model c.target_p in
  match find target with
  | None -> failf "%s: no loss found for attainable target %.17g" label target
  | Some p_star ->
      let attained = model p_star in
      if not (le ~tol:1e-6 target attained) then
        failf "%s: rate at recovered p=%h is %.17g < target %.17g" label p_star
          attained target
      else if p_star < c.target_p *. (1. -. 1e-6) then
        failf "%s: recovered p=%h is not the largest loss attaining the target (target_p=%h)"
          label p_star c.target_p
      else Pass

let inverse_roundtrip (c : Case.t) =
  let full p = Pftk_core.Full_model.send_rate c.params p in
  match
    inverse_one ~label:"full" ~model:full
      ~find:(fun rate -> Pftk_core.Inverse.loss_budget c.params ~rate)
      c
  with
  | Pass ->
      let approx p = Pftk_core.Approx_model.send_rate c.params p in
      inverse_one ~label:"approx" ~model:approx
        ~find:(Pftk_core.Inverse.loss_for_rate approx)
        c
  | v -> v

let float_bits_eq a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let kind_eq k1 k2 =
  match (k1, k2) with
  | ( Event.Segment_sent { seq = s1; retransmission = r1; cwnd = c1; flight = f1 },
      Event.Segment_sent { seq = s2; retransmission = r2; cwnd = c2; flight = f2 }
    ) ->
      s1 = s2 && r1 = r2 && float_bits_eq c1 c2 && f1 = f2
  | Event.Ack_received { ack = a1 }, Event.Ack_received { ack = a2 } -> a1 = a2
  | ( Event.Timer_fired { backoff = b1; rto = r1 },
      Event.Timer_fired { backoff = b2; rto = r2 } ) ->
      b1 = b2 && float_bits_eq r1 r2
  | ( Event.Fast_retransmit_triggered { seq = s1 },
      Event.Fast_retransmit_triggered { seq = s2 } ) ->
      s1 = s2
  | ( Event.Rtt_sample { sample = s1; srtt = sr1; rto = r1 },
      Event.Rtt_sample { sample = s2; srtt = sr2; rto = r2 } ) ->
      float_bits_eq s1 s2 && float_bits_eq sr1 sr2 && float_bits_eq r1 r2
  | ( Event.Round_started { index = i1; window = w1 },
      Event.Round_started { index = i2; window = w2 } ) ->
      i1 = i2 && float_bits_eq w1 w2
  | Event.Connection_closed, Event.Connection_closed -> true
  | _ -> false

let event_eq e1 e2 =
  float_bits_eq e1.Event.time e2.Event.time && kind_eq e1.Event.kind e2.Event.kind

let serialize_roundtrip (c : Case.t) =
  let check_event acc e =
    match acc with
    | Fail _ -> acc
    | _ -> begin
        let line = Serialize.line_of_event e in
        match Serialize.event_of_line line with
        | Some e' when event_eq e e' -> acc
        | Some e' ->
            failf "round-trip changed %S into %S" line (Serialize.line_of_event e')
        | None -> failf "round-trip lost %S" line
        | exception Serialize.Error err ->
            failf "round-trip rejected %S: %s" line (Serialize.error_message err)
      end
  in
  List.fold_left check_event Pass (c.trace @ c.adversarial)

let delivery_ratio (c : Case.t) =
  let ratio = Pftk_core.Throughput.delivery_ratio c.params c.p in
  if ratio > 0. && ratio <= 1. +. 1e-9 then Pass
  else failf "delivery ratio %.17g outside (0, 1] at p=%h" ratio c.p

let buffer_cap = 100_000

let required_buffer (c : Case.t) =
  let { Case.flows; capacity; base_rtt; fp_target_p; _ } = c in
  let cfg =
    Mf_solver.default ~flows ~capacity ~base_rtt
      ~law:(Mf_law.drop_tail ~capacity:buffer_cap)
  in
  let at_cap = Mf_solver.solve cfg in
  if at_cap.Mf_solver.p > fp_target_p then
    skipf "target p=%h unreachable: even buffer=%d leaves p=%h" fp_target_p
      buffer_cap at_cap.Mf_solver.p
  else begin
    let buffer = Mf_solver.required_buffer ~target_p:fp_target_p cfg in
    let eq = Mf_solver.solve_drop_tail cfg ~buffer in
    if le ~tol:1e-6 eq.Mf_solver.p fp_target_p then Pass
    else
      failf "buffer %d said sufficient but equilibrium p=%.17g > target %.17g"
        buffer eq.Mf_solver.p fp_target_p
  end

let summaries_eq ~at (stream : Analyzer.summary) (posthoc : Analyzer.summary) =
  let float_exact label a b =
    if a = b then None
    else Some (Printf.sprintf "%s: streaming %.17g <> post-hoc %.17g" label a b)
  in
  let float_rel label a b =
    if Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b) then
      None
    else Some (Printf.sprintf "%s: streaming %.17g <> post-hoc %.17g" label a b)
  in
  let int_exact label a b =
    if a = b then None
    else Some (Printf.sprintf "%s: streaming %d <> post-hoc %d" label a b)
  in
  let first_mismatch =
    List.find_map Fun.id
      [
        float_exact "duration" stream.Analyzer.duration posthoc.Analyzer.duration;
        int_exact "packets_sent" stream.Analyzer.packets_sent
          posthoc.Analyzer.packets_sent;
        int_exact "loss_indications" stream.Analyzer.loss_indications
          posthoc.Analyzer.loss_indications;
        int_exact "td_count" stream.Analyzer.td_count posthoc.Analyzer.td_count;
        (if stream.Analyzer.to_by_backoff = posthoc.Analyzer.to_by_backoff then
           None
         else Some "to_by_backoff buckets differ");
        float_exact "observed_p" stream.Analyzer.observed_p
          posthoc.Analyzer.observed_p;
        float_exact "avg_rtt" stream.Analyzer.avg_rtt posthoc.Analyzer.avg_rtt;
        float_rel "avg_t0" stream.Analyzer.avg_t0 posthoc.Analyzer.avg_t0;
        float_exact "send_rate" stream.Analyzer.send_rate
          posthoc.Analyzer.send_rate;
      ]
  in
  match first_mismatch with
  | None -> None
  | Some msg -> Some (Printf.sprintf "after %d events, %s" at msg)

let online_mode mode (c : Case.t) =
  let summary = Pftk_online.Summary.create ~mode () in
  let recorder = Pftk_trace.Recorder.create () in
  let n = List.length c.trace in
  let step = Int.max 1 (n / 8) in
  let mismatch = ref None in
  List.iteri
    (fun i e ->
      Pftk_online.Summary.push summary e;
      Pftk_trace.Recorder.record recorder ~time:e.Event.time e.Event.kind;
      if !mismatch = None && (i mod step = step - 1 || i = n - 1) then
        mismatch :=
          summaries_eq ~at:(i + 1)
            (Pftk_online.Summary.current summary)
            (Analyzer.summarize ~mode recorder))
    c.trace;
  !mismatch

let online_equivalence (c : Case.t) =
  match online_mode `Ground_truth c with
  | Some msg -> failf "ground-truth mode: %s" msg
  | None -> begin
      match online_mode `Infer c with
      | Some msg -> failf "infer mode: %s" msg
      | None -> Pass
    end

(* --- C11: batch evaluation ≡ scalar evaluation --------------------------- *)

module Bcolumns = Pftk_batch.Columns
module Bscan = Pftk_batch.Scan
module Bkernel = Pftk_batch.Kernel
module Bengine = Pftk_batch.Engine

(* The two rejections only the batch side can express: the scalar [wm]
   is an [int], so it can be neither fractional nor above the
   float-sentinel.  Everything else the scan rejects, the scalar guards
   must reject with the identical message. *)
let batch_only_wm_message msg =
  String.equal msg "batch: wm must be a whole number of packets"
  || String.equal msg
       "batch: wm exceeds the unlimited-window sentinel (use wm <= 0 for \
        unlimited)"

let scalar_eval kernel ~p ~rtt ~t0 ~wm =
  match Bkernel.scalar_reference kernel ~p ~rtt ~t0 ~wm with
  | v -> Ok v
  | exception Invalid_argument msg -> Error msg

let adversarial_floats (c : Case.t) =
  let of_kind = function
    | Event.Segment_sent { cwnd; _ } -> [ cwnd ]
    | Event.Timer_fired { rto; _ } -> [ rto ]
    | Event.Rtt_sample { sample; srtt; rto } -> [ sample; srtt; rto ]
    | Event.Round_started { window; _ } -> [ window ]
    | Event.Ack_received _ | Event.Fast_retransmit_triggered _
    | Event.Connection_closed ->
        []
  in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take 6
    (List.concat_map
       (fun e -> e.Event.time :: of_kind e.Event.kind)
       c.adversarial)

let batch_scalar_equiv (c : Case.t) =
  let { Params.rtt; t0; b; _ } = c.params in
  let wmf = float_of_int c.params.Params.wm in
  let full_kernel = Bkernel.make ~b Bkernel.Full in
  let models =
    [
      full_kernel;
      Bkernel.make ~b Bkernel.Full_approx_q;
      Bkernel.make ~b Bkernel.Approximate;
      Bkernel.make ~b Bkernel.Td_only;
      Bkernel.make ~b (Bkernel.Tfrc (Float.max 1e-3 (t0 /. rtt)));
    ]
  in
  (* Candidate rows: the case's own losses, then adversarial floats
     (NaN, infinities, signed zeros, subnormals, fractional and
     out-of-range values, plus whatever the adversarial trace carries)
     substituted into each field in turn. *)
  let specials =
    [
      Float.nan;
      Float.infinity;
      Float.neg_infinity;
      -0.;
      0.;
      -1.;
      1.;
      1.5;
      0x1p-1074;
      0x1p-1022;
      Float.max_float;
      0.3;
    ]
    @ adversarial_floats c
  in
  let rows =
    (c.p, rtt, t0, wmf)
    :: (c.p2, rtt, t0, wmf)
    :: (c.target_p, rtt, t0, wmf)
    :: (c.p, rtt, t0, Bcolumns.unlimited_wm)
    :: List.concat_map
         (fun s ->
           [ (s, rtt, t0, wmf); (c.p, s, t0, wmf); (c.p, rtt, s, wmf);
             (c.p, rtt, t0, s) ])
         specials
  in
  (* Rejection parity: a scan rejection must mirror the scalar guard
     (same message, [Params.validate] order) unless it is one of the
     two batch-only wm demands. *)
  let classify acc (p, rtt, t0, wm) =
    match acc with
    | Error _ -> acc
    | Ok accepted -> begin
        match Bscan.check_row ~p ~rtt ~t0 ~wm with
        | Error (_field, msg) when batch_only_wm_message msg -> Ok accepted
        | Error (_field, msg) -> begin
            match scalar_eval full_kernel ~p ~rtt ~t0 ~wm with
            | Error m when String.equal m msg -> Ok accepted
            | Error m ->
                Error
                  (Printf.sprintf
                     "scan rejected (p=%h rtt=%h t0=%h wm=%h) with %S but the \
                      scalar guard raised %S"
                     p rtt t0 wm msg m)
            | Ok v ->
                Error
                  (Printf.sprintf
                     "scan rejected (p=%h rtt=%h t0=%h wm=%h) with %S but the \
                      scalar path accepted (rate %.17g)"
                     p rtt t0 wm msg v)
          end
        | Ok () -> Ok ((p, rtt, t0, wm) :: accepted)
      end
  in
  match List.fold_left classify (Ok []) rows with
  | Error msg -> Fail msg
  | Ok accepted_rev ->
      let accepted = Array.of_list (List.rev accepted_rev) in
      let n = Array.length accepted in
      let cols = Bcolumns.create n in
      Array.iteri
        (fun i (p, rtt, t0, wm) -> Bcolumns.set cols i ~p ~rtt ~t0 ~wm)
        accepted;
      (* Bit-for-bit equality of every accepted row under every kernel. *)
      let check_model acc kernel =
        match acc with
        | Fail _ -> acc
        | _ ->
            let out = Bengine.run ~jobs:1 kernel cols in
            let rec rowwise i =
              if i >= n then Pass
              else
                let p, rtt, t0, wm = accepted.(i) in
                match scalar_eval kernel ~p ~rtt ~t0 ~wm with
                | Error m ->
                    failf
                      "%s: scan accepted (p=%h rtt=%h t0=%h wm=%h) but the \
                       scalar path rejected it: %s"
                      (Bkernel.name kernel) p rtt t0 wm m
                | Ok v ->
                    let bv = Float.Array.get out i in
                    if float_bits_eq v bv then rowwise (i + 1)
                    else
                      failf
                        "%s: batch %.17g (%Lx) <> scalar %.17g (%Lx) at \
                         (p=%h rtt=%h t0=%h wm=%h)"
                        (Bkernel.name kernel) bv (Int64.bits_of_float bv) v
                        (Int64.bits_of_float v) p rtt t0 wm
            in
            rowwise 0
      in
      List.fold_left check_model Pass models

(* --- C12: mean-field degenerate limits ----------------------------------- *)

(* Two degenerate corners tie the mean-field backend to the closed-form
   model.  (A) One flow behind a constant drop law on an unconstrained
   link must reproduce eq. (32)/(33) itself — exactly, up to the float
   round-trip of re-deriving t0 from t0/rtt.  (B) The window histogram's
   stationary distribution under constant loss must land on the
   1/sqrt(p) scaling law: E[W^2].bp/2 = 1 (the drop-rate balance the
   derivation of eq. (31) rests on) and E[W].sqrt(3bp/8) at the
   calibrated 0.804 (a pure shape constant of the halving dynamics:
   uniform-seeded runs land on 0.8044 across b in 1..3 and p in
   [1e-4, 0.05]; the window pins it to [0.75, 0.88]). *)
let meanfield_degenerate (c : Case.t) =
  let { Params.rtt; t0; b; wm; _ } = c.params in
  if t0 < 1e-3 then skipf "t0=%g below the solver's 1e-3 floor" t0
  else begin
    let cfg =
      {
        (Mf_solver.default ~flows:1 ~capacity:1e9 ~base_rtt:rtt
           ~law:(Mf_law.constant ~p:c.p))
        with
        Mf_solver.b;
        wm = (if wm = Params.unlimited_window then 0 else wm);
        t0_factor = t0 /. rtt;
      }
    in
    let close a b =
      Float.abs (a -. b) <= 1e-6 *. Float.max (Float.abs a) (Float.abs b)
    in
    let check_law acc (rate_law, label, expect) =
      match acc with
      | Fail _ -> acc
      | _ ->
          let eq = Mf_solver.solve { cfg with Mf_solver.rate_law } in
          if close eq.Mf_solver.per_flow_rate expect then acc
          else
            failf "%s: solver rate %.17g <> model rate %.17g at p=%h" label
              eq.Mf_solver.per_flow_rate expect c.p
    in
    let part_a =
      List.fold_left check_law Pass
        [
          (Mf_solver.Full, "full", Pftk_core.Full_model.send_rate c.params c.p);
          ( Mf_solver.Approximate,
            "approx",
            Pftk_core.Approx_model.send_rate c.params c.p );
        ]
    in
    match part_a with
    | (Fail _ | Skip _) as v -> v
    | Pass ->
        if c.p > 0.05 then Pass (* histogram calibrated for p <= 0.05 *)
        else begin
          let bf = float_of_int b in
          let wmax = 3. *. sqrt (2. /. (bf *. c.p)) in
          let h = Mf_hist.create ~bins:128 ~wmax () in
          let w0 = sqrt (1.5 /. (bf *. c.p)) in
          Mf_hist.reset h ~mean:w0 ~spread:(0.5 *. w0);
          let drift = 1. /. (bf *. rtt) in
          let dt = Mf_hist.max_dt h ~drift ~p:c.p ~rtt in
          for _ = 1 to 400 do
            Mf_hist.step h ~dt ~drift ~p:c.p ~rtt
          done;
          let m2_norm = Mf_hist.second_moment h *. bf *. c.p /. 2. in
          let mean_norm = Mf_hist.mean h *. sqrt (3. *. bf *. c.p /. 8.) in
          if m2_norm < 0.97 || m2_norm > 1.03 then
            failf
              "stationary E[W^2].bp/2 = %.17g outside [0.97, 1.03] (b=%d p=%h)"
              m2_norm b c.p
          else if mean_norm < 0.75 || mean_norm > 0.88 then
            failf
              "stationary E[W].sqrt(3bp/8) = %.17g outside [0.75, 0.88] (b=%d \
               p=%h)"
              mean_norm b c.p
          else Pass
        end
  end

let corpus_roundtrip (c : Case.t) =
  match Case.of_string (Case.to_string c) with
  | Error msg -> failf "case text did not parse back: %s" msg
  | Ok c' when Case.equal c c' -> Pass
  | Ok _ -> Fail "case text parsed back to a different case"

let all =
  [
    {
      id = "C1";
      name = "window-cap";
      description = "capped models never exceed Wm/RTT";
      check = window_cap;
    };
    {
      id = "C2";
      name = "ordering-tdonly";
      description = "full model <= TD-only capped rate";
      check = ordering_tdonly;
    };
    {
      id = "C3";
      name = "monotone-p";
      description = "eq. (28) send rate non-increasing in p";
      check = monotone_p;
    };
    {
      id = "C4";
      name = "markov-envelope";
      description = "Markov/full ratio within [0.6, 1.05]";
      check = markov_envelope;
    };
    {
      id = "C5";
      name = "inverse-roundtrip";
      description = "loss_for_rate attains the target at the largest p";
      check = inverse_roundtrip;
    };
    {
      id = "C6";
      name = "serialize-roundtrip";
      description = "event line encoding is a bit-exact round trip";
      check = serialize_roundtrip;
    };
    {
      id = "C7";
      name = "delivery-ratio";
      description = "throughput <= send rate, ratio in (0, 1]";
      check = delivery_ratio;
    };
    {
      id = "C8";
      name = "required-buffer";
      description = "required_buffer's buffer meets the loss target";
      check = required_buffer;
    };
    {
      id = "C9";
      name = "online-equivalence";
      description = "streaming Summary matches post-hoc Analyzer";
      check = online_equivalence;
    };
    {
      id = "C10";
      name = "corpus-roundtrip";
      description = "Case text encoding round-trips";
      check = corpus_roundtrip;
    };
    {
      id = "C11";
      name = "batch-scalar-equiv";
      description = "batch kernels match scalar models bit-for-bit";
      check = batch_scalar_equiv;
    };
    {
      id = "C12";
      name = "meanfield-degenerate";
      description = "mean-field single-flow limit matches eq. (32)/(33)";
      check = meanfield_degenerate;
    };
  ]

let find key =
  let key = String.lowercase_ascii key in
  List.find_opt
    (fun inv ->
      String.equal (String.lowercase_ascii inv.id) key
      || String.equal inv.name key)
    all

let run inv case =
  try inv.check case
  with e -> Fail (Printf.sprintf "exception: %s" (Printexc.to_string e))
