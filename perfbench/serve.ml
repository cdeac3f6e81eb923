(* Workload "serve": a seeded stream of query lines through
   Pftk_batch.Stream.run with the eq. (32) full kernel — the backend of
   `pftk serve --batch`.  p is log-uniform in [1e-4, 0.1] in random
   order, RTT and T0 are spread over two decades, wm cycles
   0/8/32/1024, and about 1% of the lines are malformed or out of
   domain, so parsing, formatting and the reject path dominate and the
   kernel is a small share.

   Every answer is checked: each valid line must be bit-identical to
   Kernel.scalar_reference on the same text, each bad line must get the
   "nan" sentinel. *)

module Batch = Pftk_batch

let lines = 200_000
let bad_share = 0.01
let kernel () = Batch.Kernel.make Batch.Kernel.Full
let wm_cycle = [| 0; 8; 32; 1024 |]

(* Malformed or out-of-domain lines, one per rejection route. *)
let bad_line st =
  match Random.State.int st 6 with
  | 0 -> "not a query"
  | 1 -> "0.01 0.2 2"
  | 2 -> "1.5 0.2 2 8"
  | 3 -> "0.01 -0.2 2 8"
  | 4 -> "0.01 0.2 2 8.5"
  | _ -> "nan 0.2 2 8"

type input = {
  path : string;
  expected : floatarray;  (** NaN marks a line that must be rejected. *)
  bad : int;
  bytes : int;
}

(* Writes the stream and computes each line's reference answer from the
   same text the stream will parse. *)
let setup (o : Common.opts) =
  let st = Common.rng ~seed:o.seed "serve" in
  let k = kernel () in
  let expected = Float.Array.make lines Float.nan in
  let buf = Buffer.create (lines * 48) in
  let bad = ref 0 in
  for i = 0 to lines - 1 do
    if Random.State.float st 1. < bad_share then begin
      incr bad;
      Buffer.add_string buf (bad_line st)
    end
    else begin
      let p = Common.log_uniform st ~lo:1e-4 ~hi:0.1 in
      let rtt = Common.log_uniform st ~lo:0.01 ~hi:1.0 in
      let t0 = rtt *. (2. +. Random.State.float st 8.) in
      let wm = wm_cycle.(i mod Array.length wm_cycle) in
      let text = Printf.sprintf "%.6g %.6g %.6g %d" p rtt t0 wm in
      Buffer.add_string buf text;
      let f = float_of_string in
      match String.split_on_char ' ' text with
      | [ p; rtt; t0; _ ] ->
          Float.Array.set expected i
            (Batch.Kernel.scalar_reference k ~p:(f p) ~rtt:(f rtt) ~t0:(f t0)
               ~wm:(if wm = 0 then Batch.Columns.unlimited_wm else float_of_int wm))
      | _ -> assert false
    end;
    Buffer.add_char buf '\n'
  done;
  let path = Filename.concat o.work_dir "serve-input.txt" in
  Common.write_file path (Buffer.contents buf);
  { path; expected; bad = !bad; bytes = Buffer.length buf }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One check per line of [output], plus one on the stream's own counts. *)
let verify (o : Common.opts) tally input ~output (outcome : Batch.Stream.outcome) =
  Common.check tally
    (outcome.total = lines && outcome.failed = input.bad)
    ~what:
      (Printf.sprintf "serve outcome total=%d failed=%d, expected %d/%d"
         outcome.total outcome.failed lines input.bad);
  let ic = open_in_bin output in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      for i = 0 to lines - 1 do
        let line = input_line ic in
        let want = Float.Array.get input.expected i in
        (* The fault turns line 0's answer into one the stream cannot
           give, whether the line is valid or one of the bad ones. *)
        let want = if o.fault && i = 0 then (if Float.is_nan want then 0. else want +. 1.) else want in
        let ok =
          if Float.is_nan want then String.equal line Batch.Serve.sentinel
          else
            match float_of_string_opt line with
            | Some got -> same_bits got want
            | None -> false
        in
        Common.check tally ok ~what:(Printf.sprintf "serve line %d: got %S" (i + 1) line)
      done)

let with_files input ~output ~err f =
  let ic = open_in_bin input.path in
  let oc = open_out_bin output in
  let ec = open_out_bin err in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc;
      close_out ec)
    (fun () -> f ic oc ec)

let stream_pass (o : Common.opts) input ~output ~err =
  with_files input ~output ~err (fun ic oc ec ->
      Batch.Stream.run ~jobs:o.jobs (kernel ()) ic oc ~err:ec)

let paths (o : Common.opts) =
  (Filename.concat o.work_dir "serve-output.txt", Filename.concat o.work_dir "serve-err.txt")

let run (o : Common.opts) tally =
  let output, err = paths o in
  let input, setups, passes =
    Common.measure o ~reps:14
      ~setup:(fun () -> Common.one_step (fun () -> setup o))
      ~pass:(fun input ->
        let outcome, dt = Common.time (fun () -> stream_pass o input ~output ~err) in
        verify o tally input ~output outcome;
        [ dt ])
  in
  {
    Common.setups;
    passes;
    input =
      [
        ("lines", string_of_int lines);
        ("rejected_lines", string_of_int input.bad);
        ("rejected_share", Printf.sprintf "%.4f" (float_of_int input.bad /. float_of_int lines));
        ("bytes", string_of_int input.bytes);
        ("p_order", "random");
      ];
  }

(* Stream.run rebuilt from the same public calls, one span per phase per
   chunk, so the stream's time splits by layer.  Its output must equal
   the stream's. *)
let mirror (o : Common.opts) input ~output ~err =
  let k = kernel () in
  let chunk = Batch.Engine.default_chunk in
  let total = ref 0 and failed = ref 0 and chunks = ref 0 in
  with_files input ~output ~err (fun ic oc ec ->
      let rec loop () =
        let batch =
          Span.with_ "batch.stream.read" (fun () ->
              let acc = ref [] and n = ref 0 in
              (try
                 while !n < chunk do
                   acc := input_line ic :: !acc;
                   incr n
                 done
               with End_of_file -> ());
              Array.of_list (List.rev !acc))
        in
        if Array.length batch > 0 then begin
          incr chunks;
          let base = !total in
          total := !total + Array.length batch;
          let parsed =
            Span.with_ "batch.serve.parse" (fun () -> Array.map Batch.Serve.parse_line batch)
          in
          let accepted =
            Span.with_ "batch.scan.check" (fun () ->
                Array.mapi
                  (fun i r ->
                    let reject msg =
                      incr failed;
                      Printf.fprintf ec "pftk serve: line %d: %s\n" (base + i + 1) msg;
                      None
                    in
                    match r with
                    | Error msg -> reject msg
                    | Ok (q : Batch.Serve.query) -> (
                        match Batch.Scan.check_row ~p:q.p ~rtt:q.rtt ~t0:q.t0 ~wm:q.wm with
                        | Ok () -> Some q
                        | Error (_, msg) -> reject msg))
                  parsed)
          in
          let cols =
            Span.with_ "batch.columns.pack" (fun () ->
                let n = Array.fold_left (fun n q -> if Option.is_some q then n + 1 else n) 0 accepted in
                let cols = Batch.Columns.create n in
                let j = ref 0 in
                Array.iter
                  (function
                    | Some (q : Batch.Serve.query) ->
                        Batch.Columns.set cols !j ~p:q.p ~rtt:q.rtt ~t0:q.t0 ~wm:q.wm;
                        incr j
                    | None -> ())
                  accepted;
                cols)
          in
          let out =
            Span.with_ "batch.engine.run" (fun () -> Batch.Engine.run ~jobs:o.jobs ~chunk k cols)
          in
          let text =
            Span.with_ "batch.serve.format" (fun () ->
                let buf = Buffer.create (Array.length batch * 24) in
                let j = ref 0 in
                Array.iter
                  (fun q ->
                    (match q with
                    | Some _ ->
                        Buffer.add_string buf (Batch.Serve.format_rate (Float.Array.get out !j));
                        incr j
                    | None -> Buffer.add_string buf Batch.Serve.sentinel);
                    Buffer.add_char buf '\n')
                  accepted;
                Buffer.contents buf)
          in
          Span.with_ "batch.stream.write" (fun () -> output_string oc text);
          loop ()
        end
      in
      loop ();
      Span.with_ "batch.stream.write" (fun () -> flush oc));
  ({ Batch.Stream.total = !total; failed = !failed }, !chunks)

let phases =
  [
    "batch.stream.read";
    "batch.serve.parse";
    "batch.scan.check";
    "batch.columns.pack";
    "batch.engine.run";
    "batch.serve.format";
    "batch.stream.write";
  ]

(* The library's own Stream.run is run and checked; the per-phase split
   and the tracing overhead both come from the mirror, traced against
   itself untraced. *)
let traced (o : Common.opts) tally =
  let input = Span.with_ "serve.setup" (fun () -> setup o) in
  let output, err = paths o in
  (* Warm-up: the first pass of a process also grows the heap. *)
  ignore (Span.with_ "serve.warmup" (fun () -> Span.paused (fun () -> mirror o input ~output ~err)));
  let streamed = Span.with_ "serve.pass" (fun () -> stream_pass o input ~output ~err) in
  Span.with_ "serve.verify" (fun () -> verify o tally input ~output streamed);
  let _, untraced =
    Span.with_ "serve.mirror.untraced" (fun () ->
        Span.paused (fun () -> Common.time (fun () -> mirror o input ~output ~err)))
  in
  let outcome, chunks =
    Span.with_ "serve.mirror" (fun () -> mirror o input ~output ~err)
  in
  Span.with_ "serve.verify" (fun () -> verify o tally input ~output outcome);
  let traced = Span.total "serve.mirror" in
  List.map (fun name -> (name ^ "_s", Span.total_self name)) phases
  @ [
      ("batch.stream.lines", float_of_int outcome.total);
      ("batch.stream.rejected", float_of_int outcome.failed);
      ("batch.stream.chunks", float_of_int chunks);
      ( "serve.coverage",
        List.fold_left (fun acc n -> acc +. Span.total n) 0. phases /. traced );
      ("tracing.serve.overhead_share", (traced -. untraced) /. untraced);
    ]
