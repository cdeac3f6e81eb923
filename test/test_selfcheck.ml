(* Tests for lib/selfcheck: generator determinism and domain, the corpus
   text format, the invariant catalog on seeded cases, the shrinker, the
   parallel runner's jobs-independence, replay of the pinned counterexample
   corpus under test/corpus/, and the CLI's behaviour on corrupt traces. *)

module Case = Pftk_selfcheck.Case
module Gen = Pftk_selfcheck.Gen
module Invariant = Pftk_selfcheck.Invariant
module Shrink = Pftk_selfcheck.Shrink
module Runner = Pftk_selfcheck.Runner

let case name f = Alcotest.test_case name `Quick f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.equal (String.sub s i n) sub || scan (i + 1)) in
  scan 0

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Gen ----------------------------------------------------------------- *)

let test_gen_deterministic () =
  let a = Gen.case ~seed:42L ~index:17 in
  let b = Gen.case ~seed:42L ~index:17 in
  Alcotest.(check bool) "same (seed, index), same case" true (Case.equal a b);
  let c = Gen.case ~seed:42L ~index:18 in
  Alcotest.(check bool) "different index, different case" false (Case.equal a c);
  let d = Gen.case ~seed:43L ~index:17 in
  Alcotest.(check bool) "different seed, different case" false (Case.equal a d)

let test_gen_domain () =
  for index = 0 to 49 do
    let c = Gen.case ~seed:1L ~index in
    Alcotest.(check bool) "p in (0,1)" true (c.Case.p > 0. && c.Case.p < 1.);
    Alcotest.(check bool) "p2 in (p,1)" true
      (c.Case.p2 > c.Case.p && c.Case.p2 < 1.);
    Alcotest.(check bool) "flows >= 1" true (c.Case.flows >= 1);
    let last = ref Float.neg_infinity in
    List.iter
      (fun e ->
        let t = e.Pftk_trace.Event.time in
        if not (Float.is_finite t) then Alcotest.fail "non-finite trace time";
        if t < !last then Alcotest.fail "trace time went backwards";
        last := t)
      c.Case.trace
  done

(* --- Case corpus format --------------------------------------------------- *)

let test_case_roundtrip () =
  for index = 0 to 19 do
    let c = Gen.case ~seed:5L ~index in
    match Case.of_string (Case.to_string c) with
    | Ok c' -> Alcotest.(check bool) "roundtrip" true (Case.equal c c')
    | Error msg -> Alcotest.failf "case %d did not parse back: %s" index msg
  done

let test_case_rejects_garbage () =
  (match Case.of_string "rtt nope\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad float accepted");
  (match Case.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty text accepted");
  match Case.of_string "wrong 1\n" with
  | Error msg ->
      Alcotest.(check bool) "names the expected field" true
        (contains ~sub:"rtt" msg)
  | Ok _ -> Alcotest.fail "wrong field accepted"

(* --- Invariants ------------------------------------------------------------ *)

let test_invariants_hold () =
  for index = 0 to 49 do
    let c = Gen.case ~seed:42L ~index in
    List.iter
      (fun inv ->
        match Invariant.run inv c with
        | Invariant.Fail reason ->
            Alcotest.failf "%s (%s) failed on case %d: %s" inv.Invariant.id
              inv.Invariant.name index reason
        | Invariant.Pass | Invariant.Skip _ -> ())
      Invariant.all
  done

let test_invariant_find () =
  (match Invariant.find "C5" with
  | Some inv -> Alcotest.(check string) "by id" "inverse-roundtrip" inv.Invariant.name
  | None -> Alcotest.fail "C5 not found");
  (match Invariant.find "window-cap" with
  | Some inv -> Alcotest.(check string) "by name" "C1" inv.Invariant.id
  | None -> Alcotest.fail "window-cap not found");
  (match Invariant.find "c9" with
  | Some _ -> ()
  | None -> Alcotest.fail "lookup should be case-insensitive");
  match Invariant.find "C99" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown id resolved"

let test_run_catches_exceptions () =
  let boom =
    {
      Invariant.id = "X1";
      name = "boom";
      description = "always raises";
      check = (fun _ -> failwith "kaboom");
    }
  in
  match Invariant.run boom (Gen.case ~seed:1L ~index:0) with
  | Invariant.Fail reason ->
      Alcotest.(check bool) "reason carries the exception" true
        (contains ~sub:"kaboom" reason)
  | Invariant.Pass | Invariant.Skip _ -> Alcotest.fail "expected Fail"

(* --- Shrink ---------------------------------------------------------------- *)

let test_shrink_minimizes () =
  let c0 = Gen.case ~seed:9L ~index:3 in
  (* A predicate every case satisfies: the shrinker should drive the case
     to its global fixpoint (empty traces, one flow). *)
  let keep _ = true in
  let c1 = Shrink.minimize ~keep c0 in
  Alcotest.(check bool) "strictly smaller" true (Shrink.size c1 < Shrink.size c0);
  Alcotest.(check int) "trace dropped" 0 (List.length c1.Case.trace);
  Alcotest.(check int) "adversarial dropped" 0 (List.length c1.Case.adversarial);
  Alcotest.(check int) "one flow" 1 c1.Case.flows;
  (* Fixpoint: shrinking the shrunk case goes nowhere. *)
  Alcotest.(check bool) "idempotent" true
    (Case.equal c1 (Shrink.minimize ~keep c1))

let test_shrink_preserves_predicate () =
  let c0 = Gen.case ~seed:9L ~index:4 in
  let threshold = Shrink.size c0 / 2 in
  let keep c = Shrink.size c >= threshold in
  let c1 = Shrink.minimize ~keep c0 in
  Alcotest.(check bool) "still kept" true (keep c1);
  Alcotest.(check bool) "no larger" true (Shrink.size c1 <= Shrink.size c0)

let test_shrink_deterministic () =
  let c0 = Gen.case ~seed:9L ~index:5 in
  let keep c = c.Case.params.Pftk_core.Params.rtt > 0. in
  let a = Shrink.minimize ~keep c0 in
  let b = Shrink.minimize ~keep c0 in
  Alcotest.(check bool) "same fixpoint" true (Case.equal a b)

(* --- Runner ---------------------------------------------------------------- *)

let report_string config =
  Format.asprintf "%a" Runner.pp_report (Runner.run config)

let test_runner_jobs_deterministic () =
  let config jobs = { Runner.cases = 30; seed = 11L; jobs; only = None } in
  Alcotest.(check string) "jobs 1 = jobs 4" (report_string (config 1))
    (report_string (config 4))

let test_runner_only () =
  let report =
    Runner.run { Runner.cases = 5; seed = 11L; jobs = 1; only = Some "C6" }
  in
  Alcotest.(check int) "one invariant" 1 (List.length report.Runner.checked);
  Alcotest.(check bool) "ok" true (Runner.ok report);
  Alcotest.check_raises "unknown invariant"
    (Invalid_argument "Runner: unknown invariant \"C99\"") (fun () ->
      ignore (Runner.catalog ~only:(Some "C99")))

let test_counterexample_roundtrip () =
  let inv =
    match Invariant.all with i :: _ -> i | [] -> assert false
  in
  let shrunk = Gen.case ~seed:3L ~index:0 in
  let failure =
    {
      Runner.index = 7;
      invariant = inv;
      reason = "original reason";
      shrunk;
      shrunk_reason = "multi\nline reason";
    }
  in
  let text = Runner.counterexample_to_string ~seed:42L failure in
  Alcotest.(check bool) "header names the invariant" true
    (contains ~sub:inv.Invariant.id text);
  match Case.of_string text with
  | Ok c -> Alcotest.(check bool) "parses back to the case" true (Case.equal c shrunk)
  | Error msg -> Alcotest.failf "counterexample text did not parse: %s" msg

(* --- Corpus replay --------------------------------------------------------- *)

(* dune runs tests with cwd = _build/default/test; the corpus is a dep. *)
let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort String.compare

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool) "at least the three pinned bugs" true
    (List.length files >= 3);
  List.iter
    (fun file ->
      match Case.of_string (read_file (Filename.concat "corpus" file)) with
      | Error msg -> Alcotest.failf "%s does not parse: %s" file msg
      | Ok c ->
          List.iter
            (fun inv ->
              match Invariant.run inv c with
              | Invariant.Fail reason ->
                  Alcotest.failf "%s regressed on %s (%s): %s" file
                    inv.Invariant.id inv.Invariant.name reason
              | Invariant.Pass | Invariant.Skip _ -> ())
            Invariant.all)
    files

(* --- CLI ------------------------------------------------------------------- *)

let test_cli_corrupt_trace () =
  let code =
    Sys.command
      "../bin/pftk.exe analyze --trace corrupt.trace 1>/dev/null 2>cli_stderr.txt"
  in
  Alcotest.(check int) "nonzero exit" 1 code;
  let stderr = read_file "cli_stderr.txt" in
  Alcotest.(check bool) "names the file" true
    (contains ~sub:"corrupt.trace" stderr);
  Alcotest.(check bool) "locates the line" true (contains ~sub:"line 3" stderr);
  Alcotest.(check bool) "quotes the offending content" true
    (contains ~sub:"0.5 bogus 1 2 3" stderr);
  Alcotest.(check bool) "no backtrace" true
    (not (contains ~sub:"Fatal error" stderr))

(* A trace file that cannot be written fails like one that cannot be
   read: exit 1 and one line naming the file once, not an uncaught
   exception (exit 125) after the whole simulation.  The path under a
   regular file cannot be opened; /dev/full, where there is one, opens
   but fails the write. *)
let test_cli_unwritable_trace () =
  let fails args path reason =
    let code =
      Sys.command (Printf.sprintf "../bin/pftk.exe %s 1>/dev/null 2>cli_stderr.txt" args)
    in
    Alcotest.(check int) (args ^ ": exit 1") 1 code;
    Alcotest.(check string) (args ^ ": message")
      (Printf.sprintf "pftk: cannot use trace file %s: %s\n" path reason)
      (read_file "cli_stderr.txt")
  in
  let dump path = Printf.sprintf "simulate --dump-trace %s --duration 10" path in
  fails (dump "corrupt.trace/out.trace") "corrupt.trace/out.trace" "Not a directory";
  if Sys.file_exists "/dev/full" then fails (dump "/dev/full") "/dev/full" "No space left on device";
  fails "analyze --trace missing.trace" "missing.trace" "No such file or directory";
  fails "live --trace missing.trace" "missing.trace" "No such file or directory"

(* A trace whose first time is negative: the recorder [analyze] loads it
   into starts its clock at 0, so the reader refuses the line (exit 1),
   where it once escaped as [Invalid_argument] (exit 125).  [live] streams
   without a recorder and takes any first time. *)
let test_cli_negative_trace_time () =
  let path = "cli_negative.trace" in
  let oc = open_out path in
  output_string oc "-0x1p+0 ack 1\n";
  close_out oc;
  let run args = Sys.command (Printf.sprintf "../bin/pftk.exe %s 1>/dev/null 2>cli_stderr.txt" args) in
  Alcotest.(check int) "analyze: exit 1" 1 (run ("analyze --trace " ^ path));
  Alcotest.(check string) "analyze: message"
    "pftk: cannot use trace file cli_negative.trace: line 1: negative time: -1 s\n"
    (read_file "cli_stderr.txt");
  Alcotest.(check int) "live: exit 0" 0 (run ("live --trace " ^ path));
  Sys.remove path

(* Path parameters the model rejects are bad arguments: a one-line
   message and exit 2, never an uncaught exception (exit 125), and
   nothing on stdout, except the table header a run printed before it
   met the bad value. *)
let test_cli_bad_path_parameters () =
  let prints ~stdout ~suffix (args, reason) =
    let code =
      Sys.command
        (Printf.sprintf "../bin/pftk.exe %s %s </dev/null 1>cli_stdout.txt 2>cli_stderr.txt"
           args suffix)
    in
    Alcotest.(check int) (args ^ ": exit 2") 2 code;
    Alcotest.(check string) (args ^ ": message") ("pftk: " ^ reason ^ "\n")
      (read_file "cli_stderr.txt");
    Alcotest.(check string) (args ^ ": stdout") stdout (read_file "cli_stdout.txt")
  in
  let rejects = prints ~stdout:"" in
  List.iter (rejects ~suffix:"--duration 1")
    [
      ("live --t0 0", "Params: t0 must be positive");
      ("live --rtt nan", "Params: rtt must be positive");
      ("live -b 0", "Params: b must be >= 1");
      ("live --interval 0", "Predictor.create: interval must be positive");
      ("live -p 2", "Loss_process.round_correlated: p outside [0, 1)");
      ("simulate -p 2", "Loss_process.round_correlated: p outside [0, 1)");
    ];
  (* Subcommands without --duration, and bad --duration values. *)
  List.iter (rejects ~suffix:"")
    [
      ("rate --t0 0", "Params: t0 must be positive");
      ("rate -p 2", "loss probability p=2 outside (0, 1)");
      ("rate --model bogus", "unknown model \"bogus\"");
      ("throughput -p nan", "loss probability p=nan outside (0, 1)");
      ("latency -p 2", "loss probability p=2 outside (0, 1)");
      ("tfrc -p 2", "loss probability p=2 outside (0, 1)");
      ("tfrc --rtt 0", "Params: rtt must be positive");
      ("tfrc --rtt=-1", "Params: rtt must be positive");
      ("tfrc --rtt nan", "Params: rtt must be positive");
      ("tfrc --rtt inf", "--rtt must be finite");
      ("serve --chunk 0", "Batch.Stream.run: chunk must be >= 1");
      ("serve -b 0", "Batch.Kernel.make: b must be >= 1");
      ("serve --model tfrc --t0-factor nan", "Batch.Kernel.make: t0_factor must be positive");
      ("serve --model bogus", "unknown model \"bogus\"");
      ( "serve --model markov",
        "model \"markov\" has no batch kernel (batch models: full, full-approx-q, \
         approximate, td-only, tfrc)" );
      ("bench-batch --model bogus", "unknown model \"bogus\"");
      ("bench-batch --rows 0", "--rows must be >= 1");
      ("simulate --duration=-1", "Round_sim.run: duration must be positive");
      ("simulate --duration nan", "Round_sim.run: duration must be positive");
      ("live --duration=-5", "Round_sim.run: duration must be positive");
      ("simulate --duration inf", "Round_sim.run: duration must be finite");
      ("live --duration inf", "Round_sim.run: duration must be finite");
      ("meanfield --flows 0", "Solver.solve: flows must be >= 1");
      ("meanfield --capacity=-5", "Solver.solve: capacity must be positive");
      ("meanfield --capacity nan", "Solver.solve: capacity must be positive");
      ("meanfield --capacity inf", "Solver.solve: capacity must be finite");
      ("meanfield --base-rtt=0", "Solver.solve: base_rtt must be positive");
      ("meanfield --base-rtt inf", "Solver.solve: base_rtt must be finite");
      ("meanfield --damping=nan", "Solver.solve: damping outside (0, 1]");
      ("meanfield --damping 5", "Solver.solve: damping outside (0, 1]");
      ("meanfield --red-weight=nan", "Queue_law.red: weight outside (0, 1]");
      ("meanfield --red-maxp=2", "Queue_law.red: max_probability outside (0, 1]");
      ( "meanfield --law constant --constant-p=2",
        "Queue_law.constant: p outside [0, 1)" );
      ("meanfield -b 0", "Solver.solve: b must be >= 1");
      ("meanfield --max-solver-seconds nan", "--max-solver-seconds must be >= 0");
      ("meanfield --max-solver-seconds=-1", "--max-solver-seconds must be >= 0");
    ];
  prints ~suffix:""
    ~stdout:"TFRC controller under p=0.01, RTT=1e+12s:\n   epoch   rate pkt/s       est. p\n"
    ("tfrc --rtt 1e12", "epoch 1 would send 1e+12 packets, over the limit of 10000000")

let test_cli_selfcheck_smoke () =
  let code =
    Sys.command
      "../bin/pftk.exe selfcheck --cases 5 --seed 42 --jobs 1 >/dev/null 2>&1"
  in
  Alcotest.(check int) "exit 0" 0 code;
  let bad =
    Sys.command
      "../bin/pftk.exe selfcheck --cases 5 --invariant C99 >/dev/null 2>&1"
  in
  Alcotest.(check int) "unknown invariant exits 2" 2 bad

let () =
  Alcotest.run "pftk_selfcheck"
    [
      ( "gen",
        [
          case "deterministic" test_gen_deterministic;
          case "domain" test_gen_domain;
        ] );
      ( "case-format",
        [
          case "roundtrip" test_case_roundtrip;
          case "rejects garbage" test_case_rejects_garbage;
        ] );
      ( "invariants",
        [
          case "hold on seeded cases" test_invariants_hold;
          case "find" test_invariant_find;
          case "run catches exceptions" test_run_catches_exceptions;
        ] );
      ( "shrink",
        [
          case "minimizes" test_shrink_minimizes;
          case "preserves predicate" test_shrink_preserves_predicate;
          case "deterministic" test_shrink_deterministic;
        ] );
      ( "runner",
        [
          case "jobs-independent" test_runner_jobs_deterministic;
          case "invariant selection" test_runner_only;
          case "counterexample format" test_counterexample_roundtrip;
        ] );
      ("corpus", [ case "replay" test_corpus_replay ]);
      ( "cli",
        [
          case "corrupt trace" test_cli_corrupt_trace;
          case "unwritable trace" test_cli_unwritable_trace;
          case "negative trace time" test_cli_negative_trace_time;
          case "bad path parameters" test_cli_bad_path_parameters;
          case "selfcheck smoke" test_cli_selfcheck_smoke;
        ] );
    ]
