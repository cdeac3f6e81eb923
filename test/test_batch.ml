(* Tests for lib/batch: jobs-independence of the engine (byte-identical
   output for any [jobs]/[chunk]), empty and single-row groups, the
   hoisted domain scan (first-bad-row index and scalar-exact messages),
   kernel-vs-scalar bit-equality on a pinned grid, the batched inverse
   against the scalar bisection, validation caching, and the
   [pftk serve --batch] CLI error contract. *)

module Columns = Pftk_batch.Columns
module Scan = Pftk_batch.Scan
module Kernel = Pftk_batch.Kernel
module Engine = Pftk_batch.Engine

let case name f = Alcotest.test_case name `Quick f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i =
    i + n <= m && (String.equal (String.sub s i n) sub || scan (i + 1))
  in
  scan 0

let bits = Int64.bits_of_float

let bits_eq a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (bits a) (bits b)

let all_models =
  [
    Kernel.make ~b:2 Kernel.Full;
    Kernel.make ~b:1 Kernel.Full;
    Kernel.make ~b:2 Kernel.Full_approx_q;
    Kernel.make ~b:2 Kernel.Approximate;
    Kernel.make ~b:2 Kernel.Td_only;
    Kernel.make ~b:2 (Kernel.Tfrc 4.);
  ]

(* A deterministic mixed grid: log-spaced p, cycling rtt, both window
   regimes (tiny, moderate, unlimited). *)
let mixed_columns n =
  let c = Columns.create n in
  let wm_cycle = [| 2.; 8.; 1024.; Columns.unlimited_wm |] in
  for i = 0 to n - 1 do
    let fi = float_of_int (i mod 89) /. 88. in
    let p = 10. ** (-5. +. (4.5 *. fi)) in
    let rtt = 0.01 +. (0.5 *. (float_of_int (i mod 7) /. 6.)) in
    Columns.set c i ~p ~rtt ~t0:(4. *. rtt) ~wm:wm_cycle.(i mod 4)
  done;
  c

(* --- Engine: jobs-independence ------------------------------------------- *)

let test_jobs_identity () =
  let n = 1000 in
  let c = mixed_columns n in
  List.iter
    (fun kernel ->
      let reference = Engine.run ~jobs:1 ~chunk:7 kernel c in
      List.iter
        (fun jobs ->
          let out = Engine.run ~jobs ~chunk:7 kernel c in
          for i = 0 to n - 1 do
            if not (bits_eq (Float.Array.get reference i) (Float.Array.get out i))
            then
              Alcotest.failf "%s: jobs=%d differs from jobs=1 at row %d"
                (Kernel.name kernel) jobs i
          done)
        [ 2; 4; 2000 ])
    all_models

let test_chunk_larger_than_rows () =
  let n = 5 in
  let c = mixed_columns n in
  let kernel = Kernel.make ~b:2 Kernel.Full in
  let a = Engine.run ~jobs:4 ~chunk:100000 kernel c in
  let b = Engine.run ~jobs:1 kernel c in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "same bits" true
      (bits_eq (Float.Array.get a i) (Float.Array.get b i))
  done;
  (* More workers than rows: every row still evaluated exactly once. *)
  let d = Engine.run ~jobs:16 ~chunk:1 kernel c in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "jobs > rows same bits" true
      (bits_eq (Float.Array.get d i) (Float.Array.get b i))
  done

let test_empty_and_single_row () =
  let kernel = Kernel.make ~b:2 Kernel.Approximate in
  let empty = Engine.run ~jobs:4 kernel (Columns.create 0) in
  Alcotest.(check int) "empty output" 0 (Float.Array.length empty);
  let c = Columns.create 1 in
  Columns.set c 0 ~p:0.02 ~rtt:0.1 ~t0:0.4 ~wm:32.;
  let out = Engine.run ~jobs:4 kernel c in
  let expected = Kernel.scalar_reference kernel ~p:0.02 ~rtt:0.1 ~t0:0.4 ~wm:32. in
  Alcotest.(check bool) "single row matches scalar" true
    (bits_eq expected (Float.Array.get out 0))

(* --- Scan ------------------------------------------------------------------ *)

let check_rejects ~expect c =
  let kernel = Kernel.make ~b:2 Kernel.Full in
  let out = Float.Array.make (Columns.length c) 0. in
  match Engine.run_into kernel c out with
  | () -> Alcotest.failf "scan accepted a bad column (wanted %S)" expect
  | exception Invalid_argument msg -> Alcotest.(check string) "message" expect msg

let bad_row_columns ~at ~p ~rtt ~t0 ~wm =
  let c = mixed_columns 10 in
  (* Bypass [Columns.set]'s wm <= 0 remapping so the scan sees the raw
     adversarial values. *)
  Float.Array.set c.Columns.p at p;
  Float.Array.set c.Columns.rtt at rtt;
  Float.Array.set c.Columns.t0 at t0;
  Float.Array.set c.Columns.wm at wm;
  c.Columns.dirty <- true;
  c

let test_scan_messages () =
  check_rejects ~expect:"batch row 3: Params: rtt must be positive"
    (bad_row_columns ~at:3 ~p:0.1 ~rtt:Float.nan ~t0:1. ~wm:2.);
  check_rejects ~expect:"batch row 0: Params: t0 must be positive"
    (bad_row_columns ~at:0 ~p:0.1 ~rtt:0.1 ~t0:(-0.) ~wm:2.);
  check_rejects ~expect:"batch row 9: Params: wm must be >= 1"
    (bad_row_columns ~at:9 ~p:0.1 ~rtt:0.1 ~t0:1. ~wm:0.5);
  check_rejects
    ~expect:
      "batch row 4: batch: wm exceeds the unlimited-window sentinel (use wm \
       <= 0 for unlimited)"
    (bad_row_columns ~at:4 ~p:0.1 ~rtt:0.1 ~t0:1. ~wm:Float.infinity);
  check_rejects ~expect:"batch row 5: batch: wm must be a whole number of packets"
    (bad_row_columns ~at:5 ~p:0.1 ~rtt:0.1 ~t0:1. ~wm:1.5);
  check_rejects ~expect:"batch row 7: loss probability p=1 outside (0, 1)"
    (bad_row_columns ~at:7 ~p:1. ~rtt:0.1 ~t0:1. ~wm:2.)

let test_scan_first_bad_row () =
  (* Two bad rows: the scan must report the earlier one, and the field
     order within a row is rtt before p (the scalar validation order). *)
  let c = bad_row_columns ~at:6 ~p:Float.nan ~rtt:0.1 ~t0:1. ~wm:2. in
  Float.Array.set c.Columns.rtt 2 (-1.);
  Float.Array.set c.Columns.p 2 Float.nan;
  match Scan.validate c with
  | Error { Scan.row = 2; field = "rtt"; message } ->
      Alcotest.(check string) "message" "Params: rtt must be positive" message
  | Error { Scan.row; field; _ } ->
      Alcotest.failf "reported row %d field %s, wanted row 2 field rtt" row field
  | Ok () -> Alcotest.fail "scan accepted bad columns"

let test_validation_caching () =
  let c = mixed_columns 50 in
  Alcotest.(check bool) "fresh columns are dirty" true c.Columns.dirty;
  let kernel = Kernel.make ~b:2 Kernel.Approximate in
  let _ = Engine.run kernel c in
  Alcotest.(check bool) "scan cleared dirty" false c.Columns.dirty;
  (* Mutating a row re-arms the scan: a now-invalid row must be caught
     by the next run, not served from the cached verdict. *)
  Columns.set c 10 ~p:Float.nan ~rtt:0.1 ~t0:1. ~wm:2.;
  Alcotest.(check bool) "set re-dirtied" true c.Columns.dirty;
  let out = Float.Array.make 50 0. in
  match Engine.run_into kernel c out with
  | () -> Alcotest.fail "stale validation accepted a NaN row"
  | exception Invalid_argument _ -> ()

(* --- Kernel vs scalar ------------------------------------------------------ *)

let test_kernel_matches_scalar_grid () =
  let n = 356 in
  let c = mixed_columns n in
  List.iter
    (fun kernel ->
      let out = Engine.run kernel c in
      for i = 0 to n - 1 do
        let p, rtt, t0, wm = Columns.row c i in
        let expected = Kernel.scalar_reference kernel ~p ~rtt ~t0 ~wm in
        if not (bits_eq expected (Float.Array.get out i)) then
          Alcotest.failf "%s: row %d (p=%h rtt=%h t0=%h wm=%h): %h <> %h"
            (Kernel.name kernel) i p rtt t0 wm (Float.Array.get out i) expected
      done)
    all_models

let test_subnormal_p_matches_scalar () =
  let c = Columns.create 3 in
  Columns.set c 0 ~p:0x1p-1074 ~rtt:0.2 ~t0:2. ~wm:32.;
  Columns.set c 1 ~p:0x1p-1022 ~rtt:0.2 ~t0:2. ~wm:0.;
  Columns.set c 2 ~p:1e-300 ~rtt:1e300 ~t0:1e300 ~wm:8.;
  List.iter
    (fun kernel ->
      let out = Engine.run kernel c in
      for i = 0 to 2 do
        let p, rtt, t0, wm = Columns.row c i in
        let expected = Kernel.scalar_reference kernel ~p ~rtt ~t0 ~wm in
        if not (bits_eq expected (Float.Array.get out i)) then
          Alcotest.failf "%s: subnormal row %d: %h <> %h" (Kernel.name kernel) i
            (Float.Array.get out i) expected
      done)
    all_models

(* --- Inverse ---------------------------------------------------------------- *)

let test_loss_budget_matches_scalar () =
  let n = 42 in
  let c = mixed_columns n in
  let rates = Float.Array.make n 0. in
  for i = 0 to n - 1 do
    (* A mix of attainable targets, unattainable ones, and invalid
       (non-positive, infinite, NaN) targets that must map to the NaN
       sentinel. *)
    let r =
      match i mod 6 with
      | 0 -> 5. +. float_of_int i
      | 1 -> 1e12
      | 2 -> 0.
      | 3 -> Float.nan
      | 4 -> -1.
      | _ -> Float.infinity
    in
    Float.Array.set rates i r
  done;
  let out = Engine.loss_budget ~jobs:3 ~chunk:7 ~b:2 c ~rates in
  for i = 0 to n - 1 do
    let _, rtt, t0, wm = Columns.row c i in
    let rate = Float.Array.get rates i in
    let params =
      Pftk_core.Params.make ~b:2 ~wm:(Columns.wm_to_int wm) ~rtt ~t0 ()
    in
    let expected =
      match Pftk_core.Inverse.loss_budget params ~rate with
      | Some p -> p
      | None -> Float.nan
    in
    if not (bits_eq expected (Float.Array.get out i)) then
      Alcotest.failf "row %d: loss budget %h <> scalar %h" i
        (Float.Array.get out i) expected;
    if i mod 6 >= 2 && not (Float.is_nan expected) then
      Alcotest.failf "row %d: target %g has loss budget %h" i rate expected
  done

(* --- serve CLI -------------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_serve ?(flags = "") queries =
  write_file "serve_q.txt" queries;
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/pftk.exe serve --batch --file serve_q.txt %s \
          1>serve_out.txt 2>serve_err.txt"
         flags)
  in
  (code, read_file "serve_out.txt", read_file "serve_err.txt")

(* `pftk serve --help` must state the units of the protocol: the four
   input columns (p dimensionless, rtt/t0 seconds, wm packets) and the
   packets-per-second output.  Pinned so a doc rewrite cannot silently
   drop the units contract (ISSUE: units discrepancies between
   conventions are exactly what the dimensional-analysis pass exists to
   keep explicit). *)
let test_serve_help_documents_units () =
  let code =
    Sys.command
      "../bin/pftk.exe serve --help=plain 1>serve_help.txt 2>/dev/null"
  in
  Alcotest.(check int) "--help exits 0" 0 code;
  (* Cmdliner reflows the doc paragraph, so collapse all whitespace
     runs (including the wrap newlines) before substring matching. *)
  let help =
    String.concat " "
      (String.split_on_char '\n' (read_file "serve_help.txt")
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter (fun w -> w <> ""))
  in
  let contains needle =
    let n = String.length needle and h = String.length help in
    let rec go i = i + n <= h && (String.sub help i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "help mentions %S" needle)
        true (contains needle))
    [
      "loss probability (dimensionless";
      "rtt and t0 are seconds";
      "wm is packets";
      "packets per second";
    ]

let test_serve_mixed_stream () =
  let code, out, err =
    run_serve
      "0.02 0.1 0.4 32\n\
       not a query\n\
       \n\
       0.02 -1 0.4 32\n\
       0.02 0.1 0.4 1.5\n\
       0.01 0.2 0.8 0\n"
  in
  Alcotest.(check int) "exit 0 when some lines succeed" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one output line per input line" 6 (List.length lines);
  List.iteri
    (fun i line ->
      match i with
      | 0 | 5 ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d is a rate" i)
            true
            (match float_of_string_opt line with
            | Some v -> v > 0.
            | None -> false)
      | _ ->
          Alcotest.(check string) (Printf.sprintf "line %d is the sentinel" i)
            "nan" line)
    lines;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~sub:needle err))
    [
      "pftk serve: line 2: expected 4 fields (p rtt t0 wm), got 3";
      "pftk serve: line 3: empty line";
      "pftk serve: line 4: Params: rtt must be positive";
      "pftk serve: line 5: batch: wm must be a whole number of packets";
    ]

let test_serve_all_bad_exits_nonzero () =
  let code, out, _err = run_serve "bad\nworse\n" in
  Alcotest.(check int) "exit 1 when every line fails" 1 code;
  Alcotest.(check string) "all sentinels" "nan\nnan\n" out

let test_serve_empty_stream () =
  let code, out, err = run_serve "" in
  Alcotest.(check int) "empty stream exits 0" 0 code;
  Alcotest.(check string) "no output" "" out;
  Alcotest.(check string) "no errors" "" err

let test_serve_overlong_line () =
  let long = String.make 5000 '1' in
  let code, out, err = run_serve (long ^ "\n0.02 0.1 0.4 32\n") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "overlong line diagnosed with its length" true
    (contains ~sub:"line 1: line exceeds 4096 bytes (got 5000)" err);
  Alcotest.(check bool) "sentinel then rate" true
    (match String.split_on_char '\n' (String.trim out) with
    | [ "nan"; rate ] -> float_of_string_opt rate <> None
    | _ -> false)

(* The cap is inclusive: a line of exactly [max_line_bytes] bytes is a
   valid query; one byte more is rejected without being parsed. *)
let test_serve_line_cap_boundary () =
  let cap = Pftk_batch.Serve.max_line_bytes in
  let pad query n = query ^ String.make (n - String.length query) ' ' in
  let at_cap = pad "0.02 0.1 0.4 32" cap in
  let over_cap = pad "0.02 0.1 0.4 32" (cap + 1) in
  let code, out, err = run_serve (at_cap ^ "\n" ^ over_cap ^ "\n") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "line at the cap is answered" true
    (match String.split_on_char '\n' (String.trim out) with
    | [ rate; "nan" ] -> float_of_string_opt rate <> None
    | _ -> false);
  Alcotest.(check bool) "line past the cap is diagnosed" true
    (contains
       ~sub:(Printf.sprintf "line 2: line exceeds %d bytes (got %d)" cap (cap + 1))
       err);
  Alcotest.(check bool) "line at the cap is not diagnosed" true
    (not (contains ~sub:"line 1" err))

let test_serve_batch_equals_scalar () =
  let buf = Buffer.create 4096 in
  for i = 0 to 1999 do
    let fi = float_of_int i /. 1999. in
    Buffer.add_string buf
      (Printf.sprintf "%.17g %.17g %.17g %d\n"
         (10. ** (-5. +. (4.8 *. fi)))
         (0.01 +. fi)
         (0.04 +. (4. *. fi))
         (match i mod 3 with 0 -> 0 | 1 -> 8 | _ -> 1024))
  done;
  let queries = Buffer.contents buf in
  List.iter
    (fun model ->
      let _, batch, _ = run_serve ~flags:("--model " ^ model) queries in
      let _, scalar, _ =
        run_serve ~flags:("--model " ^ model ^ " --scalar") queries
      in
      Alcotest.(check string) (model ^ ": batch = scalar stream") scalar batch)
    [ "full"; "full-approx-q"; "approximate"; "td-only"; "tfrc" ]

(* --- Serve text against the split_fields and Printf spellings ------------
   The stream reads lines in place, decodes decimal fields itself and
   spells rates without Printf.  [Oracle] is the previous code, kept
   verbatim as the reference all three must match byte for byte, bit for
   bit, message for message. *)

module Serve = Pftk_batch.Serve
module Stream = Pftk_batch.Stream

module Oracle = struct
  type query = { p : float; rtt : float; t0 : float; wm : float }

  let max_line_bytes = 4096
  let sentinel = "nan"
  let format_rate r = Printf.sprintf "%.17g" r

  let is_space ch = ch = ' ' || ch = '\t' || ch = '\r'

  (* Whitespace-separated tokens, allocation-light (no regexp, no
     intermediate list of empty fields). *)
  let split_fields line =
    let n = String.length line in
    let rec skip i = if i < n && is_space line.[i] then skip (i + 1) else i in
    let rec tok i = if i < n && not (is_space line.[i]) then tok (i + 1) else i in
    let rec go acc i =
      let i = skip i in
      if i >= n then List.rev acc
      else
        let j = tok i in
        go (String.sub line i (j - i) :: acc) j
    in
    go [] 0

  let field_name = [| "p"; "rtt"; "t0"; "wm" |]

  let number idx s =
    match float_of_string_opt s with
    | Some v -> Ok v
    | None ->
        Error
          (Printf.sprintf "field %d (%s): %S is not a number" (idx + 1)
             field_name.(idx) s)

  let ( let* ) = Result.bind

  let parse_line line =
    if String.length line > max_line_bytes then
      Error
        (Printf.sprintf "line exceeds %d bytes (got %d)" max_line_bytes
           (String.length line))
    else
      match split_fields line with
      | [] -> Error "empty line"
      | [ a; b; c; d ] ->
          let* p = number 0 a in
          let* rtt = number 1 b in
          let* t0 = number 2 c in
          let* wm = number 3 d in
          (* wm <= 0 denotes "no receiver limit", the CLI's --wm
             convention; NaN stays NaN and is rejected by the scan. *)
          Ok { p; rtt; t0; wm = (if wm <= 0. then Columns.unlimited_wm else wm) }
      | toks ->
          Error
            (Printf.sprintf "expected 4 fields (p rtt t0 wm), got %d"
               (List.length toks))

  type outcome = { total : int; failed : int }

  let run ?(jobs = 1) ?(chunk = Engine.default_chunk) ?(scalar = false) kernel ic
      oc ~err =
    if chunk < 1 then invalid_arg "Batch.Stream.run: chunk must be >= 1";
    let total = ref 0 and failed = ref 0 in
    let buf = Buffer.create (64 * 1024) in
    (* Lines of the current batch, newest first: [Ok q] joins the packed
       columns, [Error] lines keep their slot so output stays 1:1. *)
    let pending = ref [] in
    let npending = ref 0 and nok = ref 0 in
    let flush_batch () =
      if !npending > 0 then begin
        let items = List.rev !pending in
        let cols = Columns.create !nok in
        let j = ref 0 in
        List.iter
          (fun item ->
            match item with
            | Ok (q : query) ->
                Columns.set cols !j ~p:q.p ~rtt:q.rtt ~t0:q.t0
                  ~wm:q.wm;
                incr j
            | Error () -> ())
          items;
        let out =
          if scalar then begin
            (* Reference mode: the same stream answered by per-row
               guarded scalar calls — the oracle for the CLI's
               batch-vs-scalar byte-identity test. *)
            let o = Float.Array.make !nok 0. in
            let j = ref 0 in
            List.iter
              (fun item ->
                match item with
                | Ok (q : query) ->
                    Float.Array.set o !j
                      (Kernel.scalar_reference kernel ~p:q.p
                         ~rtt:q.rtt ~t0:q.t0 ~wm:q.wm);
                    incr j
                | Error () -> ())
              items;
            o
          end
          else Engine.run ~jobs ~chunk kernel cols
        in
        let j = ref 0 in
        List.iter
          (fun item ->
            (match item with
            | Ok _ ->
                Buffer.add_string buf (format_rate (Float.Array.get out !j));
                incr j
            | Error () -> Buffer.add_string buf sentinel);
            Buffer.add_char buf '\n')
          items;
        output_string oc (Buffer.contents buf);
        Buffer.clear buf;
        pending := [];
        npending := 0;
        nok := 0
      end
    in
    let reject msg =
      incr failed;
      Printf.fprintf err "pftk serve: line %d: %s\n" !total msg;
      pending := Error () :: !pending
    in
    (try
       while true do
         let line = input_line ic in
         incr total;
         (match parse_line line with
         | Error msg -> reject msg
         | Ok q -> (
             match
               Scan.check_row ~p:q.p ~rtt:q.rtt ~t0:q.t0
                 ~wm:q.wm
             with
             | Ok () ->
                 pending := Ok q :: !pending;
                 incr nok
             | Error (_field, message) -> reject message));
         incr npending;
         if !npending >= chunk then flush_batch ()
       done
     with End_of_file -> ());
    flush_batch ();
    flush oc;
    flush err;
    { total = !total; failed = !failed }
end

(* Writer: ["%.17g"] on the extremes, on every power of ten the fast
   path's range touches with its neighbours, on exact 17th-digit ties
   and on 10^5 random bit patterns plus 10^5 values inside the fast
   range. *)
let test_format_rate_matches_printf () =
  let check x =
    let expected = Oracle.format_rate x in
    let actual = Serve.format_rate x in
    if not (String.equal expected actual) then
      Alcotest.failf "%h: format_rate gives %S, Printf %S" x actual expected
  in
  let both x =
    check x;
    check (-.x)
  in
  List.iter both
    [
      0.; Int64.float_of_bits 1L; Int64.float_of_bits 0xf_ffff_ffff_ffffL;
      Float.min_float; Float.max_float; Float.epsilon; infinity; Float.nan;
      Int64.float_of_bits 0x7ff0_0000_0000_0001L; Int64.float_of_bits 0x7ff8_dead_beef_0000L;
      1.; 0.1; 0.25; 1e-5; 1e16; 9007199254740992.; 9007199254740993.;
      1234567890123456.75; 1234567890123457.25; 99999999999999984.; 9999999999999998.;
      0.30000000000000004; 123456.789; 1e15 +. 0.375;
    ];
  Alcotest.(check string) "tie to even, up" "1234567890123456.8"
    (Serve.format_rate 1234567890123456.75);
  Alcotest.(check string) "tie to even, down" "1234567890123457.2"
    (Serve.format_rate 1234567890123457.25);
  for k = -7 to 17 do
    let x = float_of_string (Printf.sprintf "1e%d" k) in
    let x = ref (Float.pred (Float.pred x)) in
    for _ = 1 to 5 do
      both !x;
      x := Float.succ !x
    done
  done;
  let rng = Pftk_stats.Rng.create ~seed:2026L () in
  (* Exact ties: t / 2^(17-e) with t odd has 18 significant digits, the
     last a 5, when it lies in [10^e, 10^(e+1)). *)
  for e = -5 to 15 do
    let scale = ldexp 1. (17 - e) in
    let lo = Float.ceil (float_of_string (Printf.sprintf "1e%d" e) *. scale) in
    let hi = Float.min (float_of_string (Printf.sprintf "1e%d" (e + 1)) *. scale) 0x1p53 in
    for _ = 1 to 200 do
      let t = Float.of_int (Float.to_int (Pftk_stats.Rng.float_range rng lo hi) lor 1) in
      both (t /. scale)
    done
  done;
  for _ = 1 to 100_000 do
    both (Int64.float_of_bits (Pftk_stats.Rng.bits64 rng));
    both (10. ** Pftk_stats.Rng.float_range rng (-5.5) 16.5)
  done

(* A parse result as a string: the four fields bit for bit, or the
   message. *)
let parsed = function
  | Ok (p, rtt, t0, wm) ->
      Printf.sprintf "ok %Lx %Lx %Lx %Lx" (bits p) (bits rtt) (bits t0) (bits wm)
  | Error msg -> "error " ^ msg

let serve_parsed line =
  parsed
    (Result.map
       (fun (q : Serve.query) -> (q.Serve.p, q.Serve.rtt, q.Serve.t0, q.Serve.wm))
       (Serve.parse_line line))

let oracle_parsed line =
  parsed
    (Result.map
       (fun (q : Oracle.query) -> (q.Oracle.p, q.rtt, q.t0, q.wm))
       (Oracle.parse_line line))

let sample_queries =
  [
    "0.02 0.257 1.454 33";
    "0.000123457 0.0456789 0.234567 8";
    "5.123e-3 0.456 2.57 0";
    "+3.456E-2 0x1p-3 4.25 1_03";
    "0.01\t0.2  2 8\r";
    "  1e-22 1e+7 1e+8 -0 ";
    "1.8e-3 1e-19 1e-18 0";
    "123456789012345678 .5 5. 1e0022";
    "1234567890123456789 9007199254740993 9007199254740992 1e-0023";
    "nan inf -infinity 0x1.8p+1";
    "1.5 0.2 2 8";
    "0.01 -0.2 2 8";
    "0.01 0.2 x2 8";
    "0.01 0.2 2";
    "0.01 0.2 2 8 9";
    "";
    "   \t\r";
    "1e 1e+ 1e-0 .e5";
    "0.5 . + -";
  ]

(* Byte-level mutations of [line]: every truncation, and every position
   overwritten with or preceded by each byte below; then extra digits
   and blanks spliced in everywhere. *)
let mutation_bytes = "\r\t\n\011\012\000\255_+-xXeE.09 n"

let mutations line =
  let n = String.length line in
  let with_byte i c ~keep =
    String.sub line 0 i ^ String.make 1 c ^ String.sub line (i + keep) (n - i - keep)
  in
  let splice i s = String.sub line 0 i ^ s ^ String.sub line i (n - i) in
  List.concat
    (List.init (n + 1) (fun i ->
         String.sub line 0 i
         :: splice i "99999999999"
         :: splice i "00000"
         :: splice i "  "
         :: List.concat_map
              (fun c -> if i < n then [ with_byte i c ~keep:1; with_byte i c ~keep:0 ] else [])
              (List.of_seq (String.to_seq mutation_bytes))))

let test_parse_line_matches_oracle () =
  let accepted = ref 0 and rejected = ref 0 and lines = ref 0 in
  List.iter
    (fun base ->
      List.iter
        (fun line ->
          incr lines;
          let expected = oracle_parsed line in
          let actual = serve_parsed line in
          if not (String.equal expected actual) then
            Alcotest.failf "%S: scanner gives %S, oracle %S" line actual expected;
          incr (if String.starts_with ~prefix:"ok" expected then accepted else rejected))
        (base :: mutations base))
    sample_queries;
  List.iter
    (fun line ->
      Alcotest.(check string) (String.sub line 0 8) (oracle_parsed line) (serve_parsed line))
    [
      String.make 4096 '1';
      String.make 4097 ' ';
      "1 1 1 " ^ String.make 4090 '1';
      "1 1 1 " ^ String.make 4091 '1';
      "0.5 1 1 1" ^ String.make 4087 ' ';
    ];
  List.iter
    (fun (what, count) ->
      if !count * 10 < !lines then
        Alcotest.failf "%s: only %d of %d mutated lines" what !count !lines)
    [ ("accepted", accepted); ("rejected", rejected) ]

let with_temp_files f =
  let paths = List.init 5 (fun _ -> Filename.temp_file "pftk_serve" ".txt") in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove paths) (fun () -> f paths)

(* Runs [stream] over [input] and returns its outcome, stdout and stderr. *)
let run_stream stream input ~input_path ~out_path ~err_path =
  write_file input_path input;
  let ic = open_in_bin input_path in
  let oc = open_out_bin out_path in
  let ec = open_out_bin err_path in
  let total, failed =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        close_out oc;
        close_out ec)
      (fun () -> stream ic oc ec)
  in
  (total, failed, read_file out_path, read_file err_path)

(* Whole streams of mutated lines, some overlong, some without a final
   newline, through small chunks: stdout, stderr and the counts of the
   stream must be the oracle's.  After the first 60 streams, a first line
   of [k] bytes, one stream for each [k] below 1024, sweeps the next
   line's start over every offset of the 1 KiB read block; every fourth
   of them goes on with a line of 4000 to 20000 bytes. *)
let test_stream_matches_oracle () =
  let rng = Pftk_stats.Rng.create ~seed:15L () in
  let pool =
    Array.of_list
      (List.concat_map (fun base -> base :: mutations base) sample_queries
      @ [ String.make 4096 '7'; String.make 5000 '1'; String.make 9000 ' ' ])
  in
  let kernel = Kernel.make Kernel.Full in
  let starts = Array.make 1024 false in
  with_temp_files (function
    | [ input_path; out_a; err_a; out_b; err_b ] ->
        for case = 1 to 60 + 1024 do
          let big = case <= 60 && case mod 5 = 0 in
          let n =
            if big then 1500 + Pftk_stats.Rng.int rng 1500
            else if case <= 60 then Pftk_stats.Rng.int rng 400
            else Pftk_stats.Rng.int rng 30
          in
          let lines = List.init n (fun _ -> pool.(Pftk_stats.Rng.int rng (Array.length pool))) in
          let lines =
            if case <= 60 then lines
            else
              let k = case - 61 in
              (if k < 20 then String.make k ' '
               else "0.02 0.257 1.454 33" ^ String.make (k - 19) ' ')
              :: (if case mod 4 = 0 then String.make (4000 + (case mod 9 * 2000)) '1' :: lines
                  else lines)
          in
          ignore
            (List.fold_left
               (fun pos line ->
                 starts.(pos mod 1024) <- true;
                 pos + String.length line + 1)
               0 lines
              : int);
          let text = String.concat "\n" lines ^ if case mod 3 = 0 then "" else "\n" in
          let chunk = if big then 5000 else 1 + Pftk_stats.Rng.int rng 9 in
          let scalar = case mod 4 = 0 in
          let expected =
            run_stream
              (fun ic oc ec ->
                let o = Oracle.run ~chunk ~scalar kernel ic oc ~err:ec in
                (o.Oracle.total, o.Oracle.failed))
              text ~input_path ~out_path:out_a ~err_path:err_a
          in
          let actual =
            run_stream
              (fun ic oc ec ->
                let o = Stream.run ~chunk ~scalar kernel ic oc ~err:ec in
                (o.Stream.total, o.Stream.failed))
              text ~input_path ~out_path:out_b ~err_path:err_b
          in
          let t, f, out, err = expected and t', f', out', err' = actual in
          if t <> t' || f <> f' || not (String.equal out out') || not (String.equal err err') then
            Alcotest.failf "case %d (chunk %d): %d/%d lines/failed against the oracle's %d/%d%s%s"
              case chunk t' f' t f
              (if String.equal out out' then "" else "; stdout differs")
              (if String.equal err err' then "" else "; stderr differs")
        done;
        Array.iteri
          (fun offset hit ->
            if not hit then Alcotest.failf "no line starts at offset %d of a block" offset)
          starts
    | _ -> assert false)

(* Allocation per line of a 10^5-line stream: the previous reader, list
   and Printf writer took about 200 minor words per line.  This build
   takes 25.1, most of it boxed floats in the kernel, which the release
   build expands in place (10.0 there). *)
let test_stream_allocation () =
  let n = 100_000 in
  let b = Buffer.create (n * 32) in
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "%.6g %.6g %.6g %d\n"
         (10. ** (-4. +. (3. *. float_of_int (i mod 997) /. 997.)))
         (0.01 +. (float_of_int (i mod 89) /. 90.))
         (0.5 +. (float_of_int (i mod 13) /. 3.))
         (8 * (i mod 5)))
  done;
  with_temp_files (function
    | input_path :: out_path :: err_path :: _ ->
        let words = ref 0. in
        let _, failed, _, _ =
          run_stream
            (fun ic oc ec ->
              let before = Gc.minor_words () in
              let o = Stream.run (Kernel.make Kernel.Full) ic oc ~err:ec in
              words := Gc.minor_words () -. before;
              (o.Stream.total, o.Stream.failed))
            (Buffer.contents b) ~input_path ~out_path ~err_path
        in
        Alcotest.(check int) "no rejections" 0 failed;
        let per_line = !words /. float_of_int n in
        if per_line >= 38. then
          Alcotest.failf "%.1f minor words per line, over 38" per_line
    | _ -> assert false)

(* A line far past the cap is counted, not kept: a 16 MiB line without a
   newline must not grow the heap by more than 1 MiB beyond what a
   5000-byte line does.  The input is written in pieces, so only the
   stream can raise the heap's high-water mark. *)
let test_stream_overlong_memory () =
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  with_temp_files (function
    | input_path :: out_path :: err_path :: _ ->
        let growth bytes =
          let piece = String.make 4096 '1' in
          let oc = open_out_bin input_path in
          for _ = 1 to bytes / 4096 do
            output_string oc piece
          done;
          output_string oc (String.sub piece 0 (bytes mod 4096));
          close_out oc;
          let ic = open_in_bin input_path
          and oc = open_out_bin out_path
          and ec = open_out_bin err_path in
          let before = top () in
          ignore (Stream.run (Kernel.make Kernel.Full) ic oc ~err:ec : Stream.outcome);
          let grown = top () - before in
          close_in ic;
          close_out oc;
          close_out ec;
          Alcotest.(check string)
            (Printf.sprintf "%d-byte line diagnosed" bytes)
            (Printf.sprintf "pftk serve: line 1: line exceeds 4096 bytes (got %d)\n" bytes)
            (read_file err_path);
          grown
        in
        let small = growth 5000 in
        let big = growth (16 * 1024 * 1024) in
        if big - small >= 1024 * 1024 / (Sys.word_size / 8) then
          Alcotest.failf "the 16 MiB line grew the heap by %d words, the 5000-byte one by %d"
            big small
    | _ -> assert false)

let () =
  Alcotest.run "pftk_batch"
    [
      ( "engine",
        [
          case "jobs-identity" test_jobs_identity;
          case "chunk larger than rows" test_chunk_larger_than_rows;
          case "empty and single row" test_empty_and_single_row;
          case "validation caching" test_validation_caching;
        ] );
      ( "scan",
        [
          case "scalar-exact messages" test_scan_messages;
          case "first bad row wins" test_scan_first_bad_row;
        ] );
      ( "kernel",
        [
          case "matches scalar on mixed grid" test_kernel_matches_scalar_grid;
          case "subnormal and extreme rows" test_subnormal_p_matches_scalar;
        ] );
      ("inverse", [ case "loss budget matches scalar" test_loss_budget_matches_scalar ]);
      ( "serve",
        [
          case "mixed stream contract" test_serve_mixed_stream;
          case "--help documents units" test_serve_help_documents_units;
          case "all-bad stream exits 1" test_serve_all_bad_exits_nonzero;
          case "empty stream" test_serve_empty_stream;
          case "overlong line" test_serve_overlong_line;
          case "line-cap boundary" test_serve_line_cap_boundary;
          case "batch stream = scalar stream" test_serve_batch_equals_scalar;
          case "format_rate matches Printf" test_format_rate_matches_printf;
          case "parse_line matches the previous parser" test_parse_line_matches_oracle;
          case "stream matches the previous stream" test_stream_matches_oracle;
          case "allocation per line" test_stream_allocation;
          case "overlong line in bounded memory" test_stream_overlong_memory;
        ] );
    ]
