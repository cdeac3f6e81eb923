(* Tests for the flow rules of pftk-analyze (tools/lint): fixtures are
   compiled to .cmt/.cmti in a throwaway root laid out like the
   workspace (Lint_fixture), then fed to [Pftk_flow_engine.analyze].
   One triggering fixture per rule F1-F4 (each proving a nonzero
   finding count) and guard/allow/clean variants.  Then the
   pftk_analyze CLI end to end: exit codes and formats, one run
   reporting all three rule families, and the JSON/SARIF schema
   shape. *)

open Lint_fixture
module F = Pftk_findings

let analyze = run Pftk_flow_engine.analyze

(* --- F1: guard domination of _unchecked call sites -------------------------- *)

let test_f1_undominated () =
  let findings =
    analyze
      [
        ( "lib/core/f1_trigger.ml",
          "let rate_unchecked p = 1. /. sqrt p\n\
           let rate p = rate_unchecked p\n" );
      ]
  in
  check_rules "bare call to *_unchecked flagged" [ "F1" ] findings;
  match findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the callee and lands in the fixture" true
        (F.contains_sub f.F.message "rate_unchecked"
        && f.F.line > 0
        && Filename.basename f.F.file = "f1_trigger.ml")
  | _ -> Alcotest.fail "expected a single finding"

let test_f1_guard_dominates () =
  check_rules "a check_* call before the call site satisfies F1" []
    (analyze
       [
         ( "lib/core/f1_guarded.ml",
           "let check_p p =\n\
           \  if p <= 0. || p >= 1. then invalid_arg \"p outside (0, 1)\"\n\
            let rate_unchecked p = 1. /. sqrt p\n\
            let rate p =\n\
           \  check_p p;\n\
           \  rate_unchecked p\n" );
       ]);
  check_rules "a raising conditional prefix satisfies F1" []
    (analyze
       [
         ( "lib/core/f1_raising_if.ml",
           "let rate_unchecked p = 1. /. sqrt p\n\
            let rate p =\n\
           \  if not (p > 0.) then invalid_arg \"p must be positive\";\n\
           \  rate_unchecked p\n" );
       ])

let test_f1_unchecked_caller_exempt () =
  check_rules "an *_unchecked caller vouches for its own callers" []
    (analyze
       [
         ( "lib/core/f1_chain.ml",
           "let rate_unchecked p = 1. /. sqrt p\n\
            let pair_unchecked p = rate_unchecked p +. rate_unchecked p\n" );
       ])

let test_f1_allow () =
  check_rules "binding-scoped [@@lint.allow \"F1\"] suppresses" []
    (analyze
       [
         ( "lib/core/f1_allowed.ml",
           "let rate_unchecked p = 1. /. sqrt p\n\
            let rate p = rate_unchecked p [@@lint.allow \"F1\"]\n" );
       ])

(* --- F2: allocation freedom of [@pftk.zero_alloc] bodies --------------------- *)

let test_f2_alloc () =
  let findings =
    analyze
      [
        ( "lib/core/f2_trigger.ml",
          "let[@pftk.zero_alloc] pair x = (x, x)\n" );
      ]
  in
  check_rules "tuple literal in a zero-alloc body" [ "F2" ] findings;
  check_rules "call to an unannotated function" [ "F2" ]
    (analyze
       [
         ( "lib/core/f2_callee.ml",
           "let helper x = x +. 1.\n\
            let[@pftk.zero_alloc] hot x = helper x\n" );
       ]);
  check_rules "float store into a mixed record boxes" [ "F2" ]
    (analyze
       [
         ( "lib/core/f2_boxing.ml",
           "type t = { mutable f : float; mutable n : int }\n\
            let[@pftk.zero_alloc] set t v = t.f <- v\n" );
       ])

let test_f2_clean () =
  check_rules "float arithmetic, noalloc externals and annotated callees pass"
    []
    (analyze
       [
         ( "lib/core/f2_clean.ml",
           "type fl = { mutable f : float; mutable g : float }\n\
            let[@pftk.zero_alloc] step x = (x *. 2.) +. sqrt x\n\
            let[@pftk.zero_alloc] hot t x = t.f <- step x\n" );
       ])

let test_f2_allow () =
  check_rules "expression-scoped [@lint.allow \"F2\"] suppresses" []
    (analyze
       [
         ( "lib/core/f2_allowed.ml",
           "let[@pftk.zero_alloc] pair x = ((x, x) [@lint.allow \"F2\"])\n" );
       ]);
  (* The typer files the attribute of [(e : t) [@...]] under e's
     exp_extra, not its exp_attributes. *)
  check_rules "allow on a constrained expression" []
    (analyze
       [
         ( "lib/core/f2_constrained.ml",
           "let[@pftk.zero_alloc] pair (x : float) =\n\
           \  ((x, x) : float * float) [@lint.allow \"F2\"]\n" );
       ])

(* --- F3: exception escape from contract bodies ------------------------------- *)

let test_f3_direct_raise () =
  let findings =
    analyze
      [
        ( "lib/core/f3_trigger.ml",
          "let bad_unchecked p =\n\
          \  if p <= 0. then invalid_arg \"p\" else sqrt p\n" );
      ]
  in
  check_rules "invalid_arg inside an *_unchecked body" [ "F3" ] findings

let test_f3_transitive () =
  let findings =
    analyze
      [
        ( "lib/core/f3_chain.ml",
          "let helper p = if p <= 0. then failwith \"p\" else p\n\
           let chain_unchecked p = sqrt (helper p)\n" );
      ]
  in
  (* helper itself raising is fine (it is not under contract); the
     *_unchecked caller reaching that raise is the violation. *)
  check_rules "raise reached through a callee" [ "F3" ] findings;
  match findings with
  | [ f ] ->
      Alcotest.(check bool) "finding names the raising callee" true
        (F.contains_sub f.F.message "helper")
  | _ -> Alcotest.fail "expected a single finding"

let test_f3_try_handles () =
  check_rules "a try body contains its own exceptions" []
    (analyze
       [
         ( "lib/core/f3_handled.ml",
           "let parse_unchecked s =\n\
           \  try float_of_string s with Failure _ -> Float.nan\n" );
       ])

(* --- F4: NaN sentinel documentation ------------------------------------------ *)

let f4_impl =
  "let budget r = if r > 0. then 1. /. r else Float.nan\n"

let test_f4_undocumented () =
  check_rules "NaN-returning float API with a silent doc" [ "F4" ]
    (analyze
       [
         ( "lib/core/f4_trigger.mli",
           "val budget : float -> float\n\
            (** Largest sustainable loss budget. *)\n" );
         ("lib/core/f4_trigger.ml", f4_impl);
       ])

let test_f4_documented () =
  check_rules "naming the NaN sentinel satisfies F4" []
    (analyze
       [
         ( "lib/core/f4_doc.mli",
           "val budget : float -> float\n\
            (** Largest sustainable loss budget; NaN when unsolvable. *)\n" );
         ("lib/core/f4_doc.ml", f4_impl);
       ])

let test_f4_non_float_untouched () =
  (* Regression for the taint fixpoint: mentioning Float.nan in a data
     table must not force NaN docs onto non-float APIs reachable from
     it. *)
  check_rules "integer API with a NaN-tainted helper passes" []
    (analyze
       [
         ("lib/core/f4_int.mli", "val count : int -> int\n");
         ( "lib/core/f4_int.ml",
           "let special = [| Float.nan |]\n\
            let count n = Array.length special + n\n" );
       ])

let test_f4_allow () =
  check_rules "val-scoped [@@lint.allow \"F4\"] suppresses" []
    (analyze
       [
         ( "lib/core/f4_allowed.mli",
           "val budget : float -> float [@@lint.allow \"F4\"]\n" );
         ("lib/core/f4_allowed.ml", f4_impl);
       ])

(* --- CLI exit codes ----------------------------------------------------------- *)

(* One dirty tree per rule family, each with the tag its report must
   carry; the R1 fixture's local [Pftk_parallel] stands in for the
   fan-out API, whose dotted path is what R1 keys on. *)
let dirty_trees =
  [
    ( "R1",
      "lib/experiments/cli_fixture.ml",
      "module Pftk_parallel = struct\n\
      \  let map ~jobs f xs =\n\
      \    ignore jobs;\n\
      \    List.map f xs\n\
       end\n\
       let burst xs =\n\
      \  let hits = ref 0 in\n\
      \  Pftk_parallel.map ~jobs:2 (fun _ -> incr hits) xs\n" );
    ( "F1",
      "lib/core/cli_fixture.ml",
      "let rate_unchecked p = 1. /. sqrt p\n\
       let rate p = rate_unchecked p\n" );
    ( "U1",
      "lib/core/cli_fixture.ml",
      "let[@pftk.unit \"s -> pkt -> 1\"] bad rtt wnd = rtt +. wnd\n" );
  ]

(* Runs the CLI on [root] once per output format: each run must exit 1
   and report every rule of [rules] in that format's spelling. *)
let check_reports root rules =
  List.iter
    (fun (format, args, spell) ->
      let status, out, _ = run_cli (args @ [ root ]) in
      Alcotest.(check int) (format ^ " run exits 1") 1 status;
      List.iter
        (fun rule ->
          Alcotest.(check bool)
            (Printf.sprintf "%s output reports %s" format rule)
            true
            (F.contains_sub out (spell rule)))
        rules)
    [
      ("text", [], Printf.sprintf "[%s]");
      ("json", [ "--format=json" ], Printf.sprintf {|"rule":"%s"|});
      ("sarif", [ "--format=sarif" ], Printf.sprintf {|"ruleId": "%s"|});
    ]

let test_cli () =
  if not (Sys.file_exists cli) then
    Alcotest.fail "pftk_analyze.exe not found next to the test binary";
  List.iter
    (fun (rule, rel, contents) ->
      let dirty = fresh_root () in
      compile_fixtures dirty [ (rel, contents) ];
      check_reports dirty [ rule ])
    dirty_trees;
  let clean = fresh_root () in
  compile_fixtures clean [ ("lib/core/cli_clean.ml", "let x = 1\n") ];
  let status_clean, _, _ = run_cli [ clean ] in
  Alcotest.(check int) "clean tree exits 0" 0 status_clean;
  let empty = fresh_root () in
  let status_empty, _, err = run_cli [ empty ] in
  Alcotest.(check int) "no .cmt files is a usage error (2)" 2 status_empty;
  Alcotest.(check bool) "usage error explains itself" true
    (F.contains_sub err "no .cmt");
  let status_missing, _, missing = run_cli [ clean; "nosuchdir" ] in
  Alcotest.(check int) "a missing root exits 2" 2 status_missing;
  Alcotest.(check bool) "and is named" true
    (F.contains_sub missing "pftk-analyze: no such directory: nosuchdir")

(* An R3, an F1 and a U1 trigger in one tree, one unit each. *)
let three_family_tree () =
  let root = fresh_root () in
  compile_fixtures root
    [
      ( "lib/core/race_fixture.ml",
        "let order (a : float) (b : float) = compare a b\n\
         let send_rate ~rtt p = 1. /. (rtt *. sqrt p)\n" );
      ( "lib/core/flow_fixture.ml",
        "let rate_unchecked p = 1. /. sqrt p\n\
         let rate p = rate_unchecked p\n\
         let[@pftk.zero_alloc] pair x = (x, x)\n" );
      ( "lib/core/units_fixture.ml",
        "let[@pftk.unit \"s -> pkt -> 1\"] bad rtt wnd = rtt +. wnd\n" );
    ];
  root

let test_one_run () = check_reports (three_family_tree ()) [ "R3"; "F1"; "U1" ]

(* --- JSON/SARIF schema shape -------------------------------------------------- *)

(* Every rule family's findings are printed through
   [Pftk_findings.pp_findings_json] and [pp_findings_sarif], so the
   contracts below — a JSON array of objects whose keys appear in the
   fixed order file, line, col, rule, message, sorted by (file, line,
   col, rule); and a single-run SARIF 2.1.0 log whose results cite rules
   declared in its rules table — are checked once, on a run that
   reports all three families. *)

let index_of hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.equal (String.sub hay i n) needle then Some i
    else go (i + 1)
  in
  go 0

(* Split a pp_findings_json array into the raw object texts. *)
let json_objects text =
  let text = String.trim text in
  Alcotest.(check bool) "output is a JSON array" true
    (String.length text >= 2
    && text.[0] = '['
    && text.[String.length text - 1] = ']');
  String.split_on_char '{' text
  |> List.filteri (fun i _ -> i > 0)
  |> List.map (fun s ->
         match String.index_opt s '}' with
         | Some j -> String.sub s 0 j
         | None -> Alcotest.fail "unterminated JSON object")

let check_object_shape obj =
  let keys = [ {|"file":|}; {|"line":|}; {|"col":|}; {|"rule":|}; {|"message":|} ] in
  let positions =
    List.map
      (fun k ->
        match index_of obj k with
        | Some i -> i
        | None -> Alcotest.failf "object %S lacks key %s" obj k)
      keys
  in
  Alcotest.(check bool) "keys appear in the canonical order" true
    (List.sort compare positions = positions)

let field_string obj key =
  match index_of obj (Printf.sprintf {|"%s":"|} key) with
  | None -> Alcotest.failf "object %S lacks string field %s" obj key
  | Some i ->
      let start = i + String.length key + 4 in
      let j = String.index_from obj start '"' in
      String.sub obj start (j - start)

let tool = "pftk-analyze"

let check_cli_json args =
  let status, text, _ = run_cli args in
  Alcotest.(check int) (tool ^ " exits 1 on findings") 1 status;
  let objects = json_objects text in
  Alcotest.(check bool) (tool ^ " reports at least one finding") true
    (objects <> []);
  List.iter check_object_shape objects;
  let order_key = List.map (fun o -> field_string o "file") objects in
  Alcotest.(check (list string))
    (tool ^ " findings are sorted by file")
    (List.sort compare order_key) order_key

(* SARIF 2.1.0 (--format=sarif): same findings, one run, the driver
   named after the tool, each result carrying a ruleId echoed in the
   driver's rules table and a physical location whose startColumn is
   1-based (the JSON format's col is 0-based). *)
let check_cli_sarif args =
  let status, text, _ = run_cli args in
  Alcotest.(check int) (tool ^ " sarif exits 1 on findings") 1 status;
  let has needle =
    Alcotest.(check bool)
      (Printf.sprintf "%s sarif contains %s" tool needle)
      true
      (index_of text needle <> None)
  in
  has {|"$schema": "https://json.schemastore.org/sarif-2.1.0.json"|};
  has {|"version": "2.1.0"|};
  has (Printf.sprintf {|"name": "%s"|} tool);
  List.iter has
    [
      {|"rules": [{"id": "|};
      {|"ruleId": "|};
      {|"level": "error"|};
      {|"message": {"text": "|};
      {|"physicalLocation": {"artifactLocation": {"uri": "|};
      {|"region": {"startLine": |};
      {|"startColumn": |};
    ];
  (* Every result's ruleId must be declared in the driver's rules
     table. *)
  let rules_start =
    match index_of text {|"rules": [|} with
    | Some i -> i
    | None -> Alcotest.fail "no rules table"
  in
  let rules_end = String.index_from text rules_start ']' in
  let table = String.sub text rules_start (rules_end - rules_start) in
  String.split_on_char '{' text
  |> List.iter (fun chunk ->
         match index_of chunk {|"ruleId": "|} with
         | None -> ()
         | Some i ->
             let start = i + String.length {|"ruleId": "|} in
             let j = String.index_from chunk start '"' in
             let rule = String.sub chunk start (j - start) in
             Alcotest.(check bool)
               (Printf.sprintf "%s declares rule %s" tool rule)
               true
               (index_of table (Printf.sprintf {|{"id": "%s"}|} rule) <> None))

let test_json_schema_shape () =
  let root = three_family_tree () in
  check_cli_json [ "--format=json"; root ];
  check_cli_sarif [ "--format=sarif"; root ]

let () =
  Alcotest.run "pftk_flow"
    [
      ( "rules",
        [
          case "F1 undominated call" test_f1_undominated;
          case "F1 guard domination" test_f1_guard_dominates;
          case "F1 _unchecked caller exempt" test_f1_unchecked_caller_exempt;
          case "F1 lint.allow" test_f1_allow;
          case "F2 allocating constructs" test_f2_alloc;
          case "F2 clean body" test_f2_clean;
          case "F2 lint.allow" test_f2_allow;
          case "F3 direct raise" test_f3_direct_raise;
          case "F3 transitive raise" test_f3_transitive;
          case "F3 try handles" test_f3_try_handles;
          case "F4 undocumented sentinel" test_f4_undocumented;
          case "F4 documented sentinel" test_f4_documented;
          case "F4 non-float API untouched" test_f4_non_float_untouched;
          case "F4 lint.allow" test_f4_allow;
        ] );
      ( "cli",
        [
          case "exit codes and formats" test_cli;
          case "one run reports every rule family" test_one_run;
          case "json/sarif schema shape (all CLIs)" test_json_schema_shape;
        ] );
    ]
