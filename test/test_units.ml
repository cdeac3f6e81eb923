(* Tests for the units rules of pftk-analyze (tools/lint): the
   unit-expression parser, then fixtures compiled to .cmt/.cmti in a
   throwaway root laid out like the workspace (Lint_fixture), fed to
   [Pftk_units_engine.analyze].  One triggering fixture per rule U1-U4
   (each proving a nonzero finding count), clean/allow variants, and the
   propagation subtleties the engine promises (literals are
   polymorphic, [float_of_int] is opaque, * and / compose exponents,
   casts override).  The CLI is tested in test_flow. *)

open Lint_fixture
module Units = Pftk_units_engine
module F = Pftk_findings

let analyze = run Units.analyze

(* --- The unit-expression parser ---------------------------------------------- *)

let test_parser () =
  let ok s = match Units.parse_unit s with Ok c -> c | Error m -> Alcotest.failf "%S rejected: %s" s m in
  let bad s = match Units.parse_unit s with Ok c -> Alcotest.failf "%S accepted as %s" s c | Error _ -> () in
  Alcotest.(check string) "canonical product order" "pkt/s" (ok "pkt / s");
  Alcotest.(check string) "prob is dimensionless" "1" (ok "prob");
  Alcotest.(check string) "1 is dimensionless" "1" (ok "1");
  Alcotest.(check string) "units cancel" "1" (ok "pkt*s/s/pkt");
  Alcotest.(check string) "exponents" "s^2" (ok "s^2");
  Alcotest.(check string) "negative exponent" "1/s^2" (ok "s^-2");
  Alcotest.(check string) "division chains" "pkt/s^2" (ok "pkt/s/s");
  Alcotest.(check string) "byte rate" "byte/s" (ok "byte/s");
  bad "furlong";
  bad "s +";
  bad "s^";
  bad "s pkt";
  match Units.parse_sig "s -> _ -> prob -> pkt/s" with
  | Ok c -> Alcotest.(check string) "signature round-trips" "s -> _ -> 1 -> pkt/s" c
  | Error m -> Alcotest.failf "signature rejected: %s" m

(* --- U1: mixed-unit arithmetic and comparison -------------------------------- *)

let test_u1_mixed_add () =
  let findings =
    analyze
      [
        ( "lib/core/u1_trigger.ml",
          "let[@pftk.unit \"s -> pkt -> 1\"] bad rtt wnd = rtt +. wnd\n" );
      ]
  in
  check_rules "adding s to pkt flagged" [ "U1" ] findings;
  match findings with
  | [ f ] ->
      Alcotest.(check bool) "finding names both units" true
        (F.contains_sub f.F.message "s"
        && F.contains_sub f.F.message "pkt"
        && Filename.basename f.F.file = "u1_trigger.ml")
  | _ -> Alcotest.fail "expected a single finding"

let test_u1_comparison () =
  check_rules "comparing s to pkt flagged" [ "U1" ]
    (analyze
       [
         ( "lib/core/u1_cmp.ml",
           "let[@pftk.unit \"s -> pkt -> _\"] bad (rtt : float) wnd =\n\
           \  rtt < wnd\n" );
       ]);
  check_rules "Float.min across units flagged" [ "U1" ]
    (analyze
       [
         ( "lib/core/u1_min.ml",
           "let[@pftk.unit \"s -> pkt -> _\"] bad rtt wnd = Float.min rtt wnd\n" );
       ])

let test_u1_dimless_transcendental () =
  check_rules "exp of a seconds value flagged" [ "U1" ]
    (analyze
       [
         ( "lib/core/u1_exp.ml",
           "let[@pftk.unit \"s -> 1\"] bad rtt = exp rtt\n" );
       ]);
  check_rules "sqrt of a dimensionless ratio passes" []
    (analyze
       [
         ( "lib/core/u1_sqrt.ml",
           "let[@pftk.unit \"s -> s -> 1\"] fine a b = sqrt (a /. b)\n" );
       ])

let test_u1_literals_polymorphic () =
  check_rules "float literals adapt to either unit" []
    (analyze
       [
         ( "lib/core/u1_lit.ml",
           "let[@pftk.unit \"s -> s\"] fine rtt = (2. *. rtt) +. 0.1\n" );
       ]);
  check_rules "float_of_int results are unit-opaque" []
    (analyze
       [
         ( "lib/core/u1_int.ml",
           "let[@pftk.unit \"s -> _ -> s\"] fine rtt b = rtt +. float_of_int b\n" );
       ])

let test_u1_allow () =
  check_rules "binding-scoped [@@lint.allow \"U1\"] suppresses" []
    (analyze
       [
         ( "lib/core/u1_allowed.ml",
           "let[@pftk.unit \"s -> pkt -> 1\"] bad rtt wnd = rtt +. wnd\n\
            [@@lint.allow \"U1\"]\n" );
       ])

(* --- U2: call sites and record fields match declarations ---------------------- *)

let test_u2_call_site () =
  let findings =
    analyze
      [
        ( "lib/core/u2_trigger.ml",
          "let[@pftk.unit \"s -> 1\"] normalize rtt = rtt /. rtt\n\
           let[@pftk.unit \"pkt -> 1\"] bad w = normalize w\n" );
      ]
  in
  check_rules "pkt passed where s declared" [ "U2" ] findings;
  match findings with
  | [ f ] ->
      Alcotest.(check bool) "finding names the callee" true
        (F.contains_sub f.F.message "normalize")
  | _ -> Alcotest.fail "expected a single finding"

let test_u2_through_interface () =
  (* The declaration lives in the .mli; the bad call site is in another
     compilation unit, resolved through the interface's annotation. *)
  check_rules "cross-module call checked against the .mli" [ "U2" ]
    (analyze
       [
         ( "lib/core/u2_iface.mli",
           "val normalize : float -> float\n\
            [@@pftk.unit \"s -> 1\"]\n" );
         ("lib/core/u2_iface.ml", "let normalize rtt = rtt /. rtt\n");
         ( "lib/core/u2_caller.ml",
           "let[@pftk.unit \"pkt -> 1\"] bad w = U2_iface.normalize w\n" );
       ])

let test_u2_record_field () =
  check_rules "record construction checked against field units" [ "U2" ]
    (analyze
       [
         ( "lib/core/u2_field.ml",
           "type t = { rtt : float [@pftk.unit \"s\"] }\n\
            let[@pftk.unit \"pkt -> _\"] bad w = { rtt = w }\n" );
       ]);
  check_rules "matching construction passes" []
    (analyze
       [
         ( "lib/core/u2_field_ok.ml",
           "type t = { rtt : float [@pftk.unit \"s\"] }\n\
            let[@pftk.unit \"s -> _\"] fine x = { rtt = x }\n\
            let[@pftk.unit \"_ -> s\"] back t = t.rtt\n" );
       ])

let test_u2_allow () =
  check_rules "binding-scoped [@@lint.allow \"U2\"] suppresses" []
    (analyze
       [
         ( "lib/core/u2_allowed.ml",
           "let[@pftk.unit \"s -> 1\"] normalize rtt = rtt /. rtt\n\
            let[@pftk.unit \"pkt -> 1\"] bad w = normalize w\n\
            [@@lint.allow \"U2\"]\n" );
       ])

(* --- U3: annotation coverage of exported float APIs --------------------------- *)

let test_u3_uncovered () =
  let findings =
    analyze
      [
        ( "lib/core/u3_trigger.mli",
          "val rate : float -> float\n" );
        ("lib/core/u3_trigger.ml", "let rate x = x\n");
      ]
  in
  check_rules "unannotated float export in the zone" [ "U3" ] findings

let test_u3_covered_and_exempt () =
  check_rules "a \"_\"-component annotation satisfies U3" []
    (analyze
       [
         ( "lib/core/u3_covered.mli",
           "val rate : float -> float\n\
            [@@pftk.unit \"_ -> _\"]\n" );
         ("lib/core/u3_covered.ml", "let rate x = x\n");
       ]);
  check_rules "non-float exports are not demanded" []
    (analyze
       [
         ("lib/core/u3_int.mli", "val count : int -> int\n");
         ("lib/core/u3_int.ml", "let count n = n\n");
       ]);
  check_rules "outside the zone nothing is demanded" []
    (analyze
       [
         ("lib/experiments/u3_outside.mli", "val rate : float -> float\n");
         ("lib/experiments/u3_outside.ml", "let rate x = x\n");
       ])

let test_u3_meanfield_zone () =
  check_rules "lib/meanfield is inside the U3 zone" [ "U3" ]
    (analyze
       [
         ("lib/meanfield/u3_mf.mli", "val occupancy : float -> float\n");
         ("lib/meanfield/u3_mf.ml", "let occupancy q = q\n");
       ])

let test_u3_field_coverage () =
  check_rules "unannotated float record field in a zone .mli" [ "U3" ]
    (analyze
       [
         ( "lib/batch/u3_field.mli",
           "type t = { rtt : float }\n" );
         ("lib/batch/u3_field.ml", "type t = { rtt : float }\n");
       ])

let test_u3_allow () =
  check_rules "val-scoped [@@lint.allow \"U3\"] suppresses" []
    (analyze
       [
         ( "lib/core/u3_allowed.mli",
           "val rate : float -> float [@@lint.allow \"U3\"]\n" );
         ("lib/core/u3_allowed.ml", "let rate x = x\n");
       ])

(* --- U4: unit-correct returns -------------------------------------------------- *)

let test_u4_wrong_result () =
  let findings =
    analyze
      [
        ( "lib/core/u4_trigger.ml",
          "let[@pftk.unit \"s -> pkt/s\"] bad rtt = rtt\n" );
      ]
  in
  check_rules "declared pkt/s, returned s" [ "U4" ] findings;
  match findings with
  | [ f ] ->
      Alcotest.(check bool) "finding spells both units" true
        (F.contains_sub f.F.message "pkt/s" && F.contains_sub f.F.message "s")
  | _ -> Alcotest.fail "expected a single finding"

let test_u4_composition () =
  check_rules "pkt divided by s composes to pkt/s" []
    (analyze
       [
         ( "lib/core/u4_div.ml",
           "let[@pftk.unit \"pkt -> s -> pkt/s\"] rate w rtt = w /. rtt\n" );
       ]);
  check_rules "inverse seconds squared" []
    (analyze
       [
         ( "lib/core/u4_sq.ml",
           "let[@pftk.unit \"s -> 1/s^2\"] curv rtt = 1. /. (rtt *. rtt)\n" );
       ]);
  check_rules "a cast overrides the inference" []
    (analyze
       [
         ( "lib/core/u4_cast.ml",
           "let[@pftk.unit \"_ -> pkt\"] lift x = (x [@pftk.unit \"pkt\"])\n" );
       ])

let test_u4_allow () =
  check_rules "binding-scoped [@@lint.allow \"U4\"] suppresses" []
    (analyze
       [
         ( "lib/core/u4_allowed.ml",
           "let[@pftk.unit \"s -> pkt/s\"] bad rtt = rtt\n\
            [@@lint.allow \"U4\"]\n" );
       ])

(* --- parse errors --------------------------------------------------------------- *)

let test_parse_findings () =
  check_rules "a malformed unit expression is a parse finding" [ "parse" ]
    (analyze
       [
         ( "lib/core/parse_bad.ml",
           "let[@pftk.unit \"furlong -> 1\"] f x = x\n" );
       ]);
  check_rules "an arity mismatch against the type is a parse finding"
    [ "parse" ]
    (analyze
       [
         ( "lib/core/parse_arity.mli",
           "val f : float -> float -> float\n\
            [@@pftk.unit \"s -> s\"]\n" );
         ("lib/core/parse_arity.ml", "let f x _ = x\n");
       ])

let () =
  Alcotest.run "pftk_units"
    [
      ("parser", [ case "unit expressions" test_parser ]);
      ( "rules",
        [
          case "U1 mixed addition" test_u1_mixed_add;
          case "U1 comparisons" test_u1_comparison;
          case "U1 transcendentals" test_u1_dimless_transcendental;
          case "U1 polymorphic literals" test_u1_literals_polymorphic;
          case "U1 lint.allow" test_u1_allow;
          case "U2 call site" test_u2_call_site;
          case "U2 through interface" test_u2_through_interface;
          case "U2 record field" test_u2_record_field;
          case "U2 lint.allow" test_u2_allow;
          case "U3 uncovered export" test_u3_uncovered;
          case "U3 covered and exempt" test_u3_covered_and_exempt;
          case "U3 meanfield zone" test_u3_meanfield_zone;
          case "U3 field coverage" test_u3_field_coverage;
          case "U3 lint.allow" test_u3_allow;
          case "U4 wrong result" test_u4_wrong_result;
          case "U4 exponent composition" test_u4_composition;
          case "U4 lint.allow" test_u4_allow;
          case "parse findings" test_parse_findings;
        ] );
    ]
