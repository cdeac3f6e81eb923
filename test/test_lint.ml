(* Tests for the pftk-lint static-analysis engine (tools/lint): one
   triggering fixture per rule L1-L5, suppressed fixtures exercising the
   [@lint.allow] escape hatch, and a clean fixture asserting zero
   findings. *)

module Lint = Pftk_lint_engine

let case name f = Alcotest.test_case name `Quick f
let rules fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs
let check_rules msg expected fs = Alcotest.(check (list string)) msg expected (rules fs)

(* --- L1: polymorphic comparison in model code ------------------------------ *)

let test_l1_poly_compare () =
  check_rules "bare = flagged in lib/core" [ "L1" ]
    (Lint.lint_source ~path:"lib/core/fixture.ml" "let f x = x = 0.\n");
  check_rules "qualified Stdlib.compare flagged" [ "L1" ]
    (Lint.lint_source ~path:"lib/stats/fixture.ml"
       "let sort a = Array.sort Stdlib.compare a\n");
  check_rules "min flagged in lib/stats" [ "L1" ]
    (Lint.lint_source ~path:"lib/stats/fixture.ml" "let lo a b = min a b\n");
  check_rules "Float.equal is the blessed spelling" []
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let f x = Float.equal x 0.\n");
  check_rules "local monomorphic redefinition not flagged" []
    (Lint.lint_source ~path:"lib/stats/fixture.ml"
       "let min (a : float) b = if a < b then a else b\nlet lo = min 1. 2.\n");
  check_rules "polymorphic = allowed outside lib/core and lib/stats" []
    (Lint.lint_source ~path:"lib/tcp/fixture.ml" "let f x = x = 0\n")

(* --- L2: determinism ------------------------------------------------------- *)

let test_l2_determinism () =
  check_rules "Random.* in lib/" [ "L2" ]
    (Lint.lint_source ~path:"lib/loss/fixture.ml"
       "let jitter () = Random.float 1.\n");
  check_rules "Random.State too" [ "L2" ]
    (Lint.lint_source ~path:"lib/loss/fixture.ml"
       "let s () = Random.State.make_self_init ()\n");
  check_rules "Sys.time in lib/" [ "L2" ]
    (Lint.lint_source ~path:"lib/experiments/fixture.ml"
       "let t () = Sys.time ()\n");
  check_rules "Unix.gettimeofday in lib/" [ "L2" ]
    (Lint.lint_source ~path:"lib/trace/fixture.ml"
       "let t () = Unix.gettimeofday ()\n");
  check_rules "wall clock is fine in perfbench/" []
    (Lint.lint_source ~path:"perfbench/fixture.ml"
       "let t () = Unix.gettimeofday ()\n")

(* --- L3: module-toplevel mutable state ------------------------------------- *)

let test_l3_domain_safety () =
  check_rules "toplevel Hashtbl.create" [ "L3" ]
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let cache : (int, float) Hashtbl.t = Hashtbl.create 16\n");
  check_rules "toplevel ref" [ "L3" ]
    (Lint.lint_source ~path:"lib/dataset/fixture.ml" "let counter = ref 0\n");
  check_rules "toplevel Buffer.create" [ "L3" ]
    (Lint.lint_source ~path:"lib/trace/fixture.ml"
       "let scratch = Buffer.create 256\n");
  check_rules "toplevel mutable-field record literal" [ "L3" ]
    (Lint.lint_source ~path:"lib/netsim/fixture.ml"
       "type s = { mutable n : int }\nlet shared = { n = 0 }\n");
  check_rules "ref inside a function body is per-call state" []
    (Lint.lint_source ~path:"lib/dataset/fixture.ml"
       "let fresh () = ref 0\nlet table () = Hashtbl.create 16\n");
  check_rules "immutable record literal at toplevel is fine" []
    (Lint.lint_source ~path:"lib/netsim/fixture.ml"
       "type s = { n : int }\nlet shared = { n = 0 }\n")

(* --- L4: every lib/ module keeps a paired .mli ----------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let test_l4_missing_mli () =
  let root = Filename.temp_file "pftk_lint_l4" "" in
  Sys.remove root;
  let dir = List.fold_left Filename.concat root [ "lib"; "core" ] in
  mkdir_p dir;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "paired.ml" "let x = 1\n";
  write "paired.mli" "val x : int\n";
  write "naked.ml" "let y = 2\n";
  let findings = Lint.lint_dirs [ root ] in
  check_rules "exactly one L4, for the unpaired module" [ "L4" ] findings;
  (match findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the .ml without interface" true
        (Filename.basename f.Lint.file = "naked.ml")
  | _ -> Alcotest.fail "expected a single finding")

(* --- L5: Obj.magic and partial accessors ----------------------------------- *)

let test_l5_partiality () =
  check_rules "Obj.magic" [ "L5" ]
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let coerce (x : int) : float = Obj.magic x\n");
  check_rules "List.hd" [ "L5" ]
    (Lint.lint_source ~path:"lib/experiments/fixture.ml"
       "let first xs = List.hd xs\n");
  check_rules "Option.get" [ "L5" ]
    (Lint.lint_source ~path:"lib/tcp/fixture.ml"
       "let force o = Option.get o\n");
  check_rules "Option.value is fine" []
    (Lint.lint_source ~path:"lib/tcp/fixture.ml"
       "let force o = Option.value ~default:0 o\n")

(* --- [@lint.allow] suppression --------------------------------------------- *)

let test_allow_attribute () =
  check_rules "expression-scoped allow suppresses the finding" []
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let same a b = (a = b) [@lint.allow \"L1\"]\n");
  check_rules "binding-scoped allow ([@@...]) suppresses too" []
    (Lint.lint_source ~path:"lib/trace/fixture.ml"
       "let stamp () = Unix.gettimeofday () [@@lint.allow \"L2\"]\n");
  check_rules "allow is scoped: sibling bindings still flagged" [ "L2" ]
    (Lint.lint_source ~path:"lib/trace/fixture.ml"
       "let a () = Unix.gettimeofday () [@@lint.allow \"L2\"]\n\
        let b () = Unix.gettimeofday ()\n");
  check_rules "allow names only the listed rule" [ "L2" ]
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let f x = (x = Sys.time ()) [@lint.allow \"L1\"]\n");
  check_rules "several rules in one attribute" []
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let f x = (x = Sys.time ()) [@lint.allow \"L1 L2\"]\n")

(* --- Clean fixture ---------------------------------------------------------- *)

let test_clean () =
  check_rules "idiomatic model code has zero findings" []
    (Lint.lint_source ~path:"lib/core/fixture.ml"
       "let send_rate ~rtt p = 1. /. (rtt *. sqrt (2. *. p /. 3.))\n\
        let clamp lo hi x = Float.min hi (Float.max lo x)\n\
        let is_zero x = Float.equal x 0.\n");
  check_rules "syntax errors surface as parse findings" [ "parse" ]
    (Lint.lint_source ~path:"lib/core/fixture.ml" "let = in\n")

let () =
  Alcotest.run "pftk_lint"
    [
      ( "rules",
        [
          case "L1 polymorphic comparison" test_l1_poly_compare;
          case "L2 determinism" test_l2_determinism;
          case "L3 domain safety" test_l3_domain_safety;
          case "L4 interface hygiene" test_l4_missing_mli;
          case "L5 partiality" test_l5_partiality;
          case "lint.allow suppression" test_allow_attribute;
          case "clean fixture" test_clean;
        ] );
    ]
