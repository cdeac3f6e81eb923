(* Tests for the pftk-race typed analyzer (tools/lint): fixtures are
   compiled to .cmt/.cmti with the toolchain's own ocamlc (-bin-annot)
   in a throwaway root laid out like the workspace, then fed to
   [Pftk_race_engine.analyze_paths].  Triggering fixtures per rule
   R1-R4, L2, L3 and L5 (and the polymorphic-comparison inputs R3
   covers), suppressed fixtures for the [@lint.allow] escape hatch, zone
   checks, a clean fixture, and an end-to-end exit-code check of the
   pftk_race CLI. *)

module Race = Pftk_race_engine
module F = Pftk_findings

let case name f = Alcotest.test_case name `Quick f
let rules fs = List.map (fun (f : F.finding) -> f.F.rule) fs

let check_rules msg expected fs =
  Alcotest.(check (list string)) msg expected (rules fs)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The compiler that built us: Config.standard_library is
   <prefix>/lib/ocaml, so ocamlc lives two levels up in <prefix>/bin;
   fall back to PATH lookup for unusual layouts. *)
let ocamlc =
  lazy
    (let prefix =
       Filename.dirname (Filename.dirname Config.standard_library)
     in
     let candidate =
       Filename.concat (Filename.concat prefix "bin") "ocamlc"
     in
     if Sys.file_exists candidate then candidate else "ocamlc")

let fresh_root () =
  let root = Filename.temp_file "pftk_race" "" in
  Sys.remove root;
  mkdir_p root;
  root

(* Write each (relative path, contents) fixture under [root] and compile
   it from [root] so the recorded source file stays workspace-relative
   ("lib/core/fixture.ml"), which is what the zone rules key on.  A
   fixture sees the ones listed before it in its directory, and Unix. *)
let compile_fixtures root fixtures =
  List.iter
    (fun (rel, contents) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    fixtures;
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  let failed =
    List.exists
      (fun (rel, _) ->
        Sys.command
          (Filename.quote_command (Lazy.force ocamlc)
             [
               "-bin-annot"; "-w"; "-a"; "-I"; "+unix"; "-I";
               Filename.dirname rel; "-c"; rel;
             ])
        <> 0)
      fixtures
  in
  Sys.chdir cwd;
  if failed then Alcotest.fail "fixture did not compile"

let analyze fixtures =
  let root = fresh_root () in
  compile_fixtures root fixtures;
  Race.analyze_paths [ root ]

(* A stand-in for the real fan-out API: the trigger test keys on the
   dotted path [Pftk_parallel.map] / [Pool.submit] at the call site, so
   a local module of the same name exercises the rule without linking
   the parallel library into the fixture. *)
let parallel_stub =
  "module Pftk_parallel = struct\n\
  \  let map ~jobs f xs =\n\
  \    ignore jobs;\n\
  \    List.map f xs\n\
   end\n"

(* --- R1: mutable capture in a parallel closure ----------------------------- *)

let test_r1_mutable_capture () =
  let findings =
    analyze
      [
        ( "lib/experiments/r1_trigger.ml",
          parallel_stub
          ^ "let burst xs =\n\
            \  let hits = ref 0 in\n\
            \  Pftk_parallel.map ~jobs:2 (fun x -> incr hits; x + !hits) xs\n"
        );
      ]
  in
  check_rules "ref captured by fan-out closure" [ "R1" ] findings;
  match findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the captured ident" true
        (String.length f.F.message > 0
        && f.F.line > 0
        && Filename.basename f.F.file = "r1_trigger.ml")
  | _ -> Alcotest.fail "expected a single finding"

let test_r1_pool_submit () =
  check_rules "array captured by Pool.submit task" [ "R1" ]
    (analyze
       [
         ( "lib/experiments/r1_pool.ml",
           "module Pool = struct\n\
           \  let submit _pool task = task ()\n\
            end\n\
            let cells = Array.make 4 0\n\
            let go pool = Pool.submit pool (fun () -> cells.(0) <- 1)\n" );
       ])

let test_r1_allow () =
  check_rules "scoped [@lint.allow \"R1\"] suppresses" []
    (analyze
       [
         ( "lib/experiments/r1_allowed.ml",
           parallel_stub
           ^ "let burst xs =\n\
             \  let hits = ref 0 in\n\
             \  Pftk_parallel.map ~jobs:2\n\
             \    ((fun x -> incr hits; x + !hits) [@lint.allow \"R1\"])\n\
             \    xs\n" );
       ])

let test_r1_clean () =
  check_rules "immutable captures pass" []
    (analyze
       [
         ( "lib/experiments/r1_clean.ml",
           parallel_stub
           ^ "let scale = 3\n\
              let burst xs = Pftk_parallel.map ~jobs:2 (fun x -> x * scale) xs\n"
         );
       ])

(* --- R2: exported mutable values ------------------------------------------- *)

let test_r2_mutable_export () =
  check_rules "val cache : int array in a lib interface" [ "R2" ]
    (analyze [ ("lib/core/r2_trigger.mli", "val cache : int array\n") ]);
  check_rules "record with a mutable field, transitively" [ "R2" ]
    (analyze
       [
         ( "lib/netsim/r2_record.mli",
           "type t = { mutable n : int }\nval shared : t\n" );
       ]);
  check_rules "immutable exports pass" []
    (analyze
       [
         ( "lib/core/r2_clean.mli",
           "val x : int\nval f : float -> float\nval xs : float list\n" );
       ])

(* --- R3: typed polymorphic-comparison ban ---------------------------------- *)

let test_r3_poly_compare () =
  check_rules "compare on floats in lib/core" [ "R3" ]
    (analyze
       [
         ( "lib/core/r3_trigger.ml",
           "let order (a : float) (b : float) = compare a b\n" );
       ]);
  check_rules "an alias of (=) is caught at the binding" [ "R3" ]
    (analyze
       [
         ("lib/core/r3_alias.ml", "let eq : float -> float -> bool = ( = )\n");
       ]);
  check_rules "Float.compare is the blessed spelling" []
    (analyze
       [
         ( "lib/core/r3_clean.ml",
           "let order (a : float) b = Float.compare a b\n\
            let lt (a : float) b = a < b\n" );
       ]);
  check_rules "poly compare allowed outside lib/core and lib/stats" []
    (analyze
       [ ("lib/tcp/r3_zone.ml", "let order (a : float) b = compare a b\n") ])

(* --- R4: domain checks at lib/core entry points ----------------------------- *)

let test_r4_unguarded () =
  check_rules "rtt and p both unguarded" [ "R4"; "R4" ]
    (analyze
       [
         ( "lib/core/r4_trigger.ml",
           "let send_rate ~rtt p = 1. /. (rtt *. sqrt p)\n" );
       ])

let test_r4_guarded () =
  check_rules "check_p call plus raising if satisfy the rule" []
    (analyze
       [
         ( "lib/core/r4_guarded.ml",
           "let check_p p =\n\
           \  if p <= 0. || p >= 1. then invalid_arg \"p outside (0, 1)\"\n\
            let send_rate ~rtt p =\n\
           \  check_p p;\n\
           \  if not (rtt > 0.) then invalid_arg \"rtt must be positive\";\n\
           \  1. /. (rtt *. sqrt p)\n" );
       ])

(* The validated-input convention: an [_unchecked]-suffixed export is
   exempt (callers — the batch engine — hoist the scan), while the same
   body under a plain name in the same unit is still flagged. *)
let test_r4_unchecked_suffix () =
  check_rules "only the unsuffixed binding is flagged" [ "R4"; "R4" ]
    (analyze
       [
         ( "lib/core/r4_unchecked.ml",
           "let send_rate_unchecked ~rtt p = 1. /. (rtt *. sqrt p)\n\
            let send_rate ~rtt p = 1. /. (rtt *. sqrt p)\n" );
       ])

let test_r4_zone_and_allow () =
  check_rules "same signature outside lib/core passes" []
    (analyze
       [
         ( "lib/stats/r4_zone.ml",
           "let send_rate ~rtt p = 1. /. (rtt *. sqrt p)\n" );
       ]);
  check_rules "binding-scoped allow suppresses" []
    (analyze
       [
         ( "lib/core/r4_allowed.ml",
           "let send_rate ~rtt p = 1. /. (rtt *. sqrt p)\n\
            [@@lint.allow \"R4\"]\n" );
       ])

(* --- The polymorphic-comparison inputs: R3 covers them --------------------- *)

(* R3 reads the value's scheme, not its instance, so [=] is flagged even
   on ints; a local monomorphic [min] is the unit's own value, not an
   external one. *)
let test_l1_inputs () =
  check_rules "bare = flagged in lib/core" [ "R3" ]
    (analyze [ ("lib/core/l1_eq.ml", "let f x = x = 0.\n") ]);
  check_rules "= on ints flagged too" [ "R3" ]
    (analyze [ ("lib/core/l1_int.ml", "let f (x : int) = x = 0\n") ]);
  check_rules "qualified Stdlib.compare flagged" [ "R3" ]
    (analyze
       [
         ( "lib/stats/l1_compare.ml",
           "let sort a = Array.sort Stdlib.compare a\n" );
       ]);
  check_rules "min flagged in lib/stats" [ "R3" ]
    (analyze [ ("lib/stats/l1_min.ml", "let lo a b = min a b\n") ]);
  check_rules "Float.equal is the blessed spelling" []
    (analyze [ ("lib/core/l1_float.ml", "let f x = Float.equal x 0.\n") ]);
  check_rules "local monomorphic redefinition not flagged" []
    (analyze
       [
         ( "lib/stats/l1_local.ml",
           "let min (a : float) b = if a < b then a else b\nlet lo = min 1. 2.\n"
         );
       ]);
  check_rules "polymorphic = allowed outside lib/core and lib/stats" []
    (analyze [ ("lib/tcp/l1_zone.ml", "let f x = x = 0\n") ])

(* --- L2: determinism ------------------------------------------------------- *)

let test_l2_determinism () =
  check_rules "Random.* in lib/" [ "L2" ]
    (analyze [ ("lib/loss/l2_random.ml", "let jitter () = Random.float 1.\n") ]);
  check_rules "Random.State too" [ "L2" ]
    (analyze
       [
         ( "lib/loss/l2_state.ml",
           "let s () = Random.State.make_self_init ()\n" );
       ]);
  check_rules "Sys.time in lib/" [ "L2" ]
    (analyze [ ("lib/experiments/l2_sys.ml", "let t () = Sys.time ()\n") ]);
  check_rules "Unix.gettimeofday in lib/" [ "L2" ]
    (analyze [ ("lib/trace/l2_unix.ml", "let t () = Unix.gettimeofday ()\n") ]);
  check_rules "Unix.time in lib/" [ "L2" ]
    (analyze [ ("lib/trace/l2_time.ml", "let t () = Unix.time ()\n") ]);
  check_rules "wall clock is fine in perfbench/" []
    (analyze [ ("perfbench/l2_zone.ml", "let t () = Unix.gettimeofday ()\n") ])

(* --- L3: mutable state created at module init time ------------------------- *)

let test_l3_domain_safety () =
  check_rules "toplevel Hashtbl.create" [ "L3" ]
    (analyze
       [
         ( "lib/core/l3_hashtbl.ml",
           "let cache : (int, float) Hashtbl.t = Hashtbl.create 16\n" );
       ]);
  check_rules "toplevel ref" [ "L3" ]
    (analyze [ ("lib/dataset/l3_ref.ml", "let counter = ref 0\n") ]);
  check_rules "toplevel Buffer.create" [ "L3" ]
    (analyze
       [ ("lib/trace/l3_buffer.ml", "let scratch = Buffer.create 256\n") ]);
  check_rules "toplevel expression item" [ "L3" ]
    (analyze [ ("lib/trace/l3_eval.ml", ";; ignore (ref 0)\n") ]);
  check_rules "toplevel mutable-field record literal" [ "L3" ]
    (analyze
       [
         ( "lib/netsim/l3_record.ml",
           "type s = { mutable n : int }\nlet shared = { n = 0 }\n" );
       ]);
  check_rules "mutable field of a type from another module" [ "L3" ]
    (analyze
       [
         ("lib/netsim/l3_types.ml", "type s = { mutable n : int }\n");
         ("lib/netsim/l3_cross.ml", "let shared = { L3_types.n = 0 }\n");
       ]);
  check_rules "ref inside a function body is per-call state" []
    (analyze
       [
         ( "lib/dataset/l3_fresh.ml",
           "let fresh () = ref 0\nlet table () = Hashtbl.create 16\n" );
       ]);
  check_rules "immutable record literal at toplevel is fine" []
    (analyze
       [
         ( "lib/netsim/l3_immutable.ml",
           "type s = { n : int }\nlet shared = { n = 0 }\n" );
       ])

(* --- L5: Obj.magic and partial accessors ----------------------------------- *)

let test_l5_partiality () =
  check_rules "Obj.magic" [ "L5" ]
    (analyze
       [
         ( "lib/core/l5_magic.ml",
           "let coerce (x : int) : float = Obj.magic x\n" );
       ]);
  check_rules "List.hd" [ "L5" ]
    (analyze [ ("lib/experiments/l5_hd.ml", "let first xs = List.hd xs\n") ]);
  check_rules "Option.get" [ "L5" ]
    (analyze [ ("lib/tcp/l5_get.ml", "let force o = Option.get o\n") ]);
  check_rules "Option.value is fine" []
    (analyze
       [ ("lib/tcp/l5_value.ml", "let force o = Option.value ~default:0 o\n") ])

(* --- [@lint.allow] suppression --------------------------------------------- *)

let test_allow_attribute () =
  check_rules "expression-scoped allow suppresses the finding" []
    (analyze
       [
         ( "lib/core/allow_expr.ml",
           "let same a b = (a = b) [@lint.allow \"R3\"]\n" );
       ]);
  check_rules "binding-scoped allow ([@@...]) suppresses too" []
    (analyze
       [
         ( "lib/trace/allow_binding.ml",
           "let stamp () = Unix.gettimeofday () [@@lint.allow \"L2\"]\n" );
       ]);
  check_rules "allow is scoped: sibling bindings still flagged" [ "L2" ]
    (analyze
       [
         ( "lib/trace/allow_sibling.ml",
           "let a () = Unix.gettimeofday () [@@lint.allow \"L2\"]\n\
            let b () = Unix.gettimeofday ()\n" );
       ]);
  check_rules "allow names only the listed rule" [ "L2" ]
    (analyze
       [
         ( "lib/core/allow_listed.ml",
           "let f x = (x = Sys.time ()) [@lint.allow \"R3\"]\n" );
       ]);
  check_rules "item-scoped allow on a toplevel expression" []
    (analyze
       [
         ( "lib/trace/allow_eval.ml",
           ";; ignore (ref 0) [@@lint.allow \"L3\"]\n" );
       ]);
  check_rules "several rules in one attribute" []
    (analyze
       [
         ( "lib/core/allow_several.ml",
           "let f x = (x = Sys.time ()) [@lint.allow \"R3 L2\"]\n" );
       ]);
  (* The typer files the attribute of [(e : t) [@...]] under e's
     exp_extra, not its exp_attributes. *)
  check_rules "allow on a constrained expression (R3)" []
    (analyze
       [
         ( "lib/core/allow_constrained.ml",
           "let order (a : float) b = (compare a b : int) [@lint.allow \"R3\"]\n"
         );
       ]);
  check_rules "allow on a constrained expression (L3)" []
    (analyze
       [
         ( "lib/dataset/allow_constrained.ml",
           "let counter = (ref 0 : int ref) [@lint.allow \"L3\"]\n" );
       ])

(* --- Clean fixture --------------------------------------------------------- *)

let test_clean () =
  check_rules "idiomatic model code has zero findings" []
    (analyze
       [
         ( "lib/core/clean.ml",
           "let send_rate ~rtt p =\n\
           \  if not (rtt > 0. && p > 0. && p < 1.) then\n\
           \    invalid_arg \"send_rate\";\n\
           \  1. /. (rtt *. sqrt (2. *. p /. 3.))\n\
            let clamp lo hi x = Float.min hi (Float.max lo x)\n\
            let is_zero x = Float.equal x 0.\n" );
       ])

(* --- cmt discovery ----------------------------------------------------------- *)

let test_cmt_files () =
  let root = fresh_root () in
  Alcotest.(check (list string)) "no artifacts, no files" []
    (F.Cmt.files [ root ]);
  compile_fixtures root [ ("lib/core/disc.ml", "let x = 1\n") ];
  Alcotest.(check int)
    "one compiled fixture, one cmt" 1
    (List.length (F.Cmt.files [ root ]))

(* --- CLI exit codes ----------------------------------------------------------- *)

(* The test binary runs from _build/default/test, so the CLI (a declared
   dune dependency) sits next door under tools/lint. *)
let cli = Filename.concat ".." (Filename.concat "tools/lint" "pftk_race.exe")

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0

let run_cli args =
  let out = Filename.temp_file "pftk_race_cli" ".out" in
  let status =
    Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:out)
  in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (status, text)

let test_cli () =
  if not (Sys.file_exists cli) then
    Alcotest.fail "pftk_race.exe not found next to the test binary";
  let dirty = fresh_root () in
  compile_fixtures dirty
    [
      ( "lib/experiments/cli_fixture.ml",
        parallel_stub
        ^ "let burst xs =\n\
          \  let hits = ref 0 in\n\
          \  Pftk_parallel.map ~jobs:2 (fun _ -> incr hits) xs\n"
      );
    ];
  let status, text = run_cli [ dirty ] in
  Alcotest.(check int) "dirty tree exits 1" 1 status;
  Alcotest.(check bool) "report carries the rule tag" true
    (contains text "[R1]");
  let status_json, json = run_cli [ "--format=json"; dirty ] in
  Alcotest.(check int) "json format keeps the exit code" 1 status_json;
  Alcotest.(check bool) "json mentions the rule" true
    (contains json {|"rule":"R1"|});
  let clean = fresh_root () in
  compile_fixtures clean [ ("lib/core/cli_clean.ml", "let x = 1\n") ];
  let status_clean, _ = run_cli [ clean ] in
  Alcotest.(check int) "clean tree exits 0" 0 status_clean;
  let status_missing, missing = run_cli [ clean; "nosuchdir" ] in
  Alcotest.(check int) "a missing root exits 2" 2 status_missing;
  Alcotest.(check bool) "and is named" true
    (contains missing "pftk-race: no such directory: nosuchdir")

let () =
  Alcotest.run "pftk_race"
    [
      ( "rules",
        [
          case "R1 mutable capture" test_r1_mutable_capture;
          case "R1 Pool.submit" test_r1_pool_submit;
          case "R1 lint.allow" test_r1_allow;
          case "R1 clean closure" test_r1_clean;
          case "R2 exported mutable state" test_r2_mutable_export;
          case "R3 typed poly compare" test_r3_poly_compare;
          case "R4 unguarded entry point" test_r4_unguarded;
          case "R4 guarded entry point" test_r4_guarded;
          case "R4 _unchecked exemption" test_r4_unchecked_suffix;
          case "R4 zone and allow" test_r4_zone_and_allow;
          case "L1 polymorphic comparison" test_l1_inputs;
          case "L2 determinism" test_l2_determinism;
          case "L3 domain safety" test_l3_domain_safety;
          case "L5 partiality" test_l5_partiality;
          case "lint.allow suppression" test_allow_attribute;
          case "clean fixture" test_clean;
          case "cmt discovery" test_cmt_files;
        ] );
      ("cli", [ case "exit codes and formats" test_cli ]);
    ]
