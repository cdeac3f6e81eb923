(* Tests for Pftk_parallel: ordering, exception propagation, how many
   domains a fan-out runs on, and — the property everything else rests on —
   determinism of the experiment generators under parallelism (jobs:1 vs
   jobs:4). *)

open Pftk_parallel

(* Uneven per-item work so parallel completion order differs from input
   order; the result must still come back in input order. *)
let busy_work i =
  let n = 1 + ((i * 7919) mod 2000) in
  let acc = ref 0 in
  for k = 1 to n do
    acc := (!acc + (k * k)) mod 1_000_003
  done;
  (i, !acc)

let test_map_ordering () =
  let items = List.init 50 Fun.id in
  Alcotest.(check (list (pair int int)))
    "input order preserved" (List.map busy_work items)
    (map ~jobs:4 busy_work items)

let test_mapi_indices () =
  let items = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  Alcotest.(check (list (pair int string)))
    "indices line up"
    (List.mapi (fun i x -> (i, x)) items)
    (mapi ~jobs:3 (fun i x -> (i, x)) items)

let test_init_ordering () =
  Alcotest.(check (array (pair int int)))
    "init matches Array.init"
    (Array.init 33 busy_work)
    (init ~jobs:4 33 busy_work)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty list" [] (map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 4 ] (map ~jobs:4 succ [ 3 ]);
  Alcotest.(check (array int)) "empty init" [||] (init ~jobs:4 0 succ)

let test_jobs_one_is_sequential () =
  let trace = ref [] in
  let f i =
    trace := i :: !trace;
    i
  in
  ignore (map ~jobs:1 f [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int))
    "jobs:1 visits items left to right" [ 0; 1; 2; 3 ] (List.rev !trace)

exception Boom of int

let test_exception_propagation () =
  Alcotest.check_raises "worker exception re-raised" (Boom 7) (fun () ->
      ignore
        (map ~jobs:4
           (fun i -> if i = 7 then raise (Boom 7) else busy_work i)
           (List.init 20 Fun.id)));
  Alcotest.check_raises "init propagates too" (Boom 3) (fun () ->
      ignore (init ~jobs:2 10 (fun i -> if i = 3 then raise (Boom 3) else i)))

let test_invalid_jobs () =
  Alcotest.check_raises "jobs:0 rejected"
    (Invalid_argument "Pftk_parallel.map: jobs must be >= 1") (fun () ->
      ignore (map ~jobs:0 Fun.id [ 1 ]));
  Alcotest.check_raises "negative n rejected"
    (Invalid_argument "Pftk_parallel.init: n must be >= 0") (fun () ->
      ignore (init ~jobs:2 (-1) Fun.id))

let test_jobs_exceed_items () =
  (* More jobs than work: [run] spawns at most [n - 1] helpers, so
     oversubscribed calls must neither hang nor drop items. *)
  Alcotest.(check (list int))
    "map jobs:16 over 3 items" [ 2; 3; 4 ]
    (map ~jobs:16 succ [ 1; 2; 3 ]);
  Alcotest.(check (list int))
    "mapi jobs:8 over 2 items" [ 10; 21 ]
    (mapi ~jobs:8 (fun i x -> (10 * i) + x) [ 10; 11 ]);
  Alcotest.(check (array int))
    "init jobs:8 over 1 slot" [| 5 |]
    (init ~jobs:8 1 (fun _ -> 5));
  Alcotest.(check (array int)) "init jobs:8 over 0 slots" [||]
    (init ~jobs:8 0 Fun.id)

(* More jobs than the runtime will run domains at once (its cap is 128 on
   64-bit OCaml 5.1): helpers stop at whatever the cap is and the running
   domains drain the rest, so the call neither fails nor drops items. *)
let test_jobs_beyond_domain_cap () =
  Alcotest.(check (array int))
    "init jobs:200 over 300 items" (Array.init 300 Fun.id)
    (init ~jobs:200 300 Fun.id)

(* [jobs] counts the caller: a [jobs:2] fan-out runs on the calling domain
   and one helper.  Items off the caller first wait until the caller has
   run an item (or the process has spent 2 s more CPU time), so a caller
   that only waits is caught instead of raced past. *)
let test_jobs_counts_caller () =
  let self () = (Domain.self () :> int) in
  let caller = self () in
  let caller_ran = Atomic.make false in
  let deadline = Sys.time () +. 2. in
  let record i =
    let id = self () in
    if id = caller then Atomic.set caller_ran true
    else begin
      while (not (Atomic.get caller_ran)) && Sys.time () < deadline do
        Domain.cpu_relax ()
      done
    end;
    ignore (busy_work i);
    id
  in
  let ids = map ~jobs:2 record (List.init 50 Fun.id) in
  Alcotest.(check bool) "the caller ran items" true (List.mem caller ids);
  Alcotest.(check bool)
    "at most two domains ran items" true
    (List.length (List.sort_uniq Int.compare ids) <= 2);
  Alcotest.(check (list int))
    "one item runs on the caller alone" [ caller ]
    (map ~jobs:2 (fun () -> self ()) [ () ])

let test_nested_ordering () =
  let inner i = List.init 7 (fun j -> (10 * i) + j) in
  let items = List.init 9 Fun.id in
  Alcotest.(check (list (list (pair int int))))
    "jobs:2 inside jobs:2 keeps both orders"
    (List.map (fun i -> List.map busy_work (inner i)) items)
    (map ~jobs:2 (fun i -> map ~jobs:2 busy_work (inner i)) items)

(* --- Determinism of the experiment fan-outs under parallelism ----------- *)

let test_table2_deterministic () =
  let a = Pftk_experiments.Table2.generate ~seed:211L ~duration:120. ~jobs:1 () in
  let b = Pftk_experiments.Table2.generate ~seed:211L ~duration:120. ~jobs:4 () in
  Alcotest.(check int) "same row count" (List.length a) (List.length b);
  Alcotest.(check bool) "rows identical under jobs:4" true (a = b)

let test_fig9_deterministic () =
  let a = Pftk_experiments.Fig9.generate ~seed:212L ~duration:120. ~jobs:1 () in
  let b = Pftk_experiments.Fig9.generate ~seed:212L ~duration:120. ~jobs:4 () in
  Alcotest.(check bool) "entries identical under jobs:4" true (a = b)

let test_window_dist_deterministic () =
  let a =
    Pftk_experiments.Window_dist.generate ~seed:213L ~rounds:30_000 ~jobs:1 ()
  in
  let b =
    Pftk_experiments.Window_dist.generate ~seed:213L ~rounds:30_000 ~jobs:4 ()
  in
  Alcotest.(check (array (float 0.)))
    "histograms bit-identical under jobs:4"
    a.Pftk_experiments.Window_dist.simulated_dist
    b.Pftk_experiments.Window_dist.simulated_dist

let test_batch_deterministic () =
  let profile = List.hd Pftk_dataset.Path_profile.all in
  let rates jobs =
    Pftk_dataset.Workload.batch_100s ~seed:214L ~count:8 ~jobs profile
    |> List.map (fun t ->
           t.Pftk_dataset.Workload.result.Pftk_tcp.Round_sim.send_rate)
  in
  Alcotest.(check (list (float 0.)))
    "batch rates identical under jobs:4" (rates 1) (rates 4)

let () =
  let case name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "pftk_parallel"
    [
      ( "primitives",
        [
          case "map ordering" test_map_ordering;
          case "mapi indices" test_mapi_indices;
          case "init ordering" test_init_ordering;
          case "empty and singleton" test_empty_and_singleton;
          case "jobs:1 sequential" test_jobs_one_is_sequential;
          case "exception propagation" test_exception_propagation;
          case "invalid arguments" test_invalid_jobs;
          case "jobs exceed items" test_jobs_exceed_items;
          case "jobs beyond the domain cap" test_jobs_beyond_domain_cap;
          case "jobs counts the caller" test_jobs_counts_caller;
          case "nested map ordering" test_nested_ordering;
        ] );
      ( "determinism",
        [
          case "table2 jobs:1 = jobs:4" test_table2_deterministic;
          case "fig9 jobs:1 = jobs:4" test_fig9_deterministic;
          case "window-dist jobs:1 = jobs:4" test_window_dist_deterministic;
          case "workload batch jobs:1 = jobs:4" test_batch_deterministic;
        ] );
    ]
