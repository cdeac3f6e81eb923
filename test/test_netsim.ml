(* Tests for pftk_netsim: event queue semantics, queue disciplines, link
   timing/drop behavior, duplex paths. *)

module Sim = Pftk_netsim.Sim
module Queue_discipline = Pftk_netsim.Queue_discipline
module Link = Pftk_netsim.Link
module Path = Pftk_netsim.Path

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let case name f = Alcotest.test_case name `Quick f
let rng () = Pftk_stats.Rng.create ~seed:1L ()

(* --- Sim -------------------------------------------------------------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.schedule sim ~delay:3. (note "c");
  Sim.schedule sim ~delay:1. (note "a");
  Sim.schedule sim ~delay:2. (note "b");
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:1. (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0. in
  Sim.schedule sim ~delay:2.5 (fun () -> seen := Sim.now sim);
  Sim.run sim;
  check_float "clock at event time" 2.5 !seen;
  check_float "clock after run" 2.5 (Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let finished = ref 0. in
  Sim.schedule sim ~delay:1. (fun () ->
      Sim.schedule sim ~delay:1. (fun () -> finished := Sim.now sim));
  Sim.run sim;
  check_float "nested event at t=2" 2. !finished

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.timer sim in
  Sim.arm timer ~delay:1. (fun () -> fired := true);
  Alcotest.(check bool) "armed" true (Sim.armed timer);
  Sim.disarm timer;
  Alcotest.(check bool) "disarmed" false (Sim.armed timer);
  Sim.disarm timer;
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired

let test_sim_rearm () =
  (* Re-arming replaces the deadline, and a timer may re-arm itself. *)
  let sim = Sim.create () in
  let fired = ref [] in
  let timer = Sim.timer sim in
  let rec tick () =
    fired := Sim.now sim :: !fired;
    if Sim.now sim < 4. then Sim.arm timer ~delay:1. tick
  in
  Sim.arm timer ~delay:5. tick;
  Sim.arm timer ~delay:2. tick;
  Sim.run sim;
  Alcotest.(check (list (float 0.))) "fired at" [ 4.; 3.; 2. ] !fired;
  Alcotest.(check bool) "unarmed once fired" false (Sim.armed timer)

let test_sim_line () =
  (* A line delivers in push order, interleaved with other events by
     the key each push took. *)
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sim) :: !log in
  let line = Sim.line sim ~delay:1. in
  Sim.push line (note "a");
  Sim.schedule sim ~delay:1. (note "x");
  Sim.push line (note "b");
  Sim.schedule sim ~delay:0.5 (fun () -> Sim.push line (note "c"));
  Alcotest.(check int) "pending" 4 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.))))
    "order" [ ("a", 1.); ("x", 1.); ("b", 1.); ("c", 1.5) ] (List.rev !log);
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.line: delay must be non-negative") (fun () ->
      ignore (Sim.line sim ~delay:Float.nan : Sim.line))

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.schedule sim ~delay:1. (fun () -> fired := 1 :: !fired);
  Sim.schedule sim ~delay:5. (fun () -> fired := 5 :: !fired);
  Sim.run ~until:3. sim;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  check_float "clock parked at horizon" 3. (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list int)) "late event eventually fires" [ 5; 1 ] !fired

let test_sim_step () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1. ignore;
  Alcotest.(check bool) "one step" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim)

let test_sim_pending () =
  let sim = Sim.create () in
  let timer = Sim.timer sim in
  Sim.arm timer ~delay:1. ignore;
  Sim.schedule sim ~delay:2. ignore;
  Alcotest.(check int) "two pending" 2 (Sim.pending sim);
  Sim.arm timer ~delay:3. ignore;
  Alcotest.(check int) "re-arming adds none" 2 (Sim.pending sim);
  Sim.disarm timer;
  Alcotest.(check int) "one pending after disarm" 1 (Sim.pending sim)

let test_sim_past_raises () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1. ignore;
  Sim.run sim;
  Alcotest.check_raises "past time"
    (Invalid_argument "Sim.schedule_at: time in the past") (fun () ->
      Sim.schedule_at sim ~time:0.5 ignore);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule sim ~delay:(-1.) ignore);
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Sim.schedule_at: NaN time") (fun () ->
      Sim.schedule_at sim ~time:Float.nan ignore);
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.schedule: NaN delay") (fun () ->
      Sim.schedule sim ~delay:Float.nan ignore);
  let timer = Sim.timer sim in
  Alcotest.check_raises "negative arm"
    (Invalid_argument "Sim.arm: negative delay") (fun () ->
      Sim.arm timer ~delay:(-1.) ignore);
  Alcotest.check_raises "NaN arm" (Invalid_argument "Sim.arm: NaN delay")
    (fun () -> Sim.arm timer ~delay:Float.nan ignore);
  Alcotest.(check int) "nothing entered the queue" 0 (Sim.pending sim);
  (* A NaN among ordinary events used to land in the heap and scramble
     it: the clock visited 1, 4, 0.5, 2, 3, then NaN. *)
  let sim = Sim.create () in
  let clocks = ref [] in
  List.iter
    (fun delay ->
      try Sim.schedule sim ~delay (fun () -> clocks := Sim.now sim :: !clocks)
      with Invalid_argument _ -> ())
    [ 3.; Float.nan; 1.; 2.; 0.5; 4. ];
  Sim.run ~until:10. sim;
  Alcotest.(check (list (float 0.))) "in time order" [ 0.5; 1.; 2.; 3.; 4. ]
    (List.rev !clocks);
  check_float "clock parked at horizon" 10. (Sim.now sim)

let test_sim_run_until_skips_cancelled_head () =
  (* Regression: a cancelled event at the heap head must not let run-until
     dispatch a live event beyond the horizon (which would move the clock
     past it and then snap backwards).  A disarmed timer leaves nothing
     behind. *)
  let sim = Sim.create () in
  let fired_at = ref [] in
  let early = Sim.timer sim in
  Sim.arm early ~delay:1. (fun () -> fired_at := 1. :: !fired_at);
  Sim.schedule sim ~delay:50. (fun () -> fired_at := 50. :: !fired_at);
  Sim.disarm early;
  Sim.run ~until:10. sim;
  Alcotest.(check (list (float 1e-9))) "nothing fired" [] !fired_at;
  check_float "clock parked at horizon" 10. (Sim.now sim);
  (* And the clock never goes backwards on subsequent scheduling. *)
  Sim.schedule sim ~delay:1. ignore;
  Sim.run ~until:12. sim;
  check_float "still monotone" 12. (Sim.now sim)

let test_sim_many_events () =
  (* Stress the heap beyond its initial capacity with a reverse-sorted load. *)
  let sim = Sim.create () in
  let count = ref 0 in
  let last = ref neg_infinity in
  for i = 1000 downto 1 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () ->
        incr count;
        Alcotest.(check bool) "monotone dispatch" true (Sim.now sim >= !last);
        last := Sim.now sim)
  done;
  Sim.run sim;
  Alcotest.(check int) "all fired" 1000 !count

(* --- Sim against the previous core ---------------------------------------------

   [Oracle] is the previous event core, verbatim but for its lint
   attribute: every event a boxed record, cancellation by flag.  Timers
   map onto it as cancel-and-reschedule and lines as one event per push,
   which is how the network layer used it.  Random programs run on both
   cores must dispatch the same actions at the same clocks. *)

module Oracle = struct
  type event = {
    time : float;
    seq : int;
    action : unit -> unit;
    mutable cancelled : bool;
  }

  type t = {
    mutable heap : event array;
    mutable size : int;
    mutable clock : float;
    mutable next_seq : int;
  }

  (* Shared heap-padding sentinel. Although [cancelled] is a mutable
     field, the sentinel is never mutated: it is born cancelled and no
     code path un-cancels an event, so sharing it across domains is
     race-free. *)
  let dummy_event = { time = 0.; seq = -1; action = ignore; cancelled = true }

  let create () =
    { heap = Array.make 64 dummy_event; size = 0; clock = 0.; next_seq = 0 }

  let now t = t.clock

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow t =
    let bigger = Array.make (2 * Array.length t.heap) dummy_event in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger

  let sift_up t i =
    let e = t.heap.(i) in
    let rec loop i =
      if i = 0 then i
      else
        let parent = (i - 1) / 2 in
        if before e t.heap.(parent) then begin
          t.heap.(i) <- t.heap.(parent);
          loop parent
        end
        else i
    in
    t.heap.(loop i) <- e

  let sift_down t i =
    let e = t.heap.(i) in
    let rec loop i =
      let l = (2 * i) + 1 in
      if l >= t.size then i
      else begin
        let child =
          if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l
        in
        if before t.heap.(child) e then begin
          t.heap.(i) <- t.heap.(child);
          loop child
        end
        else i
      end
    in
    t.heap.(loop i) <- e

  let push t e =
    if t.size = Array.length t.heap then grow t;
    t.heap.(t.size) <- e;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    let e = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    t.heap.(t.size) <- dummy_event;
    e

  let schedule_at t ~time action =
    if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
    let e = { time; seq = t.next_seq; action; cancelled = false } in
    t.next_seq <- t.next_seq + 1;
    push t e;
    e

  let schedule t ~delay action =
    if delay < 0. then invalid_arg "Sim.schedule: negative delay";
    schedule_at t ~time:(t.clock +. delay) action

  let cancel e =
    if not e.cancelled then e.cancelled <- true

  let cancelled e = e.cancelled

  let pending t =
    let n = ref 0 in
    for i = 0 to t.size - 1 do
      if not t.heap.(i).cancelled then incr n
    done;
    !n

  let step t =
    let rec next () =
      if t.size = 0 then false
      else begin
        let e = pop t in
        if e.cancelled then next ()
        else begin
          t.clock <- e.time;
          e.action ();
          true
        end
      end
    in
    next ()

  let run ?until t =
    match until with
    | None -> while step t do () done
    | Some horizon ->
        let rec loop () =
          (* Discard cancelled heads first: the horizon check must see the
             next event that will actually fire, or [step] would leap past
             the horizon through a cancelled head. *)
          while t.size > 0 && t.heap.(0).cancelled do
            ignore (pop t)
          done;
          if t.size = 0 then t.clock <- Float.max t.clock horizon
          else if t.heap.(0).time > horizon then
            t.clock <- Float.max t.clock horizon
          else begin
            ignore (step t);
            loop ()
          end
        in
        loop ()
end

(* The operations a program may use, over either core: three timers and
   two lines (delays 0.5 and 0). *)
type core = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> unit;
  schedule_at : time:float -> (unit -> unit) -> unit;
  arm : int -> delay:float -> (unit -> unit) -> unit;
  disarm : int -> unit;
  armed : int -> bool;
  push : int -> (unit -> unit) -> unit;
  step : unit -> bool;
  run : float option -> unit;
  pending : unit -> int;
}

let line_delays = [| 0.5; 0. |]

let new_core () =
  let sim = Sim.create () in
  let timers = Array.init 3 (fun _ -> Sim.timer sim) in
  let lines = Array.map (fun delay -> Sim.line sim ~delay) line_delays in
  {
    now = (fun () -> Sim.now sim);
    schedule = (fun ~delay f -> Sim.schedule sim ~delay f);
    schedule_at = (fun ~time f -> Sim.schedule_at sim ~time f);
    arm = (fun i ~delay f -> Sim.arm timers.(i) ~delay f);
    disarm = (fun i -> Sim.disarm timers.(i));
    armed = (fun i -> Sim.armed timers.(i));
    push = (fun i f -> Sim.push lines.(i) f);
    step = (fun () -> Sim.step sim);
    run = (fun until -> Sim.run ?until sim);
    pending = (fun () -> Sim.pending sim);
  }

let oracle_core () =
  let sim = Oracle.create () in
  let timers = Array.make 3 None in
  let disarm i =
    Option.iter Oracle.cancel timers.(i);
    timers.(i) <- None
  in
  {
    now = (fun () -> Oracle.now sim);
    schedule = (fun ~delay f -> ignore (Oracle.schedule sim ~delay f));
    schedule_at = (fun ~time f -> ignore (Oracle.schedule_at sim ~time f));
    arm =
      (fun i ~delay f ->
        disarm i;
        timers.(i) <-
          Some
            (Oracle.schedule sim ~delay (fun () ->
                 timers.(i) <- None;
                 f ())));
    disarm;
    armed =
      (fun i ->
        match timers.(i) with
        | Some e -> not (Oracle.cancelled e)
        | None -> false);
    push = (fun i f -> ignore (Oracle.schedule sim ~delay:line_delays.(i) f));
    step = (fun () -> Oracle.step sim);
    run = (fun until -> Oracle.run ?until sim);
    pending = (fun () -> Oracle.pending sim);
  }

(* Run program [seed] on [core]: 150 random top-level operations, then a
   drain.  A fired action logs its id and the clock, and one in three
   performs a nested operation.  Both cores draw from the same stream in
   dispatch order, so they stay in step exactly as long as they dispatch
   alike.  Delays come from a small set, so ties are common. *)
let run_program core seed =
  let rng = Random.State.make [| seed |] in
  let log = ref [] in
  let note entry = log := entry :: !log in
  let next_id = ref 0 in
  let delays = [| 0.; 0.25; 0.5; 1.; 1.5; 2.; 3. |] in
  let delay () = delays.(Random.State.int rng (Array.length delays)) in
  let rec action () =
    let id = !next_id in
    incr next_id;
    fun () ->
      note (`Fired (id, core.now ()));
      if Random.State.int rng 3 = 0 then nested ()
  and nested () =
    match Random.State.int rng 5 with
    | 0 -> core.schedule ~delay:(delay ()) (action ())
    | 1 -> core.schedule_at ~time:(core.now () +. delay ()) (action ())
    | 2 -> core.arm (Random.State.int rng 3) ~delay:(delay ()) (action ())
    | 3 -> core.disarm (Random.State.int rng 3)
    | _ -> core.push (Random.State.int rng 2) (action ())
  in
  for _ = 1 to 150 do
    (match Random.State.int rng 8 with
    | 0 | 1 | 2 -> nested ()
    | 3 -> core.arm (Random.State.int rng 3) ~delay:(delay ()) (action ())
    | 4 -> core.push (Random.State.int rng 2) (action ())
    | 5 -> note (`Stepped (core.step ()))
    | 6 -> core.run (Some (core.now () +. delay ()))
    | _ -> core.disarm (Random.State.int rng 3));
    note
      (`State
        (core.now (), core.pending (), List.init 3 core.armed))
  done;
  core.run None;
  note (`State (core.now (), core.pending (), List.init 3 core.armed));
  List.rev !log

let test_sim_matches_oracle () =
  for seed = 1 to 300 do
    let expected = run_program (oracle_core ()) seed in
    let actual = run_program (new_core ()) seed in
    if expected <> actual then
      Alcotest.failf "program %d: the cores dispatch differently" seed
  done

(* --- Queue disciplines --------------------------------------------------------- *)

let test_drop_tail () =
  let d = Queue_discipline.drop_tail ~capacity:2 in
  let st = Queue_discipline.init d in
  let rng = rng () in
  Alcotest.(check bool) "admit 0" true
    (Queue_discipline.admit d st ~rng ~queue_length:0);
  Alcotest.(check bool) "admit 1" true
    (Queue_discipline.admit d st ~rng ~queue_length:1);
  Alcotest.(check bool) "drop at capacity" false
    (Queue_discipline.admit d st ~rng ~queue_length:2)

let test_red_below_min () =
  let d =
    Queue_discipline.red ~capacity:100 ~min_threshold:5. ~max_threshold:15. ()
  in
  let st = Queue_discipline.init d in
  let rng = rng () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "no drop below min threshold" true
      (Queue_discipline.admit d st ~rng ~queue_length:1)
  done

let test_red_above_max () =
  let d =
    Queue_discipline.red ~weight:1. ~capacity:100 ~min_threshold:2.
      ~max_threshold:10. ()
  in
  let st = Queue_discipline.init d in
  let rng = rng () in
  (* weight 1 makes the average jump straight to the sample. *)
  Alcotest.(check bool) "drop above max threshold" false
    (Queue_discipline.admit d st ~rng ~queue_length:50)

let test_red_gentle_region_drops_sometimes () =
  let d =
    Queue_discipline.red ~weight:1. ~max_probability:0.5 ~capacity:100
      ~min_threshold:2. ~max_threshold:20. ()
  in
  let st = Queue_discipline.init d in
  let rng = rng () in
  let drops = ref 0 in
  for _ = 1 to 1000 do
    if not (Queue_discipline.admit d st ~rng ~queue_length:11) then incr drops
  done;
  Alcotest.(check bool) "some but not all dropped" true
    (!drops > 50 && !drops < 950)

let test_red_average_tracks () =
  let d =
    Queue_discipline.red ~weight:0.5 ~capacity:10 ~min_threshold:2.
      ~max_threshold:8. ()
  in
  let st = Queue_discipline.init d in
  let rng = rng () in
  ignore (Queue_discipline.admit d st ~rng ~queue_length:4);
  check_float "avg after one sample" 2. (Queue_discipline.average_queue st)

let test_red_validation () =
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Queue_discipline.red: need 0 <= min_th < max_th")
    (fun () ->
      ignore
        (Queue_discipline.red ~capacity:10 ~min_threshold:5. ~max_threshold:5. ()))

(* --- Link ------------------------------------------------------------------------ *)

let test_link_latency () =
  (* 1000-byte packet at 10 kB/s + 0.1 s propagation = 0.2 s. *)
  let sim = Sim.create () in
  let arrived = ref 0. in
  let link =
    Link.create ~sim ~rng:(rng ()) ~bandwidth:10_000. ~delay:0.1
      ~deliver:(fun () -> arrived := Sim.now sim)
      ()
  in
  Alcotest.(check bool) "accepted" true (Link.send link ~size:1000 ());
  Sim.run sim;
  check_float "serialization + propagation" 0.2 !arrived

let test_link_fifo () =
  let sim = Sim.create () in
  let out = ref [] in
  let link =
    Link.create ~sim ~rng:(rng ()) ~bandwidth:1000. ~delay:0.01
      ~deliver:(fun i -> out := i :: !out)
      ()
  in
  for i = 1 to 5 do
    ignore (Link.send link ~size:100 i)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO delivery" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let test_link_queue_overflow () =
  let sim = Sim.create () in
  let delivered = ref 0 in
  let link =
    Link.create
      ~discipline:(Queue_discipline.drop_tail ~capacity:2)
      ~sim ~rng:(rng ()) ~bandwidth:1000. ~delay:0.
      ~deliver:(fun () -> incr delivered)
      ()
  in
  let accepted = ref 0 in
  for _ = 1 to 10 do
    if Link.send link ~size:100 () then incr accepted
  done;
  Sim.run sim;
  Alcotest.(check int) "accepted = delivered" !accepted !delivered;
  let stats = Link.stats link in
  Alcotest.(check int) "offered" 10 stats.Link.offered;
  Alcotest.(check int) "drops accounted" 10
    (stats.Link.delivered + stats.Link.dropped_queue);
  Alcotest.(check bool) "some dropped" true (stats.Link.dropped_queue > 0)

let test_link_serialization_spacing () =
  (* Packets leave one serialization time apart. *)
  let sim = Sim.create () in
  let times = ref [] in
  let link =
    Link.create ~sim ~rng:(rng ()) ~bandwidth:1000. ~delay:0.
      ~deliver:(fun () -> times := Sim.now sim :: !times)
      ()
  in
  ignore (Link.send link ~size:100 ());
  ignore (Link.send link ~size:100 ());
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2 ] ->
      check_float "first at 0.1" 0.1 t1;
      check_float "second at 0.2" 0.2 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_link_random_loss () =
  let sim = Sim.create () in
  let delivered = ref 0 in
  let link =
    Link.create
      ~random_loss:(fun () -> true)
      ~sim ~rng:(rng ()) ~bandwidth:1000. ~delay:0.
      ~deliver:(fun () -> incr delivered)
      ()
  in
  Alcotest.(check bool) "rejected" false (Link.send link ~size:100 ());
  Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "counted as random drop" 1
    (Link.stats link).Link.dropped_random

let test_link_busy_time () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rng:(rng ()) ~bandwidth:1000. ~delay:0.5 ~deliver:ignore ()
  in
  ignore (Link.send link ~size:300 ());
  Sim.run sim;
  check_float "busy time" 0.3 (Link.busy_time link)

let test_link_bytes_delivered () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rng:(rng ()) ~bandwidth:1e6 ~delay:0. ~deliver:ignore ()
  in
  ignore (Link.send link ~size:100 ());
  ignore (Link.send link ~size:200 ());
  Sim.run sim;
  Alcotest.(check int) "bytes" 300 (Link.stats link).Link.bytes_delivered

let test_link_max_queue () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rng:(rng ()) ~bandwidth:1000. ~delay:0. ~deliver:ignore ()
  in
  for _ = 1 to 5 do
    ignore (Link.send link ~size:100 ())
  done;
  Sim.run sim;
  Alcotest.(check int) "high-water mark" 5 (Link.stats link).Link.max_queue

let test_link_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Link.create: bandwidth must be positive") (fun () ->
      ignore
        (Link.create ~sim ~rng:(rng ()) ~bandwidth:0. ~delay:0. ~deliver:ignore ()))

(* --- Link against the previous link ------------------------------------------

   [Oracle_link] is the previous link verbatim, on [Oracle]: a [Queue] of
   items and two closures and two events per packet.  Random traffic over
   two links (one drop-tail, one RED, both with a random-loss hook) must
   deliver the same packets at the same clocks, with the same occupancy
   seen at each delivery and the same stats.  Serialization times equal
   propagation delays, so transmissions and deliveries tie and their
   order rests on when each took its sequence number. *)

module Oracle_link = struct
  module Sim = Oracle

  type 'a item = { size : int; payload : 'a }

  type stats = {
    offered : int;
    delivered : int;
    dropped_queue : int;
    dropped_random : int;
    bytes_delivered : int;
    max_queue : int;
  }

  type 'a t = {
    sim : Sim.t;
    rng : Pftk_stats.Rng.t;
    bandwidth : float;
    delay : float;
    deliver : 'a -> unit;
    discipline : Queue_discipline.t;
    disc_state : Queue_discipline.state;
    random_loss : (unit -> bool) option;
    queue : 'a item Queue.t;
    mutable transmitting : bool;
    mutable propagating : int;
    mutable offered : int;
    mutable delivered : int;
    mutable dropped_queue : int;
    mutable dropped_random : int;
    mutable bytes_delivered : int;
    mutable max_queue : int;
    mutable busy_time : float;
    mutable queue_area : float;  (* ∫ queue-length dt up to last_queue_event *)
    mutable last_queue_event : float;
  }

  let create ?(discipline = Queue_discipline.drop_tail ~capacity:64) ?random_loss
      ~sim ~rng ~bandwidth ~delay ~deliver () =
    if not (bandwidth > 0.) then invalid_arg "Link.create: bandwidth must be positive";
    if delay < 0. then invalid_arg "Link.create: negative delay";
    {
      sim;
      rng;
      bandwidth;
      delay;
      deliver;
      discipline;
      disc_state = Queue_discipline.init discipline;
      random_loss;
      queue = Queue.create ();
      transmitting = false;
      propagating = 0;
      offered = 0;
      delivered = 0;
      dropped_queue = 0;
      dropped_random = 0;
      bytes_delivered = 0;
      max_queue = 0;
      busy_time = 0.;
      queue_area = 0.;
      last_queue_event = 0.;
    }

  let queue_length t = Queue.length t.queue
  let in_flight t = t.propagating

  (* Account the time spent at the current queue length; call before any
     length change so [queue_area] stays a step-function integral. *)
  let observe_queue t =
    let now = Sim.now t.sim in
    t.queue_area <-
      t.queue_area +. (float_of_int (Queue.length t.queue) *. (now -. t.last_queue_event));
    t.last_queue_event <- now

  let mean_queue t =
    let now = Sim.now t.sim in
    if now <= 0. then 0.
    else
      (t.queue_area
      +. (float_of_int (Queue.length t.queue) *. (now -. t.last_queue_event)))
      /. now

  (* Pull the head of the queue into transmission; when its serialization
     completes, launch propagation and recurse on the next packet. *)
  let rec start_transmission t =
    match Queue.peek_opt t.queue with
    | None -> t.transmitting <- false
    | Some { size; payload } ->
        t.transmitting <- true;
        let tx_time = float_of_int size /. t.bandwidth in
        t.busy_time <- t.busy_time +. tx_time;
        ignore
          (Sim.schedule t.sim ~delay:tx_time (fun () ->
               observe_queue t;
               ignore (Queue.pop t.queue);
               Queue_discipline.on_dequeue t.discipline t.disc_state
                 ~queue_length:(Queue.length t.queue);
               t.propagating <- t.propagating + 1;
               ignore
                 (Sim.schedule t.sim ~delay:t.delay (fun () ->
                      t.propagating <- t.propagating - 1;
                      t.delivered <- t.delivered + 1;
                      t.bytes_delivered <- t.bytes_delivered + size;
                      t.deliver payload));
               start_transmission t))

  let send (t : _ t) ~size payload =
    if size <= 0 then invalid_arg "Link.send: size must be positive";
    t.offered <- t.offered + 1;
    let randomly_lost =
      match t.random_loss with Some lossy -> lossy () | None -> false
    in
    if randomly_lost then begin
      t.dropped_random <- t.dropped_random + 1;
      false
    end
    else if
      not
        (Queue_discipline.admit t.discipline t.disc_state ~rng:t.rng
           ~queue_length:(Queue.length t.queue))
    then begin
      t.dropped_queue <- t.dropped_queue + 1;
      false
    end
    else begin
      observe_queue t;
      Queue.push { size; payload } t.queue;
      if Queue.length t.queue > t.max_queue then t.max_queue <- Queue.length t.queue;
      if not t.transmitting then start_transmission t;
      true
    end

  let stats (t : _ t) : stats =
    {
      offered = t.offered;
      delivered = t.delivered;
      dropped_queue = t.dropped_queue;
      dropped_random = t.dropped_random;
      bytes_delivered = t.bytes_delivered;
      max_queue = t.max_queue;
    }

  let busy_time t = t.busy_time
  let delay t = t.delay
end

module type NET = sig
  type sim
  type 'a link

  val sim : unit -> sim
  val now : sim -> float
  val schedule : sim -> delay:float -> (unit -> unit) -> unit
  val run : ?until:float -> sim -> unit

  val link :
    discipline:Queue_discipline.t ->
    random_loss:(unit -> bool) ->
    sim ->
    rng:Pftk_stats.Rng.t ->
    bandwidth:float ->
    delay:float ->
    deliver:('a -> unit) ->
    'a link

  val send : 'a link -> size:int -> 'a -> bool
  val observe : 'a link -> int * int * float * float

  val stats : 'a link -> int * int * int * int * int * int
  val delay : 'a link -> float
end

module Link_program (N : NET) = struct
  let run seed =
    let rng = Random.State.make [| seed |] in
    let log = ref [] in
    let note entry = log := entry :: !log in
    let sim = N.sim () in
    let lossy () = Random.State.int rng 12 = 0 in
    let size () = 100 * (1 + Random.State.int rng 3) in
    let links = Array.make 2 None in
    let send k id =
      match links.(k) with
      | Some l -> note (`Sent (k, id, N.send l ~size:(size ()) id))
      | None -> ()
    in
    let deliver k id =
      match links.(k) with
      | Some l ->
          note (`Delivered (k, id, N.now sim, N.observe l));
          if Random.State.int rng 3 = 0 then send (1 - k) (id + 1000)
      | None -> ()
    in
    links.(0) <-
      Some
        (N.link
           ~discipline:(Queue_discipline.drop_tail ~capacity:4)
           ~random_loss:lossy sim
           ~rng:(Pftk_stats.Rng.create ~seed:(Int64.of_int seed) ())
           ~bandwidth:1000. ~delay:0.1 ~deliver:(deliver 0));
    links.(1) <-
      Some
        (N.link
           ~discipline:
             (Queue_discipline.red ~weight:0.5 ~capacity:6 ~min_threshold:1.
                ~max_threshold:4. ~max_probability:0.5 ())
           ~random_loss:lossy sim
           ~rng:(Pftk_stats.Rng.create ~seed:(Int64.of_int (seed + 1)) ())
           ~bandwidth:2000. ~delay:0.05 ~deliver:(deliver 1));
    for id = 1 to 120 do
      let k = Random.State.int rng 2 in
      N.schedule sim ~delay:(0.05 *. float_of_int (Random.State.int rng 40))
        (fun () -> send k id);
      if Random.State.int rng 10 = 0 then
        N.run ~until:(N.now sim +. (0.05 *. float_of_int (Random.State.int rng 8))) sim
    done;
    N.run sim;
    Array.iter
      (function
        | Some l -> note (`Final (N.stats l, N.observe l, N.delay l))
        | None -> ())
      links;
    List.rev !log
end

module Current = Link_program (struct
  type sim = Sim.t
  type 'a link = 'a Link.t

  let sim = Sim.create
  let now = Sim.now
  let schedule = Sim.schedule
  let run = Sim.run

  let link ~discipline ~random_loss sim ~rng ~bandwidth ~delay ~deliver =
    Link.create ~discipline ~random_loss ~sim ~rng ~bandwidth ~delay ~deliver ()

  let send = Link.send

  let observe l =
    (Link.queue_length l, Link.in_flight l, Link.busy_time l, Link.mean_queue l)

  let stats l =
    let s = Link.stats l in
    Link.(
      ( s.offered,
        s.delivered,
        s.dropped_queue,
        s.dropped_random,
        s.bytes_delivered,
        s.max_queue ))

  let delay = Link.delay
end)

module Previous = Link_program (struct
  type sim = Oracle.t
  type 'a link = 'a Oracle_link.t

  let sim = Oracle.create
  let now = Oracle.now
  let schedule sim ~delay f = ignore (Oracle.schedule sim ~delay f)
  let run = Oracle.run

  let link ~discipline ~random_loss sim ~rng ~bandwidth ~delay ~deliver =
    Oracle_link.create ~discipline ~random_loss ~sim ~rng ~bandwidth ~delay
      ~deliver ()

  let send = Oracle_link.send

  let observe l =
    ( Oracle_link.queue_length l,
      Oracle_link.in_flight l,
      Oracle_link.busy_time l,
      Oracle_link.mean_queue l )

  let stats l =
    let s = Oracle_link.stats l in
    Oracle_link.(
      ( s.offered,
        s.delivered,
        s.dropped_queue,
        s.dropped_random,
        s.bytes_delivered,
        s.max_queue ))

  let delay = Oracle_link.delay
end)

let test_link_matches_oracle () =
  for seed = 1 to 200 do
    if Previous.run seed <> Current.run seed then
      Alcotest.failf "program %d: the links deliver differently" seed
  done

(* --- Cross traffic ------------------------------------------------------------------ *)

module Cross_traffic = Pftk_netsim.Cross_traffic

let test_cross_traffic_mean_rate () =
  (* Long-run emission matches rate * duty cycle. *)
  let sim = Sim.create () in
  let count = ref 0 in
  let config =
    { Cross_traffic.default with Cross_traffic.rate = 100.; mean_on = 1.; mean_off = 3. }
  in
  let source =
    Cross_traffic.start ~config ~sim ~rng:(rng ()) ~send:(fun ~size ->
        ignore size;
        incr count)
      ()
  in
  Sim.run ~until:4000. sim;
  let measured = float_of_int !count /. 4000. in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%% of %g (got %g)" (Cross_traffic.mean_rate config) measured)
    true
    (Float.abs (measured -. Cross_traffic.mean_rate config)
     /. Cross_traffic.mean_rate config
    < 0.1);
  Alcotest.(check int) "counter agrees" !count (Cross_traffic.packets_sent source)

let test_cross_traffic_bursty () =
  (* During ON the instantaneous rate far exceeds the long-run mean:
     count packets in 100-ms slots and look at the busiest slot. *)
  let sim = Sim.create () in
  let slots = Array.make 2000 0 in
  let config =
    { Cross_traffic.default with Cross_traffic.rate = 500.; mean_on = 0.5; mean_off = 4.5 }
  in
  ignore
    (Cross_traffic.start ~config ~sim ~rng:(rng ()) ~send:(fun ~size ->
         ignore size;
         let slot = int_of_float (Sim.now sim /. 0.1) in
         if slot < 2000 then slots.(slot) <- slots.(slot) + 1)
       ());
  Sim.run ~until:200. sim;
  let busiest = Array.fold_left max 0 slots in
  (* 500 pkt/s = ~50 per busy slot; long-run mean = 50 pkt/s = 5 per slot. *)
  Alcotest.(check bool) "bursts visible" true (busiest > 25)

let test_cross_traffic_pareto_heavy_tail () =
  let config =
    { Cross_traffic.default with Cross_traffic.pareto_shape = Some 1.2 }
  in
  (* Just exercise the sampler for crashes/NaNs over a long run. *)
  let sim = Sim.create () in
  let count = ref 0 in
  ignore
    (Cross_traffic.start ~config ~sim ~rng:(rng ()) ~send:(fun ~size ->
         ignore size;
         incr count)
       ());
  Sim.run ~until:500. sim;
  Alcotest.(check bool) "emitted packets" true (!count > 100)

let test_cross_traffic_validation () =
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Cross_traffic: pareto shape must exceed 1") (fun () ->
      ignore
        (Cross_traffic.start
           ~config:{ Cross_traffic.default with Cross_traffic.pareto_shape = Some 1. }
           ~sim:(Sim.create ()) ~rng:(rng ()) ~send:(fun ~size -> ignore size)
           ()))

(* --- Path ------------------------------------------------------------------------- *)

let test_path_roundtrip () =
  let sim = Sim.create () in
  let got_data = ref false and got_ack = ref false in
  let path =
    Path.symmetric ~sim ~rng:(rng ()) ~bandwidth:1e6 ~one_way_delay:0.05
      ~deliver_data:(fun () -> got_data := true)
      ~deliver_ack:(fun () -> got_ack := true)
      ()
  in
  ignore (Link.send path.Path.forward ~size:100 ());
  ignore (Link.send path.Path.reverse ~size:40 ());
  Sim.run sim;
  Alcotest.(check bool) "data" true !got_data;
  Alcotest.(check bool) "ack" true !got_ack;
  check_float "base rtt" 0.1 (Path.base_rtt path)

let test_path_asymmetric () =
  let sim = Sim.create () in
  let path =
    Path.create ~sim ~rng:(rng ()) ~forward_bandwidth:1e6 ~reverse_bandwidth:1e4
      ~forward_delay:0.01 ~reverse_delay:0.2 ~deliver_data:ignore
      ~deliver_ack:ignore ()
  in
  check_float "asymmetric base rtt" 0.21 (Path.base_rtt path)

let () =
  Alcotest.run "pftk_netsim"
    [
      ( "sim",
        [
          case "event ordering" test_sim_ordering;
          case "FIFO tie-break" test_sim_fifo_ties;
          case "clock advances" test_sim_clock_advances;
          case "nested scheduling" test_sim_nested_scheduling;
          case "cancel" test_sim_cancel;
          case "re-arm" test_sim_rearm;
          case "delay line" test_sim_line;
          case "run until" test_sim_run_until;
          case "step" test_sim_step;
          case "pending" test_sim_pending;
          case "past raises" test_sim_past_raises;
          case "cancelled head at horizon" test_sim_run_until_skips_cancelled_head;
          case "heap stress" test_sim_many_events;
          case "matches the previous core" test_sim_matches_oracle;
        ] );
      ( "queue-discipline",
        [
          case "drop tail" test_drop_tail;
          case "RED below min" test_red_below_min;
          case "RED above max" test_red_above_max;
          case "RED gentle region" test_red_gentle_region_drops_sometimes;
          case "RED average" test_red_average_tracks;
          case "RED validation" test_red_validation;
        ] );
      ( "link",
        [
          case "latency" test_link_latency;
          case "FIFO" test_link_fifo;
          case "queue overflow" test_link_queue_overflow;
          case "serialization spacing" test_link_serialization_spacing;
          case "random loss hook" test_link_random_loss;
          case "busy time" test_link_busy_time;
          case "bytes delivered" test_link_bytes_delivered;
          case "max queue" test_link_max_queue;
          case "validation" test_link_validation;
          case "matches the previous link" test_link_matches_oracle;
        ] );
      ( "cross-traffic",
        [
          case "mean rate" test_cross_traffic_mean_rate;
          case "burstiness" test_cross_traffic_bursty;
          case "pareto tail" test_cross_traffic_pareto_heavy_tail;
          case "validation" test_cross_traffic_validation;
        ] );
      ( "path",
        [
          case "roundtrip" test_path_roundtrip;
          case "asymmetric" test_path_asymmetric;
        ] );
    ]
