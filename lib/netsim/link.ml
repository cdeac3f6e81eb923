type stats = {
  offered : int;
  delivered : int;
  dropped_queue : int;
  dropped_random : int;
  bytes_delivered : int;
  max_queue : int;
}

(* A float-only record stores its fields unboxed, so updating them
   allocates nothing. *)
type integrals = {
  mutable busy_time : float;
  mutable queue_area : float;  (* ∫ queue-length dt up to last_queue_event *)
  mutable last_queue_event : float;
}

(* One ring holds every packet on the link, oldest first: [propagating]
   packets in flight, then [queued] ones waiting, the first of which is
   being transmitted.  Both stages are FIFO, so a packet only leaves from
   the front or crosses the boundary between the two.  The capacity is a
   power of two; [payloads] stays empty until the first packet gives the
   arrays something to be filled with. *)
type 'a t = {
  sim : Sim.t;
  rng : Pftk_stats.Rng.t;
  bandwidth : float;
  delay : float;
  deliver : 'a -> unit;
  discipline : Queue_discipline.t;
  disc_state : Queue_discipline.state;
  random_loss : (unit -> bool) option;
  transmitter : Sim.timer;
  propagation : Sim.line;
  on_transmitted : unit -> unit;
  on_arrival : unit -> unit;
  mutable sizes : int array;
  mutable payloads : 'a array;
  mutable front : int;
  mutable propagating : int;
  mutable queued : int;
  mutable offered : int;
  mutable delivered : int;
  mutable dropped_queue : int;
  mutable dropped_random : int;
  mutable bytes_delivered : int;
  mutable max_queue : int;
  integrals : integrals;
}

let queue_length t = t.queued
let in_flight t = t.propagating

(* Account the time spent at the current queue length; call before any
   length change so [queue_area] stays a step-function integral. *)
let observe_queue t =
  let now = Sim.now t.sim in
  let acc = t.integrals in
  acc.queue_area <-
    acc.queue_area +. (float_of_int t.queued *. (now -. acc.last_queue_event));
  acc.last_queue_event <- now

let mean_queue t =
  let now = Sim.now t.sim in
  let acc = t.integrals in
  if now <= 0. then 0.
  else
    (acc.queue_area
    +. (float_of_int t.queued *. (now -. acc.last_queue_event)))
    /. now

let[@inline] index t k = (t.front + k) land (Array.length t.sizes - 1)

let grow t payload =
  let n = Array.length t.sizes in
  let capacity = if n = 0 then 16 else 2 * n in
  let sizes = Array.make capacity 0 and payloads = Array.make capacity payload in
  for k = 0 to n - 1 do
    sizes.(k) <- t.sizes.(index t k);
    payloads.(k) <- t.payloads.(index t k)
  done;
  t.sizes <- sizes;
  t.payloads <- payloads;
  t.front <- 0

(* Put the head of the queue into transmission. *)
let start_transmission t =
  let tx_time = float_of_int t.sizes.(index t t.propagating) /. t.bandwidth in
  t.integrals.busy_time <- t.integrals.busy_time +. tx_time;
  Sim.arm t.transmitter ~delay:tx_time t.on_transmitted

(* Serialization done: the packet starts propagating and the next one, if
   any, starts transmitting. *)
let transmitted t =
  observe_queue t;
  t.queued <- t.queued - 1;
  Queue_discipline.on_dequeue t.discipline t.disc_state ~queue_length:t.queued;
  t.propagating <- t.propagating + 1;
  Sim.push t.propagation t.on_arrival;
  if t.queued > 0 then start_transmission t

let arrive t =
  let i = t.front in
  t.front <- index t 1;
  t.propagating <- t.propagating - 1;
  t.delivered <- t.delivered + 1;
  t.bytes_delivered <- t.bytes_delivered + t.sizes.(i);
  t.deliver t.payloads.(i)

let create ?(discipline = Queue_discipline.drop_tail ~capacity:64) ?random_loss
    ~sim ~rng ~bandwidth ~delay ~deliver () =
  if not (bandwidth > 0.) then invalid_arg "Link.create: bandwidth must be positive";
  if not (delay >= 0.) then invalid_arg "Link.create: negative delay";
  let rec t =
    {
      sim;
      rng;
      bandwidth;
      delay;
      deliver;
      discipline;
      disc_state = Queue_discipline.init discipline;
      random_loss;
      transmitter = Sim.timer sim;
      propagation = Sim.line sim ~delay;
      on_transmitted = (fun () -> transmitted t);
      on_arrival = (fun () -> arrive t);
      sizes = [||];
      payloads = [||];
      front = 0;
      propagating = 0;
      queued = 0;
      offered = 0;
      delivered = 0;
      dropped_queue = 0;
      dropped_random = 0;
      bytes_delivered = 0;
      max_queue = 0;
      integrals = { busy_time = 0.; queue_area = 0.; last_queue_event = 0. };
    }
  in
  t

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
         ~queue_length:t.queued)
  then begin
    t.dropped_queue <- t.dropped_queue + 1;
    false
  end
  else begin
    observe_queue t;
    let held = t.propagating + t.queued in
    if held = Array.length t.sizes then grow t payload;
    let i = index t held in
    t.sizes.(i) <- size;
    t.payloads.(i) <- payload;
    t.queued <- t.queued + 1;
    if t.queued > t.max_queue then t.max_queue <- t.queued;
    if t.queued = 1 then start_transmission t;
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

let busy_time t = t.integrals.busy_time
let delay t = t.delay
