(* The event queue is an indexed binary heap.  Heap position [i] is spread
   over three parallel arrays: the key ([times], [seqs]) and the slot that
   owns the entry ([slots]).  A slot is the stable identity of a one-shot
   action, a timer or a line; [pos] maps it back to its heap position (-1
   when it has no entry), so timers and lines re-key their entry in place.
   Sifts move keys and slot ids only; actions stay in the slot table.  All
   per-slot and per-position arrays share one capacity, which bounds the
   heap, so inserting never grows anything.

   The sift, insert and remove bodies are [@pftk.zero_alloc]: they read
   and write keys through the arrays and never pass a float to a function
   that is not inlined, which would box it. *)

type kind = One_shot | Timer | Line

(* [Float.Array.get] and [set], spelled as the primitives they are so that
   pftk-flow sees intrinsics rather than calls. *)
external float_get : Float.Array.t -> int -> float = "%floatarray_safe_get"
external float_set : Float.Array.t -> int -> float -> unit = "%floatarray_safe_set"

(* A float-only record stores its field unboxed. *)
type clock = { mutable now : float }

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable pos : int array;
  mutable kinds : kind array;
  mutable actions : (unit -> unit) array;
  mutable free : int array;  (* released one-shot slots, a stack *)
  mutable nfree : int;
  mutable nslots : int;  (* slots handed out so far *)
  mutable next_seq : int;
  mutable queued : int;  (* line entries waiting behind their line's head *)
  clock : clock;
}

let create () =
  let n = 16 in
  {
    times = Float.Array.make n 0.;
    seqs = Array.make n 0;
    slots = Array.make n 0;
    size = 0;
    pos = Array.make n (-1);
    kinds = Array.make n One_shot;
    actions = Array.make n ignore;
    free = Array.make n 0;
    nfree = 0;
    nslots = 0;
    next_seq = 0;
    queued = 0;
    clock = { now = 0. };
  }

let[@inline] now t = t.clock.now

let grow t =
  let n = Array.length t.pos in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  let times = Float.Array.make (2 * n) 0. in
  Float.Array.blit t.times 0 times 0 n;
  t.times <- times;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.pos <- extend t.pos (-1);
  t.kinds <- extend t.kinds One_shot;
  t.actions <- extend t.actions ignore;
  t.free <- extend t.free 0

let new_slot t kind action =
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.nslots = Array.length t.pos then grow t;
      t.nslots <- t.nslots + 1;
      t.nslots - 1
    end
  in
  t.kinds.(slot) <- kind;
  t.actions.(slot) <- action;
  slot

let[@inline] take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* --- Heap ------------------------------------------------------------------ *)

let[@inline] [@pftk.zero_alloc] before t i j =
  let a = float_get t.times i and b = float_get t.times j in
  a < b || (a = b && t.seqs.(i) < t.seqs.(j))

let[@pftk.zero_alloc] swap t i j =
  let time = float_get t.times i
  and seq = t.seqs.(i)
  and slot = t.slots.(i) in
  float_set t.times i (float_get t.times j);
  t.seqs.(i) <- t.seqs.(j);
  t.slots.(i) <- t.slots.(j);
  t.pos.(t.slots.(i)) <- i;
  float_set t.times j time;
  t.seqs.(j) <- seq;
  t.slots.(j) <- slot;
  t.pos.(slot) <- j

let[@pftk.zero_alloc] rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let[@pftk.zero_alloc] rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let child = if l + 1 < t.size && before t (l + 1) l then l + 1 else l in
    if before t child i then begin
      swap t i child;
      sift_down t child
    end
  end

(* Restore heap order after the key at [i] changed either way. *)
let[@pftk.zero_alloc] resift t i =
  if i > 0 && before t i ((i - 1) / 2) then sift_up t i else sift_down t i

let[@inline] [@pftk.zero_alloc] insert t slot time seq =
  let i = t.size in
  t.size <- i + 1;
  float_set t.times i time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.pos.(slot) <- i;
  sift_up t i

let[@pftk.zero_alloc] remove t i =
  let last = t.size - 1 in
  t.pos.(t.slots.(i)) <- -1;
  t.size <- last;
  if i < last then begin
    float_set t.times i (float_get t.times last);
    t.seqs.(i) <- t.seqs.(last);
    t.slots.(i) <- t.slots.(last);
    t.pos.(t.slots.(i)) <- i;
    resift t i
  end

(* --- One-shot actions ------------------------------------------------------- *)

let[@inline] add t time action =
  let slot = new_slot t One_shot action in
  insert t slot time (take_seq t)

let schedule_at t ~time action =
  if not (time >= now t) then
    invalid_arg
      (if Float.is_nan time then "Sim.schedule_at: NaN time"
       else "Sim.schedule_at: time in the past");
  add t time action

let schedule t ~delay action =
  if not (delay >= 0.) then
    invalid_arg
      (if Float.is_nan delay then "Sim.schedule: NaN delay"
       else "Sim.schedule: negative delay");
  add t (now t +. delay) action

(* --- Timers ----------------------------------------------------------------- *)

type timer = { sim : t; slot : int }

let timer t = { sim = t; slot = new_slot t Timer ignore }
let armed tm = tm.sim.pos.(tm.slot) >= 0

let[@inline] arm tm ~delay action =
  let t = tm.sim in
  if not (delay >= 0.) then
    invalid_arg
      (if Float.is_nan delay then "Sim.arm: NaN delay"
       else "Sim.arm: negative delay");
  let time = now t +. delay in
  let seq = take_seq t in
  t.actions.(tm.slot) <- action;
  let i = t.pos.(tm.slot) in
  if i < 0 then insert t tm.slot time seq
  else begin
    float_set t.times i time;
    t.seqs.(i) <- seq;
    resift t i
  end

let disarm tm =
  let i = tm.sim.pos.(tm.slot) in
  if i >= 0 then remove tm.sim i

(* --- Delay lines -------------------------------------------------------------- *)

(* A ring of the keys and actions pushed, oldest at [head].  Its delay is
   fixed and the clock never goes back, so keys grow along the ring and the
   head always holds the line's smallest: the heap needs only that one. *)
type line = {
  host : t;
  id : int;
  delay : float;
  mutable due : Float.Array.t;
  mutable order : int array;
  mutable fire : (unit -> unit) array;
  mutable head : int;
  mutable length : int;
}

let grow_line l =
  let n = Array.length l.order in
  let due = Float.Array.make (2 * n) 0.
  and order = Array.make (2 * n) 0
  and fire = Array.make (2 * n) ignore in
  for k = 0 to n - 1 do
    let i = (l.head + k) land (n - 1) in
    float_set due k (float_get l.due i);
    order.(k) <- l.order.(i);
    fire.(k) <- l.fire.(i)
  done;
  l.due <- due;
  l.order <- order;
  l.fire <- fire;
  l.head <- 0

(* Dispatch the head, then re-key the line's heap entry to the next one:
   that key was taken later, so it can only sink.  Re-keying takes no
   sequence number. *)
let advance l =
  let t = l.host in
  let i = l.head in
  let action = l.fire.(i) in
  l.fire.(i) <- ignore;
  l.head <- (i + 1) land (Array.length l.order - 1);
  l.length <- l.length - 1;
  let h = t.pos.(l.id) in
  if l.length = 0 then remove t h
  else begin
    t.queued <- t.queued - 1;
    float_set t.times h (float_get l.due l.head);
    t.seqs.(h) <- l.order.(l.head);
    sift_down t h
  end;
  action ()

let line t ~delay =
  if not (delay >= 0.) then invalid_arg "Sim.line: delay must be non-negative";
  let l =
    {
      host = t;
      id = new_slot t Line ignore;
      delay;
      due = Float.Array.make 8 0.;
      order = Array.make 8 0;
      fire = Array.make 8 ignore;
      head = 0;
      length = 0;
    }
  in
  t.actions.(l.id) <- (fun () -> advance l);
  l

let push l action =
  if l.length = Array.length l.order then grow_line l;
  let t = l.host in
  let time = now t +. l.delay in
  let seq = take_seq t in
  let i = (l.head + l.length) land (Array.length l.order - 1) in
  float_set l.due i time;
  l.order.(i) <- seq;
  l.fire.(i) <- action;
  l.length <- l.length + 1;
  if l.length = 1 then insert t l.id time seq else t.queued <- t.queued + 1

(* --- Dispatch ------------------------------------------------------------------ *)

let pending t = t.size + t.queued

(* A line's slot action re-keys or removes its own entry ([advance]); a
   timer's and a one-shot's entry leaves the heap before the action runs,
   so the action may re-arm the timer. *)
let step t =
  if t.size = 0 then false
  else begin
    let slot = t.slots.(0) in
    t.clock.now <- float_get t.times 0;
    let action = t.actions.(slot) in
    (match t.kinds.(slot) with
    | Line -> ()
    | Timer -> remove t 0
    | One_shot ->
        remove t 0;
        t.actions.(slot) <- ignore;
        t.free.(t.nfree) <- slot;
        t.nfree <- t.nfree + 1);
    action ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while t.size > 0 && not (float_get t.times 0 > horizon) do
        ignore (step t : bool)
      done;
      t.clock.now <- Float.max (now t) horizon
