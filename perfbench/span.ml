(* In-memory span recorder for the traced run.  A span is opened around
   one call the benchmark makes into a layer's public functions; spans
   nest through a stack, carry the workload they belong to, and are
   written out once, at the end of the run.  Untraced runs never enable
   it, so [with_] is then a plain call. *)

type span = {
  id : int;
  name : string;
  workload : string;
  parent : int;  (** [-1] for a top-level span. *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let workload = ref ""

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Common.now () in
    let close () =
      let stop = Common.now () in
      stack := List.tl !stack;
      spans := { id; name; workload = !workload; parent; start; stop } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Run [f] with recording off: the untraced baseline inside a traced run. *)
let paused f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let all () = List.rev !spans
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: the recorder is single-threaded). *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    spans

let matching name = List.filter (fun s -> String.equal s.name name) (all ())
let total name = List.fold_left (fun acc s -> acc +. duration s) 0. (matching name)

let total_self name =
  List.fold_left
    (fun acc (s, self) -> if String.equal s.name name then acc +. self else acc)
    0.
    (self_times (all ()))

(* Share of [parent_name] spans' time covered by their direct children. *)
let child_coverage parent_name =
  let parents = matching parent_name in
  let ids = List.map (fun s -> s.id) parents in
  let children =
    List.filter (fun s -> List.mem s.parent ids) (all ())
  in
  List.fold_left (fun acc s -> acc +. duration s) 0. children
  /. List.fold_left (fun acc s -> acc +. duration s) 0. parents

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write path ~env =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"env\": %s,\n \"spans\": [" env;
      List.iteri
        (fun i (s, self) ->
          Printf.fprintf oc
            "%s\n  {\"id\": %d, \"name\": %s, \"workload\": %s, \"parent\": %d, \
             \"start\": %.6f, \"end\": %.6f, \"self\": %.6f}"
            (if i = 0 then "" else ",")
            s.id (json_string s.name) (json_string s.workload) s.parent s.start
            s.stop self)
        (self_times (all ()));
      output_string oc "\n]}\n")
