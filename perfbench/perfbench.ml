(* perfbench: one workload per invocation, untraced (end-to-end metrics)
   or traced (per-layer metrics for all four workloads).  Prints its
   result as one JSON object on the last line of stdout; perfbench/run.py
   builds this executable, adds the process's peak RSS and re-emits the
   line.  Exit status 1 when any output fails its check, 2 on bad
   arguments. *)

let workloads = [ "artifacts"; "serve"; "grid"; "replay" ]

let run_untraced name (o : Common.opts) tally =
  match name with
  | "artifacts" -> Artifacts.run o tally
  | "serve" -> Serve.run o tally
  | "grid" -> Grid.run o tally
  | _ -> Replay.run o tally

let traced_section name (o : Common.opts) tally =
  match name with
  | "artifacts" -> Artifacts.traced o tally
  | "serve" -> Serve.traced o tally
  | "grid" -> Grid.traced o tally
  | _ -> Replay.traced o tally

(* Units follow the metric's name. *)
let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_per_s" then "1/s"
  else if ends "_s" then "s"
  else if ends "coverage" || ends "share" || ends "speedup" then "ratio"
  else if ends "bytes" then "B"
  else "count"

(* Every workload's section is traced, so a traced run of any workload
   reports every per-layer metric.  Each section also reports how much of
   its wall-clock its top-level spans cover. *)
let traced (o : Common.opts) tally =
  Span.enabled := true;
  List.concat_map
    (fun name ->
      Span.workload := name;
      let metrics, wall = Common.time (fun () -> traced_section name o tally) in
      let top =
        List.fold_left
          (fun acc (s : Span.span) ->
            if s.parent < 0 && String.equal s.workload name then acc +. Span.duration s
            else acc)
          0. (Span.all ())
      in
      metrics @ [ ("tracing." ^ name ^ ".span_coverage", top /. wall) ])
    workloads

let untraced name (o : Common.opts) tally =
  let r = run_untraced name o tally in
  Printf.eprintf "perfbench: %s input {%s}\n" name
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (Span.json_string k) (Span.json_string v))
          r.Common.input));
  let summary what samples =
    let sorted = List.sort Float.compare (List.map (List.fold_left ( +. ) 0.) samples) in
    Printf.eprintf "perfbench: %s %d %s, min %.4f s, median %.4f s, max %.4f s\n" name
      (List.length sorted) what (List.hd sorted) (Common.median sorted)
      (List.nth sorted (List.length sorted - 1))
  in
  summary "set-ups" r.Common.setups;
  summary "passes" r.passes;
  [
    ("setup_s", Common.fastest_by_step r.Common.setups);
    ("pass_s", Common.fastest_by_step r.passes);
  ]

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v) ->
         Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Span.json_string name) v
           (Span.json_string (unit_of name)))
       metrics)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload artifacts|serve|grid|replay --seed N \
     --seconds S --trace 0|1 --jobs J --work-dir DIR [--fault] \
     [--env JSON]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--fault" :: rest -> parse (("fault", "1") :: acc) rest
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let o =
    {
      Common.seed = int "seed";
      seconds = float_of_int (int "seconds");
      jobs = int "jobs";
      work_dir = get "work-dir";
      fault = List.mem_assoc "fault" kv;
    }
  in
  let trace = int "trace" = 1 in
  let tally = Common.tally () in
  let metrics = if trace then traced o tally else untraced workload o tally in
  if trace then begin
    let path =
      Filename.concat o.work_dir (Printf.sprintf "spans-%s-%d.json" workload o.seed)
    in
    Span.write path ~env:(Option.value ~default:"{}" (List.assoc_opt "env" kv));
    Printf.eprintf "perfbench: %d spans written to %s\n" (List.length (Span.all ())) path
  end;
  let correct = tally.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed (json_metrics metrics);
  exit (if correct then 0 else 1)
