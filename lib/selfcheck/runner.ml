type config = { cases : int; seed : int64; jobs : int; only : string option }

type failure = {
  index : int;
  invariant : Invariant.t;
  reason : string;
  shrunk : Case.t;
  shrunk_reason : string;
}

type report = {
  cases : int;
  seed : int64;
  checked : (string * int * int * int) list;
  failures : failure list;
}

let catalog ~only =
  match only with
  | None -> Invariant.all
  | Some key -> begin
      match Invariant.find key with
      | Some inv -> [ inv ]
      | None -> invalid_arg (Printf.sprintf "Runner: unknown invariant %S" key)
    end

(* Everything one case produced: a verdict per selected invariant, plus a
   shrunk counterexample for each failure.  Workers return this by value,
   so the closure passed to the fan-out captures only immutable config. *)
type case_outcome = {
  verdicts : (string * Invariant.verdict) list;
  case_failures : failure list;
}

let still_fails inv c =
  match Invariant.run inv c with
  | Invariant.Fail _ -> true
  | Invariant.Pass | Invariant.Skip _ -> false

let check_case ~seed ~invariants index =
  let case = Gen.case ~seed ~index in
  let verdicts =
    List.map (fun inv -> (inv.Invariant.id, Invariant.run inv case)) invariants
  in
  let case_failures =
    List.filter_map
      (fun (id, verdict) ->
        match verdict with
        | Invariant.Pass | Invariant.Skip _ -> None
        | Invariant.Fail reason ->
            let inv =
              List.find (fun i -> String.equal i.Invariant.id id) invariants
            in
            let shrunk = Shrink.minimize ~keep:(still_fails inv) case in
            let shrunk_reason =
              match Invariant.run inv shrunk with
              | Invariant.Fail r -> r
              | Invariant.Pass | Invariant.Skip _ -> reason
            in
            Some { index; invariant = inv; reason; shrunk; shrunk_reason })
      verdicts
  in
  { verdicts; case_failures }

let run { cases; seed; jobs; only } =
  if cases < 0 then invalid_arg "Runner.run: cases must be >= 0";
  if jobs < 1 then invalid_arg "Runner.run: jobs must be >= 1";
  let invariants = catalog ~only in
  let outcomes =
    Pftk_parallel.init ~jobs cases (fun index ->
        check_case ~seed ~invariants index)
  in
  let checked =
    List.map
      (fun inv ->
        let pass = ref 0 and skip = ref 0 and fail = ref 0 in
        Array.iter
          (fun outcome ->
            List.iter
              (fun (id, verdict) ->
                if String.equal id inv.Invariant.id then
                  match verdict with
                  | Invariant.Pass -> incr pass
                  | Invariant.Skip _ -> incr skip
                  | Invariant.Fail _ -> incr fail)
              outcome.verdicts)
          outcomes;
        (inv.Invariant.id, !pass, !skip, !fail))
      invariants
  in
  let failures =
    Array.to_list outcomes
    |> List.concat_map (fun outcome -> outcome.case_failures)
    |> List.sort (fun a b ->
           match compare a.index b.index with
           | 0 -> compare a.invariant.Invariant.id b.invariant.Invariant.id
           | c -> c)
  in
  { cases; seed; checked; failures }

let ok report = List.for_all (fun (_, _, _, fails) -> fails = 0) report.checked

let counterexample_to_string ~seed failure =
  Printf.sprintf
    "# pftk-selfcheck counterexample\n\
     # invariant %s (%s): %s\n\
     # found at seed=%Ld index=%d\n\
     # reason: %s\n\
     %s"
    failure.invariant.Invariant.id failure.invariant.Invariant.name
    failure.invariant.Invariant.description seed failure.index
    (String.map (function '\n' -> ' ' | c -> c) failure.shrunk_reason)
    (Case.to_string failure.shrunk)

let pp_report ppf (report : report) =
  Format.fprintf ppf "pftk-selfcheck: %d cases, seed %Ld@." report.cases
    report.seed;
  List.iter
    (fun (id, pass, skip, fail) ->
      let inv =
        List.find (fun i -> String.equal i.Invariant.id id) Invariant.all
      in
      Format.fprintf ppf "  %-4s %-20s pass %-6d skip %-6d fail %d@." id
        inv.Invariant.name pass skip fail)
    report.checked;
  (match report.failures with
  | [] -> Format.fprintf ppf "all invariants hold@."
  | failures ->
      Format.fprintf ppf "%d failure(s):@." (List.length failures);
      List.iter
        (fun f ->
          Format.fprintf ppf "@.case %d violates %s (%s): %s@." f.index
            f.invariant.Invariant.id f.invariant.Invariant.name f.reason;
          Format.fprintf ppf "shrunk to (%s):@.%s" f.shrunk_reason
            (Case.to_string f.shrunk))
        failures);
  ()
