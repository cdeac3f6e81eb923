let default_jobs () = Domain.recommended_domain_count ()

(* Run [body 0 .. body (n-1)] on the calling domain and up to [jobs - 1]
   helper domains spawned for this call, every domain claiming the next
   index from one shared counter.  The caller works rather than waits, so
   the call runs on at most [jobs] domains.  A helper the runtime refuses
   to spawn (its live-domain cap) is not started, and the domains that are
   running take its share.  On failure the first observed exception is kept, no domain
   claims another index, and the exception is re-raised here once every
   helper has been joined. *)
let run ~jobs n body =
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec work () =
    if Option.is_none (Atomic.get failure) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try body i
         with exn ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (exn, bt))));
        work ()
      end
    end
  in
  let rec spawn helpers k =
    if k <= 0 then helpers
    else
      match Domain.spawn work with
      | helper -> spawn (helper :: helpers) (k - 1)
      | exception Failure _ -> helpers
  in
  let helpers = spawn [] (Int.min jobs n - 1) in
  work ();
  List.iter Domain.join helpers;
  match Atomic.get failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let check_jobs name jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pftk_parallel.%s: jobs must be >= 1" name)

let init ~jobs n f =
  check_jobs "init" jobs;
  if n < 0 then invalid_arg "Pftk_parallel.init: n must be >= 0";
  if jobs = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    run ~jobs n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

let mapi ~jobs f xs =
  check_jobs "mapi" jobs;
  if jobs = 1 then List.mapi f xs
  else begin
    let items = Array.of_list xs in
    Array.to_list (init ~jobs (Array.length items) (fun i -> f i items.(i)))
  end

let map ~jobs f xs =
  check_jobs "map" jobs;
  if jobs = 1 then List.map f xs else mapi ~jobs (fun _ x -> f x) xs
