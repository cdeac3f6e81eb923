type outcome = { total : int; failed : int }

(* Reads and writes go through blocks under the 256-word minor-heap
   limit.  The read block doubles only to hold a line of up to
   [Serve.max_line_bytes] bytes; the bytes of a longer line are counted,
   not kept. *)
let block_bytes = 1024

(* Batch storage starts this small and doubles up to [chunk] rows, so a
   short stream never pays for a large [chunk]. *)
let initial_rows = 1024

let rec newline s i stop =
  if i < stop && Bytes.unsafe_get s i <> '\n' then newline s (i + 1) stop else i

let run ?(jobs = 1) ?(chunk = Engine.default_chunk) ?(scalar = false) kernel ic
    oc ~err =
  if chunk < 1 then invalid_arg "Batch.Stream.run: chunk must be >= 1";
  let total = ref 0 and failed = ref 0 in
  (* The current batch: [lines] lines, of which the accepted ones
     ([accept.[i] = '\001']) fill rows [0, rows) of [cols] in order.
     [cols], [accept] and [out] share one capacity, doubled by [grow]. *)
  let capacity = min chunk initial_rows in
  let cols = ref (Columns.create capacity) in
  let accept = ref (Bytes.create capacity) in
  let out = ref (Float.Array.create capacity) in
  let lines = ref 0 and rows = ref 0 in
  let grow () =
    let n = min chunk (2 * Bytes.length !accept) in
    let c = Columns.create n in
    let copy src dst = Float.Array.blit src 0 dst 0 !rows in
    copy !cols.Columns.p c.Columns.p;
    copy !cols.Columns.rtt c.Columns.rtt;
    copy !cols.Columns.t0 c.Columns.t0;
    copy !cols.Columns.wm c.Columns.wm;
    let a = Bytes.create n in
    Bytes.blit !accept 0 a 0 !lines;
    cols := c;
    accept := a;
    out := Float.Array.create n
  in
  let wbuf = Bytes.create block_bytes in
  let flush_batch () =
    if !lines > 0 then begin
      let c = { !cols with Columns.n = !rows; dirty = true } in
      let o = !out in
      if scalar then
        (* Reference mode: the same stream answered by per-row guarded
           scalar calls — the oracle for the CLI's batch-vs-scalar
           byte-identity test. *)
        for j = 0 to !rows - 1 do
          let p, rtt, t0, wm = Columns.row c j in
          Float.Array.set o j (Kernel.scalar_reference kernel ~p ~rtt ~t0 ~wm)
        done
      else Engine.run_into ~jobs ~chunk kernel c o;
      let pos = ref 0 and j = ref 0 in
      for i = 0 to !lines - 1 do
        if !pos > block_bytes - Serve.max_rate_bytes - 1 then begin
          output oc wbuf 0 !pos;
          pos := 0
        end;
        if Bytes.unsafe_get !accept i = '\001' then begin
          pos := Serve.write_rate wbuf !pos (Float.Array.get o !j);
          incr j
        end
        else begin
          Bytes.blit_string Serve.sentinel 0 wbuf !pos (String.length Serve.sentinel);
          pos := !pos + String.length Serve.sentinel
        end;
        Bytes.unsafe_set wbuf !pos '\n';
        incr pos
      done;
      output oc wbuf 0 !pos;
      lines := 0;
      rows := 0
    end
  in
  let start_line () =
    incr total;
    if !lines = Bytes.length !accept then grow ()
  in
  let end_line verdict =
    Bytes.set !accept !lines verdict;
    incr lines;
    if !lines >= chunk then flush_batch ()
  in
  let reject msg =
    incr failed;
    Printf.fprintf err "pftk serve: line %d: %s\n" !total msg;
    end_line '\000'
  in
  let deliver s lo hi =
    start_line ();
    let c = !cols and j = !rows in
    match Serve.scan_line s lo hi c j with
    | Error msg -> reject msg
    | Ok () -> (
        match
          Scan.check_row
            ~p:(Float.Array.get c.Columns.p j)
            ~rtt:(Float.Array.get c.Columns.rtt j)
            ~t0:(Float.Array.get c.Columns.t0 j)
            ~wm:(Float.Array.get c.Columns.wm j)
        with
        | Ok () ->
            incr rows;
            end_line '\001'
        | Error (_field, msg) -> reject msg)
  in
  let deliver_too_long n =
    start_line ();
    reject (Serve.too_long n)
  in
  let buf = ref (Bytes.create block_bytes) in
  (* [start, stop) holds read bytes not yet delivered and [start, scan)
     no newline; [dropped] counts the bytes of the current line already
     thrown away (0 unless it is too long). *)
  let start = ref 0 and scan = ref 0 and stop = ref 0 and dropped = ref 0 in
  let reading = ref true in
  while !reading do
    let s = !buf in
    let nl = newline s !scan !stop in
    if nl < !stop then begin
      if !dropped > 0 then begin
        deliver_too_long (!dropped + nl - !start);
        dropped := 0
      end
      else deliver s !start nl;
      start := nl + 1;
      scan := nl + 1
    end
    else begin
      let kept = !stop - !start in
      let kept =
        if !dropped > 0 || kept > Serve.max_line_bytes then begin
          dropped := !dropped + kept;
          0
        end
        else kept
      in
      if kept = Bytes.length s then buf := Bytes.create (2 * kept);
      Bytes.blit s !start !buf 0 kept;
      let s = !buf in
      start := 0;
      scan := kept;
      stop := kept;
      let n = input ic s kept (Bytes.length s - kept) in
      if n > 0 then stop := kept + n
      else begin
        reading := false;
        if !dropped > 0 then deliver_too_long !dropped
        else if kept > 0 then deliver s 0 kept
      end
    end
  done;
  flush_batch ();
  flush oc;
  flush err;
  { total = !total; failed = !failed }
