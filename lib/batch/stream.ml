type outcome = { total : int; failed : int }

(* Reads and writes go through blocks under the 256-word minor-heap
   limit.  The read block doubles only to hold a line of up to
   [Serve.max_line_bytes] bytes; the bytes of a longer line are counted,
   not kept. *)
let block_bytes = 1024

(* Batch storage starts this small and doubles up to [chunk] rows, so a
   short stream never pays for a large [chunk]. *)
let initial_rows = 1024

(* The first '\n' from [s.[i]] on: a line's or the sentinel. *)
let rec newline s i = if Bytes.unsafe_get s i <> '\n' then newline s (i + 1) else i

(* Reads into [s] from [pos] until one byte is left, for the sentinel, or
   the channel ends; returns the end of the bytes read. *)
let rec fill ic s pos =
  let room = Bytes.length s - 1 - pos in
  if room = 0 then pos
  else
    match input ic s pos room with
    | 0 -> pos
    | n -> fill ic s (pos + n)

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
  let make_room () = if !lines = Bytes.length !accept then grow () in
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
  let cur = { Serve.eol = 0; limit = 0; pos = 0 } in
  (* Walks the line at [lo] and says whether it was whole: one that
     reaches [cur.limit] may go on past the bytes read. *)
  let deliver s lo =
    make_room ();
    let c = !cols and j = !rows in
    match Serve.scan_line cur s lo c j with
    | exception Serve.Incomplete -> false
    | verdict ->
        incr total;
        (match verdict with
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
            | Error (_field, msg) -> reject msg));
        true
  in
  let deliver_too_long n =
    make_room ();
    incr total;
    reject (Serve.too_long n)
  in
  let buf = ref (Bytes.create block_bytes) in
  (* [start, stop) holds read bytes not yet delivered, and [!buf.[stop]]
     is a '\n' sentinel; [dropped] counts the bytes of the current line
     already thrown away (0 unless it is too long). *)
  let start = ref 0 and stop = ref 0 and dropped = ref 0 in
  let reading = ref true in
  while !reading do
    let s = !buf in
    let next =
      if !start >= !stop then -1
      else if !dropped = 0 then if deliver s !start then cur.Serve.pos + 1 else -1
      else begin
        let nl = newline s !start in
        if nl = cur.Serve.limit then -1
        else begin
          deliver_too_long (!dropped + nl - !start);
          dropped := 0;
          nl + 1
        end
      end
    in
    if next >= 0 then start := next
    else if cur.Serve.limit < 0 then begin
      if !dropped > 0 then deliver_too_long !dropped;
      reading := false
    end
    else begin
      (* Keep the unfinished line, unless it is too long, fill the rest of
         the block and walk the line again; a full block holding one line
         doubles. *)
      let kept = !stop - !start in
      let kept =
        if !dropped > 0 || kept > Serve.max_line_bytes then begin
          dropped := !dropped + kept;
          0
        end
        else kept
      in
      if kept + 1 = Bytes.length s then buf := Bytes.create (2 * Bytes.length s);
      Bytes.blit s !start !buf 0 kept;
      let s = !buf in
      start := 0;
      stop := fill ic s kept;
      Bytes.unsafe_set s !stop '\n';
      cur.Serve.limit <- (if !stop < Bytes.length s - 1 then -1 else !stop)
    end
  done;
  flush_batch ();
  flush oc;
  flush err;
  { total = !total; failed = !failed }
