(* The client side of the serve protocol: one forked `placement-tool
   serve` daemon on a pair of pipes, driven by this single-threaded
   process. *)

exception Daemon_failed of string

(* A daemon that sends nothing for this long is stuck; the run fails
   instead of hanging. *)
let stall_s = 60.

type t = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable closed : bool;
  out : Buffer.t;  (** every response line received, newline-terminated *)
}

let spawn ~tool ~topology =
  let args =
    [ tool; "serve"; "-n"; string_of_int Script.n; "-r"; string_of_int Script.r;
      "-s"; string_of_int Script.s; "-k"; string_of_int Script.k;
      (* The daemon's pool is idle today; the flag is fixed so a later
         parallel rescore is measured at the same width. *)
      "-j"; "2" ]
    @ match topology with None -> [] | Some spec -> [ "--topology"; spec ]
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process tool (Array.of_list args) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_d = in_w;
    from_d = out_r;
    buf = Bytes.create 65536;
    pos = 0;
    len = 0;
    closed = false;
    out = Buffer.create (1 lsl 20);
  }

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | w -> write_all fd s (off + w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* Send lines as one write. *)
let send t lines =
  let b = Buffer.create 1024 in
  Array.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  write_all t.to_d (Buffer.contents b) 0

let rec refill t =
  match Unix.select [ t.from_d ] [] [] stall_s with
  | [], _, _ -> raise (Daemon_failed "daemon stalled")
  | _ -> (
      match Unix.read t.from_d t.buf 0 (Bytes.length t.buf) with
      | got ->
          t.pos <- 0;
          t.len <- got;
          got > 0
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill t)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill t

(* Read one response line into [t.out]; [false] at end of stream. *)
let read_line t =
  let rec go () =
    if t.pos >= t.len && not (refill t) then false
    else
      match Bytes.index_from_opt t.buf t.pos '\n' with
      | Some nl when nl < t.len ->
          Buffer.add_subbytes t.out t.buf t.pos (nl + 1 - t.pos);
          t.pos <- nl + 1;
          true
      | _ ->
          Buffer.add_subbytes t.out t.buf t.pos (t.len - t.pos);
          t.pos <- t.len;
          go ()
  in
  go ()

let expect t count =
  for _ = 1 to count do
    if not (read_line t) then raise (Daemon_failed "daemon closed its output")
  done

(* Peak resident set (VmHWM) of the daemon, in KiB. *)
let peak_rss_kb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | _ -> scan ()
        | exception End_of_file -> raise (Daemon_failed "no VmHWM")
      in
      scan ())

(* Close the request stream, read the remaining output (the summary
   envelope) and reap the daemon; it must exit 0. *)
let finish t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.to_d;
    while read_line t do () done;
    Unix.close t.from_d;
    match snd (Unix.waitpid [] t.pid) with
    | Unix.WEXITED 0 -> ()
    | _ -> raise (Daemon_failed "daemon exited abnormally")
  end

(* Kill and reap a daemon left running by an exception. *)
let kill t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try Unix.close t.to_d with Unix.Unix_error _ -> ());
    (try Unix.close t.from_d with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] t.pid)
  end
