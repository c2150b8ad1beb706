(* End-to-end runs of the serve workloads against the real daemon.

   A run is a number of repetitions of one seeded script, each on a
   fresh daemon: set-up (spawn plus the pipelined pre-population), then
   the timed phase, which sends the script's steps in order.  All
   repetitions receive the same bytes, so their outputs must be
   identical, and one in-process Api replay checks them all. *)

let now = Clock.now

type rep = {
  spawn_wall : float;  (** starting the daemon process *)
  setup_rtt : float array;  (** round trip of each pre-population step *)
  timed_wall : float;  (** the timed phase *)
  step_rtt : float array;  (** round trip of each timed-phase step, in
                               script order, seconds *)
  events : int;  (** events applied in the timed phase *)
  peak_rss_kb : int;  (** the daemon's VmHWM *)
  output : string;  (** the daemon's whole output *)
}

type run = { script : Script.t; reps : rep array }

let envelope cmd =
  Printf.sprintf "{\"schema\": \"placement/v1\",\"command\": \"%s\"" cmd

let apply_prefix = envelope "apply"
let error_prefix = envelope "error"

(* Lines of [text] from byte [from] on that start with [prefix]. *)
let count_prefix prefix text ~from =
  let count = ref 0 and pos = ref from in
  let len = String.length text and lp = String.length prefix in
  while !pos < len do
    if !pos + lp <= len && String.sub text !pos lp = prefix then incr count;
    pos :=
      match String.index_from_opt text !pos '\n' with
      | Some nl -> nl + 1
      | None -> len
  done;
  !count

let run_step d = function
  | Script.Burst lines ->
      Wire.send d lines;
      Wire.expect d (Array.length lines)
  | Script.Timed line ->
      Wire.send d [| line |];
      Wire.expect d 1

(* One repetition on a fresh daemon; the daemon is reaped (or killed on
   an exception) before it returns. *)
let rep ~tool (script : Script.t) =
  let t0 = now () in
  let d = Wire.spawn ~tool ~topology:script.topology in
  Fun.protect ~finally:(fun () -> Wire.kill d) @@ fun () ->
  let spawn_wall = now () -. t0 in
  let round_trips steps =
    Array.map
      (fun step ->
        let t0 = now () in
        run_step d step;
        now () -. t0)
      steps
  in
  let setup_rtt = round_trips script.setup in
  let setup_out = Buffer.length d.Wire.out in
  let t_start = now () in
  let step_rtt = round_trips script.steps in
  let timed_wall = now () -. t_start in
  let peak_rss_kb = Wire.peak_rss_kb d in
  Wire.finish d;
  let output = Buffer.contents d.Wire.out in
  {
    spawn_wall;
    setup_rtt;
    timed_wall;
    step_rtt;
    events = count_prefix apply_prefix output ~from:setup_out;
    peak_rss_kb;
    output;
  }

(* A run that is this many times slower than its nominal length starts
   no further repetition, so a badly regressed program still finishes
   within the benchmark's time limit (and reports fewer samples). *)
let guard = 3.

(* [reps] repetitions of [Script.rep_seconds] each. *)
let run ~tool ~reps (script : Script.t) =
  let nominal = Script.rep_seconds script.workload *. float_of_int reps in
  let deadline = now () +. (guard *. nominal) in
  let rec go acc i =
    if i = reps || (i > 0 && now () > deadline) then Array.of_list (List.rev acc)
    else go (rep ~tool script :: acc) (i + 1)
  in
  { script; reps = go [] 0 }

(* Requests sent over the whole run, and error envelopes received. *)
let requests r = List.length (Script.lines r.script) * Array.length r.reps

let rejected r =
  Array.fold_left
    (fun acc p -> acc + count_prefix error_prefix p.output ~from:0)
    0 r.reps

(* A fresh engine with the daemon's parameters. *)
let engine (script : Script.t) =
  let topology = Option.map Topology.Spec.parse_exn script.topology in
  Dsim.Churn.create ?topology ~n:Script.n ~r:Script.r ~s:Script.s ~k:Script.k ()

(* The summary envelope the daemon writes when its input ends. *)
let summary_line session =
  let module J = Telemetry.Json in
  J.to_string
    (Placement.Codec.json_envelope ~command:"summary"
       (J.Obj
          [
            ("reason", J.Str (Dsim.Serve.reason_label Dsim.Serve.Eof));
            ("stats", Dsim.Api.stats_json (Dsim.Api.stats session));
          ]))
  ^ "\n"

(* Parse one generated line; the generators only emit valid requests. *)
let parse line =
  match Dsim.Api.parse_request line with
  | Ok (Some req) -> req
  | Ok None | Error _ -> failwith ("generated an unparsable line: " ^ line)

(* The serve ≡ batch contract: Api.exec + response_to_line over the same
   lines, plus the summary, must reproduce every daemon's output
   exactly. *)
let replay_matches r =
  let session = Dsim.Api.make (engine r.script) in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun line ->
      Buffer.add_string b
        (Dsim.Api.response_to_line (Dsim.Api.exec session (parse line)));
      Buffer.add_char b '\n')
    (Script.lines r.script);
  Buffer.add_string b (summary_line session);
  let expected = Buffer.contents b in
  Array.for_all (fun p -> p.output = expected) r.reps
