(* Reports for the serve workloads: the end-to-end figures of a run of
   repetitions, and the per-layer figures of the traced replay.

   Interference on a shared host only ever adds time, and on a 2-core
   VM it comes and goes per core over seconds (a plain CPU loop was
   measured running up to 1.9x slower for ten seconds at a time, the two
   cores uncorrelated).  Every repetition sends the same bytes to a fresh
   daemon, so step i of one repetition does the same work as step i of
   any other.  Each timing is therefore built from every step's fastest
   round trip over the repetitions: the least disturbed measurement of
   the program's own cost, step by step.  Per-repetition medians and
   pooled tails are printed beside it. *)

let ms x = x *. 1e3

(* The workload's unit of latency — what p50_ms is taken over — and the
   name its figures carry in the human-readable lines. *)
let is_latency (script : Script.t) = function
  | Script.Burst _ -> script.workload = "ingest"
  | Script.Timed _ -> script.workload <> "ingest"

let label (script : Script.t) =
  match script.workload with
  | "monitor" -> "query"
  | "ingest" -> "window"
  | _ -> "leave"

(* Element i: the smallest element i over [rows], all of one length. *)
let fastest rows =
  Array.init (Array.length rows.(0)) (fun i ->
      Array.fold_left (fun m row -> Float.min m row.(i)) Float.infinity rows)

let sum = Array.fold_left ( +. ) 0.

let end_to_end ~tool ~seed ~seconds workload =
  let script = Script.make workload ~seed in
  let run = Serve_load.run ~tool ~reps:(Script.reps workload ~seconds) script in
  let reps = run.reps in
  let nreps = Array.length reps in
  let rejected = Serve_load.rejected run in
  let matches = Serve_load.replay_matches run in
  if not matches then
    prerr_endline "check failed: daemon output differs from the Api replay";
  let per f = Array.map f reps in
  let label = label script in
  let latency_steps rtt =
    Array.of_list
      (List.filteri (fun i _ -> is_latency script script.steps.(i)) (Array.to_list rtt))
  in
  let setup =
    Array.fold_left Float.min Float.infinity (per (fun p -> p.spawn_wall))
    +. sum (fastest (per (fun p -> p.setup_rtt)))
  in
  let steps = fastest (per (fun p -> p.step_rtt)) in
  let events = float_of_int reps.(0).events in
  let latencies = latency_steps steps in
  let p50s = per (fun p -> Stats.median (latency_steps p.step_rtt)) in
  let pooled = Array.concat (Array.to_list (per (fun p -> latency_steps p.step_rtt))) in
  let tail_label, tail = Stats.tail [ 99.; 95. ] pooled in
  let tb = Report.Table.create Report.end_to_end in
  let set = Report.Table.set tb in
  set "setup_s" ~samples:nreps setup;
  set "ops_per_s" ~samples:nreps (events /. sum steps);
  set "p50_ms" ~samples:(Array.length latencies) (ms (Stats.median latencies));
  set "peak_rss_mb" ~samples:nreps
    (Stats.median (per (fun p -> float_of_int p.peak_rss_kb /. 1024.)));
  {
    Report.correct = matches && rejected = 0;
    attempted = Serve_load.requests run;
    failed = rejected;
    metrics = Report.Table.metrics tb;
    notes =
      [
        Report.note "repetitions" "count" (float_of_int nreps);
        Report.note "events_per_rep" "count" events;
        Report.note (label ^ "_p50_ms") "ms" ~samples:(Array.length latencies)
          (ms (Stats.median latencies));
        Report.note (label ^ "_p50_ms.median_rep") "ms" ~samples:nreps
          (ms (Stats.median p50s));
        Report.note
          (Printf.sprintf "%s_%s_ms.pooled" label tail_label)
          "ms" ~samples:(Array.length pooled) (ms tail);
        Report.note "events_per_s.median_rep" "1/s" ~samples:nreps
          (Stats.median (per (fun p -> events /. p.timed_wall)));
        Report.note "setup_s.median_rep" "s" ~samples:nreps
          (Stats.median (per (fun p -> p.spawn_wall +. sum p.setup_rtt)));
      ];
  }

(* The traced run: one repetition fixes the timed-phase wall, then
   Traced replays the same lines layer by layer and checks them against
   that daemon's output. *)
let traced ~tool ~tmp ~seed workload =
  let script = Script.make workload ~seed in
  let run = Serve_load.run ~tool ~reps:1 script in
  let rejected = Serve_load.rejected run in
  let correct, metrics = Traced.run ~tmp script run.reps.(0) in
  {
    Report.correct = correct && rejected = 0;
    attempted = Serve_load.requests run;
    failed = rejected;
    metrics;
    notes = [];
  }
