(* The repository benchmark.

     bench.exe --workload monitor|ingest|rebalance|audit --seed N
               --seconds S --trace 0|1 --tool PATH --tmp DIR

   --trace 0 measures the end-to-end metrics with telemetry off; --trace 1
   replays the same seed's inputs in-process, timing each call into the
   layers' public functions, and reports the per-layer metrics.  Either
   way the outputs are checked, and the last line of standard output is
   one JSON object {"correct", "attempted", "failed", "metrics"}; the
   lines before it give every figure with its unit and sample count.
   README.md in this directory explains the workloads and metrics. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload monitor|ingest|rebalance|audit --seed N \
     --seconds S --trace 0|1 --tool PATH-TO-placement_tool.exe --tmp DIR";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and tool = ref "" and tmp = ref "." in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | "--tool" :: v :: rest -> tool := v; go rest
    | "--tmp" :: v :: rest -> tmp := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as trace)
    when seconds >= 1
         && (!workload = "audit"
            || (List.mem !workload Script.workloads && !tool <> "")) ->
      (!workload, seed, seconds, trace = 1, !tool, !tmp)
  | _ -> usage ()

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace, tool, tmp = parse_args () in
  let report =
    match (workload, trace) with
    | "audit", false -> Audit_load.end_to_end ~seed ~seconds
    | "audit", true -> Audit_load.traced ~seed ~seconds
    | _, false -> Serve_report.end_to_end ~tool ~seed ~seconds workload
    | _, true -> Serve_report.traced ~tool ~tmp ~seed workload
  in
  Report.print report
