(* Metric names, units and the result line.

   The end-to-end and per-layer names below are the ones BENCHMARK.json
   declares, in the same order; every run prints all of one list.  A
   per-layer metric whose layer the workload never enters reads 0 (no
   work, no time). *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("serve.frame_us", "us");
    ("serve.bytes_per_resp", "B");
    ("api.parse_us", "us");
    ("api.render_us", "us");
    ("api.exec_overhead_us", "us");
    ("churn.create_p50_us", "us");
    ("churn.create_p99_us", "us");
    ("churn.delete_p50_us", "us");
    ("churn.fail_p50_us", "us");
    ("churn.leave_p50_ms", "ms");
    ("churn.leave_p99_ms", "ms");
    ("churn.join_p50_ms", "ms");
    ("churn.moved_per_leave", "count");
    ("churn.rescore_p50_ms", "ms");
    ("churn.rescore_p99_ms", "ms");
    ("adaptive.add_p50_us", "us");
    ("adaptive.add_p99_us", "us");
    ("adaptive.add_growth", "ratio");
    ("adaptive.peek_us", "us");
    ("adaptive.replace_p50_us", "us");
    ("adaptive.retire_p50_ms", "ms");
    ("adaptive.unretire_p50_ms", "ms");
    ("kernel.rescore_evals", "count");
    ("kernel.rescore_pops", "count");
    ("kernel.dyn_add_us", "us");
    ("kernel.dyn_remove_us", "us");
    ("kernel.build_ms", "ms");
    ("kernel.greedy_ms", "ms");
    ("kernel.greedy_evals", "count");
    ("kernel.stale_ratio", "ratio");
    ("bb.exact_ms", "ms");
    ("bb.nodes", "count");
    ("bb.prune_ratio", "ratio");
    ("bb.spawned_tasks", "count");
    ("bb.steals", "count");
    ("bb.truncations", "count");
    ("topo.exact_ms", "ms");
    ("topo.nodes", "count");
    ("pool.utilization", "ratio");
    ("pool.busy_share", "ratio");
    ("pool.steals", "count");
    ("audit.j1_eq_j2", "bool");
    ("gc.minor_mb_per_kreq", "MiB/kreq");
    ("gc.major_per_kreq", "1/kreq");
    ("unattributed_share", "ratio");
  ]

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** exactly one list above, in its order *)
  notes : metric list;  (** human-readable extras, kept out of the JSON *)
}

(* Values for a name list: [set] records one, unset names read 0. *)
module Table = struct
  type table = { names : (string * string) list; values : (string, float * int) Hashtbl.t }

  let create names = { names; values = Hashtbl.create 64 }

  let set tb name ?(samples = 1) v =
    if not (List.mem_assoc name tb.names) then
      invalid_arg ("Report: undeclared metric " ^ name);
    Hashtbl.replace tb.values name (v, samples)

  let metrics tb =
    List.map
      (fun (name, unit_) ->
        let value, samples =
          Option.value ~default:(0., 0) (Hashtbl.find_opt tb.values name)
        in
        { name; unit_; value; samples })
      tb.names
end

let note name unit_ ?(samples = 1) value = { name; unit_; value; samples }

let print_line m =
  Printf.printf "  %-26s %18.6f %-9s samples=%d\n" m.name m.value m.unit_
    m.samples

let print t =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name))
    t.metrics;
  if t.notes <> [] then begin
    print_endline "details:";
    List.iter print_line t.notes
  end;
  print_endline "metrics:";
  List.iter print_line t.metrics;
  Printf.printf "correct=%b attempted=%d failed=%d\n" t.correct t.attempted
    t.failed;
  (* Values keep every digit (%.17g): runs are compared on raw figures. *)
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
      m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    t.correct t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))
