let log_src =
  Logs.Src.create "placement.adversary" ~doc:"worst-case adversary search"

module Log = (val Logs.src_log log_src : Logs.LOG)

type attack = {
  failed_nodes : int array;
  failed_objects : int;
  exact : bool;
}

(* ------------------------------------------------------------------ *)
(* The unit-level search: greedy and exact over the units of any
   kernel — this module's nodes, or Topology.Adversary's same-level
   fault domains (a flat tree's racks are the nodes, so the two attacks
   are one search).  Each adversary registers one metrics record under
   its own path prefix.

   The B&B frontier (Bb) prunes against a shared incumbent that tightens
   mid-flight, so which nodes get explored — and with it every per-node
   count below — is timing-dependent: Volatile.  What stays Stable is
   the spawn phase (a pure function of the instance): the task count and
   the spawn depth are bit-identical at any -j, and the determinism
   suites diff them.  Hot loops accumulate plain local ints inside Bb
   and flush here once per search.  Kernel counters (DESIGN.md §10):
   greedy flushes deterministic counts into the Stable [kernel/updates];
   the frontier's kernel traffic and undo depth follow its exploration
   and are Volatile (kept under the bb/kernel prefix). *)

module Units = struct
  type metrics = {
    bb_nodes : Telemetry.Counter.t;
    bb_leaves : Telemetry.Counter.t;
    bb_prunes : Telemetry.Counter.t;
    bb_improves : Telemetry.Counter.t;
    bb_truncations : Telemetry.Counter.t;
    bb_spawned : Telemetry.Counter.t;
    bb_spawn_depth : Telemetry.Gauge.t;
    bb_steals : Telemetry.Counter.t;
    bb_pubs : Telemetry.Counter.t;
    bb_completions : Telemetry.Counter.t;
    bb_kernel_updates : Telemetry.Counter.t;
    greedy_runs : Telemetry.Counter.t;
    greedy_evals : Telemetry.Counter.t;
    kernel_updates : Telemetry.Counter.t;
    kernel_pops : Telemetry.Counter.t;
    kernel_stale : Telemetry.Counter.t;
    kernel_undos : Telemetry.Counter.t;
    kernel_undo_depth : Telemetry.Histogram.t;
    span : Telemetry.Span.t;
  }

  let metrics prefix =
    let path name = prefix ^ "/" ^ name in
    let stable name = Telemetry.Registry.counter (path name) in
    let volatile name = Telemetry.Registry.counter ~kind:Volatile (path name) in
    {
      bb_nodes = volatile "bb/nodes_expanded";
      bb_leaves = volatile "bb/leaves";
      bb_prunes = volatile "bb/bound_prunes";
      bb_improves = volatile "bb/improvements";
      bb_truncations = volatile "bb/truncations";
      bb_spawned = stable "bb/spawned_tasks";
      bb_spawn_depth =
        Telemetry.Registry.gauge ~kind:Stable (path "bb/spawn_depth");
      bb_steals = volatile "bb/steals";
      bb_pubs = volatile "bb/bound_publications";
      bb_completions = volatile "bb/completions";
      bb_kernel_updates = volatile "bb/kernel_updates";
      greedy_runs = stable "greedy/runs";
      greedy_evals = stable "greedy/marginal_evals";
      kernel_updates = stable "kernel/updates";
      kernel_pops = stable "kernel/heap_pops";
      kernel_stale = stable "kernel/stale_reevals";
      kernel_undos = volatile "kernel/bb_undos";
      kernel_undo_depth =
        Telemetry.Registry.histogram ~kind:Volatile
          (path "kernel/bb_undo_depth");
      span = Telemetry.Registry.span (path "attack");
    }

  let span m = m.span
  let kernel_updates m = m.kernel_updates

  let greedy ?pool m kn ~k =
    let picks, stats = Kernel.select_greedy_sharded ?pool kn ~picks:k in
    Telemetry.Counter.incr m.greedy_runs;
    Telemetry.Counter.add m.greedy_evals stats.Kernel.evals;
    Telemetry.Counter.add m.kernel_pops stats.Kernel.heap_pops;
    Telemetry.Counter.add m.kernel_stale stats.Kernel.stale_reevals;
    Telemetry.Counter.add m.kernel_updates (Kernel.updates kn);
    {
      failed_nodes = Combin.Intset.of_array picks;
      failed_objects = Kernel.killed kn;
      exact = false;
    }

  (* Called once per search on the calling domain. *)
  let flush_bb_stats m (st : Bb.stats) =
    Telemetry.Gauge.set m.bb_spawn_depth (float_of_int st.Bb.spawn_depth);
    Telemetry.Counter.add m.bb_spawned st.Bb.spawned_tasks;
    Telemetry.Counter.add m.bb_nodes st.Bb.nodes;
    Telemetry.Counter.add m.bb_leaves st.Bb.leaves;
    Telemetry.Counter.add m.bb_prunes st.Bb.prunes;
    Telemetry.Counter.add m.bb_improves st.Bb.improvements;
    Telemetry.Counter.add m.bb_completions st.Bb.completions;
    Telemetry.Counter.add m.bb_pubs st.Bb.bound_publications;
    Telemetry.Counter.add m.bb_steals st.Bb.steals;
    Telemetry.Counter.add m.bb_kernel_updates st.Bb.kernel_updates;
    Telemetry.Counter.add m.kernel_undos st.Bb.undos;
    Telemetry.Histogram.observe m.kernel_undo_depth st.Bb.max_undo_depth

  (* The frontier (Bb, DESIGN.md §15) does the heavy lifting: greedy on a
     copy of the all-up kernel seeds the shared incumbent, the spawn
     phase shards the tree into prefix tasks, and work stealing drains
     them under one global node budget.  The returned set is the
     lexicographically smallest optimum whenever one strictly beats
     greedy — identical at any [-j] — and on budget exhaustion the
     result deterministically falls back to the greedy attack with
     [exact = false]. *)
  let exact ?(budget = 50_000_000) ?spawn_depth ?pool m kn ~k =
    if k = 0 then { failed_nodes = [||]; failed_objects = 0; exact = true }
    else begin
      let g = greedy ?pool m (Kernel.copy kn) ~k in
      let r =
        Bb.search ?pool ?spawn_depth ~budget ~kernel:kn ~k
          ~seed:g.failed_objects ()
      in
      flush_bb_stats m r.Bb.stats;
      if r.Bb.truncated then begin
        Telemetry.Counter.incr m.bb_truncations;
        { g with exact = false }
      end
      else
        match r.Bb.set with
        | Some set ->
            {
              failed_nodes = Combin.Intset.of_array set;
              failed_objects = r.Bb.value;
              exact = true;
            }
        | None -> { g with exact = true }
    end
end

let core = Units.metrics "core/adversary"
let m_ls_restarts =
  Telemetry.Registry.counter "core/adversary/local_search/restarts"
let m_ls_passes = Telemetry.Registry.counter "core/adversary/local_search/passes"
let m_ls_swaps = Telemetry.Registry.counter "core/adversary/local_search/swaps"
let m_attack_exact =
  Telemetry.Registry.counter "core/adversary/attack/exact_dispatch"
let m_attack_heur =
  Telemetry.Registry.counter "core/adversary/attack/heuristic_dispatch"

(* One-shot scoring: a single O(b·r) merge pass with no allocation.
   Routing this through a throwaway Kernel would rebuild the per-object
   incidence bitsets on every call; repeated-eval callers should hold a
   {!Kernel.t} across calls instead (Kernel.check, or add + killed). *)
let eval layout ~s failed_nodes = Layout.failed_objects layout ~s ~failed_nodes

let greedy ?pool layout ~s ~k =
  Units.greedy ?pool core (Kernel.make layout ~s) ~k

let exact ?budget ?spawn_depth ?pool layout ~s ~k =
  if k >= layout.Layout.n then invalid_arg "Adversary.exact: k >= n";
  Units.exact ?budget ?spawn_depth ?pool core (Kernel.make layout ~s) ~k

(* The sequential reference oracle: the whole search runs in the
   deterministic spawn phase ([spawn_depth = k]), with no pool — classic
   strict-pruning lexicographic DFS.  Tests and benches diff the sharded
   frontier against this. *)
let exact_seq ?budget layout ~s ~k = exact ?budget ~spawn_depth:k layout ~s ~k

(* Returns (passes, swaps): full sweeps of the outer loop and accepted
   swap moves — plain locals, flushed by the caller. *)
let improve_to_local_opt st chosen =
  let n = Array.length chosen in
  let improved = ref true in
  let passes = ref 0 and swaps = ref 0 in
  while !improved do
    improved := false;
    incr passes;
    (try
       for nd_in = 0 to n - 1 do
         if chosen.(nd_in) then begin
           Kernel.remove st nd_in;
           chosen.(nd_in) <- false;
           (* First-improvement swap search. *)
           let found = ref (-1) and found_gain = ref 0 in
           for nd_out = 0 to n - 1 do
             if (not chosen.(nd_out)) && nd_out <> nd_in then begin
               let newly, _ = Kernel.marginal st nd_out in
               if newly > !found_gain then begin
                 found := nd_out;
                 found_gain := newly
               end
             end
           done;
           (* Putting nd_in back yields damage gain (its own marginal); a
              swap wins only if some other node strictly beats it. *)
           let back_gain, _ = Kernel.marginal st nd_in in
           if !found >= 0 && !found_gain > back_gain then begin
             chosen.(!found) <- true;
             Kernel.add st !found;
             incr swaps;
             improved := true;
             raise Exit
           end
           else begin
             chosen.(nd_in) <- true;
             Kernel.add st nd_in
           end
         end
       done
     with Exit -> ())
  done;
  (!passes, !swaps)

let attack_of_state st chosen =
  let nodes = ref [] in
  Array.iteri (fun nd c -> if c then nodes := nd :: !nodes) chosen;
  {
    failed_nodes = Combin.Intset.of_array (Array.of_list !nodes);
    failed_objects = Kernel.killed st;
    exact = false;
  }

let local_search ~rng ?(restarts = 8) ?pool layout ~s ~k =
  let n = layout.Layout.n in
  let restarts = max 1 restarts in
  let kn0 = Kernel.make layout ~s in
  (* One pre-split RNG per restart: each restart's stream is a function of
     its index alone, so the plan is bit-identical at any [-j].  Restart 0
     is the deterministic greedy seed and draws nothing. *)
  let rngs = Combin.Rng.split_n rng restarts in
  let run_restart i =
    let st = Kernel.copy kn0 in
    let chosen = Array.make n false in
    let seed_nodes =
      if i = 0 then (greedy layout ~s ~k).failed_nodes
      else Combin.Rng.sample_distinct rngs.(i) ~n ~k
    in
    Array.iter
      (fun nd ->
        chosen.(nd) <- true;
        Kernel.add st nd)
      seed_nodes;
    let passes, swaps = improve_to_local_opt st chosen in
    (attack_of_state st chosen, passes, swaps, Kernel.updates st)
  in
  let indices = Array.init restarts Fun.id in
  let results = Engine.Pool.map_opt pool run_restart indices in
  let candidates = Array.map (fun (a, _, _, _) -> a) results in
  (* Per-restart stats flushed in restart order on the calling domain. *)
  Array.iter
    (fun (_, passes, swaps, updates) ->
      Telemetry.Counter.incr m_ls_restarts;
      Telemetry.Counter.add m_ls_passes passes;
      Telemetry.Counter.add m_ls_swaps swaps;
      Telemetry.Counter.add core.Units.kernel_updates updates)
    results;
  (* First-index-wins max: the earliest restart reaching the best damage
     provides the reported node set, as in the sequential reference. *)
  let best = ref candidates.(0) in
  Array.iter
    (fun a -> if a.failed_objects > !best.failed_objects then best := a)
    candidates;
  !best

let attack ?pool ?rng ?(restarts = 8) ?(exact_limit = 5e7) layout ~s ~k =
  Telemetry.Span.time core.Units.span @@ fun () ->
  let rng = match rng with Some r -> r | None -> Combin.Rng.create 0xADE5 in
  let n = layout.Layout.n in
  let combos =
    match Combin.Binomial.exact_opt n k with
    | Some c -> float_of_int c
    | None -> infinity
  in
  (* Estimated work: search-tree leaves times per-node update cost (the
     average number of objects per node). *)
  let avg_degree =
    float_of_int (layout.Layout.r * Layout.b layout) /. float_of_int n
  in
  if combos *. avg_degree <= exact_limit then begin
    Telemetry.Counter.incr m_attack_exact;
    let result = exact ?pool layout ~s ~k in
    if not result.exact then
      Log.warn (fun m ->
          m
            "exact adversary exhausted its global node budget on n=%d b=%d \
             s=%d k=%d: reporting the greedy attack as a heuristic"
            n (Layout.b layout) s k);
    result
  end
  else begin
    Telemetry.Counter.incr m_attack_heur;
    Log.debug (fun m ->
        m
          "adversary search space too large on n=%d b=%d s=%d k=%d \
           (~%.3g evals): result is heuristic (local search, %d restarts)"
          n (Layout.b layout) s k (combos *. avg_degree) restarts);
    local_search ~rng ~restarts ?pool layout ~s ~k
  end

let avail layout ~s:_ attack = Layout.b layout - attack.failed_objects
