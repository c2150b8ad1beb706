(* The audit workload: the offline planner's seeded attacks, run
   in-process on a 2-domain Engine.Pool through the public
   Placement.Adversary / Topology.Adversary entry points.  No daemon.

   One audit pass attacks every layout of the run once: exact node
   attacks on small random layouts, a greedy attack on a web-scale CSR
   layout, and exact rack attacks.  A run makes a fixed number of passes
   (see [pass_count]); every attack's reported damage is re-evaluated
   independently. *)

let now = Clock.now
let r = 3
let s = 2

(* Exact node attacks: the B&B frontier's node count varies from layout
   to layout, so each pass covers several layouts and the pass time
   averages over them. *)
let exact_n = 40
let exact_b = 2000
let exact_k = 5
let exact_layouts = 3

(* Greedy attack on a web-scale layout (sharded CELF over the CSR). *)
let greedy_n = 10_000
let greedy_b = 1_000_000
let greedy_k = 8

(* Exact rack attacks: worst [rack_j] of [racks] racks of [rack_size]. *)
let racks = 40
let rack_size = 10
let rack_b = 20_000
let rack_j = 4
let rack_layouts = 2
let rack_level = 1
let tree = Topology.Build.regular ~racks ~nodes_per_rack:rack_size

type layouts = {
  exact : Placement.Layout.t array;
  greedy : Placement.Layout.t;
  rack : Placement.Layout.t array;
}

let random_layout rng ~n ~b ~k =
  Placement.Random_placement.place ~rng (Placement.Params.make ~b ~r ~s ~n ~k)

(* Layout generation, including each layout's memoized CSR incidence, so
   the timed attacks start from built inputs. *)
let generate ~seed =
  let rng = Combin.Rng.create seed in
  let built l =
    ignore (Placement.Layout.incidence l);
    l
  in
  let exact =
    Array.init exact_layouts (fun _ ->
        built (random_layout rng ~n:exact_n ~b:exact_b ~k:exact_k))
  in
  let greedy = built (random_layout rng ~n:greedy_n ~b:greedy_b ~k:greedy_k) in
  let rack =
    Array.init rack_layouts (fun _ ->
        built (random_layout rng ~n:(racks * rack_size) ~b:rack_b ~k:rack_j))
  in
  { exact; greedy; rack }

(* One attack, normalised for checking: the attacked set, its damage and
   whether the search claims exactness. *)
type outcome = { nodes : int array; damage : int; is_exact : bool; checked : bool }

let exact_attack ?pool layout =
  let a = Placement.Adversary.exact ?pool layout ~s ~k:exact_k in
  {
    nodes = a.failed_nodes;
    damage = a.failed_objects;
    is_exact = a.exact;
    checked = Placement.Adversary.eval layout ~s a.failed_nodes = a.failed_objects;
  }

let greedy_attack ?pool layout =
  let a = Placement.Adversary.greedy ?pool layout ~s ~k:greedy_k in
  {
    nodes = a.failed_nodes;
    damage = a.failed_objects;
    is_exact = true (* greedy makes no exactness claim to fail *);
    checked = Placement.Adversary.eval layout ~s a.failed_nodes = a.failed_objects;
  }

let rack_attack ?pool layout =
  let a = Topology.Adversary.exact ?pool layout ~s tree ~level:rack_level ~j:rack_j in
  {
    nodes = a.failed_domains;
    damage = a.failed_objects;
    is_exact = a.exact;
    checked =
      Topology.Adversary.eval layout ~s tree ~level:rack_level a.failed_domains
      = a.failed_objects;
  }

type cls = Exact | Greedy | Rack

(* The attacks of one pass, in order. *)
let pass_plan ls =
  Array.concat
    [
      Array.map (fun l -> (Exact, l)) ls.exact;
      [| (Greedy, ls.greedy) |];
      Array.map (fun l -> (Rack, l)) ls.rack;
    ]

let attack ?pool = function
  | Exact -> exact_attack ?pool
  | Greedy -> greedy_attack ?pool
  | Rack -> rack_attack ?pool

type run = {
  setup_s : float array;  (** wall of each layout generation *)
  layouts : layouts;
  walls : float array array;  (** per pass, each attack's wall in plan order *)
  timed_wall : float;  (** the passes together *)
  attacks : int;
  failed : int;  (** exact attacks that lost exactness *)
  all_checked : bool;  (** every damage re-evaluated equal, every
                           re-generation identical *)
}

(* One set-up: layout generation from a collected heap. *)
let timed_generate ~seed =
  Gc.full_major ();
  let t0 = now () in
  let ls = generate ~seed in
  (now () -. t0, ls)

let same_layouts a b =
  let replicas ls =
    Array.map
      (fun l -> l.Placement.Layout.replicas)
      (Array.concat [ ls.exact; [| ls.greedy |]; ls.rack ])
  in
  replicas a = replicas b

(* On a 2-core host a pass takes ~3.4 s and its two set-ups ~1.2 s, so
   a run of [seconds] makes one pass per 5 s: 4 at 20 s, ~18 s in all. *)
let pass_count seconds = max 2 (seconds / 5)

(* [pass_count seconds] passes over the first set-up's layouts.  Before
   every pass the layouts are generated again twice — timed, checked
   identical, then dropped — so the set-ups span the run. *)
let execute ~seed ~seconds pool =
  let wall, layouts = timed_generate ~seed in
  let plan = pass_plan layouts in
  let setups = ref [ wall ] and passes = ref [] in
  let attacks = ref 0 and failed = ref 0 and ok = ref true in
  for i = 1 to pass_count seconds do
    for _ = (if i = 1 then 2 else 1) to 2 do
      let wall, again = timed_generate ~seed in
      setups := wall :: !setups;
      if not (same_layouts again layouts) then ok := false
    done;
    Gc.full_major ();
    let pass =
      Array.map
        (fun (cls, layout) ->
          let t0 = now () in
          let o = attack ~pool cls layout in
          let wall = now () -. t0 in
          incr attacks;
          if not o.is_exact then incr failed;
          if not o.checked then ok := false;
          wall)
        plan
    in
    passes := pass :: !passes
  done;
  let walls = Array.of_list (List.rev !passes) in
  {
    setup_s = Array.of_list (List.rev !setups);
    layouts;
    walls;
    timed_wall = Array.fold_left (fun acc p -> acc +. Array.fold_left ( +. ) 0. p) 0. walls;
    attacks = !attacks;
    failed = !failed;
    all_checked = !ok;
  }

let ms x = x *. 1e3

let end_to_end ~seed ~seconds =
  Engine.Pool.with_pool ~domains:2 @@ fun pool ->
  let run = execute ~seed ~seconds pool in
  let peak_rss_kb = Option.value ~default:0 (Telemetry.Resource.peak_rss_kb ()) in
  (* Best set-up, and each attack's fastest wall over the passes, as
     for the serve workloads (see Serve_report): every pass does the
     same work, and interference only adds time.  ops_per_s is attacks
     per second of the best walls summed; p50_ms is the median attack's
     best wall. *)
  let plan = pass_plan run.layouts in
  let npass = Array.length run.walls in
  let column j = Array.map (fun pass -> pass.(j)) run.walls in
  let bests =
    Array.mapi (fun j _ -> Array.fold_left Float.min Float.infinity (column j)) plan
  in
  let best = Array.fold_left ( +. ) 0. bests in
  let pass_walls = Array.map (Array.fold_left ( +. ) 0.) run.walls in
  let tb = Report.Table.create Report.end_to_end in
  let set = Report.Table.set tb in
  let nsetup = Array.length run.setup_s in
  set "setup_s" ~samples:nsetup (Array.fold_left Float.min Float.infinity run.setup_s);
  set "ops_per_s" ~samples:npass (float_of_int (Array.length plan) /. best);
  set "p50_ms" ~samples:(Array.length plan) (ms (Stats.median bests));
  set "peak_rss_mb" (float_of_int peak_rss_kb /. 1024.);
  let class_note name cls =
    let ws =
      Array.concat
        (List.filter_map
           (fun j -> if fst plan.(j) = cls then Some (column j) else None)
           (List.init (Array.length plan) Fun.id))
    in
    Report.note name "ms" ~samples:(Array.length ws) (ms (Stats.median ws))
  in
  {
    Report.correct = run.all_checked;
    attempted = run.attacks;
    failed = run.failed;
    metrics = Report.Table.metrics tb;
    notes =
      [
        class_note "exact_p50_ms" Exact;
        class_note "greedy_p50_ms" Greedy;
        class_note "domain_p50_ms" Rack;
        Report.note "pass_ms.median" "ms" ~samples:npass (ms (Stats.median pass_walls));
        Report.note "pass_ms.max" "ms" ~samples:npass
          (ms (Array.fold_left Float.max 0. pass_walls));
        Report.note "setup_s.median" "s" ~samples:nsetup (Stats.median run.setup_s);
        Report.note "best_pass_ms" "ms" ~samples:npass (ms best);
        Report.note "timed_phase_s" "s" run.timed_wall;
      ];
  }

(* The traced run: half as many passes with telemetry on, the frontier
   and pool counters read around them (exact node attacks feed the
   core/adversary/bb counters, rack attacks the topology/adversary/bb
   ones), the CSR build and the sharded CELF greedy timed on their own,
   and every attack repeated on a 1-domain pool to check the -j1 = -j2
   identity. *)
let counter path =
  Telemetry.Counter.value (Telemetry.Registry.counter ~kind:Volatile path)

let traced ~seed ~seconds =
  Engine.Pool.with_pool ~domains:2 @@ fun pool ->
  let _, layouts = timed_generate ~seed in
  let tb = Report.Table.create Report.per_layer in
  let set name ?samples v = Report.Table.set tb name ?samples v in
  (* The CSR build: a fresh, unmemoized copy of the web-scale layout. *)
  let builds =
    Array.init 3 (fun _ ->
        let g = layouts.greedy in
        let fresh = Placement.Layout.make ~n:g.n ~r:g.r g.replicas in
        let t0 = now () in
        ignore (Placement.Kernel.make fresh ~s);
        now () -. t0)
  in
  set "kernel.build_ms" ~samples:3 (ms (Stats.median builds));
  let walls = [| Stats.Samples.create (); Stats.Samples.create (); Stats.Samples.create () |] in
  let index = function Exact -> 0 | Greedy -> 1 | Rack -> 2 in
  let select = Stats.Samples.create () in
  let evals = ref 0 and pops = ref 0 and stale = ref 0 in
  let attacks = ref 0 and failed = ref 0 and ok = ref true and attack_time = ref 0. in
  let paths =
    [ "core/adversary/bb/nodes_expanded"; "core/adversary/bb/bound_prunes";
      "core/adversary/bb/spawned_tasks"; "core/adversary/bb/steals";
      "core/adversary/bb/truncations"; "topology/adversary/bb/nodes_expanded";
      "topology/adversary/bb/truncations"; "engine/pool/busy_ns";
      "engine/pool/steals" ]
  in
  Telemetry.Control.set_enabled true;
  let before = List.map (fun p -> (p, counter p)) paths in
  let gc0 = Gc.quick_stat () in
  let plan = pass_plan layouts in
  for _ = 1 to max 1 (pass_count seconds / 2) do
    Array.iter
      (fun (cls, layout) ->
        let t0 = now () in
        let o =
          match cls with
          | Greedy ->
              (* The layer itself: sharded CELF over a kernel on the
                 memoized CSR, timed without the kernel's construction. *)
              let kn = Placement.Kernel.make layout ~s in
              let t1 = now () in
              let picks, st =
                Placement.Kernel.select_greedy_sharded ~pool kn ~picks:greedy_k
              in
              Stats.Samples.add select (now () -. t1);
              evals := !evals + st.evals;
              pops := !pops + st.heap_pops;
              stale := !stale + st.stale_reevals;
              let nodes = Combin.Intset.of_array picks in
              let damage = Placement.Kernel.killed kn in
              { nodes; damage; is_exact = true;
                checked = Placement.Adversary.eval layout ~s nodes = damage }
          | _ -> attack ~pool cls layout
        in
        let wall = now () -. t0 in
        Stats.Samples.add walls.(index cls) wall;
        attack_time := !attack_time +. wall;
        incr attacks;
        if not o.is_exact then incr failed;
        if not o.checked then ok := false)
      plan
  done;
  let gc1 = Gc.quick_stat () in
  let delta p = counter p - List.assoc p before in
  let utilization =
    Telemetry.Gauge.value (Telemetry.Registry.gauge "engine/pool/utilization")
  in
  Telemetry.Control.set_enabled false;
  (* -j1 = -j2: each layout attacked once more on a 1-domain pool. *)
  let identical =
    Engine.Pool.with_pool ~domains:1 @@ fun pool1 ->
    Array.for_all
      (fun (cls, layout) ->
        let a = attack ~pool cls layout and b = attack ~pool:pool1 cls layout in
        a.nodes = b.nodes && a.damage = b.damage && a.is_exact = b.is_exact)
      plan
  in
  let w cls = Stats.Samples.to_array walls.(index cls) in
  let n cls = Array.length (w cls) in
  let per cls total = float_of_int total /. float_of_int (max 1 (n cls)) in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  set "kernel.greedy_ms" ~samples:(n Greedy)
    (ms (Stats.median (Stats.Samples.to_array select)));
  set "kernel.greedy_evals" ~samples:(n Greedy) (per Greedy !evals);
  set "kernel.stale_ratio" ~samples:(n Greedy) (ratio !stale !pops);
  set "bb.exact_ms" ~samples:(n Exact) (ms (Stats.median (w Exact)));
  set "bb.nodes" ~samples:(n Exact) (per Exact (delta "core/adversary/bb/nodes_expanded"));
  set "bb.prune_ratio" ~samples:(n Exact)
    (ratio (delta "core/adversary/bb/bound_prunes")
       (delta "core/adversary/bb/nodes_expanded"));
  set "bb.spawned_tasks" ~samples:(n Exact) (per Exact (delta "core/adversary/bb/spawned_tasks"));
  set "bb.steals" ~samples:(n Exact) (per Exact (delta "core/adversary/bb/steals"));
  set "bb.truncations" ~samples:(n Exact + n Rack)
    (float_of_int
       (delta "core/adversary/bb/truncations"
       + delta "topology/adversary/bb/truncations"));
  set "topo.exact_ms" ~samples:(n Rack) (ms (Stats.median (w Rack)));
  set "topo.nodes" ~samples:(n Rack) (per Rack (delta "topology/adversary/bb/nodes_expanded"));
  set "pool.utilization" utilization;
  set "pool.busy_share"
    (float_of_int (delta "engine/pool/busy_ns") *. 1e-9 /. (2. *. !attack_time));
  set "pool.steals" ~samples:!attacks (ratio (delta "engine/pool/steals") !attacks);
  set "audit.j1_eq_j2" ~samples:(Array.length plan) (if identical then 1. else 0.);
  let kattacks = float_of_int !attacks /. 1000. in
  set "gc.minor_mb_per_kreq" ~samples:!attacks
    ((gc1.minor_words -. gc0.minor_words) *. float_of_int (Sys.word_size / 8)
     /. 1048576. /. kattacks);
  set "gc.major_per_kreq" ~samples:!attacks
    (float_of_int (gc1.major_collections - gc0.major_collections) /. kattacks);
  if not identical then prerr_endline "check failed: -j1 and -j2 attacks differ";
  {
    Report.correct = !ok && identical;
    attempted = !attacks;
    failed = !failed;
    metrics = Report.Table.metrics tb;
    notes = [];
  }
