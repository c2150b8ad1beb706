let log_src =
  Logs.Src.create "topology.adversary" ~doc:"domain-aware worst-case adversary"

module Log = (val Logs.src_log log_src : Logs.LOG)

type attack = {
  failed_domains : int array;
  failed_nodes : int array;
  failed_objects : int;
  exact : bool;
}

module Units = Placement.Adversary.Units

(* The greedy/kernel/bb metrics and the attack span are the node
   adversary's record under this prefix (DESIGN.md §15: one record, two
   prefixes); the counters below are domain-only. *)
let m = Units.metrics "topology/adversary"
let m_exh_subsets =
  Telemetry.Registry.counter "topology/adversary/exhaustive/subsets"
let m_attack_exh =
  Telemetry.Registry.counter "topology/adversary/attack/exhaustive_dispatch"
let m_attack_bb =
  Telemetry.Registry.counter "topology/adversary/attack/bb_dispatch"

(* Attack units are same-level fault domains: row [d] of the domain CSR
   lists one entry per replica hosted inside domain [d] (same-level
   domains are disjoint node sets, so failing domain [d] fails each
   entry once).  The rows are regrouped off-heap from the layout's
   memoized node CSR ({!Combin.Csr.group}) — no boxed per-domain
   intermediate; domains may hold several replicas of one object, so
   the kernel keeps multiplicities. *)
let kernel_of layout tree ~level ~s =
  let members =
    Array.init (Tree.domain_count tree ~level) (Tree.members tree ~level)
  in
  Placement.Kernel.of_csr ~s
    (Combin.Csr.group (Placement.Layout.incidence layout) members)

let check layout tree ~level ~j =
  if layout.Placement.Layout.n <> Tree.n tree then
    invalid_arg
      (Printf.sprintf
         "Topology.Adversary: layout has n=%d but the topology has %d nodes"
         layout.Placement.Layout.n (Tree.n tree));
  Failset.validate tree ~level ~j

let of_domains tree ~level domains ~failed_objects ~exact =
  {
    failed_domains = Combin.Intset.of_array domains;
    failed_nodes = Failset.nodes tree ~level domains;
    failed_objects;
    exact;
  }

(* One-shot scoring: expand the domains to their node set and run the
   plain O(b·r) merge — no per-call rebuild of the domain incidence.
   Repeated-eval callers should hold a kernel from {!kernel_of}. *)
let eval layout ~s tree ~level domains =
  Placement.Layout.failed_objects layout ~s
    ~failed_nodes:(Failset.nodes tree ~level domains)

let of_units tree ~level (a : Placement.Adversary.attack) =
  of_domains tree ~level a.Placement.Adversary.failed_nodes
    ~failed_objects:a.Placement.Adversary.failed_objects
    ~exact:a.Placement.Adversary.exact

let greedy ?pool layout ~s tree ~level ~j =
  check layout tree ~level ~j;
  of_units tree ~level
    (Units.greedy ?pool m (kernel_of layout tree ~level ~s) ~k:j)

let exhaustive layout ~s tree ~level ~j =
  check layout tree ~level ~j;
  if j = 0 then
    of_domains tree ~level [||] ~failed_objects:0 ~exact:true
  else begin
    (* Greedy seed + strict lexicographic improvement: the reported set
       is the greedy one unless some subset strictly beats it, exactly
       as the branch-and-bound path resolves ties. *)
    let st = kernel_of layout tree ~level ~s in
    let g = Units.greedy m (Placement.Kernel.copy st) ~k:j in
    let best = ref g.Placement.Adversary.failed_objects in
    let best_set = ref None in
    let subsets = ref 0 in
    let nd = Tree.domain_count tree ~level in
    let current = Array.make j 0 in
    let rec go start depth =
      if depth = j then begin
        incr subsets;
        if Placement.Kernel.killed st > !best then begin
          best := Placement.Kernel.killed st;
          best_set := Some (Array.copy current)
        end
      end
      else
        for d = start to nd - (j - depth) do
          current.(depth) <- d;
          Placement.Kernel.add st d;
          go (d + 1) (depth + 1);
          Placement.Kernel.remove st d
        done
    in
    go 0 0;
    Telemetry.Counter.add m_exh_subsets !subsets;
    Telemetry.Counter.add (Units.kernel_updates m)
      (Placement.Kernel.updates st);
    match !best_set with
    | Some domains ->
        of_domains tree ~level domains ~failed_objects:!best ~exact:true
    | None -> of_units tree ~level { g with exact = true }
  end

(* The shared unit search over the domain kernel (DESIGN.md §9, §15):
   the reported set is the lexicographically smallest optimal domain set
   at any -j; on budget exhaustion the result deterministically falls
   back to the greedy attack. *)
let exact ?budget ?spawn_depth ?pool layout ~s tree ~level ~j =
  check layout tree ~level ~j;
  of_units tree ~level
    (Units.exact ?budget ?spawn_depth ?pool m
       (kernel_of layout tree ~level ~s) ~k:j)

let attack ?pool ?budget ?(exhaustive_limit = 20_000) layout ~s tree ~level ~j =
  Telemetry.Span.time (Units.span m) @@ fun () ->
  check layout tree ~level ~j;
  let small =
    match Failset.count tree ~level ~j with
    | Some c -> c <= exhaustive_limit
    | None -> false
  in
  if small then begin
    Telemetry.Counter.incr m_attack_exh;
    exhaustive layout ~s tree ~level ~j
  end
  else begin
    Telemetry.Counter.incr m_attack_bb;
    let result = exact ?budget ?pool layout ~s tree ~level ~j in
    if not result.exact then
      Log.warn (fun m ->
          m
            "domain adversary exhausted its global node budget at level %S \
             j=%d: reporting the greedy attack as a heuristic"
            (Tree.level_name tree level) j);
    result
  end

let avail layout attack = Placement.Layout.b layout - attack.failed_objects
