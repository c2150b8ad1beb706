(** The worst-case adversary of Definition 1: given full knowledge of the
    placement, choose k nodes to fail so as to fail as many objects as
    possible (an object fails when ≥ s of its replicas are on failed
    nodes).

    Finding the true optimum is a coverage-maximization problem; we
    provide an exact branch-and-bound for small C(n,k) and a greedy +
    steepest-ascent-swap local search with multi-restart for the rest
    (see DESIGN.md §3 on how this substitutes for the paper's unspecified
    "simulating the worst k failures").

    Both searches are fan-out shaped and accept an optional
    {!Engine.Pool}: the branch-and-bound runs on the work-stealing
    sharded frontier ({!Bb}, DESIGN.md §15), the local search
    parallelizes over restarts.  Results are bit-identical with and
    without a pool, at any pool size — parallelism only changes
    wall-clock (see DESIGN.md §2, "parallelism & determinism"). *)

type attack = {
  failed_nodes : int array;  (** the chosen K, sorted, |K| = k *)
  failed_objects : int;  (** objects with ≥ s replicas in K *)
  exact : bool;  (** true if produced by exhaustive/B&B search *)
}

val eval : Layout.t -> s:int -> int array -> int
(** Number of objects failed by a given node set: a one-shot O(b·r)
    merge pass ({!Layout.failed_objects}) with no kernel construction.
    Callers that score many sets over one layout should hold a
    {!Kernel.t} and use {!Kernel.check} instead. *)

val exact :
  ?budget:int -> ?spawn_depth:int -> ?pool:Engine.Pool.t ->
  Layout.t -> s:int -> k:int -> attack
(** Branch-and-bound over all C(n,k) failure sets with a degree-sum upper
    bound for pruning, seeded with the {!greedy} incumbent, run on the
    work-stealing sharded frontier ({!Bb}): subtree tasks cut at a
    deterministic spawn depth ([spawn_depth] overrides it, clamped to
    [1, k]; tests only), drained through per-domain deques under ONE
    global node budget (default 50 million) — a heavy subtree inherits
    whatever budget its finished siblings never used.  When a set
    strictly beats greedy, the reported set is the lexicographically
    smallest optimum, at any [pool] size.  If the TOTAL budget runs out
    the result falls back to the greedy attack with [exact = false] —
    deterministically, since any "best so far" under work stealing
    would be schedule-dependent. *)

val exact_seq : ?budget:int -> Layout.t -> s:int -> k:int -> attack
(** The sequential reference oracle: {!exact} with the whole tree
    explored in the deterministic spawn phase ([spawn_depth = k]) and no
    pool — classic strict-pruning lexicographic DFS.  Equal to {!exact}
    whenever neither truncates; tests and the bench gate diff against
    it. *)

val greedy : ?pool:Engine.Pool.t -> Layout.t -> s:int -> k:int -> attack
(** Add the node with the best marginal damage k times; ties broken by
    progress toward failing objects, then by lowest node id.  Runs as
    sharded CELF lazy-greedy over the attack kernel
    ({!Kernel.select_greedy_sharded}): candidates sit in bound-keyed
    heaps partitioned by node id, each shard re-checks its popped
    candidates exactly, and the per-pick reduce applies the sequential
    scan's own total order — so the chosen nodes AND the search
    statistics are bit-identical to a full rescan per pick, at any
    [pool] size, while touching far fewer marginals on large
    instances. *)

val local_search :
  rng:Combin.Rng.t -> ?restarts:int -> ?pool:Engine.Pool.t ->
  Layout.t -> s:int -> k:int -> attack
(** Greedy start (plus random restarts), then steepest-ascent single-node
    swaps to a local optimum.  [restarts] defaults to 8; each restart
    draws from its own pre-split child of [rng] (see
    {!Combin.Rng.split_n}), so the result does not depend on [pool]. *)

val attack :
  ?pool:Engine.Pool.t -> ?rng:Combin.Rng.t -> ?restarts:int ->
  ?exact_limit:float -> Layout.t -> s:int -> k:int -> attack
(** The restart-plan front end: exact search when the estimated work
    C(n,k)·(r·b/n) is below [exact_limit] (default 5e7), otherwise
    {!local_search} with [restarts] (default 8).  [rng] defaults to a
    fixed seed, making the result deterministic.  Logs (source
    ["placement.adversary"]) a warning when a truncated exact search
    falls back to best-so-far and a debug line when dispatching to the
    heuristic, so callers can tell a heuristic answer from an exact
    one. *)

val avail : Layout.t -> s:int -> attack -> int
(** [b - attack.failed_objects]: the (estimated) Avail(π) of Def. 1. *)

(** The unit-level search behind {!greedy} and {!exact}, over the units
    of any {!Kernel.t}: this module's nodes, or [Topology.Adversary]'s
    same-level fault domains (on a flat tree the two attacks are one
    search, DESIGN.md §9).  The returned [failed_nodes] are the kernel's
    unit ids — domain ids on a domain kernel. *)
module Units : sig
  type metrics
  (** One adversary's search telemetry: the [greedy/*], [kernel/*] and
      [bb/*] counters and the [attack] span. *)

  val metrics : string -> metrics
  (** Register (find-or-create) the record under a path prefix, e.g.
      ["core/adversary"]; call once per prefix at module
      initialization. *)

  val span : metrics -> Telemetry.Span.t
  (** [<prefix>/attack]: the adversary's dispatch span. *)

  val kernel_updates : metrics -> Telemetry.Counter.t
  (** [<prefix>/kernel/updates] (Stable), for a caller that drives its
      own kernel. *)

  val greedy : ?pool:Engine.Pool.t -> metrics -> Kernel.t -> k:int -> attack
  (** Sharded CELF ({!Kernel.select_greedy_sharded}) on the given
      kernel, which ends with the picks applied; [exact = false]. *)

  val exact :
    ?budget:int -> ?spawn_depth:int -> ?pool:Engine.Pool.t ->
    metrics -> Kernel.t -> k:int -> attack
  (** The B&B frontier ({!Bb.search}) over the given all-up kernel
      (only read), seeded by {!greedy} on a {!Kernel.copy} of it; see
      {!Adversary.exact} for [budget] (default 50 million),
      [spawn_depth] and the fallback. *)
end
