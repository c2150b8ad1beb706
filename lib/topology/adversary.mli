(** The domain-aware worst-case adversary: fail the [j] domains at one
    level of a fault-domain tree that kill the most objects.

    This is the paper's Definition-1 adversary with its choice set
    restricted from arbitrary [k]-node subsets to unions of [j]
    same-level domains.  On a {!Build.flat} tree (singleton racks) the
    rack-level adversary therefore {e is} the node adversary and finds
    the same availability.

    Search: the domains are the units of a domain kernel, and greedy and
    branch-and-bound are the node adversary's own unit-level search
    ({!Placement.Adversary.Units}, DESIGN.md §9/§15) — the work-stealing
    sharded frontier ({!Placement.Bb}) with a deterministic spawn depth,
    one global node budget, pruning against the shared {!Engine.Bound}
    incumbent and a (value, lexicographic) merge, so the reported attack
    is bit-identical at any [-j] even though the explored node set is
    not.  Only the exhaustive oracle and the dispatch are domain-specific.
    Telemetry lands under [topology/adversary/...]: the shared search's
    metric record under this prefix, plus the exhaustive and dispatch
    counters. *)

type attack = {
  failed_domains : int array;  (** chosen domain ids, ascending *)
  failed_nodes : int array;  (** their member nodes, ascending *)
  failed_objects : int;
  exact : bool;  (** false only when the global node budget ran out *)
}

val eval :
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> int array -> int
(** Objects killed by failing the given domains. *)

val greedy :
  ?pool:Engine.Pool.t ->
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> j:int -> attack
(** Pick domains one at a time by marginal damage ([exact = false]).
    Runs sharded CELF over the domain kernel
    ({!Placement.Kernel.select_greedy_sharded}); picks and statistics
    are bit-identical at any [pool] size. *)

val exhaustive :
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> j:int -> attack
(** Sequential enumeration of every [j]-subset of domains in
    lexicographic order, greedy-seeded with strict improvement; always
    exact.  Meant for small [C(domains, j)] — {!attack} dispatches. *)

val exact :
  ?budget:int ->
  ?spawn_depth:int ->
  ?pool:Engine.Pool.t ->
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> j:int -> attack
(** Branch-and-bound over domain subsets on the shared frontier
    ([budget]: ONE global search-node allowance, default 5e7, drawn in
    blocks by the work-stealing tasks; [spawn_depth] forces the task
    cut, clamped to [1, j] — tests only, [j] is the sequential
    reference).  Returns the same attack as {!exhaustive} whenever it
    completes ([exact = true]); on budget exhaustion it falls back to
    the greedy attack with [exact = false], deterministically. *)

val attack :
  ?pool:Engine.Pool.t ->
  ?budget:int ->
  ?exhaustive_limit:int ->
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> j:int -> attack
(** Dispatch: {!exhaustive} when [C(domains, j) <= exhaustive_limit]
    (default 20,000), else {!exact}.  Telemetry lands under
    [topology/adversary/...].
    @raise Invalid_argument when the layout and tree disagree on [n],
    or [j] is out of range. *)

val avail : Placement.Layout.t -> attack -> int
(** [b − failed_objects]. *)
