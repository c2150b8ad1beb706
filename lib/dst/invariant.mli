(** The dst invariant registry (DESIGN.md §14): properties of the
    continuous engine checked after every applied event ([Step]) or at
    [Measure] pulses ([Pulse], for the expensive oracles).

    A violation raises {!Violation} with the invariant's name and a
    one-sentence message; the harness turns that into a failing
    {!Harness.outcome} and (on request) hands the history to the
    shrinker.  Fault injection must never trip an invariant: injected
    faults surface as rejections and rollbacks, after which every
    property here still holds. *)

exception Violation of string * string
(** [(invariant name, message)]. *)

val fail : string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail name fmt ...] raises {!Violation} — for custom invariants in
    tests. *)

type cadence =
  | Step  (** after every applied event *)
  | Pulse  (** at [Measure] events only (expensive oracles) *)

type ctx = {
  engine : Dsim.Churn.t;
  step : Dsim.Churn.step option;
      (** the step just applied; [None] on the pre-history check *)
  pre_load : int;
      (** the leaver's {!Dsim.Churn.node_load} captured before a
          [Node_leave] was applied (0 for every other event) — the
          movement budget that leave was allowed to spend *)
  applied : Dsim.Event.t list;
      (** every successfully applied event so far, newest first *)
  rescore : Dsim.Churn.rescore Lazy.t;
      (** the current worst-case attack from the warm
          {!Dsim.Churn.rescore}, shared so multiple invariants (and the
          harness's own min tracking) pay for it once *)
}

type t = {
  name : string;  (** e.g. ["engine/oracle"], ["strategy/combo"] *)
  describe : string;
  cadence : cadence;
  check : ctx -> unit;  (** raises {!Violation} on failure *)
}

val builtins : t list
(** The always-on registry:

    - [engine/oracle] ([Step]): {!Dsim.Churn.check} — incremental
      kernel, adaptive bookkeeping, availability, adversary picks all ≡
      from-scratch recomputation;
    - [rescore/warm-eq-cold] ([Step]): the harness's warm
      {!Dsim.Churn.rescore} (attack and worst_available) equals the cold
      {!Placement.Kernel.Dyn.worst_case} on the same engine;
    - [availability/lower-bound] ([Step]): current availability (while
      at most k nodes are down) and the worst-case rescore never fall
      below the live Lemma-3 guarantee;
    - [movement/budget] ([Step]): a create moves exactly r replicas, a
      leave at most r·load(leaver), everything else nothing;
    - [placement/in-service] ([Pulse]): no live replica sits on a node
      that permanently left;
    - [engine/replay] ([Pulse]): a fresh engine replaying the applied
      history (injection disarmed) reaches the same live/available/
      moved/bound state and the same layout. *)

val of_strategy : (module Placement.Strategy.S) -> t
(** Auto-discovered per-strategy invariant ([strategy/<name>], [Pulse]):
    plan the strategy at the live population's parameter cell and check
    the plan against its own promises — the ⌈r·b/n⌉ load cap when it
    claims [Load_balanced], and availability under a greedy k-attack ≥
    its {!Placement.Strategy.S.lower_bound}.  Cells the strategy cannot
    handle (invalid parameters, over an [Exact_small] budget, missing
    configuration) are skipped, not failed. *)

val canaries : t list
(** Deliberately broken invariants, off by default, enabled by name via
    the harness's [break_invariants] — fuel for shrinker drills and the
    check.sh smoke: [canary/full-availability] asserts that no live
    object is ever unavailable, which any create + s failures refutes. *)

val find_canary : string -> t option
val canary_names : string list
