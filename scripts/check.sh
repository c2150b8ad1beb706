#!/bin/sh
# One-shot health check: the full test suite plus the quick perf pass
# (adversary -j scaling, the kernel-vs-naive greedy comparison, the
# sharded-frontier vs branch-parallel exact-adversary row, the
# cached-vs-uncached analysis sweep and the domain-adversary B&B
# scaling, which append BENCH_adversary.json / BENCH_analysis.json /
# BENCH_topology.json in the repo root), then a
# telemetry smoke run (--metrics must carry the placement/v1 envelope,
# the disabled-instrumentation overhead guard must hold) and a topology
# smoke run (rack adversary vs node adversary sanity inequality, the
# flat-tree rack = node equality, domain adversary -j determinism),
# and a churn smoke (a 10^4-event seeded trace replayed through the
# continuous engine, diffed byte-for-byte
# against the pinned envelope in scripts/churn_smoke.expected; the
# churn_trace row in BENCH_churn.json must report incremental ≡
# from-scratch re-scores, bounded per-event data movement, and warm ≡
# cold re-scores at 10x fewer marginal evals per event), and
# finally the serve gates (a fixed event+query script answered over
# stdin must be byte-identical to the batch churn --responses replay
# at -j1 and -j4, a SIGTERM mid-session must still flush a summary
# envelope naming the signal, and the serve_pipe row in
# BENCH_churn.json must report matching engine states with peak-RSS),
# and the dst gates (a pinned multi-seed simulation sweep with fault
# injection armed must hold every invariant bit-identically at -j1 and
# -j4, a deliberately broken canary must shrink to a <= 25-event repro
# that replays to the same violation, and the dst_sweep row in
# BENCH_dst.json must report zero violations with peak-RSS).
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest
dune exec bench/main.exe -- perf --quick

metrics=$(dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 3 --metrics -)
echo "$metrics" | grep -q '"schema": "placement/v1"' ||
  { echo "check.sh: --metrics output missing placement/v1 envelope" >&2; exit 1; }
echo "$metrics" | grep -q '"core/adversary/bb/nodes_expanded"' ||
  { echo "check.sh: --metrics output missing B&B search statistics" >&2; exit 1; }

tail -n 1 BENCH_telemetry.json | grep -q '"disabled_ok": true' ||
  { echo "check.sh: disabled-telemetry overhead guard failed (see BENCH_telemetry.json)" >&2; exit 1; }

# Kernel guard: the incremental-counter greedy must pick the same nodes
# as the frozen naive rescan on the Fig-4 sweep instance (see the
# adversary_kernel_vs_naive row the perf pass just appended).  Pick
# identity is the hard correctness gate.  The wall-clock ratio is noisy
# on a ~70-node micro-benchmark (machine load, CPU frequency scaling,
# virtualized CI), so the hard perf gate is a loose >= 1.2x floor that
# only a real regression should cross; anything under the nominal 2x is
# surfaced as an advisory warning.  (Marginal-eval counts are in the
# JSON row too, but they are no proxy: CELF re-checks can exceed the
# rescan's eval count — the kernel wins on per-eval cost.)
kernel_row=$(grep '"op": "adversary_kernel_vs_naive"' BENCH_adversary.json | tail -n 1)
[ -n "$kernel_row" ] ||
  { echo "check.sh: no adversary_kernel_vs_naive row in BENCH_adversary.json" >&2; exit 1; }
echo "$kernel_row" | grep -q '"identical": true' ||
  { echo "check.sh: kernel greedy picks differ from the naive rescan (see BENCH_adversary.json)" >&2; exit 1; }
kernel_speedup=$(echo "$kernel_row" | sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p')
[ -n "$kernel_speedup" ] && awk "BEGIN { exit !($kernel_speedup >= 1.2) }" ||
  { echo "check.sh: kernel greedy speedup ${kernel_speedup:-unknown} < 1.2x over naive (see BENCH_adversary.json)" >&2; exit 1; }
if awk "BEGIN { exit !($kernel_speedup < 2.0) }"; then
  echo "check.sh: advisory: kernel greedy wall-clock speedup $kernel_speedup < nominal 2x (see BENCH_adversary.json)" >&2
fi

# Scaling sweep gate: the quick perf pass appends an
# adversary_scaling_sweep row (the n x b grid over the CSR kernel and
# the sharded CELF path).  Hard gate: the row must exist and every cell
# must report bit-identical picks between the sequential scan and the
# sharded reduce ("identical_all": true) — that is the determinism
# contract.  Wall-clock parallel speedup depends on the host's core
# count (a 1-core container can never exceed 1x), so the speedup floor
# is advisory only, per the nominal 0.5x sanity line: the sharded path
# sharing one counter plane should never cost more than ~2x the
# sequential scan even under full core contention.
scaling_row=$(grep '"op": "adversary_scaling_sweep"' BENCH_adversary.json | tail -n 1)
[ -n "$scaling_row" ] ||
  { echo "check.sh: no adversary_scaling_sweep row in BENCH_adversary.json" >&2; exit 1; }
echo "$scaling_row" | grep -q '"identical_all": true' ||
  { echo "check.sh: sharded greedy picks differ from sequential in the scaling sweep (see BENCH_adversary.json)" >&2; exit 1; }
echo "$scaling_row" | grep -q '"peak_rss_kb"' ||
  { echo "check.sh: scaling sweep row is missing peak_rss_kb (see BENCH_adversary.json)" >&2; exit 1; }
scaling_speedup=$(echo "$scaling_row" | sed -n 's/.*"largest_cell_speedup": \([0-9.]*\).*/\1/p')
if [ -n "$scaling_speedup" ] && awk "BEGIN { exit !($scaling_speedup < 0.5) }"; then
  echo "check.sh: advisory: sharded greedy speedup $scaling_speedup < nominal 0.5x on the largest cell (see BENCH_adversary.json)" >&2
fi

# Sharded-frontier gate: the quick perf pass appends a
# bb_sharded_vs_branch row (the PR-10 work-stealing B&B frontier vs a
# frozen copy of the branch-parallel static-split search it replaced,
# both diffed against the sequential oracle at k=6–7).  Hard gate: the
# row must exist and every cell must report identical damage AND
# winning set across all arms ("identical_all": true) — the frontier's
# determinism contract (DESIGN.md §15).  The k=6 speedup over the
# branch-parallel arm is wall-clock (a 1-core container can never show
# a parallel win), so the nominal 1.2x floor is advisory only.
bb_row=$(grep '"op": "bb_sharded_vs_branch"' BENCH_adversary.json | tail -n 1)
[ -n "$bb_row" ] ||
  { echo "check.sh: no bb_sharded_vs_branch row in BENCH_adversary.json" >&2; exit 1; }
echo "$bb_row" | grep -q '"identical_all": true' ||
  { echo "check.sh: sharded frontier attack differs from the branch-parallel or oracle arm (see BENCH_adversary.json)" >&2; exit 1; }
bb_speedup=$(echo "$bb_row" | sed -n 's/.*"k6_speedup_vs_branch": \([0-9.]*\).*/\1/p')
if [ -n "$bb_speedup" ] && awk "BEGIN { exit !($bb_speedup < 1.2) }"; then
  echo "check.sh: advisory: frontier speedup $bb_speedup < nominal 1.2x over branch-parallel at k=6 (see BENCH_adversary.json)" >&2
fi

# Frontier -j determinism on the CLI path: the same exact attack must
# be byte-identical at -j1 and -j4 (pruning reads a shared incumbent,
# but the (value, lexicographic) merge pins the reported set).
dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 -j1 > attack_j1.out
dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 -j4 > attack_j4.out
cmp attack_j1.out attack_j4.out ||
  { echo "check.sh: exact attack output differs between -j1 and -j4" >&2; exit 1; }
rm -f attack_j1.out attack_j4.out

# Frontier telemetry: on an instance big enough to actually spawn tasks
# (n=71: spawn depth 2 < k), the --metrics envelope must carry the new
# frontier counters — the task count and spawn depth are Stable, the
# node count rides in the volatile section.
bb_metrics=$(dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 71 -b 2400 -r 3 -s 2 -k 3 --metrics -)
for counter in 'core/adversary/bb/spawned_tasks' 'core/adversary/bb/spawn_depth' \
  'core/adversary/bb/nodes_expanded'; do
  echo "$bb_metrics" | grep -q "\"$counter\"" ||
    { echo "check.sh: --metrics output missing $counter" >&2; exit 1; }
done

# Topology smoke: on a regular 4x5 topology the rack adversary (worst 1
# rack = 5 nodes) can never beat the node adversary given the same 5-node
# budget, so its availability must be >= the node adversary's.
topo=$(dune exec bin/placement_tool.exe -- attack --strategy simple \
  -n 20 -b 100 -r 3 -s 2 -k 5 --topology rack:4/node:5 --fail-domains 1)
node_avail=$(echo "$topo" | sed -n 's/^ *available objects: \([0-9]*\) .*/\1/p')
rack_avail=$(echo "$topo" | sed -n 's/^ *available: \([0-9]*\) .*/\1/p')
[ -n "$node_avail" ] && [ -n "$rack_avail" ] && [ "$rack_avail" -ge "$node_avail" ] ||
  { echo "check.sh: topology smoke failed (rack adversary $rack_avail < node adversary $node_avail)" >&2; exit 1; }

# Flat-tree gate: with singleton racks the rack adversary and the node
# adversary run one unit search, so they must fail the same nodes and
# leave the same availability — not merely rack >= node.
flat=$(dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 --topology rack:31/node:1 --fail-domains 4)
flat_node_avail=$(echo "$flat" | sed -n 's/^ *available objects: \([0-9]*\) .*/\1/p')
flat_rack_avail=$(echo "$flat" | sed -n 's/^ *available: \([0-9]*\) .*/\1/p')
flat_node_set=$(echo "$flat" | sed -n 's/^  failed nodes: //p')
flat_rack_set=$(echo "$flat" | sed -n 's/^    failed nodes: //p')
[ -n "$flat_node_avail" ] && [ "$flat_rack_avail" = "$flat_node_avail" ] &&
  [ -n "$flat_node_set" ] && [ "$flat_rack_set" = "$flat_node_set" ] ||
  { echo "check.sh: flat-tree gate failed (rack $flat_rack_avail $flat_rack_set vs node $flat_node_avail $flat_node_set)" >&2; exit 1; }

tail -n 1 BENCH_topology.json | grep -q '"identical": true' ||
  { echo "check.sh: domain adversary -j determinism guard failed (see BENCH_topology.json)" >&2; exit 1; }

# Churn gates: the quick perf pass appends a churn_trace row (the
# continuous engine on an n=10^3 population).  Hard gates: the
# incremental per-event re-score must be bit-identical to a from-scratch
# kernel rebuild ("incremental_eq_scratch": true — picks, damage and
# scan stats, re-verified by the engine's own oracle), and no event may
# move more than r replicas ("moved_bounded": true — the
# bounded-data-movement contract).  The re-score speedup is what the
# incremental kernel buys over a rebuild (timed on the cold path, since
# a repeated warm rescore of an unchanged engine does no work) and is
# recorded in the row, but it is wall-clock and therefore advisory
# only.
churn_row=$(grep '"op": "churn_trace"' BENCH_churn.json | tail -n 1)
[ -n "$churn_row" ] ||
  { echo "check.sh: no churn_trace row in BENCH_churn.json" >&2; exit 1; }
echo "$churn_row" | grep -q '"incremental_eq_scratch": true' ||
  { echo "check.sh: incremental churn re-score differs from from-scratch evaluation (see BENCH_churn.json)" >&2; exit 1; }
echo "$churn_row" | grep -q '"moved_bounded": true' ||
  { echo "check.sh: churn trace moved more than r replicas on one event (see BENCH_churn.json)" >&2; exit 1; }
churn_speedup=$(echo "$churn_row" | sed -n 's/.*"rescore_speedup": \([0-9.]*\).*/\1/p')
if [ -n "$churn_speedup" ] && awk "BEGIN { exit !($churn_speedup < 1.0) }"; then
  echo "check.sh: advisory: incremental re-score speedup $churn_speedup < 1x over from-scratch (see BENCH_churn.json)" >&2
fi

# Warm-rescore gates: the churn_trace row's per-event pass rescored warm
# (certificate replay + resumed CELF) and cold after every event.  Hard
# gates, both deterministic: the warm attack and damage equal the cold
# ones at every event ("warm_eq_cold": true), and the warm path does at
# least 10x fewer marginal evals per event than the cold one.
echo "$churn_row" | grep -q '"warm_eq_cold": true' ||
  { echo "check.sh: warm churn re-score differs from the cold adversary (see BENCH_churn.json)" >&2; exit 1; }
warm_evals=$(echo "$churn_row" | sed -n 's/.*"warm_evals_per_event": \([0-9.]*\).*/\1/p')
cold_evals=$(echo "$churn_row" | sed -n 's/.*"cold_evals_per_event": \([0-9.]*\).*/\1/p')
[ -n "$warm_evals" ] && [ -n "$cold_evals" ] &&
  awk "BEGIN { exit !(10 * $warm_evals <= $cold_evals) }" ||
  { echo "check.sh: warm re-score evals/event ${warm_evals:-unknown} not 10x below cold ${cold_evals:-unknown} (see BENCH_churn.json)" >&2; exit 1; }

# Churn smoke: a 10^4-event seeded trace through the continuous engine,
# with per-event incremental worst-case re-scoring, must reproduce the
# pinned placement/v1 envelope byte for byte (determinism contract:
# same stream, same bytes, at any -j).
dune exec bin/placement_tool.exe -- churn -n 50 -r 3 -s 2 -k 3 \
  --seed 7 --count 10000 --measure-every 500 --json > churn_smoke.json
diff scripts/churn_smoke.expected churn_smoke.json ||
  { echo "check.sh: churn smoke diverged from the pinned envelope (scripts/churn_smoke.expected)" >&2; exit 1; }
rm -f churn_smoke.json

# Serve gates.  (1) Protocol determinism: a fixed event+query script
# piped into the serve daemon over stdin must answer byte-identically
# to the batch `churn --events FILE --responses` replay, at -j1 and
# -j4 — serve and batch share one Api path, and this is the contract
# that keeps them honest.
cat > serve_script.txt <<'EOF'
create
create
create
fail 1
query avail
query worst 3
leave 1
query lower-bound
join 1
create
delete 0
query worst
stats
EOF
dune exec bin/placement_tool.exe -- serve -n 12 -r 3 -s 2 -k 2 \
  < serve_script.txt > serve_stdin.out
dune exec bin/placement_tool.exe -- churn -n 12 -r 3 -s 2 -k 2 \
  --events serve_script.txt --responses > serve_batch.out
cmp serve_stdin.out serve_batch.out ||
  { echo "check.sh: serve over stdin diverged from batch churn --responses" >&2; exit 1; }
dune exec bin/placement_tool.exe -- serve -n 12 -r 3 -s 2 -k 2 -j4 \
  < serve_script.txt > serve_j4.out
cmp serve_stdin.out serve_j4.out ||
  { echo "check.sh: serve output differs between -j1 and -j4" >&2; exit 1; }
rm -f serve_script.txt serve_stdin.out serve_batch.out serve_j4.out

# (2) Graceful drain: SIGTERM mid-session must still flush a valid
# final summary envelope naming the signal.  The daemon reads from a
# FIFO held open by a sleeping writer, so only the signal can end it.
serve_fifo=$(mktemp -u serve_fifo.XXXXXX)
mkfifo "$serve_fifo"
sleep 5 > "$serve_fifo" &
fifo_holder=$!
_build/default/bin/placement_tool.exe serve -n 8 -r 3 -s 2 -k 2 \
  < "$serve_fifo" > serve_sigterm.out &
serve_pid=$!
sleep 1
kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
kill "$fifo_holder" 2>/dev/null || true
wait "$fifo_holder" 2>/dev/null || true
rm -f "$serve_fifo"
grep -q '"command": "summary"' serve_sigterm.out ||
  { echo "check.sh: SIGTERM drain emitted no summary envelope" >&2; exit 1; }
grep -q '"reason": "signal"' serve_sigterm.out ||
  { echo "check.sh: SIGTERM drain summary does not name the signal" >&2; exit 1; }
rm -f serve_sigterm.out

# (3) Serve throughput row: the quick perf pass appends a serve_pipe
# row (the serve loop vs raw applies on the same stream).  Hard gate:
# both engines must land in the same state ("engines_agree": true) and
# the row must carry peak_rss_kb; the protocol-overhead ratio is
# wall-clock and advisory only, per the nominal 2x line — parsing and
# envelope rendering should stay within 2x of raw applies.
serve_row=$(grep '"op": "serve_pipe"' BENCH_churn.json | tail -n 1)
[ -n "$serve_row" ] ||
  { echo "check.sh: no serve_pipe row in BENCH_churn.json" >&2; exit 1; }
echo "$serve_row" | grep -q '"engines_agree": true' ||
  { echo "check.sh: serve loop and raw applies landed in different engine states (see BENCH_churn.json)" >&2; exit 1; }
echo "$serve_row" | grep -q '"peak_rss_kb"' ||
  { echo "check.sh: serve_pipe row is missing peak_rss_kb (see BENCH_churn.json)" >&2; exit 1; }
serve_overhead=$(echo "$serve_row" | sed -n 's/.*"protocol_overhead": \([0-9.]*\).*/\1/p')
if [ -n "$serve_overhead" ] && awk "BEGIN { exit !($serve_overhead > 2.0) }"; then
  echo "check.sh: advisory: serve protocol overhead ${serve_overhead}x > nominal 2x over raw applies (see BENCH_churn.json)" >&2
fi

# Dst gates.  (1) Pinned seed sweep: 3 seeds x 2 profiles x 2
# strategies through the deterministic simulation harness with fault
# injection armed — every invariant (engine oracle, Lemma-3 lower
# bound, movement budget, in-service placement, replay, per-strategy
# promises) must hold on every step, and the envelope must be
# bit-identical at -j1 and -j4 (per-domain injection arming keeps
# pool-fanned runs deterministic).
dune exec bin/placement_tool.exe -- dst -n 20 --seed 1 --runs 3 \
  --steps 150 --measure-every 50 --profile steady,storm \
  --strategy combo,simple --inject 30 --json -j1 > dst_j1.json ||
  { echo "check.sh: dst sweep reported an invariant violation (see dst_j1.json)" >&2; exit 1; }
dune exec bin/placement_tool.exe -- dst -n 20 --seed 1 --runs 3 \
  --steps 150 --measure-every 50 --profile steady,storm \
  --strategy combo,simple --inject 30 --json -j4 > dst_j4.json ||
  { echo "check.sh: dst sweep reported an invariant violation at -j4" >&2; exit 1; }
cmp dst_j1.json dst_j4.json ||
  { echo "check.sh: dst sweep envelope differs between -j1 and -j4" >&2; exit 1; }
grep -q '"violations": 0' dst_j1.json ||
  { echo "check.sh: dst sweep summary reports violations (see dst_j1.json)" >&2; exit 1; }
rm -f dst_j1.json dst_j4.json

# (2) Shrinker smoke: a deliberately broken canary invariant must
# trip under fault injection, shrink to a repro of at most 25 events,
# and the written repro file must replay to the same violation.
if dune exec bin/placement_tool.exe -- dst -n 20 --seed 7 --steps 150 \
  --measure-every 50 --profile storm --strategy none \
  --break canary/full-availability --inject 25 --shrink \
  --repro dst_repro.events > dst_shrink.out; then
  echo "check.sh: the canary invariant did not trip (see dst_shrink.out)" >&2; exit 1
fi
grep -q 'VIOLATION canary/full-availability' dst_shrink.out ||
  { echo "check.sh: shrinker smoke tripped the wrong invariant (see dst_shrink.out)" >&2; exit 1; }
repro_events=$(grep -vc '^#' dst_repro.events)
[ "$repro_events" -le 25 ] ||
  { echo "check.sh: shrunk repro has $repro_events events > 25 (see dst_repro.events)" >&2; exit 1; }
if dune exec bin/placement_tool.exe -- dst --events dst_repro.events \
  -n 20 --seed 7 --profile storm --strategy none --inject 25 \
  --break canary/full-availability > dst_replay.out; then
  echo "check.sh: the shrunk repro no longer violates on replay" >&2; exit 1
fi
grep -q 'VIOLATION canary/full-availability' dst_replay.out ||
  { echo "check.sh: the repro replays to a different invariant (see dst_replay.out)" >&2; exit 1; }
rm -f dst_repro.events dst_shrink.out dst_replay.out

# (3) Dst throughput row: the quick perf pass appends a dst_sweep row
# to BENCH_dst.json (full invariant-checked runs fanned through the
# pool).  Hard gate: the row must exist, report zero violations and
# carry peak_rss_kb; events/s is wall-clock and recorded for trend
# only.
dst_row=$(grep '"op": "dst_sweep"' BENCH_dst.json | tail -n 1)
[ -n "$dst_row" ] ||
  { echo "check.sh: no dst_sweep row in BENCH_dst.json" >&2; exit 1; }
echo "$dst_row" | grep -q '"zero_violations": true' ||
  { echo "check.sh: dst sweep bench reported invariant violations (see BENCH_dst.json)" >&2; exit 1; }
echo "$dst_row" | grep -q '"peak_rss_kb"' ||
  { echo "check.sh: dst_sweep row is missing peak_rss_kb (see BENCH_dst.json)" >&2; exit 1; }

echo "check.sh: all good"
