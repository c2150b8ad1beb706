#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 20 --trace 0

Steadiness report: run every workload ten times over consecutive seeds
and print, per end-to-end metric, the median, the quartiles and the
spread (IQR / median) against the metric's bound:

    python3 perfbench/run.py --steady [--first-seed 1] [--save set1.json]
        [--against set0.json]

--save keeps the values; --against compares this set's medians with an
earlier saved set (the drift check).  A spread or a drift beyond its
bound is flagged and makes the report exit 1.  Self-tests:

    python3 perfbench/run.py --selftest

Run from the repository root.  Everything is built from source with dune
into _build/ (release profile, shared dune cache off); scratch files go
to .perfbench-tmp/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOOL = os.path.join("_build", "default", "bin", "placement_tool.exe")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SELFTEST = os.path.join("_build", "default", "perfbench", "selftest.exe")
TMP = ".perfbench-tmp"
RUNS = 10

# Why each end-to-end bound is what it is (the bounds themselves live in
# BENCHMARK.json; README.md has the measurements behind them).
BOUND_WHY = {
    "setup_s": "fastest spawn plus each pre-population window's fastest round "
    "trip over 14-20 set-ups (audit: best of 8 layout generations) spread "
    "over the run; allocation- and page-fault-bound, the figure most exposed "
    "to the host's memory contention, so it gets the largest bound (0.25)",
    "ops_per_s": "events over the sum of each step's fastest round trip across "
    "repetitions (audit: attacks over each one's fastest wall, summed); "
    "a host core can run 1.9x slower for seconds and 10-run medians moved up "
    "to 33% between sets, so the largest bound (0.25)",
    "p50_ms": "median over the timed steps of each one's fastest round trip "
    "(audit: median over the 6 attacks of each one's fastest wall); same "
    "exposure as ops_per_s, same bound (0.25)",
    "peak_rss_mb": "daemon (audit: process) VmHWM of fixed work, median over "
    "repetitions; moves only when the code changes what it keeps (0.1)",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    for need in ("dune-project", os.path.join("bin", "placement_tool.ml"), "lib"):
        if not os.path.exists(need):
            fail("run from the repository root (%s not found)" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release"] + ["./" + t for t in targets],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        fail("build failed")


def bench_cmd(workload, seed, seconds, trace):
    return [
        BENCH,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--tool", TOOL,
        "--tmp", TMP,
    ]


def one_run(args):
    build([TOOL, BENCH])
    os.makedirs(TMP, exist_ok=True)
    proc = subprocess.run(bench_cmd(args.workload, args.seed, args.seconds, args.trace))
    sys.exit(proc.returncode)


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(args):
    build([TOOL, BENCH])
    os.makedirs(TMP, exist_ok=True)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    saved = {}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    flagged = []
    for w in workloads:
        values = {}
        for i in range(RUNS):
            seed = args.first_seed + i
            proc = subprocess.run(
                bench_cmd(w, seed, seconds, 0), stdout=subprocess.PIPE, text=True
            )
            res = result_of(proc.stdout)
            if proc.returncode != 0 or res is None or not res["correct"] or res["failed"]:
                fail("%s seed %d: run failed (exit %d)" % (w, seed, proc.returncode))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(
                "%s seed %d: %s"
                % (w, seed, " ".join("%s=%.4g" % (n, v[-1]) for n, v in values.items())),
                flush=True,
            )
        saved[w] = values
        print("\n%s (%d runs, seeds %d..%d)" % (w, RUNS, args.first_seed, args.first_seed + RUNS - 1))
        print("  %-12s %12s %12s %12s %8s %6s %9s" % ("metric", "q1", "median", "q3", "spread", "bound", "drift"))
        for name, vs in values.items():
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            drift, drift_text = 0.0, ""
            if w in earlier and name in earlier[w]:
                base = statistics.median(earlier[w][name])
                drift = (statistics.median(vs) - base) / base
                drift_text = "%+.1f%%" % (100 * drift)
            mark = ""
            if spread > bound:
                mark += "  SPREAD > BOUND"
                flagged.append((w, name, "spread"))
            elif spread > bound / 3:
                mark += "  spread > bound/3"
            if abs(drift) > bound:
                mark += "  DRIFT > BOUND"
                flagged.append((w, name, "drift"))
            print(
                "  %-12s %12.5g %12.5g %12.5g %7.1f%% %5.0f%% %9s%s"
                % (name, q1, med, q3, 100 * spread, 100 * bound, drift_text, mark)
            )
    print("\nwhy each bound:")
    for name, why in BOUND_WHY.items():
        print("  %-12s %s" % (name, why))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    if flagged:
        print("\nFLAGGED: " + ", ".join("%s/%s %s" % f for f in flagged))
        sys.exit(1)


def selftest(_args):
    """Generator self-tests, then a one-second smoke run of every workload
    in both modes: each must be correct, fail nothing, and print exactly
    the metrics (names and units) BENCHMARK.json declares."""
    build([TOOL, BENCH, SELFTEST])
    os.makedirs(TMP, exist_ok=True)
    failed = subprocess.run([SELFTEST]).returncode != 0
    spec = load_spec()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = subprocess.run(bench_cmd(w, 1, 1, trace), stdout=subprocess.PIPE, text=True)
            res = result_of(proc.stdout)
            got = {} if res is None else {n: m["unit"] for n, m in res["metrics"].items()}
            ok = (
                proc.returncode == 0
                and res is not None
                and res["correct"]
                and res["failed"] == 0
                and res["attempted"] >= 1
                and got == want
            )
            print("%s %s --trace %d: smoke run prints every %s metric"
                  % ("ok  " if ok else "FAIL", w, trace, key), flush=True)
            failed = failed or not ok
    sys.exit(1 if failed else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    if args.steady:
        steady(args)
    elif args.selftest:
        selftest(args)
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    else:
        one_run(args)


if __name__ == "__main__":
    main()
