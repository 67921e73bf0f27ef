#!/usr/bin/env python3
"""Agreement tool: do two sets of benchmark runs on the same code agree?

Runs perfbench/run.py as separate processes, one after another: for
each of two sets, every workload once per seed untraced (--trace 0),
plus once traced (--trace 1) with seed 1. For every end-to-end metric
and workload it prints each set's median, quartiles
(statistics.quantiles(values, n=4)), sample count and spread
(IQR / median), then checks against BENCHMARK.json's bounds:

  * each set's spread is within the metric's bound, except that of
    setup_s (see SETUP_SPREAD below);
  * the two sets' medians differ by at most the bound, as a share of
    the first set's median, in either direction;
  * every deterministic per-layer metric (counts, occupancies and
    their fractions) is identical between the sets;
  * every run is correct.

A spread above a third of the bound is flagged "wide" (advice, not a
failure). Exit 0 when everything agrees, 1 otherwise.

Usage:
  python3 perfbench/agree.py [--workloads a,b] [--seeds 1,2,...]
                             [--seconds S]

The defaults (every workload, seeds 1-10, BENCHMARK.json's
run_seconds) are the full proof; a subset such as
--workloads heavy64 --seeds 1,2,3,4,5 is the quick steadiness probe.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETS = 2
TRACE_SEED = 1
# setup_s's spread over seeds is reported but not held to its bound.
# cshift64 has no warm-up, so its set-up is about 70 us; within one run
# it moves between about 66, 95 and 115 us in phases a few ms long, and
# a run's median depends on which phases its burst of set-ups meets
# (spread 0.25-0.55 over five seeds). Its median over the seeds is
# still held to the bound.
SETUP_SPREAD = "setup_s"
# Per-layer metrics in these units are host times; all others repeat
# exactly for a given seed.
HOST_UNITS = {"ms", "ms/kcycle", "ns/flit", "ns/packet"}
HOST_NAMES = {"trace.overhead_frac"}


def run_bench(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"agree: run.py {workload} seed {seed} trace "
                         f"{trace} failed ({out.returncode}): "
                         f"{out.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def collect(seeds, seconds, workloads):
    sets = []
    for s in range(SETS):
        runs = []
        for w in workloads:
            for seed in seeds:
                r = run_bench(w, seed, 0, seconds)
                runs.append({"workload": w, "seed": seed, "trace": 0,
                             "result": r})
                print(f"set {s + 1} {w} seed {seed}: "
                      f"correct={r['correct']}", file=sys.stderr)
            r = run_bench(w, TRACE_SEED, 1, seconds)
            runs.append({"workload": w, "seed": TRACE_SEED, "trace": 1,
                         "result": r})
        sets.append(runs)
    return sets


def drift(first, second):
    """Relative difference of second from first, either direction."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return abs(second - first) / abs(first)


def check(sets, bench, workloads):
    ok = True
    e2e = bench["end_to_end"]
    print(f"{'workload':17} {'metric':24} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for m in e2e:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, runs in enumerate(sets):
                vals = [r["result"]["metrics"][name]["value"]
                        for r in runs
                        if r["workload"] == w and r["trace"] == 0]
                if len(vals) < 2:
                    print(f"{w:17} {name:24} {i + 1:>3} too few runs")
                    ok = False
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                verdict = ""
                if spread > bound:
                    verdict = "SPREAD>BOUND"
                    if name == SETUP_SPREAD:
                        verdict += " (not held)"
                    else:
                        ok = False
                elif spread > bound / 3:
                    verdict = "wide"
                print(f"{w:17} {name:24} {i + 1:>3} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {len(vals):>3} "
                      f"{spread:7.4f} {bound:6.3f} {verdict}")
            if len(medians) == SETS:
                d = drift(medians[0], medians[1])
                if d > bound:
                    print(f"{w:17} {name:24} set 2 median differs from "
                          f"set 1 by {d:.4f} > {bound}")
                    ok = False
        # Deterministic per-layer metrics must repeat exactly.
        traced = [next(r["result"]["metrics"] for r in runs
                       if r["workload"] == w and r["trace"] == 1)
                  for runs in sets]
        for name, v in traced[1].items():
            if v["unit"] in HOST_UNITS or name in HOST_NAMES:
                continue
            base = traced[0].get(name)
            if base is None or base["value"] != v["value"]:
                print(f"{w:17} {name} differs between set 1 and set 2")
                ok = False
    for runs in sets:
        for r in runs:
            if not r["result"]["correct"]:
                print(f"{r['workload']} seed {r['seed']} trace "
                      f"{r['trace']}: not correct")
                ok = False
    print("AGREE" if ok else "DISAGREE")
    return ok


def ints(s):
    return [int(x) for x in s.split(",") if x]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=ints, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else declared
    seconds = args.seconds or bench["run_seconds"]
    sets = collect(args.seeds, seconds, workloads)
    return 0 if check(sets, bench, workloads) else 1


if __name__ == "__main__":
    sys.exit(main())
