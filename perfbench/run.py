#!/usr/bin/env python3
"""Layered simulator benchmark: one workload (or all four) per call.

Builds the simulator and the single-workload runner from source
(perfbench/CMakeLists.txt), then runs, in separate single-threaded
processes one after another:

  1. a short audit=true pass with the invariant checkers attached;
  2. the measurement: with --trace 0, repeated kernel-driven reps for
     the end-to-end metrics; with --trace 1, the outside-in traced
     replay for the per-layer metrics.

Prints every metric by name with its unit and sample count, then, as
the last line of stdout, one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py [--workload NAME|all] [--seed N]
                           [--seconds S] [--trace 0|1] [--short]

--workload all (the default) runs every workload, untraced and then
traced. --short shrinks every window so a workload runs in about a
second (the self-check mode). Results, with the seed, git commit,
compiler and build type, and the traced run's spans go under
<build dir>/results/. The build dir is $CARGO_TARGET_DIR, else
.bench_build, relative to the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ["heavy64", "sparse256", "cshift64", "heavy64-observed"]

# name -> unit, in print order. BENCHMARK.json declares the same set
# (the self-check holds the two in step).
END_TO_END = {
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "chunk_ms_p50": "ms",
    "chunk_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "sim_words_per_kcycle": "words/kcycle",
    "sim_latency_p50_cycles": "cycles",
    "sim_latency_p99_cycles": "cycles",
}

# failed_frac is printed beside the metrics above; the last JSON line
# carries it as "failed" / "attempted".
FAILED_FRAC = "failed_frac"

PER_KCYCLE = "count/kcycle"
MS_PER_KCYCLE = "ms/kcycle"
PER_LAYER = {
    "net.router.self_ms": MS_PER_KCYCLE,
    "net.router.ns_per_flit": "ns/flit",
    "net.router.steps": PER_KCYCLE,
    "net.router.useful_steps": PER_KCYCLE,
    "net.router.useful_frac": "fraction",
    "net.flits_switched": PER_KCYCLE,
    "net.router.buffered_flits_mean": "flits",
    "net.channel.inflight_flits_mean": "flits",
    "nic.self_ms": MS_PER_KCYCLE,
    "nic.ns_per_packet": "ns/packet",
    "nic.steps": PER_KCYCLE,
    "nic.useful_steps": PER_KCYCLE,
    "nic.useful_frac": "fraction",
    "nic.packets_sent": PER_KCYCLE,
    "nic.packets_delivered": PER_KCYCLE,
    "nic.acks_sent": PER_KCYCLE,
    "nic.acks_piggybacked": PER_KCYCLE,
    "nic.piggyback_frac": "fraction",
    "nic.bulk_grants": PER_KCYCLE,
    "nic.bulk_rejects": PER_KCYCLE,
    "nic.bulk_grant_frac": "fraction",
    "nic.bulk_packets": PER_KCYCLE,
    "nic.opt_occupancy_mean": "entries",
    "nic.pool_occupancy_mean": "packets",
    "nic.arrivals_pending_mean": "packets",
    "proc.self_ms": MS_PER_KCYCLE,
    "proc.steps": PER_KCYCLE,
    "proc.busy_steps": PER_KCYCLE,
    "proc.busy_frac": "fraction",
    "sim.kernel.self_ms": MS_PER_KCYCLE,
    "sim.congestion.self_ms": MS_PER_KCYCLE,
    "sim.observer_delta_ms": MS_PER_KCYCLE,
    "trace.overhead_frac": "fraction",
    "harness.parse_ms": "ms",
    "harness.construct_ms": "ms",
    "harness.attach_ms": "ms",
    "harness.warmup_ms": "ms",
}

HARNESS_PHASES = ["parse", "construct", "attach", "warmup"]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    exe = bdir / "nifdy_perfbench"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def drive(exe, workload, mode, args, extra=()):
    """Run the runner in its own process; returns its JSON object."""
    cmd = [str(exe), "--workload", workload, "--mode", mode,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.short:
        cmd.append("--short")
    cmd.extend(extra)
    timeout = min(170.0, 3.0 * args.seconds + 60.0)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: timed out after {timeout}s")
    if out.returncode != 0:
        raise BenchError(f"{workload} {mode}: exit {out.returncode}: "
                         f"{out.stderr.strip()}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode}: no output")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def rate(rep):
    return rep["fp"]["cycles"] / rep["run_s"]


def end_to_end(res):
    """Metrics of a --trace 0 run: name -> (value, samples).

    Host times are scaled by the run's calibrated machine speed to
    what the reference machine would take (see Calibrator in
    nifdy_perfbench.cc); the raw samples stay in the results file.
    """
    reps = res["reps"]
    if not reps:
        raise BenchError(f"{res['workload']}: no completed rep")
    speed = res["calibration"]["speed"]
    chunks = [c * speed for r in reps for c in r["chunk_ms"]]
    # Simulated metrics: exact, pooled over the run's inputs.
    pool = res["pooled"]
    k = pool["inputs"]
    if k != res["inputs"]:
        raise BenchError(f"{res['workload']}: ran {k} of "
                         f"{res['inputs']} inputs")
    return {
        "setup_s": (statistics.median(res["setups_s"]) * speed,
                    len(res["setups_s"])),
        "sim_cycles_per_s": (statistics.median(rate(r) for r in reps) /
                             speed, len(reps)),
        "chunk_ms_p50": (percentile(chunks, 50), len(chunks)),
        "chunk_ms_p90": (percentile(chunks, 90), len(chunks)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "sim_words_per_kcycle": (pool["words"] * 1000.0 /
                                 pool["completion"], k),
        "sim_latency_p50_cycles": (pool["lat_p50"], k),
        "sim_latency_p99_cycles": (pool["lat_p99"], k),
    }


def per_layer(res):
    """Metrics of a --trace 1 run: name -> (value, samples)."""
    traced = res["traced"]
    plain = res["plain"]
    if not traced or not plain:
        raise BenchError(f"{res['workload']}: no completed traced rep")
    out = {}
    for name in PER_LAYER:
        vals = [t["layers"][name] for t in traced if name in t["layers"]]
        if vals:
            out[name] = (statistics.median(vals), len(vals))
    untraced = statistics.median(rate(p) for p in plain)
    tr = statistics.median(rate(t) for t in traced)
    out["trace.overhead_frac"] = (untraced / tr - 1.0,
                                  len(plain) + len(traced))
    setups = [r["setup"] for r in plain + traced]
    if "twin" in res:
        setups.append(res["twin"]["setup"])
    for ph in HARNESS_PHASES:
        vals = [s[ph + "_s"] * 1e3 for s in setups]
        out[f"harness.{ph}_ms"] = (statistics.median(vals), len(vals))
    missing = [n for n in PER_LAYER if n not in out]
    if missing:
        raise BenchError(f"{res['workload']}: no value for {missing}")
    return out


def print_table(workload, trace, metrics, units, attempted, failed, raw):
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload}: {kind} metrics")
    if "calibration" in raw:
        cal = raw["calibration"]
        print(f"  host times scaled to the reference machine; this one "
              f"ran at {cal['speed']:.4f} of its speed "
              f"({cal['slices']} calibration slices)")
    print(f"  {'metric':34} {'value':>16} {'unit':14} samples")
    for name, (value, n) in metrics.items():
        print(f"  {name:34} {value:16.6g} {units[name]:14} {n}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {FAILED_FRAC:34} {frac:16.6g} {'runs/runs':14} {attempted}")


def run_one(exe, workload, trace, args, provenance):
    """Audit pass, then the measurement; returns the result record."""
    audit = drive(exe, workload, "audit", args)
    rdir = build_dir() / "results"
    rdir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{trace}"
    if trace:
        spans = rdir / f"{stem}.spans.jsonl"
        res = drive(exe, workload, "traced", args, ["--spans", str(spans)])
        summarise, units = per_layer, PER_LAYER
    else:
        res = drive(exe, workload, "plain", args)
        summarise, units = end_to_end, END_TO_END
    attempted = res["attempted"]
    failed = res["failed"]
    failures = audit["failures"] + res["failures"]
    if audit["failures"]:
        failed = attempted  # an audit failure fails the workload
    try:
        metrics = summarise(res)
    except BenchError:
        if not failed:
            raise
        metrics = {}  # a failed run reports correct=false, not numbers
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": dict(provenance, compiler=res["compiler"],
                           build_type=res["build_type"]),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "raw": res,
    }
    (rdir / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print_table(workload, trace, metrics, units, attempted, failed, res)
    for f in failures:
        print(f"  FAILED: {f}")
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    try:
        exe = build()
        provenance = {"seed": args.seed, "git_commit": git_commit(),
                      "seconds": args.seconds, "short": args.short}
        print(f"seed {args.seed}, commit {provenance['git_commit']}, "
              f"{args.seconds:g} s per run; simulated metrics are "
              f"unvalidated against hardware (shapes only)")
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        if args.trace is not None:
            traces = [args.trace]
        else:
            traces = [0, 1] if args.workload == "all" else [0]
        records = [run_one(exe, w, t, args, provenance)
                   for w in workloads for t in traces]
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": m["value"],
                                             "unit": m["unit"]}
                   for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
