#!/usr/bin/env python3
"""Self-check of the benchmark itself, in seconds per workload.

Runs perfbench/run.py in its short-window mode (--short) on every
workload BENCHMARK.json declares, untraced and traced, and asserts:

  * the run is correct (no failed rep, at least one attempted);
  * the last stdout line carries exactly the declared end-to-end
    (--trace 0) or per-layer (--trace 1) metric names, each with its
    declared unit and a finite value, and the table above it prints
    every name with its unit;
  * the traced replay and the profiled kernel run reproduced the
    kernel-driven run's simulated fingerprint (cycles, flits, packets,
    words, latency percentiles);
  * in a directory holding only BENCHMARK.json and the benchmark's
    own files, run.py fails fast without printing a result.

Usage: python3 perfbench/selfcheck.py   (exit 0 = all checks pass)
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own module)

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}")


def bench_run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--short"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_output(workload, trace, out, declared):
    """Checks one run's printed result."""
    lines = out.stdout.strip().splitlines()
    expect(out.returncode == 0 and lines,
           f"{workload} trace {trace}: exit {out.returncode}: "
           f"{out.stderr.strip()[-500:]}")
    if out.returncode != 0 or not lines:
        return
    res = json.loads(lines[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace {trace}: keys {sorted(res)}")
    expect(res["correct"] is True and res["failed"] == 0,
           f"{workload} trace {trace}: not correct ({res['failed']} "
           f"of {res['attempted']} failed)")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1,
           f"{workload} trace {trace}: attempted {res['attempted']}")
    got = res["metrics"]
    expect(set(got) == set(declared),
           f"{workload} trace {trace}: metric names differ from "
           f"BENCHMARK.json: missing {sorted(set(declared) - set(got))}, "
           f"extra {sorted(set(got) - set(declared))}")
    table = "\n".join(lines[:-1])
    for name, unit in declared.items():
        m = got.get(name)
        if m is None:
            continue
        expect(m.get("unit") == unit,
               f"{workload}: {name} unit {m.get('unit')} != {unit}")
        v = m.get("value")
        expect(isinstance(v, (int, float)) and math.isfinite(v),
               f"{workload}: {name} value {v!r} is not a finite number")
        expect(any(name in ln and unit in ln.split()
                   for ln in table.splitlines()),
               f"{workload}: table does not print {name} with {unit}")


def check_replay(workload):
    rec = run.build_dir() / "results" / f"{workload}-seed1-trace1.json"
    raw = json.loads(rec.read_text())["raw"]
    fps = [r["fp"] for r in raw["plain"] + raw["traced"] +
           [raw["profiled"]]]
    expect(len(raw["traced"]) >= 1 and all(f == fps[0] for f in fps),
           f"{workload}: traced replay or profiled fingerprint differs "
           f"from the kernel-driven run: {fps}")


def check_bare_directory():
    bare = run.build_dir() / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heavy64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    last = out.stdout.strip().splitlines()[-1:] or [""]
    expect(out.returncode != 0 and '"correct"' not in last[0],
           f"bare directory: exit {out.returncode}, last line {last[0]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "run.py END_TO_END != BENCHMARK.json")
    expect(layers == run.PER_LAYER, "run.py PER_LAYER != BENCHMARK.json")
    for w in [w["name"] for w in bench["workloads"]]:
        check_output(w, 0, bench_run(w, 0), e2e)
        check_output(w, 1, bench_run(w, 1), layers)
        check_replay(w)
        print(f"{w}: checked")
    check_bare_directory()
    print("selfcheck: " + ("OK" if not failures else
                           f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
