"""Steadiness check: repeated, alternated runs of every workload, with spreads.

Usage, from the repository root::

    python3 e2ebench/steady.py --runs 10 --sets 2

Runs ``run.py`` once per (set, run, workload) with seed ``run + 1`` (the
same seeds in every set), rotating the workload order from run to run.
For each workload and end-to-end metric it prints the median, quartiles
and the spread ``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``; with two sets it also prints how far the second
set's median moved from the first's, in the metric's worse direction.
Each run's ``floor_scipy_ms`` host-speed probe is printed so host drift
is visible next to the figures it disturbs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["header"] = lines[0]
    result["notes"] = dict(line.split(" ", 2)[1:] for line in lines
                           if line.startswith("note "))
    return result


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {}  # (set, workload, metric) -> list
    header_done = False
    for s in range(args.sets):
        for run in range(args.runs):
            order = names[run % len(names):] + names[:run % len(names)]
            for workload in order:
                result = one_run(workload, run + 1, args.seconds, 0)
                if not header_done:
                    print(result["header"].replace("# ", "# stamp ", 1))
                    header_done = True
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"run set={s} seed={run + 1} workload={workload} "
                      f"floor_scipy_ms={float(result['notes']['floor_scipy_ms']):.3f} "
                      + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
                if not result["correct"]:
                    print(f"WRONG ANSWERS: {workload} seed {run + 1}")
                    return 1
                for k, v in metrics.items():
                    values.setdefault((s, workload, k), []).append(v)

    worst = 0.0
    for workload in names:
        for metric, m in bounds.items():
            row = [f"{workload:14s} {metric:15s}"]
            for s in range(args.sets):
                med, q1, q3, sp = spread(values[(s, workload, metric)])
                if metric != "setup_s":
                    worst = max(worst, sp / m["bound"])
                row.append(f"set{s}: median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
                           f"spread={sp:.3f} ({sp / m['bound']:.2f} of bound {m['bound']})")
            if args.sets == 2:
                a = statistics.median(values[(0, workload, metric)])
                b = statistics.median(values[(1, workload, metric)])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                row.append(f"shift={worse:+.3f} ({'OK' if worse <= m['bound'] else 'FAIL'})")
            print("  ".join(row))
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
