"""Run one benchmark workload against ``src/repro`` and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload bfs-scalefree --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with layer wrappers installed and prints the per-layer metrics.
Human-readable ``metric``/``note`` lines come first; the last line of
standard output is one JSON object.  The exit code is 0 only when every
answer matched the SciPy oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups timed per run, half before and half after the measurement;
#: setup_s is their median
SETUPS = 6
#: untraced/traced probe pairs behind trace.overhead_pct
OVERHEAD_PAIRS = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "scipy_slowdown": "x"}


def _import_program():
    """Put ``src/`` and this directory first on the path; fail without ``src/repro``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}")


def workloads():
    """The benchmark's workloads at their measured sizes."""
    import inputs
    from workloads import BfsWorkload, ServeRWWorkload, ShardColumnWorkload

    return {
        "bfs-scalefree": BfsWorkload(lambda seed: inputs.rmat(seed, 16)),
        "bfs-highdiam": BfsWorkload(lambda seed: inputs.tri_torus(seed, 150)),
        "shard-column": ShardColumnWorkload(lambda seed: inputs.rmat(seed, 15)),
        "serve-rw": ServeRWWorkload({"scalefree": lambda seed: inputs.rmat(seed, 15),
                                     "highdiam": lambda seed: inputs.tri_torus(seed, 150)}),
    }


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git": git_sha()}


def host_floor_ms() -> float:
    """Host-speed probe: median time of one fixed SciPy SpMV (seed 0, 1M nnz)."""
    import numpy as np
    import scipy.sparse as sp

    n, nnz = 1 << 15, 1 << 20
    rng = np.random.default_rng(0)
    a = sp.csc_matrix((rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                      shape=(n, n))
    x = np.ones(n)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        a @ x
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peak_rss_mb(wl, system) -> float:
    """Peak RSS of this process plus each live worker process, in MB."""
    from workloads import vm_hwm_mb

    return vm_hwm_mb() + sum(vm_hwm_mb(str(pid)) for pid in wl.worker_pids(system))


def tracing_overhead_pct(wl, system, inp) -> float:
    """Traced vs untraced time of the workload's fixed probe, alternated."""
    import layers
    from tracing import Tracer

    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        plain.append(wl.probe(system, inp))
        tracer = Tracer(layers.targets())
        tracer.install()
        try:
            traced.append(wl.probe(system, inp))
        finally:
            tracer.restore()
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


@dataclass
class RunResult:
    """One run: ``metrics`` maps name to ``(value, unit)``."""

    metrics: Dict[str, tuple]
    attempted: int
    failed: int
    notes: Dict[str, object]
    tracer: Optional[object] = None


def run_workload(wl, seed: int, seconds: float, trace: bool, *,
                 setups: int = SETUPS) -> RunResult:
    """Set up, measure for ``seconds``, set up again, checking every answer.

    Half of the ``setups`` timed set-ups run before the measurement (the
    last one is the system measured) and half after it, so their median
    spans the run instead of one moment of host load.  Traced runs wrap
    every layer for the set-ups before and the measurement, and report the
    per-layer metrics instead of the end-to-end ones.
    """
    import layers
    from tracing import Tracer

    inp = wl.inputs(seed)
    tracer = Tracer(layers.targets()) if trace else None
    setup_s: List[float] = []
    checks = [0, 0]  # attempted, failed

    def timed_setup():
        gc.collect()
        t0 = time.perf_counter()
        system, first = wl.setup(inp)
        setup_s.append(time.perf_counter() - t0)
        try:
            ok = wl.check_setup(inp, system, first)
        except BaseException:
            wl.close(system)
            raise
        checks[0] += 1
        checks[1] += int(not ok)
        return system

    system = None
    if tracer is not None:
        tracer.install()
    try:
        with tracer.root() if tracer is not None else nullcontext():
            for _ in range(max(1, setups // 2) - 1):
                wl.close(timed_setup())
            system = timed_setup()
            m = wl.measure(system, inp, seconds)
        if tracer is not None:
            tracer.restore()
        e2e = m.end_to_end()
        notes = dict(m.notes, floor_scipy_ms=host_floor_ms())
        if tracer is None:
            e2e["peak_rss_mb"] = peak_rss_mb(wl, system)
            wl.close(system)
            system = None
            while len(setup_s) < setups:
                wl.close(timed_setup())
            e2e["setup_s"] = statistics.median(setup_s)
            metrics = {k: (e2e[k], u) for k, u in END_TO_END_UNITS.items()}
        else:
            counters = wl.counters(system)
            counters["floor.scipy_ms"] = notes["floor_scipy_ms"]
            counters["loadgen.late_p99_ms"] = notes.get("loadgen_late_p99_ms", 0.0)
            counters["run.p50_ms"] = notes["p50_ms"]
            counters["run.tail_ms"] = notes["tail_ms"]
            counters["run.edges_per_s"] = notes["edges_per_s"]
            counters["run.writes_p50_ms"] = notes["writes_p50_ms"]
            counters["trace.overhead_pct"] = tracing_overhead_pct(wl, system, inp)
            per_layer = layers.layer_metrics(tracer, counters)
            metrics = {k: (per_layer[k], u) for k, u in layers.PER_LAYER_UNITS.items()}
    finally:
        if tracer is not None and tracer.installed:
            tracer.restore()
        if system is not None:
            wl.close(system)
    notes["setups"] = len(setup_s)
    attempted, failed = checks[0] + m.attempted, checks[1] + m.failed
    notes["fail_ratio"] = failed / attempted
    return RunResult(metrics, attempted, failed, notes, tracer)


def report(header: dict, result: RunResult) -> List[str]:
    """The printed lines: a stamp, ``metric``/``note`` lines, then the JSON result."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in header.items())]
    lines += [f"metric {name} {value:.6g} {unit}"
              for name, (value, unit) in result.metrics.items()]
    lines += [f"note {name} {value}" for name, value in result.notes.items()]
    lines.append(json.dumps({
        "correct": result.failed == 0, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()}}))
    return lines


def stop_children() -> None:
    """Wait for every child process this run started, then stop them.

    The process backend's workers are joined when its engine closes; this
    joins any left over, then stops the ``multiprocessing`` resource tracker
    (started by the first shared-memory segment) and reaps it, so nothing
    the benchmark started outlives it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_children()
        signal.signal(signal.SIGTERM, previous)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    result = run_workload(table[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **stamp()}
    print("\n".join(report(header, result)))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
