"""Self-tests of the benchmark, on tiny inputs.

Run from the repository root (the file name keeps it out of the program's
own test collection)::

    python3 -m pytest -q e2ebench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl_mod  # noqa: E402
from tracing import Tracer  # noqa: E402

PREDICTIONS = json.loads((HERE / "predictions.json").read_text())
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 1.5


def tiny_workloads():
    """Every workload at a size that runs in about a second."""
    return {
        "bfs-scalefree": wl_mod.BfsWorkload(lambda seed: inputs.rmat(seed, 10)),
        "bfs-highdiam": wl_mod.BfsWorkload(lambda seed: inputs.tri_torus(seed, 16)),
        "shard-column": wl_mod.ShardColumnWorkload(lambda seed: inputs.rmat(seed, 9)),
        "serve-rw": wl_mod.ServeRWWorkload(
            {"scalefree": lambda seed: inputs.rmat(seed, 9),
             "highdiam": lambda seed: inputs.tri_torus(seed, 12)}),
    }


NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced():
    """One tiny traced run per workload, with the original references saved."""
    out = {}
    for name, wl in tiny_workloads().items():
        originals = [(owner, attr, Tracer._raw(owner, attr))
                     for _key, owner, attr, _hook in layers.targets()]
        result = run.run_workload(wl, 3, SECONDS, True, setups=2)
        out[name] = (result, originals)
    return out


def test_workload_names_match_benchmark_json():
    assert sorted(NAMES) == sorted(tiny_workloads()) == sorted(run.workloads())
    assert sorted(NAMES) == sorted(PREDICTIONS["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_end_to_end_metric(name, monkeypatch, capsys):
    monkeypatch.setattr(run, "workloads", tiny_workloads)
    monkeypatch.setattr(run, "SETUPS", 2)
    code = run.main(["--workload", name, "--seed", "5", "--seconds", str(SECONDS)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert any(line.startswith(f"metric {metric['name']} ") and
                   line.endswith(f" {metric['unit']}") for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric(name, traced):
    result, _ = traced[name]
    assert result.failed == 0
    assert {k: u for k, (_v, u) in result.metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(PREDICTIONS["per_layer"]) == set(result.metrics)


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_fire_where_predicted_and_nowhere_else(name, traced):
    result, _ = traced[name]
    for metric, pred in PREDICTIONS["per_layer"].items():
        value = result.metrics[metric][0]
        if name in pred["zero_on"]:
            assert value == 0, f"{metric} should be zero on {name}, got {value}"
        if name in pred["moves_on"] or name in pred["flat_on"]:
            assert value > 0, f"{metric} should be loaded on {name}, got {value}"


@pytest.mark.parametrize("name", NAMES)
def test_originals_restored_by_identity(name, traced):
    _, originals = traced[name]
    for owner, attr, raw in originals:
        assert Tracer._raw(owner, attr) is raw, f"{owner!r}.{attr} not restored"


@pytest.mark.parametrize("name", NAMES)
def test_self_times_plus_unattributed_equal_root_wall(name, traced):
    tracer = traced[name][0].tracer
    assert tracer.root_s > 0
    assert tracer.main_self_ms() + 1e3 * tracer.unattributed_s == \
        pytest.approx(1e3 * tracer.root_s, rel=1e-9, abs=1e-6)
    assert tracer.unattributed_s >= 0


def test_tracer_self_time_arithmetic():
    import time

    class Layer:
        @staticmethod
        def inner():
            time.sleep(0.02)

        def outer(self):
            time.sleep(0.01)
            Layer.inner()

        @classmethod
        def build(cls):
            return cls()

    raw_outer, raw_build = Layer.__dict__["outer"], Layer.__dict__["build"]
    tracer = Tracer([("a", Layer, "outer", None), ("b", Layer, "inner", None),
                     ("c", Layer, "build", None)])
    tracer.install()
    with tracer.root():
        Layer.build().outer()
        time.sleep(0.005)
    tracer.restore()
    assert Layer.__dict__["outer"] is raw_outer and Layer.__dict__["build"] is raw_build
    assert tracer.calls("a") == tracer.calls("b") == tracer.calls("c") == 1
    assert tracer.self_ms("b") >= 20 and 10 <= tracer.self_ms("a") < 20
    assert tracer.total_ms("a") >= tracer.self_ms("a") + tracer.self_ms("b")
    assert tracer.unattributed_s >= 0.005


def test_run_leaves_no_child_process(monkeypatch, capsys):
    """Worker processes and the shared-memory resource tracker end with the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    monkeypatch.setattr(run, "workloads", tiny_workloads)
    monkeypatch.setattr(run, "SETUPS", 2)
    code = run.main(["--workload", "shard-column", "--seed", "2", "--seconds", "0.5"])
    capsys.readouterr()
    assert code == 0
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_wrong_answers_fail_the_run(monkeypatch, capsys):
    """A corrupted program answer is counted and makes the command exit non-zero."""
    real_bfs = wl_mod.bfs_mod.bfs

    def corrupted(*args, **kwargs):
        result = real_bfs(*args, **kwargs)
        result.levels[result.levels > 0] += 1
        return result

    monkeypatch.setattr(wl_mod.bfs_mod, "bfs", corrupted)
    monkeypatch.setattr(run, "workloads", tiny_workloads)
    monkeypatch.setattr(run, "SETUPS", 1)
    code = run.main(["--workload", "bfs-highdiam", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_oracle_rejects_a_perturbed_multiply():
    import numpy as np

    import oracle

    graph = inputs.rmat(2, 8)
    check = oracle.Oracle.of(graph)
    rng = np.random.default_rng(0)
    idx, vals = inputs.frontier(rng, graph.n, 8, 8)
    rows, pos, a = check.columns(idx)
    want = np.bincount(rows, weights=a * vals[pos], minlength=graph.n)
    out_idx = np.unique(rows)
    assert check.check_multiply(idx, vals, "plus_times", out_idx, want[out_idx])
    bad = want[out_idx].copy()
    bad[0] *= 1 + 1e-6
    assert not check.check_multiply(idx, vals, "plus_times", out_idx, bad)
    assert not check.check_multiply(idx, vals, "plus_times", out_idx[1:], want[out_idx][1:])
