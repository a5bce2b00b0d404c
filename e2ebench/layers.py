"""Which program references each layer's spans wrap, and the per-layer metrics.

Every target names the reference the caller really goes through: the
algorithm registry entries the engine looks kernels up in, class
attributes reached through instances, and the module-level names that
``core.engine`` / ``core.column_sharded`` imported from the modules that
define them.  Kernels that run inside process-backend workers are not
visible here; their time shows as ``backend.wait_ms``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import oracle
import workloads
import repro.core.column_sharded as column_mod
import repro.core.dispatch as dispatch_mod
import repro.core.engine as engine_mod
import repro.core.spmspv_block as block_mod
from repro.formats.csc import CSCMatrix
from repro.formats.dcsc import DCSCMatrix
from repro.formats.sparse_vector import SparseVector
from repro.formats.vector_block import SparseVectorBlock
from repro.machine.cost_model import CostModel
from repro.parallel.backends import ProcessBackend
from repro.serve.server import QueryServer

#: bytes one counted event moves (8-byte indices and values), for the
#: ``kernel.bytes_computed`` estimate; computed from counts, not measured
EVENT_BYTES = {"matrix_nnz_reads": 16, "colptr_reads": 16, "vector_reads": 16,
               "bucket_writes": 16, "buffer_writes": 16, "spa_updates": 16,
               "spa_inits": 8, "output_writes": 16, "sort_elements": 16}


def _record_hook(tracer, args, kwargs, result, dur) -> None:
    results = result if isinstance(result, list) else [result]
    tracer.records.extend(r.record for r in results)


def _levels_hook(tracer, args, kwargs, result, dur) -> None:
    tracer.count("algorithms.levels", result.num_iterations)


def _queue_wait_hook(tracer, args, kwargs, result, dur) -> None:
    # ``QueryServer._execute(self, batch)`` just returned after ``dur``
    # seconds; request arrivals are on the server's monotonic clock
    started = time.monotonic() - dur
    for request in args[1].requests:
        tracer.count("serve.queue_wait_s", started - request.arrival)
        tracer.count("serve.requests")


def targets() -> List[tuple]:
    """``(span key, owner, name, hook)`` for every wrapped reference."""
    dispatch_mod._ensure_registered()
    kernels = [("kernel", dispatch_mod._REGISTRY, name, _record_hook)
               for name in sorted(dispatch_mod._REGISTRY)]
    return [
        ("formats.csc_build", CSCMatrix, "from_coo", None),
        ("formats.dcsc_build", DCSCMatrix, "from_csc", None),
        ("formats.vector_build", SparseVector, "full_like_indices", None),
        ("formats.vector_build", SparseVectorBlock, "from_vectors", None),
        ("algorithms.bfs", workloads.bfs_mod, "bfs", _levels_hook),
        ("engine", engine_mod.SpMSpVEngine, "multiply", None),
        ("engine", engine_mod.SpMSpVEngine, "multiply_many", None),
        ("engine", engine_mod.SpMSpVEngine, "multiply_block", None),
        ("engine.select", engine_mod.SpMSpVEngine, "call_features", None),
        ("engine.select", engine_mod.SpMSpVEngine, "select_algorithm", None),
        ("engine.select", engine_mod.SpMSpVEngine, "select_block_mode", None),
        ("cost_model.price", CostModel, "record_time_ms", None),
        *kernels,
        ("kernel", block_mod, "spmspv_bucket_block", _record_hook),
        ("plan", column_mod.ColumnShardedEngine, "multiply", None),
        ("plan", column_mod.ColumnShardedEngine, "multiply_many", None),
        ("plan.slice", column_mod, "slice_frontier", None),
        ("plan.reduce", column_mod, "reduce_partials", None),
        ("backend.submit", ProcessBackend, "submit_partial", None),
        ("backend.wait", ProcessBackend, "gather_multiply", None),
        ("backend.update_strip", ProcessBackend, "update_strip", None),
        ("delta.apply", engine_mod.SpMSpVEngine, "apply_updates", None),
        ("delta.apply", column_mod.ColumnShardedEngine, "apply_updates", None),
        ("delta.apply", engine_mod, "apply_delta", None),
        ("delta.apply", column_mod, "apply_delta", None),
        ("delta.overlay", engine_mod, "build_patch", None),
        ("delta.overlay", engine_mod, "splice_overlay", None),
        ("serve.submit", QueryServer, "submit", None),
        ("serve.execute", QueryServer, "_execute", _queue_wait_hook),
        # the benchmark's own SciPy floor and answer checks, kept out of
        # trace.unattributed_ms so that it covers only unwrapped program code
        ("bench", oracle, "floor_bfs", None),
        ("bench", oracle, "csgraph_bfs", None),
        ("bench", oracle.Oracle, "floor_multiply", None),
        ("bench", oracle.Oracle, "check_multiply", None),
        ("bench", oracle.Oracle, "apply_updates", None),
        ("bench", workloads.BfsWorkload, "check", None),
    ]


#: per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "formats.csc_build_ms": "ms", "formats.vector_build_ms": "ms",
    "formats.vector_builds": "count", "formats.dcsc_build_ms": "ms",
    "algorithms.bfs_self_ms": "ms", "algorithms.levels": "count",
    "engine.calls": "count", "engine.self_ms": "ms", "engine.select_ms": "ms",
    "cost_model.price_ms": "ms", "cost_model.price_calls": "count",
    "kernel.ms": "ms", "kernel.calls": "count", "kernel.share_pct": "%",
    "kernel.arith_ops": "count", "kernel.total_ops": "count",
    "kernel.work_efficiency": "ratio", "kernel.arith_ops_per_s": "1/s",
    "kernel.bytes_computed": "bytes",
    "plan.slice_ms": "ms", "plan.reduce_ms": "ms", "plan.self_ms": "ms",
    "backend.submit_ms": "ms", "backend.wait_ms": "ms",
    "backend.update_strip_ms": "ms", "backend.pipe_bytes_per_call": "bytes",
    "backend.slab_bytes_per_call": "bytes", "backend.retries": "count",
    "backend.fallbacks": "count",
    "delta.apply_ms": "ms", "delta.overlay_ms": "ms", "delta.entries": "count",
    "delta.compactions": "count",
    "serve.queue_wait_ms": "ms", "serve.execute_ms": "ms", "serve.batches": "count",
    "serve.coalesce_ratio": "ratio", "serve.rejected": "count",
    "serve.expired": "count", "loadgen.late_p99_ms": "ms",
    "run.p50_ms": "ms", "run.tail_ms": "ms", "run.edges_per_s": "edges/s", "run.writes_p50_ms": "ms",
    "floor.scipy_ms": "ms", "bench.oracle_ms": "ms", "trace.overhead_pct": "%",
    "trace.unattributed_ms": "ms",
}


def layer_metrics(tracer, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a finished traced run plus workload counters.

    ``counters`` carries what the program itself counts (delta entries,
    comm-plane bytes, serving stats) and what the benchmark measured
    (SciPy floor, generator lateness, write latency, tracing overhead).
    """
    from repro.parallel.metrics import WorkMetrics

    work = WorkMetrics.sum(r.total_work() for r in tracer.records)
    arith = work.arithmetic_operations()
    total = work.total_operations()
    kernel_ms = tracer.self_ms("kernel")
    comm_calls = counters.get("backend.calls", 0)
    requests = tracer.counts.get("serve.requests", 0)
    #: root wall time the program had, i.e. without the benchmark's own checks
    program_ms = 1e3 * tracer.root_s - tracer.self_ms("bench")
    out = {
        "formats.csc_build_ms": tracer.self_ms("formats.csc_build"),
        "formats.vector_build_ms": tracer.self_ms("formats.vector_build"),
        "formats.vector_builds": tracer.calls("formats.vector_build"),
        "formats.dcsc_build_ms": tracer.self_ms("formats.dcsc_build"),
        "algorithms.bfs_self_ms": tracer.self_ms("algorithms.bfs"),
        "algorithms.levels": tracer.counts.get("algorithms.levels", 0),
        "engine.calls": tracer.calls("engine"),
        "engine.self_ms": tracer.self_ms("engine"),
        "engine.select_ms": tracer.self_ms("engine.select"),
        "cost_model.price_ms": tracer.self_ms("cost_model.price"),
        "cost_model.price_calls": tracer.calls("cost_model.price"),
        "kernel.ms": kernel_ms,
        "kernel.calls": tracer.calls("kernel"),
        "kernel.share_pct": 100.0 * kernel_ms / program_ms,
        "kernel.arith_ops": arith,
        "kernel.total_ops": total,
        "kernel.work_efficiency": arith / total if total else 0.0,
        "kernel.arith_ops_per_s": arith / (kernel_ms / 1e3) if kernel_ms else 0.0,
        "kernel.bytes_computed": sum(getattr(work, f) * b for f, b in EVENT_BYTES.items()),
        "plan.slice_ms": tracer.self_ms("plan.slice"),
        "plan.reduce_ms": tracer.self_ms("plan.reduce"),
        "plan.self_ms": tracer.self_ms("plan"),
        "backend.submit_ms": tracer.self_ms("backend.submit"),
        "backend.wait_ms": tracer.self_ms("backend.wait"),
        "backend.update_strip_ms": tracer.self_ms("backend.update_strip"),
        "backend.pipe_bytes_per_call":
            counters.get("backend.pipe_bytes", 0) / comm_calls if comm_calls else 0.0,
        "backend.slab_bytes_per_call":
            counters.get("backend.slab_bytes", 0) / comm_calls if comm_calls else 0.0,
        "backend.retries": counters.get("backend.retries", 0),
        "backend.fallbacks": counters.get("backend.fallbacks", 0),
        "delta.apply_ms": tracer.self_ms("delta.apply"),
        "delta.overlay_ms": tracer.self_ms("delta.overlay"),
        "delta.entries": counters.get("delta.entries", 0),
        "delta.compactions": counters.get("delta.compactions", 0),
        "serve.queue_wait_ms":
            1e3 * tracer.counts.get("serve.queue_wait_s", 0) / requests if requests else 0.0,
        "serve.execute_ms": tracer.total_ms("serve.execute"),
        "serve.batches": counters.get("serve.batches", 0),
        "serve.coalesce_ratio": counters.get("serve.coalesce_ratio", 0.0),
        "serve.rejected": counters.get("serve.rejected", 0),
        "serve.expired": counters.get("serve.expired", 0),
        "loadgen.late_p99_ms": counters.get("loadgen.late_p99_ms", 0.0),
        "run.p50_ms": counters["run.p50_ms"],
        "run.tail_ms": counters["run.tail_ms"],
        "run.edges_per_s": counters["run.edges_per_s"],
        "run.writes_p50_ms": counters["run.writes_p50_ms"],
        "floor.scipy_ms": counters["floor.scipy_ms"],
        "bench.oracle_ms": tracer.self_ms("bench"),
        "trace.overhead_pct": counters["trace.overhead_pct"],
        "trace.unattributed_ms": 1e3 * tracer.unattributed_s,
    }
    return {k: float(v) for k, v in out.items()}
