"""The four workloads: inputs, set-up, the timed loop and the answer checks.

Each workload exists to load a different layer (see ``README.md`` and
``BENCHMARK.json``):

* ``bfs-scalefree`` -- few BFS levels with huge frontiers: kernel-bound.
* ``bfs-highdiam``  -- hundreds of tiny levels: per-call overhead-bound.
* ``shard-column``  -- column-split engine on the process backend, with
  occasional strip-rebuilding updates: plan, reduction and backend layers.
* ``serve-rw``      -- open-loop single requests against the query server,
  reads plus delta-overlay writes: serving and overlay layers.

Every workload reports the same end-to-end metric names; the meaning of
"one operation" differs per workload and is stated in ``README.md``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import inputs
import oracle
from repro.core.column_sharded import make_sharded_engine
from repro.errors import ReproError
from repro.formats import COOMatrix, CSCMatrix, SparseVector
from repro.parallel.context import default_context
from repro.semiring import get_semiring
from repro.serve import MultiplyQuery, QueryServer, UpdateQuery
from repro.serve.requests import ServeFuture

perf = time.perf_counter

#: the module itself (the package re-exports its ``bfs`` function under the
#: same name); the benchmark calls ``bfs_mod.bfs`` so a tracer can wrap it
bfs_mod = importlib.import_module("repro.algorithms.bfs")

#: monolithic single-thread context: the honest ``t=1`` baseline
CTX = default_context(1)


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def build_csc(graph: inputs.Triplets) -> CSCMatrix:
    """The user path from edge triplets to the program's matrix."""
    return CSCMatrix.from_coo(COOMatrix((graph.n, graph.n), graph.rows,
                                        graph.cols, graph.vals))


def tail(samples) -> tuple:
    """``(label, value)`` of the highest percentile with >= 10 samples beyond it."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            rank = int(np.ceil(q / 100 * len(values))) - 1
            return f"p{q}", float(values[rank])
    return "max", float(values[-1])


def floor_s(fn, *args, reps: int = 3) -> float:
    """Median wall time of ``reps`` back-to-back calls of a SciPy floor operation.

    Short floors take tenths of a millisecond, where one timing is jittery;
    the median of three keeps that jitter out of the engine/floor ratios.
    """
    times = []
    for _ in range(reps):
        t0 = perf()
        fn(*args)
        times.append(perf() - t0)
    return sorted(times)[reps // 2]


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size of a process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Measurement:
    """What one timed loop produced.

    ``ratios`` are per-operation engine/SciPy-floor time ratios measured
    back to back on the same inputs, so host-speed drift cancels out of
    them; ``op_ms`` are the raw user-visible latencies.
    """

    op_ms: List[float] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    entries: float = 0.0
    busy_s: float = 0.0
    write_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, object] = field(default_factory=dict)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += int(not ok)

    def end_to_end(self) -> Dict[str, float]:
        ratio_label, ratio_tail = tail(self.ratios)
        op_label, op_tail = tail(self.op_ms)
        self.notes.update({
            "ratio_samples": len(self.ratios), f"{ratio_label}_slowdown": ratio_tail,
            "latency_samples": len(self.op_ms), "p50_ms": float(np.median(self.op_ms)),
            "tail_percentile": op_label, "tail_ms": op_tail,
            "edges_per_s": self.entries / self.busy_s, "writes": len(self.write_ms),
            "writes_p50_ms": float(np.median(self.write_ms)) if self.write_ms else 0.0})
        return {"scipy_slowdown": float(np.median(self.ratios))}


# --------------------------------------------------------------------------- #
# BFS workloads
# --------------------------------------------------------------------------- #
@dataclass
class BfsInputs:
    graph: inputs.Triplets
    sources: List[int]
    #: the highest-degree vertex: the set-up's first traversal starts here
    setup_source: int
    levels: Dict[int, np.ndarray]
    edges: Dict[int, int]
    csc: object
    csr_t: object


#: seeded BFS sources per run, drawn from the giant component
BFS_SOURCES = 16


class BfsWorkload:
    """Single-source BFS through a monolithic ``t=1`` engine, ``bucket`` kernel."""

    def __init__(self, make_graph):
        self.make_graph = make_graph

    def inputs(self, seed: int) -> BfsInputs:
        graph = self.make_graph(seed)
        sources = inputs.giant_component_sources(graph, BFS_SOURCES, seed + 1)
        degree = np.bincount(graph.cols, minlength=graph.n)
        hub = int(np.argmax(degree))
        levels = oracle.bfs_oracle(graph, sorted(set(sources) | {hub}))
        edges = {s: int(degree[levels[s] >= 0].sum()) for s in sources}
        csc = oracle.scipy_csc(graph)
        return BfsInputs(graph, sources, hub, levels, edges, csc, csc.T.tocsr())

    def check(self, inp: BfsInputs, result, first: bool) -> bool:
        want = inp.levels[result.source]
        if not np.array_equal(result.levels, want):
            return False
        return not first or oracle.valid_parents(inp.csc, result.source,
                                                 result.levels, result.parents)

    def setup(self, inp: BfsInputs):
        matrix = build_csc(inp.graph)
        result = bfs_mod.bfs(matrix, inp.setup_source, CTX, algorithm="bucket")
        return matrix, result

    def check_setup(self, inp: BfsInputs, system, first_answer) -> bool:
        return self.check(inp, first_answer, True)

    def measure(self, matrix, inp: BfsInputs, seconds: float) -> Measurement:
        """Traverse from the sources in turn; one floor per traversal.

        The slowdown is the median over sources of each source's median
        ratio, so a source the loop reached once more than another does
        not tilt it.  The csgraph ratio is timed once per source.
        """
        m = Measurement()
        per_source: Dict[int, List[float]] = {}
        csgraph_ratios = []
        deadline = perf() + seconds
        i = 0
        while perf() < deadline or not m.op_ms:
            source = inp.sources[i % len(inp.sources)]
            i += 1
            t0 = perf()
            result = bfs_mod.bfs(matrix, source, CTX, algorithm="bucket")
            t1 = perf()
            m.op_ms.append(1e3 * (t1 - t0))
            per_source.setdefault(source, []).append(
                (t1 - t0) / floor_s(oracle.floor_bfs, inp.csc, source, reps=1))
            first = len(per_source[source]) == 1
            if first:
                csgraph_ratios.append(
                    (t1 - t0) / floor_s(oracle.csgraph_bfs, inp.csr_t, source))
            m.entries += inp.edges[source]
            m.busy_s += t1 - t0
            m.record(self.check(inp, result, first))
        m.ratios = [float(np.median(r)) for r in per_source.values()]
        m.notes["traversals"] = len(m.op_ms)
        m.notes["csgraph_slowdown"] = float(np.median(csgraph_ratios))
        return m

    def probe(self, matrix, inp: BfsInputs) -> float:
        t0 = perf()
        for source in inp.sources[:2]:
            bfs_mod.bfs(matrix, source, CTX, algorithm="bucket")
        return perf() - t0

    def counters(self, system) -> Dict[str, float]:
        return {}

    def worker_pids(self, system) -> List[int]:
        return []

    def close(self, system) -> None:
        pass


# --------------------------------------------------------------------------- #
# column-sharded stream
# --------------------------------------------------------------------------- #
#: semiring mix of the read stream (name, probability)
SHARD_SEMIRINGS = (("plus_times", 0.6), ("min_plus", 0.2), ("min_select2nd", 0.2))
#: frontier sizes, log-uniform (capped at a quarter of the columns)
SHARD_NNZ = (16, 2048)
#: every this many operations one is an update batch of SHARD_UPDATE_SIZE
#: edges; each rebuilds a DCSC strip, so this keeps writes near a fifth of the run
SHARD_UPDATE_EVERY = 150
SHARD_UPDATE_SIZE = 16


@dataclass
class StreamInputs:
    graph: inputs.Triplets
    seed: int
    #: the base matrix: checks set-ups, times floors; measure() replays the
    #: stream's updates on a fresh() copy
    oracle: "oracle.Oracle"


class ShardColumnWorkload:
    """A persistent P=2 column-split engine on the process backend."""

    def __init__(self, make_graph):
        self.make_graph = make_graph

    def inputs(self, seed: int) -> StreamInputs:
        graph = self.make_graph(seed)
        return StreamInputs(graph, seed, oracle.Oracle.of(graph))

    def ops(self, inp: StreamInputs, stream: int):
        """The seeded op stream: multiplies with an update every so often."""
        rng = np.random.default_rng([inp.seed, stream])
        n = inp.graph.n
        lo, hi = np.log(SHARD_NNZ[0]), np.log(min(SHARD_NNZ[1], n // 4))
        names = [s for s, _ in SHARD_SEMIRINGS]
        probs = [p for _, p in SHARD_SEMIRINGS]
        i = 0
        while True:
            i += 1
            if i % SHARD_UPDATE_EVERY == 0:
                yield ("update",) + inputs.update_batch(rng, n, SHARD_UPDATE_SIZE)
                continue
            k = int(np.exp(rng.uniform(lo, hi)))
            idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            yield ("multiply", idx, rng.random(k) + 0.1,
                   names[int(rng.choice(len(names), p=probs))])

    def setup(self, inp: StreamInputs):
        matrix = build_csc(inp.graph)
        engine = make_sharded_engine(matrix, 2, CTX.with_backend("process"),
                                     algorithm="bucket", scheme="column")
        _, idx, vals, semiring = next(self.ops(inp, 0))
        result = engine.multiply(SparseVector(inp.graph.n, idx, vals),
                                 semiring=get_semiring(semiring))
        return engine, (idx, vals, semiring, result)

    def check_setup(self, inp: StreamInputs, engine, first_answer) -> bool:
        idx, vals, semiring, result = first_answer
        return inp.oracle.check_multiply(
            idx, vals, semiring, result.vector.indices, result.vector.values)

    def measure(self, engine, inp: StreamInputs, seconds: float) -> Measurement:
        m = Measurement()
        check = inp.oracle.fresh()
        indptr = check.base.indptr
        n = inp.graph.n
        stream = self.ops(inp, 1)
        deadline = perf() + seconds
        while perf() < deadline or not m.op_ms:
            op = next(stream)
            if op[0] == "update":
                _, rows, cols, vals = op
                t0 = perf()
                engine.apply_updates(rows, cols, vals)
                m.write_ms.append(1e3 * (perf() - t0))
                check.apply_updates(rows, cols, vals)
                m.record(True)
                continue
            _, idx, vals, semiring = op
            x = SparseVector(n, idx, vals)
            sr = get_semiring(semiring)
            t0 = perf()
            result = engine.multiply(x, semiring=sr)
            t1 = perf()
            m.op_ms.append(1e3 * (t1 - t0))
            m.ratios.append((t1 - t0) / floor_s(check.floor_multiply, idx, vals))
            m.entries += int((indptr[idx + 1] - indptr[idx]).sum())
            m.busy_s += t1 - t0
            m.record(check.check_multiply(idx, vals, semiring,
                                          result.vector.indices, result.vector.values))
        return m

    def probe(self, engine, inp: StreamInputs) -> float:
        stream = self.ops(inp, 2)
        xs = []
        while len(xs) < 120:
            op = next(stream)
            if op[0] == "multiply":
                xs.append((SparseVector(inp.graph.n, op[1], op[2]), get_semiring(op[3])))
        t0 = perf()
        for x, sr in xs:
            engine.multiply(x, semiring=sr)
        return perf() - t0

    def counters(self, engine) -> Dict[str, float]:
        comm = engine.backend.comm_stats()
        health = engine.backend.health_stats()
        return {"backend.calls": comm.get("calls", 0),
                "backend.pipe_bytes": comm.get("pipe_bytes_out", 0)
                + comm.get("pipe_bytes_in", 0),
                "backend.slab_bytes": comm.get("slab_bytes_in", 0)
                + comm.get("slab_bytes_out", 0),
                "backend.retries": health.get("retries", 0),
                "backend.fallbacks": health.get("fallback_calls", 0),
                "delta.entries": engine.delta_stats()["entries"],
                "delta.compactions": engine.compactions}

    def worker_pids(self, engine) -> List[int]:
        return list(engine.backend.worker_pids())

    def close(self, engine) -> None:
        engine.close()


# --------------------------------------------------------------------------- #
# open-loop serving
# --------------------------------------------------------------------------- #
@dataclass
class ServeInputs:
    graphs: Dict[str, inputs.Triplets]
    seed: int
    #: per graph, over the base matrix: checks set-ups, times floors
    oracles: Dict[str, "oracle.Oracle"]


@dataclass
class Sent:
    """One scheduled request and what became of it."""

    due: float
    graph: str
    kind: str
    payload: tuple
    query: object
    request_id: Optional[int] = None
    future: Optional[ServeFuture] = None
    rejected: bool = False


@contextmanager
def serving_probes(floors: Dict[str, "oracle.Oracle"]):
    """Completion stamps per future, batch service times, lone-read floors.

    ``ServeFuture`` resolves on the pump thread; stamping its resolution is
    the only way to time a request from its due time to its answer without
    a second client thread.  Batch service time is the wall time of
    ``QueryServer._execute``, the one place a batch runs.  A lone read -- a
    batch of one multiply that is not the first read of its graph after an
    update -- gets its SciPy floor timed on the pump right after it is
    served, so that floor and service see the same host load; coalesced
    batches and overlay rebuilds vary with arrival timing and are left out.
    Both probes are needed untraced too, so they are not tracer spans; the
    originals are restored on exit.
    """
    stamps: Dict[int, float] = {}
    #: (request ids, batch kind, seconds, service/floor ratio or None) per batch
    batches: List[tuple] = []
    updated = set()
    set_result, set_exception = ServeFuture.set_result, ServeFuture.set_exception
    execute = QueryServer.__dict__["_execute"]

    def stamped_result(self, result):
        stamps[id(self)] = perf()
        set_result(self, result)

    def stamped_exception(self, exc):
        stamps[id(self)] = perf()
        set_exception(self, exc)

    def timed_execute(self, batch):
        t0 = perf()
        try:
            return execute(self, batch)
        finally:
            service_s = perf() - t0
            ratio = None
            if batch.kind == "update":
                updated.add(batch.graph)
            else:
                if len(batch.requests) == 1 and batch.graph not in updated:
                    x = batch.requests[0].query.x
                    ratio = service_s / floor_s(floors[batch.graph].floor_multiply,
                                                x.indices, x.values)
                updated.discard(batch.graph)
            batches.append((tuple(r.id for r in batch.requests), batch.kind,
                            service_s, ratio))

    ServeFuture.set_result = stamped_result
    ServeFuture.set_exception = stamped_exception
    QueryServer._execute = timed_execute
    try:
        yield stamps, batches
    finally:
        QueryServer._execute = execute
        ServeFuture.set_result = set_result
        ServeFuture.set_exception = set_exception


#: offered load (requests/s): the server stays well below saturation, where
#: latency would follow host load instead of the code
SERVE_RATE = 200.0
SERVE_UPDATE_SHARE = 0.1
SERVE_READ_NNZ = (16, 128)
SERVE_UPDATE_SIZE = 8


class ServeRWWorkload:
    """A query server over both graphs, driven by an open-loop Poisson client."""

    def __init__(self, graph_makers: Dict[str, object]):
        self.graph_makers = graph_makers

    def inputs(self, seed: int) -> ServeInputs:
        graphs = {name: make(seed) for name, make in self.graph_makers.items()}
        return ServeInputs(graphs, seed,
                           {name: oracle.Oracle.of(g) for name, g in graphs.items()})

    def schedule(self, inp: ServeInputs, seconds: float, stream: int) -> List[Sent]:
        rng = np.random.default_rng([inp.seed, stream])
        names = sorted(inp.graphs)
        count = int(SERVE_RATE * seconds)
        due = np.cumsum(rng.exponential(1.0 / SERVE_RATE, size=count))
        sent = []
        for t in due.tolist():
            graph = names[int(rng.integers(len(names)))]
            n = inp.graphs[graph].n
            if rng.random() < SERVE_UPDATE_SHARE:
                rows, cols, vals = inputs.update_batch(rng, n, SERVE_UPDATE_SIZE)
                query = UpdateQuery(graph, tuple(rows.tolist()), tuple(cols.tolist()),
                                    tuple(vals.tolist()))
                sent.append(Sent(t, graph, "update", (rows, cols, vals), query))
            else:
                idx, vals = inputs.frontier(rng, n, *SERVE_READ_NNZ)
                query = MultiplyQuery(graph, SparseVector(n, idx, vals))
                sent.append(Sent(t, graph, "multiply", (idx, vals), query))
        return sent

    def setup(self, inp: ServeInputs):
        matrices = {name: build_csc(g) for name, g in inp.graphs.items()}
        server = QueryServer(matrices, CTX, max_wait_s=0.002, max_batch=64,
                             max_queue=512)
        first = self.schedule(inp, 1.0, 0)
        item = next(s for s in first if s.kind == "multiply")
        answer = server.submit(item.query).result(timeout=60.0)
        return server, (item, answer)

    def check_setup(self, inp: ServeInputs, server, first_answer) -> bool:
        item, answer = first_answer
        idx, vals = item.payload
        return inp.oracles[item.graph].check_multiply(
            idx, vals, "plus_times", answer.vector.indices, answer.vector.values)

    def _drive(self, server, sent: List[Sent], late_ms: List[float]) -> None:
        """Open loop: submit each request at its due time, never waiting on answers."""
        next_id = int(server.serve_stats()["submitted"])
        start = perf()
        for item in sent:
            item.due += start
            wait = item.due - perf()
            if wait > 0:
                time.sleep(wait)
            late_ms.append(1e3 * (perf() - item.due))
            try:
                item.future = server.submit(item.query)
            except ReproError:
                item.rejected = True
                continue
            item.request_id = next_id
            next_id += 1

    def measure(self, server, inp: ServeInputs, seconds: float) -> Measurement:
        m = Measurement()
        sent = self.schedule(inp, seconds, 1)
        late_ms: List[float] = []
        with serving_probes(inp.oracles) as (stamps, batches):
            self._drive(server, sent, late_ms)
            for item in sent:
                if item.future is not None:
                    item.future.exception(timeout=60.0)
        self._verify(server, inp, sent, m)
        for item in sent:
            if item.future is not None:
                latency = 1e3 * (stamps[id(item.future)] - item.due)
                (m.write_ms if item.kind == "update" else m.op_ms).append(latency)
        m.op_ms += m.write_ms
        by_id = {item.request_id: item for item in sent if item.request_id is not None}
        for ids, kind, service_s, ratio in batches:
            items = [by_id[i] for i in ids if i in by_id]
            if not items:
                continue
            m.busy_s += service_s
            if ratio is not None:
                m.ratios.append(ratio)
            if kind == "multiply":
                indptr = inp.oracles[items[0].graph].base.indptr
                for item in items:
                    idx = item.payload[0]
                    m.entries += int((indptr[idx + 1] - indptr[idx]).sum())
        stats = server.serve_stats()
        m.notes.update({"requests": len(sent), "offered_rps": SERVE_RATE,
                        "loadgen_late_p99_ms": float(np.percentile(late_ms, 99)),
                        "batches": stats["batches"],
                        "coalesce_ratio": stats["coalesce_ratio"]})
        return m

    def _verify(self, server, inp: ServeInputs, sent: List[Sent], m: Measurement) -> None:
        """Replay the pump's batch order against the oracle and check every read."""
        by_id = {item.request_id: item for item in sent if item.request_id is not None}
        replay = {name: o.fresh() for name, o in inp.oracles.items()}
        for item in sent:
            if item.rejected:
                m.record(False)
        for key, ids in list(server.batch_log):
            for rid in ids:
                item = by_id.get(rid)
                if item is None:
                    continue
                exc = item.future.exception(timeout=0)
                if exc is not None:
                    m.record(False)
                    continue
                answer = item.future.result(timeout=0)
                if key[0] == "update":
                    replay[item.graph].apply_updates(*item.payload)
                    m.record(answer.applied == len(item.payload[0]))
                else:
                    idx, vals = item.payload
                    m.record(replay[item.graph].check_multiply(
                        idx, vals, "plus_times", answer.vector.indices,
                        answer.vector.values))
        if m.attempted != len(sent):
            raise RuntimeError(f"verified {m.attempted} of {len(sent)} requests")

    def probe(self, server, inp: ServeInputs) -> float:
        items = [s for s in self.schedule(inp, 1.0, 2) if s.kind == "multiply"][:40]
        t0 = perf()
        for item in items:
            server.submit(item.query).result(timeout=60.0)
        return perf() - t0

    def counters(self, server) -> Dict[str, float]:
        stats = server.serve_stats()
        engines = [server.group.engine(k) for k in server.group.keys()]
        return {"serve.batches": stats["batches"],
                "serve.coalesce_ratio": stats["coalesce_ratio"],
                "serve.rejected": stats["rejected"],
                "serve.expired": stats["expired_queued"] + stats["expired_mid_batch"],
                "delta.entries": sum(e.delta_stats()["entries"] for e in engines),
                "delta.compactions": sum(e.delta_stats()["compactions"] for e in engines)}

    def worker_pids(self, server) -> List[int]:
        return []

    def close(self, server) -> None:
        server.close()
