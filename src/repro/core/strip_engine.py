"""The strip-engine layer: what row- and column-split execution share.

The paper's §II-F (Table II) treats row-split and column-split as one
executor that differs in two decisions: how the matrix is cut into P
strips, and how the strips' results are combined — a plain concatenation
for row-split, a synchronized reduction for column-split.
:class:`StripEngine` is that executor.  It owns everything the two schemes
have in common:

* the split, the execution backend built over its strips, and the static
  nnz balance of the partition;
* per-call kernel selection over the scheme's call features (the shared
  :class:`~repro.core.engine.EngineBase` policy and history);
* update validation and routing to the owning strip's
  :class:`~repro.formats.delta.DeltaLog`, plus ``effective_matrix``,
  ``delta_stats`` and ``compact``;
* the call pipeline — plan, submit to the backend, collect, combine,
  book-keep — behind ``multiply`` and the async front-end;
* ``multiply_block`` / ``multiply_many`` and the reporting surface
  (``summary``, ``health_stats``, ``workspace_stats``, ``close``).

A scheme subclass keeps only its own decisions: how to cut (``_cut``), what
one call sends each strip (``_slice_call``, ``_submit``, ``_collect``), how
the strip results combine (``_combine``), and what an updated strip does
(``_updated_strip_locked``, ``_rebuild_strip``).  The two schemes are
:class:`~repro.core.sharded.ShardedEngine` (row) and
:class:`~repro.core.column_sharded.ColumnShardedEngine` (column).

The **async front-end** (:meth:`StripEngine.submit` /
:meth:`StripEngine.gather`) queues calls and executes them in a
deterministic seeded order (emulating out-of-order completion) while always
returning results in submission order.  *Where* the strip calls execute is
delegated to the context's pluggable **execution backend**
(:mod:`repro.parallel.backends`): the default ``"emulated"`` backend runs a
deterministic in-process loop, while ``"process"`` runs the strips on a
persistent ``multiprocessing`` pool whose workers hold the strip matrices in
shared memory — same bits, real cores.  Process-backed engines should be
closed (or used as context managers) to release the pool promptly; a gc
finalizer covers the rest.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BackendError
from ..formats.coo import COOMatrix
from ..formats.csc import CSCMatrix
from ..formats.delta import DeltaLog, apply_delta, check_updates
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..parallel.backends import ExecutionBackend, make_backend
from ..parallel.context import ExecutionContext
from ..semiring import PLUS_TIMES, Semiring
from .engine import DEFAULT_CANDIDATES, EngineBase
from .result import SpMSpVResult
from .vector_ops import check_mask, check_operands


class StripEngine(EngineBase):
    """P strips of one matrix behind one execution backend.

    Parameters
    ----------
    matrix:
        The matrix every multiplication of this engine uses.
    shards:
        Partition width P (strips may be empty when P exceeds the cut
        dimension).
    ctx:
        Execution context.  ``num_threads`` is the budget the strip calls
        are scheduled onto; each strip call itself runs on one thread
        (strips are sync-free, §II-F).  ``ctx.backend`` selects the strip
        executor (``"emulated"`` | ``"process"``); ``ctx.backend_workers``
        caps the process pool.
    algorithm:
        Default per-call policy: a registered kernel name, or ``"auto"``
        for adaptive selection over the scheme's call features.
    candidates, density_threshold, explore_every:
        As in :class:`~repro.core.engine.SpMSpVEngine`.
    """

    #: the partitioning scheme: ``"row"`` or ``"column"``
    scheme = ""
    #: the dimension the cut runs across: 0 (rows) or 1 (columns)
    _axis = 0

    def __init__(self, matrix: CSCMatrix, shards: int,
                 ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "auto",
                 candidates: Sequence[str] = DEFAULT_CANDIDATES,
                 density_threshold: Optional[float] = None,
                 explore_every: int = 8):
        if int(shards) < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        super().__init__(matrix, ctx, algorithm=algorithm, candidates=candidates,
                         density_threshold=density_threshold,
                         explore_every=explore_every)
        self.split, backend_strips = self._cut(matrix, int(shards))
        #: per-strip execution context: the paper's split schemes run one
        #: strip per thread with no intra-strip parallelism (§II-F)
        self.shard_ctx = replace(self.ctx, num_threads=1)
        #: pluggable strip executor (emulated in-process loop by default, or
        #: a persistent shared-memory worker pool with ``backend="process"``)
        self.backend: ExecutionBackend = make_backend(
            self.ctx.backend, strips=backend_strips,
            shard_ctx=self.shard_ctx, dtype=matrix.dtype,
            workers=self.ctx.backend_workers, scheme=self.scheme)
        strip_nnz = np.array([strip.nnz for strip in self.split.strips], dtype=np.float64)
        mean_nnz = float(strip_nnz.mean()) if len(strip_nnz) else 0.0
        #: static max/mean stored-entry balance of the partition
        self.nnz_balance = float(strip_nnz.max() / mean_nnz) if mean_nnz > 0 else 1.0
        #: per-strip pending edge updates in strip-local coordinates
        self.deltas: List[DeltaLog] = [
            DeltaLog(strip.shape) for strip in self.split.strips]
        #: queued async calls: (ticket, vector, kwargs), drained by gather()
        self._pending: List[Tuple[int, SparseVector, Dict]] = []
        self._ticket = 0
        #: tickets in the order gather() actually executed them (async tests)
        self.execution_log: List[int] = []

    @property
    def num_shards(self) -> int:
        return self.split.num_parts

    @property
    def _ranges(self) -> List[Tuple[int, int]]:
        """Each strip's half-open range along the cut dimension."""
        return self.split.row_ranges if self._axis == 0 else self.split.col_ranges

    def select_algorithm(self, x: SparseVector) -> Tuple[str, bool]:
        """Pick the kernel for one input vector; returns ``(name, explored)``.

        Same policy as the monolithic engine: the §V density seed hands over
        to the fits over this scheme's call features once they are trained.
        """
        return self._select(x, self.call_features(x))

    # ------------------------------------------------------------------ #
    # dynamic updates (routed to the owning strip)
    # ------------------------------------------------------------------ #
    def apply_updates(self, rows, cols, values=None) -> Dict[str, object]:
        """Record edge updates, routed to the owning strips' delta logs.

        ``values=None`` deletes the listed edges.  The whole batch is
        validated (:func:`~repro.formats.delta.check_updates`) before any
        strip is touched; what a touched strip then does is the scheme's
        decision.  Raises :class:`BackendError` while async calls are queued
        (``submit`` without ``gather``): a queued call must run against the
        matrix it was submitted to.
        """
        with self._lock:
            if self._pending:
                raise BackendError(
                    f"apply_updates with {len(self._pending)} async call(s) "
                    "queued; gather() them first")
            deleting = values is None
            rows, cols, values = check_updates(self.matrix.shape, rows, cols, values)
            ranges = self._ranges
            strip_of = np.searchsorted([lo for lo, _hi in ranges],
                                       (rows, cols)[self._axis], side="right") - 1
            compacted: List[int] = []
            for s in np.unique(strip_of).tolist():
                sel = strip_of == s
                local = [rows[sel], cols[sel]]
                local[self._axis] = local[self._axis] - ranges[s][0]
                if deleting:
                    self.deltas[s].delete_edges(*local)
                else:
                    self.deltas[s].set_edges(*local, values[sel])
                if self._updated_strip_locked(s):
                    compacted.append(s)
            return {"applied": int(len(rows)),
                    "delta_entries": sum(d.entries for d in self.deltas),
                    "compacted": bool(compacted),
                    "compacted_strips": compacted}

    def _compact_strip_locked(self, s: int) -> bool:
        """Fold strip ``s``'s pending delta into the strip; True if it ran."""
        if self.deltas[s].is_empty:
            return False
        new_strip = self._rebuild_strip(s)
        self.split.strips[s] = new_strip
        self.deltas[s] = DeltaLog(new_strip.shape)
        self.compactions += 1
        return True

    def compact(self, strip: Optional[int] = None) -> bool:
        """Fold pending deltas into their base strips now; True if any ran."""
        with self._lock:
            if self._pending:
                raise BackendError("compact with async calls queued; gather() first")
            if strip is not None:
                return self._compact_strip_locked(strip)
            return any([self._compact_strip_locked(s)
                        for s in range(self.num_shards)])

    def effective_matrix(self) -> CSCMatrix:
        """The full matrix this engine currently computes with (strips ⊕ deltas)."""
        with self._lock:
            parts = []
            for (lo, _hi), strip, delta in zip(self._ranges, self.split.strips,
                                               self.deltas):
                coo = (strip if delta.is_empty else apply_delta(strip, delta)).to_coo()
                coords = [coo.rows, coo.cols]
                coords[self._axis] = coords[self._axis] + lo
                parts.append((*coords, coo.vals))
            rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
            return CSCMatrix.from_coo(
                COOMatrix(self.matrix.shape, rows, cols, vals, check=False),
                sum_duplicates=False)

    def delta_stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "events": sum(len(d) for d in self.deltas),
                "entries": sum(d.entries for d in self.deltas),
                "per_strip_entries": [d.entries for d in self.deltas],
                "compactions": self.compactions,
            }

    # ------------------------------------------------------------------ #
    # execution: plan -> submit -> collect -> combine -> book-keep
    # ------------------------------------------------------------------ #
    def multiply(self, x: SparseVector, *,
                 semiring: Semiring = PLUS_TIMES,
                 sorted_output: Optional[bool] = None,
                 mask: Optional[SparseVector] = None,
                 mask_complement: bool = False,
                 algorithm: Optional[str] = None,
                 _batch: Optional[int] = None,
                 _explored: bool = False,
                 **kwargs) -> SpMSpVResult:
        """Run ``y <- A x`` as P strip calls combined by the scheme.

        Bit-identical to the unsharded engine (sorted outputs byte-for-byte,
        unsorted outputs pair-for-pair); the combined record models the
        strips' parallel completion on the context's threads.
        """
        with self._lock:
            plan = self._plan_call(
                x, semiring=semiring, sorted_output=sorted_output, mask=mask,
                mask_complement=mask_complement, algorithm=algorithm,
                _batch=_batch, _explored=_explored, **kwargs)
            return self._finish_call(plan, self._collect(self._submit(plan)))

    def _plan_call(self, x: SparseVector, *,
                   semiring: Semiring = PLUS_TIMES,
                   sorted_output: Optional[bool] = None,
                   mask: Optional[SparseVector] = None,
                   mask_complement: bool = False,
                   algorithm: Optional[str] = None,
                   _batch: Optional[int] = None,
                   _explored: bool = False, **kwargs) -> Dict:
        """Validate + slice + select one call, without executing it.

        This is the submit half of a multiplication: everything that must
        happen *before* the strip calls go out (operand/mask checks, the
        scheme's slicing of the call, adaptive kernel selection against the
        current fits) — so the pipelined :meth:`gather` can hand a call to
        the backend and plan the next one while workers are still running.
        The bookkeeping half is :meth:`_finish_call`.
        """
        from .dispatch import get_algorithm  # late: avoids import cycle

        check_operands(self.matrix, x)
        check_mask(mask, self.matrix.nrows)
        plan = {"x": x, "semiring": semiring, "sorted_output": sorted_output,
                "mask": mask, "mask_complement": mask_complement,
                "kwargs": kwargs, "batch": _batch}
        self._slice_call(plan)
        requested = algorithm if algorithm is not None else self.algorithm
        explored = _explored
        if requested == "auto":
            name, explored = self.select_algorithm(x)
        else:
            name = requested
        get_algorithm(name)  # validate the kernel name before dispatching
        plan.update(name=name, requested=requested, explored=explored,
                    t0=time.perf_counter())
        return plan

    def _finish_call(self, plan: Dict, outs: List) -> SpMSpVResult:
        """Combine strip results into one result + all per-call bookkeeping.

        Runs in gather order (= the deterministic execution order), so the
        history, cost observations and adaptive-fit updates are identical
        across backends regardless of how the strip calls overlapped.
        """
        result = self._combine(plan, outs)
        result.record.wall_time_s = time.perf_counter() - plan["t0"]
        x, name = plan["x"], plan["name"]
        cost_ms = self._price.record_time_ms(result.record)
        if name in self._models:
            self._models[name].observe(self.call_features(x), cost_ms)
        self._record_call(name, plan["requested"], x, cost_ms,
                          plan["explored"], plan["batch"])
        return result

    # ------------------------------------------------------------------ #
    # blocked execution
    # ------------------------------------------------------------------ #
    def multiply_block(self, block: SparseVectorBlock, *,
                       semiring: Semiring = PLUS_TIMES,
                       sorted_output: Optional[bool] = None,
                       masks: Optional[Sequence[Optional[SparseVector]]] = None,
                       mask_complement: bool = False,
                       algorithm: Optional[str] = None,
                       block_mode: str = "auto") -> List[SpMSpVResult]:
        """Sharded execution of an already-packed block (serving entry point).

        Mirrors :meth:`SpMSpVEngine.multiply_block`: a fused path reuses the
        caller's pack (one shared block for every strip) instead of
        re-deriving it; results are bit-identical to :meth:`multiply_many`
        over ``block.to_vectors()``.
        """
        return self.multiply_many(
            block.to_vectors(), semiring=semiring, sorted_output=sorted_output,
            masks=masks, mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode, _block=block)

    def multiply_many(self, xs: Sequence[SparseVector], *,
                      semiring: Semiring = PLUS_TIMES,
                      sorted_output: Optional[bool] = None,
                      masks: Optional[Sequence[Optional[SparseVector]]] = None,
                      mask_complement: bool = False,
                      algorithm: Optional[str] = None,
                      block_mode: str = "auto",
                      _block: Optional[SparseVectorBlock] = None,
                      **kwargs) -> List[SpMSpVResult]:
        """Sharded blocked execution of one matrix against many input vectors.

        One kernel choice for the whole batch and — for a scheme with a fused
        block path — the fused-vs-looped choice, exactly as in
        :meth:`SpMSpVEngine.multiply_many`.  Outputs are bit-identical to the
        unsharded ``multiply_many`` in every mode.
        """
        with self._lock:
            xs, batch, requested, explored, mode, phi = self._plan_batch(
                xs, masks, mask_complement, algorithm, block_mode, kwargs)
            call = dict(semiring=semiring, sorted_output=sorted_output,
                        masks=masks, mask_complement=mask_complement)
            if mode == "fused":
                return self._multiply_fused(
                    xs, phi, batch=batch, requested=requested,
                    explored=explored, block=_block,
                    **call)
            return self._multiply_looped(
                xs, phi, batch=batch, requested=requested, explored=explored,
                kwargs=kwargs, **call)

    # ------------------------------------------------------------------ #
    # async front-end
    # ------------------------------------------------------------------ #
    def submit(self, x: SparseVector, **kwargs) -> int:
        """Queue one multiplication; returns its ticket.

        Nothing executes until :meth:`gather` — including validation, so a
        bad call (wrong vector length, wrong mask dimension) raises from the
        failing strip at gather time, exactly like a remote shard would fail
        its batch.
        """
        with self._lock:
            ticket = self._ticket
            self._ticket += 1
            self._pending.append((ticket, x, kwargs))
            return ticket

    @property
    def pending(self) -> int:
        """Number of queued (not yet gathered) calls."""
        return len(self._pending)

    def gather(self) -> List[SpMSpVResult]:
        """Execute every queued call and return their results in submit order.

        Execution order is a deterministic function of the context's seed
        (a seeded permutation, emulating out-of-order async completion);
        results are independent of it because queued calls are independent.
        The executed tickets are appended to :attr:`execution_log`.  The
        queue is cleared even when a strip call raises — the exception
        propagates to the caller and later submissions start fresh.

        Execution is **pipelined**: up to ``ctx.backend_inflight`` calls are
        submitted to the backend before the oldest is drained, so on the
        process backend consecutive multiplies overlap across the worker
        pool instead of barriering per call.  All per-call bookkeeping
        (history, cost observations, adaptive-fit updates) happens at drain
        time in execution order, so the pipeline depth never changes what
        any backend records — and the emulated backend, whose submissions
        are deferred thunks, remains bit-identical.
        """
        with self._lock:
            pending, self._pending = self._pending, []
            if not pending:
                return []
            rng = np.random.default_rng(self.ctx.seed + len(pending))
            order = rng.permutation(len(pending))
            window = max(1, self.ctx.backend_inflight)
            #: (ticket, plan, token) in execution order, oldest first
            inflight: List[Tuple[int, Dict, object]] = []
            results: Dict[int, SpMSpVResult] = {}

            def drain_one() -> None:
                ticket, plan, token = inflight.pop(0)
                results[ticket] = self._finish_call(plan, self._collect(token))

            try:
                for pos in order.tolist():
                    ticket, x, kwargs = pending[pos]
                    self.execution_log.append(ticket)
                    plan = self._plan_call(x, **kwargs)
                    inflight.append((ticket, plan, self._submit(plan)))
                    if len(inflight) >= window:
                        drain_one()
                while inflight:
                    drain_one()
            except BaseException:
                # a failed plan or strip call abandons whatever is in flight;
                # the queue was already cleared, so later submissions restart
                for _ticket, _plan, token in inflight:
                    self.backend.abandon(token)
                raise
            return [results[ticket] for ticket, _x, _kw in pending]

    # ------------------------------------------------------------------ #
    # lifecycle and introspection (consumed by repro.analysis.reporting)
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release backend resources (worker pool, shared memory; idempotent).

        A no-op for the emulated backend.  Engines are also cleaned up by a
        gc finalizer, so forgetting to close leaks nothing past collection —
        but long-lived processes that churn through process-backed engines
        should close (or ``with``) them promptly.
        """
        self.backend.close()

    def workspace_stats(self) -> Dict[str, float]:
        """Aggregate reuse statistics over the per-strip workspaces.

        For out-of-process backends these are the latest stats the workers
        piggybacked on their replies (fresh-workspace values before any
        call)."""
        stats = self.backend.workspace_stats()
        acq = sum(s["acquisitions"] for s in stats)
        alloc = sum(s["allocations"] for s in stats)
        saved = max(acq - alloc, 0)
        return {
            "acquisitions": acq,
            "allocations": alloc,
            "allocations_saved": saved,
            "reuse_fraction": saved / acq if acq else 0.0,
            "bucket_capacity": sum(s["bucket_capacity"] for s in stats),
            "spa_rows": self.matrix.nrows,
            "block_capacity": sum(s["block_capacity"] for s in stats),
        }

    def health_stats(self) -> Dict[str, object]:
        """Backend resilience accounting (deaths, retries, fallbacks,
        deadline hits) — all zero for in-process backends and for a healthy
        pool; see :meth:`.parallel.backends.ExecutionBackend.health_stats`."""
        return self.backend.health_stats()

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics of the engine's lifetime (see :meth:`EngineBase.summary`)."""
        return dict(super().summary(),
                    shards=self.num_shards, scheme=self.scheme,
                    nnz_balance=self.nnz_balance,
                    workspace=self.workspace_stats(),
                    comm=self.backend.comm_stats(),
                    health=self.backend.health_stats(),
                    delta_entries=sum(d.entries for d in self.deltas))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}(matrix={self.matrix.nrows}x"
                f"{self.matrix.ncols}, shards={self.num_shards}, "
                f"algorithm={self.algorithm!r}, calls={self.total_calls})")
