"""Row-split sharded SpMSpV execution: P row strips, concatenated results.

The paper's algorithm is designed around partitioned execution — per-thread
buckets over row strips — yet the :class:`~repro.core.engine.SpMSpVEngine`
runs every multiplication against one monolithic matrix.
:class:`ShardedEngine` is the row-split scheme of the strip-engine layer
(:class:`~repro.core.strip_engine.StripEngine`, which owns selection, update
routing, the async pipeline and the reporting surface).  Its own decisions:

* the matrix is **row-split** into P strips
  (:func:`repro.formats.partition.row_split`, the §II-F scheme the CombBLAS
  and GraphMat baselines distribute with), each strip owning its own
  persistent :class:`~repro.core.workspace.SpMSpVWorkspace`;
* every multiplication issues one **independent per-strip SpMSpV call**
  (any registered kernel) against the strip's slice of the mask — strips
  are sync-free, so their calls are embarrassingly parallel and are
  scheduled onto the context's thread budget with
  :func:`repro.parallel.scheduler.schedule`;
* strip outputs live in **disjoint row ranges**, so the full result is a
  plain concatenation — no merge — and is **bit-identical** to the
  unsharded engine: each row's addend stream (the selected columns in the
  input vector's storage order, restricted to the strip) is untouched by
  the split, so every floating-point reduction sees the same addends in
  the same order.  Sorted outputs are byte-identical as stored; unsorted
  outputs are byte-identical as (row, value) pairs (storage order is
  bucket-layout-specific, exactly as across the kernel family);
* edge updates stay in per-strip delta logs, overlaid on the strip outputs
  by parent-side patch calls, and a strip is rebuilt alone once its delta
  crosses the compaction break-even;
* :meth:`ShardedEngine.multiply_many` shards fused blocks too: the
  column-union block is packed **once** and shared by every strip's fused
  kernel call, while the (row, vector-id) scatter and the segmented merge
  stay strip-local;
* per-call algorithm choice is priced over the **shard features** of
  :func:`repro.machine.cost_model.shard_features` (shard count, static
  per-strip nnz balance).

:class:`EngineGroup` extends the async interface across *several* matrices,
pinning its members in the :func:`~repro.core.engine.engine_for` cache so
long-lived multi-graph workloads (BFS/PageRank over many graphs) never have
their workspaces silently evicted and rebuilt mid-algorithm.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._typing import INDEX_DTYPE
from ..formats.csc import CSCMatrix
from ..formats.delta import apply_delta, build_patch
from ..formats.partition import RowSplit, row_split
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..machine.cost_model import block_features, shard_features
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, PhaseRecord, WorkMetrics
from ..parallel.scheduler import Assignment, schedule
from ..semiring import Semiring
from .engine import (
    SpMSpVEngine,
    _accepts_workspace,
    _overlay_result,
    pin_engine,
    unpin_engine,
)
from .result import SpMSpVResult
from .strip_engine import StripEngine
from .vector_ops import check_mask
from .workspace import SpMSpVWorkspace


class ShardedEngine(StripEngine):
    """Row-split, per-strip-scheduled SpMSpV executor for one matrix.

    Parameters as in :class:`~repro.core.strip_engine.StripEngine`; the
    matrix is row-split into ``shards`` strips.
    """

    scheme = "row"
    _axis = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the emulated backend's local per-strip workspaces; empty for
        #: backends whose workspaces live out-of-process
        self.workspaces = getattr(self.backend, "workspaces", [])
        self._patches: List[Optional[Tuple[CSCMatrix, np.ndarray]]] = \
            [None] * self.split.num_parts
        #: parent-side workspaces for the (tiny) strip patch corrections —
        #: the workers keep serving the immutable base strips
        self._patch_ws: Dict[int, SpMSpVWorkspace] = {}
        self._strip_row_nnz: List[Optional[np.ndarray]] = \
            [None] * self.split.num_parts

    def _cut(self, matrix: CSCMatrix, shards: int) -> Tuple[RowSplit, List[CSCMatrix]]:
        split = row_split(matrix, shards)
        return split, split.strips

    def call_features(self, x: SparseVector) -> np.ndarray:
        """The (bias, nnz(x), P, balance) features of one sharded call."""
        return shard_features(x.nnz, self.num_shards, self.nnz_balance)

    # ------------------------------------------------------------------ #
    # strip calls: mask slices out, concatenation back
    # ------------------------------------------------------------------ #
    def _slice_mask(self, mask: Optional[SparseVector]
                    ) -> List[Optional[SparseVector]]:
        """Slice a row-space mask into the strips' local row spaces.

        Entry order is preserved, so each strip's packed bitmap / finalize
        select behaves exactly like the full mask restricted to its rows.
        """
        if mask is None:
            return [None] * self.num_shards
        out: List[Optional[SparseVector]] = []
        for lo, hi in self.split.row_ranges:
            keep = (mask.indices >= lo) & (mask.indices < hi)
            out.append(SparseVector(hi - lo, mask.indices[keep] - lo,
                                    mask.values[keep], sorted=mask.sorted,
                                    check=False))
        return out

    def _slice_call(self, plan: Dict) -> None:
        x, sorted_output = plan["x"], plan["sorted_output"]
        plan["resolved_sorted"] = (sorted_output if sorted_output is not None
                                   else (x.sorted and self.ctx.sorted_vectors))
        plan["mask_slices"] = self._slice_mask(plan["mask"])

    def _submit(self, plan: Dict):
        return self.backend.submit_multiply(
            plan["name"], plan["x"], semiring=plan["semiring"],
            sorted_output=plan["resolved_sorted"],
            mask_slices=plan["mask_slices"],
            mask_complement=plan["mask_complement"], kwargs=plan["kwargs"])

    def _collect(self, token) -> List[SpMSpVResult]:
        return self.backend.gather_multiply(token)

    def _concatenate(self, vectors: List[SparseVector], sorted_flag: bool
                     ) -> SparseVector:
        """Concatenate strip outputs back into the full row space (no merge)."""
        idx_parts = []
        val_parts = []
        for (lo, _hi), v in zip(self.split.row_ranges, vectors):
            if v.nnz:
                idx_parts.append((v.indices + lo).astype(INDEX_DTYPE, copy=False))
                val_parts.append(v.values)
        if not idx_parts:
            return SparseVector(self.matrix.nrows, np.empty(0, dtype=INDEX_DTYPE),
                                np.empty(0, dtype=vectors[0].dtype if vectors
                                         else np.float64),
                                sorted=sorted_flag, check=False)
        return SparseVector(self.matrix.nrows, np.concatenate(idx_parts),
                            np.concatenate(val_parts), sorted=sorted_flag,
                            check=False)

    def _schedule_shards(self, costs: List[float]) -> Assignment:
        """Assign the strip calls to the context's threads (makespan model)."""
        return schedule(costs, self.ctx.num_threads, self.ctx.scheduling)

    def _merge_records(self, records: List[ExecutionRecord],
                       assignment: Assignment, algorithm: str,
                       info: Dict) -> ExecutionRecord:
        """Fold the strip records into one record of the sharded execution.

        Phases are matched by name across strips; within a phase, the
        threads' metrics are the per-strip totals summed over the strips the
        schedule assigned to each thread.  Strips are sync-free, so the
        merged phase is parallel with the barrier count of a single strip —
        the cost model then prices the makespan of the strip schedule, which
        is exactly the parallel completion time of the sharded execution.
        """
        merged = ExecutionRecord(algorithm=algorithm,
                                 num_threads=self.ctx.num_threads, info=info)
        base = max(records, key=lambda r: len(r.phases))
        for phase in base.phases:
            per_strip: List[Optional[PhaseRecord]] = []
            for r in records:
                try:
                    per_strip.append(r.phase(phase.name))
                except KeyError:
                    per_strip.append(None)
            out = PhaseRecord(
                name=phase.name, parallel=True,
                barriers=max(p.barriers for p in per_strip if p is not None))
            for items in assignment.items_per_thread:
                contributions: List[WorkMetrics] = []
                for s in items:
                    p = per_strip[s]
                    if p is None:
                        continue
                    contributions.extend(p.thread_metrics)
                    contributions.append(p.serial_metrics)
                if contributions:
                    out.thread_metrics.append(WorkMetrics.sum(contributions))
            merged.add_phase(out)
        return merged

    def _combine(self, plan: Dict, outs: List[SpMSpVResult]) -> SpMSpVResult:
        """Overlay pending deltas, concatenate the strips, merge their records."""
        x, resolved_sorted = plan["x"], plan["resolved_sorted"]
        if any(not d.is_empty for d in self.deltas):
            from .dispatch import get_algorithm  # late: avoids import cycle

            fn = get_algorithm(plan["name"])

            def run_patch(s: int, patch: CSCMatrix) -> List[SpMSpVResult]:
                kw = dict(plan["kwargs"])
                if _accepts_workspace(fn):
                    kw["workspace"] = self._patch_workspace_locked(s)
                return [fn(patch, x, self.shard_ctx, semiring=plan["semiring"],
                           sorted_output=resolved_sorted,
                           mask=plan["mask_slices"][s],
                           mask_complement=plan["mask_complement"], **kw)]

            outs = [rs[0] for rs in self._overlay_locked([[o] for o in outs],
                                                         run_patch)]
        y = self._concatenate([o.vector for o in outs], resolved_sorted)
        dfs = [float(o.info.get("df", o.record.info.get("df", 0.0))) for o in outs]
        assignment = self._schedule_shards([df + 1.0 for df in dfs])
        record = self._merge_records(
            [o.record for o in outs], assignment,
            algorithm=f"sharded[{self.num_shards}]:{outs[0].record.algorithm}",
            info={"m": self.matrix.nrows, "n": self.matrix.ncols,
                  "nnz_A": self.matrix.nnz, "f": x.nnz,
                  "df": sum(dfs), "nnz_y": y.nnz,
                  "shards": self.num_shards,
                  "shard_imbalance": assignment.imbalance(),
                  "early_mask": outs[0].record.info.get("early_mask", False)})
        return SpMSpVResult(vector=y, record=record,
                            info={"f": x.nnz, "df": sum(dfs),
                                  "nnz_y": y.nnz, "shards": self.num_shards})

    # ------------------------------------------------------------------ #
    # dynamic updates (per-strip delta overlay + compaction)
    # ------------------------------------------------------------------ #
    def _updated_strip_locked(self, s: int) -> bool:
        """Strip ``s`` got updates: the workers keep serving the immutable
        base strip while the parent splices in a strip-local patch
        correction, until the delta-touched rows carry more than
        ``compact_fraction`` of the strip's nonzeros — then the strip is
        rebuilt **alone** (the other strips' workspaces and shared-memory
        slabs stay untouched)."""
        self._patches[s] = None
        if self._overlay_nnz_strip_locked(s) <= \
                self.compact_fraction * max(self.split.strips[s].nnz, 1):
            return False
        return self._compact_strip_locked(s)

    def _overlay_nnz_strip_locked(self, s: int) -> int:
        """Upper bound on strip ``s``'s patch nnz (the per-multiply overlay tax)."""
        if self._strip_row_nnz[s] is None:
            self._strip_row_nnz[s] = self.split.strips[s].row_counts()
        return (int(self._strip_row_nnz[s][self.deltas[s].touched_rows()].sum())
                + self.deltas[s].entries)

    def _rebuild_strip(self, s: int) -> CSCMatrix:
        new_strip = apply_delta(self.split.strips[s], self.deltas[s])
        self.backend.update_strip(s, new_strip)
        self._patches[s] = None
        self._strip_row_nnz[s] = None
        return new_strip

    def _patch_pair_strip_locked(self, s: int
                                 ) -> Optional[Tuple[CSCMatrix, np.ndarray]]:
        if self.deltas[s].is_empty:
            return None
        if self._patches[s] is None:
            self._patches[s] = build_patch(self.split.strips[s], self.deltas[s])
        return self._patches[s]

    def _patch_workspace_locked(self, s: int) -> SpMSpVWorkspace:
        ws = self._patch_ws.get(s)
        if ws is None:
            strip = self.split.strips[s]
            ws = SpMSpVWorkspace(strip.nrows, dtype=strip.dtype)
            self._patch_ws[s] = ws
        return ws

    def _overlay_locked(self, per_strip: List[List[SpMSpVResult]], run_patch
                        ) -> List[List[SpMSpVResult]]:
        """Splice parent-side patch corrections into the strips' base results.

        ``per_strip[s]`` holds strip ``s``'s base results; ``run_patch(s,
        patch)`` reruns the same call on the strip's delta patch.
        """
        per_strip = list(per_strip)
        for s in range(self.num_shards):
            pair = self._patch_pair_strip_locked(s)
            if pair is None:
                continue
            patch, touched = pair
            per_strip[s] = [_overlay_result(r, p, patch, touched)
                            for r, p in zip(per_strip[s], run_patch(s, patch))]
        return per_strip

    # ------------------------------------------------------------------ #
    # fused blocks: one shared pack, P fused strip calls
    # ------------------------------------------------------------------ #
    def _block_phi(self, k: int, total_nnz: int, union_nnz: int,
                   mask_keep: float) -> np.ndarray:
        """The block feature vector, counting every strip's merge segments."""
        return block_features(
            k, total_nnz, union_nnz, mask_keep=mask_keep,
            segments=k * self.shard_ctx.num_buckets * self.num_shards)

    def _multiply_fused(self, xs: List[SparseVector], phi: np.ndarray, *,
                        batch: int, semiring: Semiring,
                        sorted_output: Optional[bool],
                        masks: Optional[Sequence[Optional[SparseVector]]],
                        mask_complement: bool, requested: str, explored: bool,
                        block_merge: str, block: Optional[SparseVectorBlock]
                        ) -> List[SpMSpVResult]:
        """Fused block execution across strips: one shared block, P fused calls.

        The block's column union, value slab and replay positions are
        row-independent, so the pack is built **once** and handed to every
        strip's fused kernel call; only the (row, vector-id) scatter and the
        segmented merge are paid per strip.  Per-vector masks are sliced per
        strip and folded into each strip's scatter.
        """
        from .spmspv_block import spmspv_bucket_block  # late: import cycle

        if masks is not None:
            for mask in masks:
                check_mask(mask, self.matrix.nrows)
        t0 = time.perf_counter()
        k = len(xs)
        if block is None:
            block = SparseVectorBlock.from_vectors(xs)
        if masks is not None:
            sliced = [self._slice_mask(mask) for mask in masks]  # [vector][strip]
            strip_masks = [[sliced[i][s] for i in range(k)]
                           for s in range(self.num_shards)]
        else:
            strip_masks = [None] * self.num_shards

        per_strip = self.backend.run_block(
            block, semiring=semiring, sorted_output=sorted_output,
            strip_masks=strip_masks, mask_complement=mask_complement,
            block_merge=block_merge)
        if any(not d.is_empty for d in self.deltas):
            per_strip = self._overlay_locked(
                per_strip, lambda s, patch: spmspv_bucket_block(
                    patch, block, self.shard_ctx, semiring=semiring,
                    sorted_output=sorted_output, masks=strip_masks[s],
                    mask_complement=mask_complement, merge=block_merge,
                    workspace=self._patch_workspace_locked(s)))
        # equal per-vector share of the batch wall time, frozen before the
        # bookkeeping below (as the fused kernel itself apportions)
        wall_share_s = (time.perf_counter() - t0) / max(k, 1)

        # one schedule for the whole batch: strips are the work items
        strip_dfs = [sum(float(r.info.get("df", 0.0)) for r in rs)
                     for rs in per_strip]
        assignment = self._schedule_shards([df + 1.0 for df in strip_dfs])
        results: List[SpMSpVResult] = []
        for i, x in enumerate(xs):
            outs = [per_strip[s][i] for s in range(self.num_shards)]
            resolved_sorted = (sorted_output if sorted_output is not None
                               else (block.sorted_flags[i]
                                     and self.ctx.sorted_vectors))
            y = self._concatenate([o.vector for o in outs], resolved_sorted)
            df_i = sum(float(o.info.get("df", 0.0)) for o in outs)
            record = self._merge_records(
                [o.record for o in outs], assignment,
                algorithm=f"sharded[{self.num_shards}]:{outs[0].record.algorithm}",
                info={"m": self.matrix.nrows, "n": self.matrix.ncols,
                      "nnz_A": self.matrix.nnz, "f": x.nnz,
                      "df": df_i, "nnz_y": y.nnz, "fused": True,
                      "block_k": k, "merge": block_merge,
                      "shards": self.num_shards})
            record.wall_time_s = wall_share_s
            self._record_call("bucket_block", requested, x,
                              self._price.record_time_ms(record),
                              explored and i == 0, batch, fused=True)
            results.append(SpMSpVResult(
                vector=y, record=record,
                info={"f": x.nnz, "df": df_i, "nnz_y": y.nnz,
                      "fused": True, "merge": block_merge,
                      "shards": self.num_shards}))
        self._fused_batches += 1
        self._block_fits["fused"].observe(phi, (time.perf_counter() - t0) * 1e3)
        return results


class EngineGroup:
    """Pinned engines over several matrices with interleaved async execution.

    The group holds one engine per matrix — the **cached**
    :func:`~repro.core.engine.engine_for` engine, pinned so the 8-entry LRU
    never evicts a member mid-algorithm no matter how many other matrices
    the process touches, or a :class:`ShardedEngine` when ``shards`` is
    given.  :meth:`submit`/:meth:`gather` interleave queued calls across the
    members in a deterministic seeded order (round-robin-free emulation of
    concurrent multi-graph progress), always returning results in submit
    order — the shape of BFS/PageRank advancing over several graphs at once.

    Use as a context manager (or call :meth:`close`) to release the pins.
    """

    def __init__(self, matrices: Union[Sequence[CSCMatrix], Mapping[object, CSCMatrix]],
                 ctx: Optional[ExecutionContext] = None, *,
                 shards: Optional[int] = None,
                 seed: Optional[int] = None):
        self.ctx = ctx if ctx is not None else default_context()
        self.seed = int(seed) if seed is not None else self.ctx.seed
        if isinstance(matrices, Mapping):
            items = list(matrices.items())
        else:
            items = list(enumerate(matrices))
        if not items:
            raise ValueError("EngineGroup needs at least one matrix")
        self._engines: "OrderedDict[object, Union[SpMSpVEngine, ShardedEngine]]" = \
            OrderedDict()
        self._pinned: List[CSCMatrix] = []
        for key, matrix in items:
            if key in self._engines:
                raise ValueError(f"duplicate EngineGroup key {key!r}")
            if shards is not None:
                self._engines[key] = ShardedEngine(matrix, shards, self.ctx)
            else:
                self._engines[key] = pin_engine(matrix, self.ctx)
                self._pinned.append(matrix)
        self._pending: List[Tuple[int, object, SparseVector, Dict]] = []
        self._ticket = 0
        #: (ticket, key) pairs in actual execution order (determinism tests)
        self.execution_log: List[Tuple[int, object]] = []
        self._closed = False
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def keys(self) -> List[object]:
        return list(self._engines)

    def engine(self, key) -> Union[SpMSpVEngine, ShardedEngine]:
        """The member engine for ``key`` (raises ``KeyError`` if absent)."""
        return self._engines[key]

    def multiply(self, key, x: SparseVector, **kwargs) -> SpMSpVResult:
        """Immediate (non-queued) multiplication against one member."""
        return self._engines[key].multiply(x, **kwargs)

    def multiply_many(self, key, xs: Sequence[SparseVector],
                      **kwargs) -> List[SpMSpVResult]:
        """Immediate blocked multiplication against one member (the serving
        layer's coalesced entry point); see
        :meth:`SpMSpVEngine.multiply_many`."""
        return self._engines[key].multiply_many(xs, **kwargs)

    def multiply_block(self, key, block: SparseVectorBlock,
                       **kwargs) -> List[SpMSpVResult]:
        """Blocked multiplication of an already-packed block against one
        member; see :meth:`SpMSpVEngine.multiply_block`."""
        return self._engines[key].multiply_block(block, **kwargs)

    def apply_updates(self, key, rows, cols, values=None) -> Dict[str, object]:
        """Record edge updates against member ``key`` (``values=None`` deletes);
        see :meth:`SpMSpVEngine.apply_updates` / :meth:`ShardedEngine.apply_updates`."""
        return self._engines[key].apply_updates(rows, cols, values)

    def submit(self, key, x: SparseVector, **kwargs) -> int:
        """Queue one multiplication against member ``key``; returns its ticket."""
        with self._lock:
            if self._closed:
                raise RuntimeError("EngineGroup is closed")
            if key not in self._engines:
                raise KeyError(f"unknown EngineGroup key {key!r}")
            ticket = self._ticket
            self._ticket += 1
            self._pending.append((ticket, key, x, kwargs))
            return ticket

    @property
    def pending(self) -> int:
        return len(self._pending)

    def gather(self) -> List[SpMSpVResult]:
        """Execute every queued call, interleaved across members, in a
        deterministic seeded order; results come back in submit order.

        The queue is cleared even when a call raises; the exception
        propagates.  Executed ``(ticket, key)`` pairs are appended to
        :attr:`execution_log`.
        """
        with self._lock:
            pending, self._pending = self._pending, []
            if not pending:
                return []
            rng = np.random.default_rng(self.seed + len(pending))
            order = rng.permutation(len(pending))
            results: Dict[int, SpMSpVResult] = {}
            for pos in order.tolist():
                ticket, key, x, kwargs = pending[pos]
                self.execution_log.append((ticket, key))
                results[ticket] = self._engines[key].multiply(x, **kwargs)
            return [results[ticket] for ticket, _k, _x, _kw in pending]

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[object, Dict[str, object]]:
        """Per-member engine summaries."""
        return {key: engine.summary() for key, engine in self._engines.items()}

    def close(self) -> None:
        """Release the members' cache pins and backend pools (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for matrix in self._pinned:
                unpin_engine(matrix, self.ctx)
            self._pinned.clear()
            for engine in self._engines.values():
                if isinstance(engine, ShardedEngine):
                    engine.close()

    def __enter__(self) -> "EngineGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._engines)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"EngineGroup(members={len(self._engines)}, "
                f"pending={len(self._pending)}, closed={self._closed})")
