"""Column-split (DCSC) sharded SpMSpV execution with a reduction phase.

:class:`ColumnShardedEngine` is the work-efficient counterpart of the
row-split :class:`~repro.core.sharded.ShardedEngine` (§II-F, Table II of the
paper) — the column scheme of the strip-engine layer
(:class:`~repro.core.strip_engine.StripEngine`, which owns selection, update
routing, the async pipeline and the reporting surface).  The matrix is cut
into P **vertical** strips stored as
:class:`~repro.formats.dcsc.DCSCMatrix` (hypersparse strips keep their
column index proportional to their nonzero columns, not to n/P), every
multiplication

* slices the frontier by column range — each strip reads only its
  **private slice** of ``x``, the O(nnz(x)) total input traffic row-split
  cannot achieve (row-split makes all P strips scan the whole frontier);
* runs the private gather/mask/scale/sort half of the kernel per strip
  (:func:`~repro.core.spmspv_column.column_partial`), producing unreduced
  ``(row, value, global-position)`` streams;
* merges the streams in one synchronized **reduction phase**
  (:func:`~repro.core.spmspv_column.reduce_partials`) that folds every
  row's addends exactly like the monolithic kernel — the price column-split
  pays (and row-split avoids) per Table II.

Results are **bit-identical** to the monolithic engine across kernels,
semirings and masks: strips ship unreduced addend streams tagged with their
global frontier positions, so the parent-side fold re-creates the
monolithic gather stream position for position (see
:mod:`repro.core.spmspv_column` for the argument).  Outputs are always
row-sorted — the reduction sorts by construction — which is byte-identical
to sorted monolithic outputs and pair-identical to unsorted ones.

Edge updates (:meth:`ColumnShardedEngine.apply_updates`) are routed to the
owning column strips and **compacted immediately**: the DCSC path has no
delta-overlay splice (the row-split overlay patches disjoint *row* ranges,
which a column strip does not own), so rather than risk a wrong answer the
engine rebuilds each touched strip and pushes it to the backend — never
stale, never approximate, just eager.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import NotSupportedError
from ..formats.csc import CSCMatrix
from ..formats.dcsc import DCSCMatrix
from ..formats.delta import apply_delta
from ..formats.partition import ColumnSplit, column_split
from ..formats.sparse_vector import SparseVector
from ..machine.cost_model import scheme_crossover, scheme_features
from ..parallel.context import ExecutionContext, default_context
from .result import SpMSpVResult
from .spmspv_column import merge_partial_records, reduce_partials, slice_frontier
from .strip_engine import StripEngine

__all__ = ["ColumnShardedEngine", "make_sharded_engine"]


class ColumnShardedEngine(StripEngine):
    """Column-split, reduction-merged SpMSpV executor for one matrix.

    Parameters as in :class:`~repro.core.strip_engine.StripEngine`; the
    matrix is column-split into ``shards`` vertical DCSC strips (strips may
    be empty when ``shards > ncols``).  ``algorithm`` names a registered
    kernel (it labels the partial calls and drives adaptive pricing — the
    private half is shared by the whole kernel family), or ``"auto"``.
    """

    scheme = "column"
    _axis = 1
    _fit_dim = 5

    def _cut(self, matrix: CSCMatrix, shards: int
             ) -> Tuple[ColumnSplit, List[DCSCMatrix]]:
        split = column_split(matrix, shards)
        #: hypersparse per-strip matrices the backend actually executes on;
        #: :attr:`split` keeps the CSC originals for update compaction
        self.dcsc_strips: List[DCSCMatrix] = [
            DCSCMatrix.from_csc(s) for s in split.strips]
        return split, self.dcsc_strips

    def call_features(self, x: SparseVector) -> np.ndarray:
        """The (bias, nnz(x), density, P, balance) features of one call."""
        return scheme_features(x.nnz, x.n, self.num_shards, self.nnz_balance)

    # ------------------------------------------------------------------ #
    # strip calls: frontier slices out, one reduction back
    # ------------------------------------------------------------------ #
    def _slice_call(self, plan: Dict) -> None:
        if plan["kwargs"]:
            raise NotSupportedError(
                f"column-split execution does not forward kernel-specific "
                f"options (the merge runs parent-side); got {sorted(plan['kwargs'])}")
        x = plan["x"]
        plan["slices"] = slice_frontier(x, self.split.col_ranges)
        plan["out_dtype"] = np.result_type(self.matrix.dtype, x.dtype)

    def _submit(self, plan: Dict):
        return self.backend.submit_partial(
            plan["name"], plan["slices"], semiring=plan["semiring"],
            mask=plan["mask"], mask_complement=plan["mask_complement"],
            out_dtype=plan["out_dtype"])

    def _collect(self, token) -> List:
        return self.backend.gather_partial(token)

    def _combine(self, plan: Dict, partials: List) -> SpMSpVResult:
        """Reduce the strip partials into one row-sorted result."""
        x = plan["x"]
        y, reduce_metrics = reduce_partials(
            partials, semiring=plan["semiring"], nrows=self.matrix.nrows,
            x_sorted=x.sorted, out_dtype=plan["out_dtype"])
        record = merge_partial_records(
            [p.record for p in partials], algorithm=plan["name"],
            num_strips=self.num_shards, reduce_metrics=reduce_metrics)
        df = record.info.get("df", 0)
        record.info.update({"m": self.matrix.nrows, "n": self.matrix.ncols,
                            "nnz_A": self.matrix.nnz, "f": x.nnz,
                            "nnz_y": y.nnz, "shards": self.num_shards,
                            "early_mask": plan["mask"] is not None})
        return SpMSpVResult(vector=y, record=record,
                            info={"f": x.nnz, "df": df, "nnz_y": y.nnz,
                                  "shards": self.num_shards,
                                  "scheme": "column"})

    # ------------------------------------------------------------------ #
    # dynamic updates (eager strip rebuild — no DCSC overlay)
    # ------------------------------------------------------------------ #
    def _updated_strip_locked(self, s: int) -> bool:
        return self._compact_strip_locked(s)

    def _rebuild_strip(self, s: int) -> CSCMatrix:
        new_strip = apply_delta(self.split.strips[s], self.deltas[s])
        self.dcsc_strips[s] = DCSCMatrix.from_csc(new_strip)
        self.backend.update_strip(s, self.dcsc_strips[s])
        return new_strip

    def _block_eligible(self, xs, requested, kwargs) -> bool:
        # no fused block path: each call ends in a synchronized reduction,
        # so fusing would serialize the block anyway
        return False

    # ------------------------------------------------------------------ #
    # public entry points whose column semantics differ from the row
    # scheme's; defined here rather than only inherited, because the
    # benchmark's traced run (e2ebench/) wraps them in this class body
    # ------------------------------------------------------------------ #
    def apply_updates(self, rows, cols, values=None) -> Dict[str, object]:
        """Apply edge updates, routed to the owning column strips.

        ``values=None`` deletes the listed edges.  The DCSC execution path
        has no delta-overlay splice (the row-split overlay corrects disjoint
        *row* ranges, which a vertical strip does not own), so every update
        **compacts immediately**: each touched strip is rebuilt from its CSC
        original plus the delta, re-encoded as DCSC and pushed to the
        backend.  Costlier per update than the row-split overlay, but never
        a wrong or stale answer.  Raises :class:`BackendError` while async
        calls are queued.
        """
        return super().apply_updates(rows, cols, values)

    def multiply(self, x: SparseVector, **call) -> SpMSpVResult:
        """Run ``y <- A x`` as P private strip partials plus one reduction.

        Bit-identical to the unsharded engine; the output is always
        row-sorted (the reduction sorts by construction), so it is
        byte-identical to sorted monolithic outputs and pair-identical to
        unsorted ones regardless of ``sorted_output``.
        """
        return super().multiply(x, **call)

    def multiply_many(self, xs: Sequence[SparseVector], *,
                      block_mode: str = "auto", **call) -> List[SpMSpVResult]:
        """Looped blocked execution of one matrix against many inputs.

        The column scheme has no fused block path, so ``block_mode="auto"``
        loops; an explicit ``"fused"`` request raises
        :class:`NotSupportedError` instead of silently running something
        else.
        """
        if block_mode == "fused":
            raise NotSupportedError(
                "column-split execution has no fused block path (each call "
                "ends in a synchronized reduction); use block_mode='looped' "
                "or a row-split engine")
        return super().multiply_many(xs, block_mode=block_mode, **call)

    def workspace_stats(self) -> Dict[str, float]:
        """Workspace reuse statistics — all zero for the column scheme.

        The partial path has no SPA/bucket/heap merge on the strips (the
        merge runs parent-side in the reduction), so no strip workspace is
        ever acquired; the keys stay shape-compatible with the row-split
        engine for reporting."""
        return {"acquisitions": 0, "allocations": 0, "allocations_saved": 0,
                "reuse_fraction": 0.0, "bucket_capacity": 0,
                "spa_rows": self.matrix.nrows, "block_capacity": 0}


def make_sharded_engine(matrix: CSCMatrix, shards: int,
                        ctx: Optional[ExecutionContext] = None, *,
                        algorithm: str = "auto",
                        scheme: Optional[str] = None,
                        **kwargs) -> Union["ColumnShardedEngine", object]:
    """Build a sharded engine, resolving the partitioning scheme.

    ``scheme=None`` defers to ``ctx.shard_scheme``; ``"auto"`` (from either
    source) resolves per matrix via the paper's §II-F crossover — column
    when the shard count exceeds the average degree
    (:func:`repro.machine.cost_model.scheme_crossover`), row otherwise.
    """
    from .sharded import ShardedEngine  # late: avoids import cycle

    ctx = ctx if ctx is not None else default_context()
    resolved = scheme if scheme is not None else ctx.shard_scheme
    if resolved == "auto":
        resolved = scheme_crossover(int(shards), matrix.average_degree())
    if resolved == "column":
        return ColumnShardedEngine(matrix, shards, ctx,
                                   algorithm=algorithm, **kwargs)
    if resolved == "row":
        return ShardedEngine(matrix, shards, ctx, algorithm=algorithm, **kwargs)
    raise ValueError(
        f"shard scheme must be 'row', 'column' or 'auto', got {resolved!r}")
