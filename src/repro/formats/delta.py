"""Dynamic-graph delta layer: a COO edge-update log overlaying a base matrix.

Real serving traffic mutates the graph, but every matrix in the repo is
frozen at engine build time (the process backend even copies the CSC arrays
into shared memory once).  :class:`DeltaLog` records edge updates — insert,
reweight, delete — against an immutable base matrix, and :func:`build_patch`
turns the log into a *patch matrix* that lets SpMSpV run as

    ``y = splice(base_kernel(A, x), patch_kernel(P, x))``

with **bit-identical** results to rebuilding the matrix from scratch.

The patch trick
---------------
``build_patch`` produces a full-height matrix ``P`` that contains the
*effective* entries (base entries minus deletes/overwrites, plus surviving
updates) of every row touched by the delta, and nothing else.  Because ``P``
has the same shape as the base, a kernel run on ``P`` uses the *same* input
vector, mask and semiring as the base run — no index remapping.  Splicing
then drops the stale touched-row entries from the base output and merges in
the patch output.  For every kernel in the registry the per-row addend
stream of ``P`` equals the one a rebuilt matrix would produce for that row
(CSC column order is preserved by :meth:`CSCMatrix.from_coo`'s stable sort),
so each output value is bitwise identical — including under non-commutative
``select``-style semirings.

Update semantics
----------------
* latest-wins per ``(row, col)``: later log entries shadow earlier ones;
* inserting an existing edge is a reweight;
* deleting an absent edge is a no-op;
* values are cast to the base matrix dtype at patch/compaction time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array
from ..errors import DimensionMismatchError, FormatError
from .coo import COOMatrix
from .csc import CSCMatrix
from .sparse_vector import SparseVector

__all__ = [
    "DeltaLog",
    "check_updates",
    "build_patch",
    "apply_delta",
    "splice_overlay",
]


def check_updates(shape, rows, cols, values=None
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one batch of edge updates against a matrix ``shape``.

    Returns ``(rows, cols, values)`` as index arrays and a float64 value
    array: a scalar ``values`` is broadcast to every edge, and ``None``
    (a batch of deletions) becomes zeros.  Raises :class:`FormatError` for
    arrays of unequal length and :class:`DimensionMismatchError` for
    out-of-range coordinates.  Every engine's ``apply_updates`` validates
    through here, so all of them reject a bad batch the same way.
    """
    rows = as_index_array(rows)
    cols = as_index_array(cols)
    if len(rows) != len(cols):
        raise FormatError(
            f"update arrays must have equal length, got {len(rows)} and {len(cols)}")
    m, n = shape
    if len(rows) and (rows.min() < 0 or rows.max() >= m):
        raise DimensionMismatchError(f"update row out of range for {m} rows")
    if len(cols) and (cols.min() < 0 or cols.max() >= n):
        raise DimensionMismatchError(f"update col out of range for {n} cols")
    if values is None:
        return rows, cols, np.zeros(len(rows))
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0:
        values = np.broadcast_to(values, rows.shape).copy()
    if values.shape != rows.shape:
        raise FormatError("values must match update index arrays")
    return rows, cols, values


class DeltaLog:
    """An append-only log of edge updates against a fixed matrix shape.

    The log stores raw ``(row, col, value, deleted)`` events in arrival
    order; :meth:`resolved` collapses them latest-wins per edge.  Instances
    are cheap: appending a batch is O(batch) and resolution is cached until
    the next append.
    """

    __slots__ = ("shape", "_rows", "_cols", "_vals", "_dels", "_count", "_resolved")

    def __init__(self, shape):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise FormatError(f"invalid delta shape {shape!r}")
        self.shape = (m, n)
        self._rows: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        self._vals: List[np.ndarray] = []
        self._dels: List[np.ndarray] = []
        self._count = 0
        self._resolved: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def _append(self, rows, cols, vals, deleted: bool) -> int:
        rows, cols, vals = check_updates(self.shape, rows, cols, vals)
        if len(rows) == 0:
            return 0
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)
        self._dels.append(np.full(len(rows), deleted, dtype=bool))
        self._count += len(rows)
        self._resolved = None
        return len(rows)

    def set_edges(self, rows, cols, values) -> int:
        """Insert or reweight edges; returns the number of logged events."""
        return self._append(rows, cols, values, deleted=False)

    def delete_edges(self, rows, cols) -> int:
        """Mark edges deleted (no-op for absent edges at resolution time)."""
        return self._append(rows, cols, None, deleted=True)

    def clear(self) -> None:
        self._rows, self._cols, self._vals, self._dels = [], [], [], []
        self._count = 0
        self._resolved = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of logged (pre-resolution) update events."""
        return self._count

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    def resolved(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Collapse the log latest-wins; returns ``(rows, cols, vals, deleted)``.

        The returned arrays are sorted by ``(row, col)`` and contain one
        entry per distinct touched edge (deletes included, flagged).
        """
        if self._resolved is None:
            if self._count == 0:
                empty_idx = np.empty(0, dtype=INDEX_DTYPE)
                self._resolved = (empty_idx, empty_idx.copy(),
                                  np.empty(0, dtype=np.float64),
                                  np.empty(0, dtype=bool))
            else:
                rows = np.concatenate(self._rows)
                cols = np.concatenate(self._cols)
                vals = np.concatenate(self._vals)
                dels = np.concatenate(self._dels)
                keys = rows.astype(np.int64) * self.shape[1] + cols
                order = np.argsort(keys, kind="stable")
                ks = keys[order]
                last = np.empty(len(ks), dtype=bool)
                last[-1] = True
                np.not_equal(ks[1:], ks[:-1], out=last[:-1])
                pick = order[last]
                self._resolved = (rows[pick], cols[pick], vals[pick], dels[pick])
        return self._resolved

    @property
    def entries(self) -> int:
        """Number of distinct edges touched after latest-wins resolution."""
        return int(len(self.resolved()[0]))

    def touched_rows(self) -> np.ndarray:
        """Boolean length-``nrows`` flag array of rows with any resolved update."""
        flags = np.zeros(self.shape[0], dtype=bool)
        flags[self.resolved()[0]] = True
        return flags

    def slice_rows(self, row_lo: int, row_hi: int) -> "DeltaLog":
        """Return a new log holding the events in ``[row_lo, row_hi)``,
        re-based to strip-local row coordinates (event order preserved)."""
        if not (0 <= row_lo <= row_hi <= self.shape[0]):
            raise DimensionMismatchError(
                f"row range [{row_lo}, {row_hi}) out of bounds for {self.shape[0]} rows")
        out = DeltaLog((row_hi - row_lo, self.shape[1]))
        for rows, cols, vals, dels in zip(self._rows, self._cols, self._vals, self._dels):
            keep = (rows >= row_lo) & (rows < row_hi)
            if not keep.any():
                continue
            out._rows.append(rows[keep] - row_lo)
            out._cols.append(cols[keep])
            out._vals.append(vals[keep])
            out._dels.append(dels[keep])
            out._count += int(keep.sum())
        return out

    def stats(self) -> dict:
        return {
            "events": self._count,
            "entries": self.entries,
            "touched_rows": int(self.touched_rows().sum()) if self._count else 0,
        }


# ---------------------------------------------------------------------- #
# patch construction / compaction
# ---------------------------------------------------------------------- #
def _check_base(base: CSCMatrix, delta: DeltaLog) -> None:
    if base.shape != delta.shape:
        raise DimensionMismatchError(
            f"delta shape {delta.shape} does not match base shape {base.shape}")


def _base_survivors(base: CSCMatrix, upd_keys: np.ndarray,
                    row_mask: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base triplets restricted to ``row_mask`` (or all rows) minus every
    edge present in ``upd_keys`` (sorted ``row*ncols+col`` update keys)."""
    cols = np.repeat(np.arange(base.ncols, dtype=INDEX_DTYPE),
                     np.diff(base.indptr))
    rows = base.indices
    vals = base.data
    if row_mask is not None:
        keep = row_mask[rows]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if len(upd_keys) and len(rows):
        keys = rows.astype(np.int64) * base.ncols + cols
        pos = np.searchsorted(upd_keys, keys)
        pos[pos == len(upd_keys)] = len(upd_keys) - 1
        survive = upd_keys[pos] != keys
        rows, cols, vals = rows[survive], cols[survive], vals[survive]
    return rows, cols, vals


def build_patch(base: CSCMatrix, delta: DeltaLog) -> Tuple[CSCMatrix, np.ndarray]:
    """Return ``(patch, touched)`` for overlay execution.

    ``patch`` is a full-height CSC matrix holding the effective entries of
    every delta-touched row (and nothing else); ``touched`` is the boolean
    row flag array.  ``base_result`` entries whose row is touched are stale
    and must be replaced by the patch kernel's output — see
    :func:`splice_overlay`.
    """
    _check_base(base, delta)
    u_rows, u_cols, u_vals, u_dels = delta.resolved()
    touched = np.zeros(base.nrows, dtype=bool)
    touched[u_rows] = True
    upd_keys = u_rows.astype(np.int64) * base.ncols + u_cols
    b_rows, b_cols, b_vals = _base_survivors(base, upd_keys, touched)
    live = ~u_dels
    rows = np.concatenate([b_rows, u_rows[live]])
    cols = np.concatenate([b_cols, u_cols[live]])
    vals = np.concatenate([b_vals.astype(base.dtype, copy=False),
                           u_vals[live].astype(base.dtype, copy=False)])
    patch = CSCMatrix.from_coo(COOMatrix(base.shape, rows, cols, vals, check=False),
                               sum_duplicates=False)
    return patch, touched


def apply_delta(base: CSCMatrix, delta: DeltaLog) -> CSCMatrix:
    """Materialise the effective matrix ``base ⊕ delta`` (full rebuild).

    This is the compaction path: O(nnz log nnz) for the lexsort inside
    :meth:`CSCMatrix.from_coo`, versus O(nnz + patch) for overlay execution
    — the break-even the compaction policy prices.
    """
    _check_base(base, delta)
    if delta.is_empty:
        return base
    u_rows, u_cols, u_vals, u_dels = delta.resolved()
    upd_keys = u_rows.astype(np.int64) * base.ncols + u_cols
    b_rows, b_cols, b_vals = _base_survivors(base, upd_keys, None)
    live = ~u_dels
    rows = np.concatenate([b_rows, u_rows[live]])
    cols = np.concatenate([b_cols, u_cols[live]])
    vals = np.concatenate([b_vals.astype(base.dtype, copy=False),
                           u_vals[live].astype(base.dtype, copy=False)])
    return CSCMatrix.from_coo(COOMatrix(base.shape, rows, cols, vals, check=False),
                              sum_duplicates=False)


def splice_overlay(y_base: SparseVector, y_patch: SparseVector,
                   touched: np.ndarray) -> SparseVector:
    """Replace the touched-row entries of ``y_base`` with ``y_patch``.

    Both vectors come from the *same* kernel on the *same* input and mask,
    so their index sets are disjoint after dropping the stale touched rows
    from the base output.  If both inputs are sorted the merge preserves
    sorted order (stable argsort over distinct indices), keeping the result
    bit-identical to a sorted single-matrix run.
    """
    keep = ~touched[y_base.indices]
    indices = np.concatenate([y_base.indices[keep], y_patch.indices])
    values = np.concatenate([y_base.values[keep], y_patch.values])
    out_sorted = bool(y_base.sorted and y_patch.sorted)
    if out_sorted and len(indices) > 1:
        order = np.argsort(indices, kind="stable")
        indices = indices[order]
        values = values[order]
    return SparseVector(y_base.n, indices, values, sorted=out_sorted, check=False)
