"""SciPy oracle and SciPy floor for every answer the benchmark checks.

The oracle keeps its own copy of each matrix (SciPy CSC) plus an overlay of
the updates applied so far, replayed in the order the program applied them.
Semirings whose add is ``min`` are compared exactly: the answer is a
minimum over the same floating-point operands, whatever the order.  Float
``plus_times`` is compared with ``allclose``, because the program's
summation order is not yet a documented contract.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from inputs import Triplets

#: relative tolerance for float PLUS_TIMES answers (a few ulps per addend)
PLUS_RTOL = 1e-9


def scipy_csc(graph: Triplets) -> sp.csc_matrix:
    return sp.csc_matrix((graph.vals, (graph.rows, graph.cols)),
                         shape=(graph.n, graph.n))


class Oracle:
    """Base matrix plus an ordered overlay of edge updates."""

    def __init__(self, base: sp.csc_matrix):
        self.base = base
        self.n = base.shape[0]
        #: column -> {row: value}; later updates overwrite earlier ones
        self.overlay: Dict[int, Dict[int, float]] = {}

    @classmethod
    def of(cls, graph: Triplets) -> "Oracle":
        base = scipy_csc(graph)
        base.sort_indices()
        return cls(base)

    def fresh(self) -> "Oracle":
        """An oracle over the same base matrix with no updates applied."""
        return Oracle(self.base)

    def apply_updates(self, rows, cols, vals) -> None:
        for r, c, v in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                           np.asarray(vals).tolist()):
            self.overlay.setdefault(c, {})[r] = v

    def floor_multiply(self, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """The SciPy floor: ``A[:, idx] @ vals`` on the base matrix."""
        return self.base[:, idx] @ vals

    def columns(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, positions in idx, values)`` of the effective ``A[:, idx]``."""
        sub = self.base[:, idx].tocoo()
        rows, pos, vals = sub.row.astype(np.int64), sub.col.astype(np.int64), sub.data
        touched = [p for p, c in enumerate(idx.tolist()) if c in self.overlay]
        if not touched:
            return rows, pos, vals
        drop = np.zeros(len(rows), dtype=bool)
        extra_r, extra_p, extra_v = [], [], []
        for p in touched:
            col = self.overlay[int(idx[p])]
            hit = pos == p
            drop |= hit & np.isin(rows, np.fromiter(col, dtype=np.int64))
            for r, v in col.items():
                extra_r.append(r)
                extra_p.append(p)
                extra_v.append(v)
        keep = ~drop
        return (np.concatenate([rows[keep], np.array(extra_r, dtype=np.int64)]),
                np.concatenate([pos[keep], np.array(extra_p, dtype=np.int64)]),
                np.concatenate([vals[keep], np.array(extra_v, dtype=np.float64)]))

    def check_multiply(self, idx: np.ndarray, xvals: np.ndarray, semiring: str,
                       out_idx: np.ndarray, out_vals: np.ndarray) -> bool:
        """Whether ``(out_idx, out_vals)`` is ``A_eff[:, idx] (x) x`` in ``semiring``."""
        rows, pos, vals = self.columns(idx)
        want_idx = np.unique(rows)
        got = np.asarray(out_idx, dtype=np.int64)
        order = np.argsort(got, kind="stable")
        if not np.array_equal(got[order], want_idx):
            return False
        got_vals = np.asarray(out_vals, dtype=np.float64)[order]
        if semiring == "plus_times":
            want = np.bincount(rows, weights=vals * xvals[pos], minlength=self.n)
            return bool(np.allclose(got_vals, want[want_idx], rtol=PLUS_RTOL, atol=0.0))
        if semiring == "min_plus":
            operand = vals + xvals[pos]
        elif semiring == "min_select2nd":
            operand = xvals[pos]
        else:
            raise ValueError(f"no oracle for semiring {semiring!r}")
        want = np.full(self.n, np.inf)
        np.minimum.at(want, rows, operand)
        return bool(np.array_equal(got_vals, want[want_idx]))


def bfs_oracle(graph: Triplets, sources) -> Dict[int, np.ndarray]:
    """Hop distance from each source (``-1`` if unreachable), via csgraph."""
    adj = sp.csr_matrix((np.ones(graph.nnz), (graph.cols, graph.rows)),
                        shape=(graph.n, graph.n))
    dist = csgraph.shortest_path(adj, method="D", unweighted=True,
                                 indices=list(sources))
    levels = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    return {int(s): levels[i] for i, s in enumerate(sources)}


def valid_parents(csc: sp.csc_matrix, source: int, levels: np.ndarray,
                  parents: np.ndarray) -> bool:
    """Every reached non-source vertex has a parent one level up and an edge to it."""
    reached = np.flatnonzero(levels >= 0)
    child = reached[reached != source]
    par = parents[child]
    if parents[source] != source or np.any(par < 0):
        return False
    if not np.array_equal(levels[par], levels[child] - 1):
        return False
    return bool(np.all(np.asarray(csc[child, par]).ravel() != 0))


def floor_bfs(csc: sp.csc_matrix, source: int) -> np.ndarray:
    """The SciPy floor for one traversal: the same level-synchronous BFS,
    one ``A[:, frontier]`` column gather per level.

    It has the engine's structure (a Python loop over levels around a
    compiled gather), so host load moves it the way it moves the engine
    and their ratio stays put from run to run.
    """
    levels = np.full(csc.shape[0], -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source])
    level = 0
    while len(frontier):
        level += 1
        reached = np.unique(csc[:, frontier].indices)
        frontier = reached[levels[reached] < 0]
        levels[frontier] = level
    return levels


def csgraph_bfs(csr_t: sp.csr_matrix, source: int) -> None:
    """The fastest SciPy traversal: csgraph breadth-first order (compiled)."""
    csgraph.breadth_first_order(csr_t, source, directed=True,
                                return_predecessors=True)
