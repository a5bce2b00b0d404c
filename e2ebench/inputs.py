"""Seeded benchmark inputs, generated by the benchmark itself.

The program under test only ever receives edge triplets, source vertices,
frontier vectors and update batches built here, so a change to the
program's own generators cannot change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Graph500 R-MAT quadrant probabilities (d = 1 - a - b - c)
RMAT_ABC = (0.57, 0.19, 0.19)


@dataclass(frozen=True)
class Triplets:
    """A square matrix as duplicate-free ``(rows, cols, vals)`` triplets.

    ``A[i, j] != 0`` is the edge ``j -> i``; every graph here is symmetric.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(len(self.rows))


def _symmetric_triplets(n: int, src: np.ndarray, dst: np.ndarray,
                        rng: np.random.Generator) -> Triplets:
    keep = src != dst
    rows = np.concatenate([src[keep], dst[keep]])
    cols = np.concatenate([dst[keep], src[keep]])
    keys = np.unique(rows * n + cols)
    rows, cols = keys // n, keys % n
    vals = rng.random(len(keys)) + 0.05
    return Triplets(n, rows.astype(np.int64), cols.astype(np.int64), vals)


def rmat(seed: int, scale: int, edge_factor: int = 16) -> Triplets:
    """Graph500-parameter R-MAT graph with ``2**scale`` vertices (scale-free)."""
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    a, b, c = RMAT_ABC
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        right = (r >= a) & (r < a + b)
        down = (r >= a + b) & (r < a + b + c)
        both = r >= a + b + c
        src += (1 << level) * (down | both)
        dst += (1 << level) * (right | both)
    perm = rng.permutation(n)
    return _symmetric_triplets(n, perm[src], perm[dst], rng)


def tri_torus(seed: int, side: int) -> Triplets:
    """Triangulated ``side x side`` 2-D mesh with periodic boundaries.

    High diameter (``side`` levels) and six neighbours per vertex, like
    the triangulated meshes the paper calls high-diameter.  The wrap-around
    makes every vertex look alike, so a BFS does the same work from any
    source and the seed changes only the edge values: the workload's
    figures do not depend on which sources the seed drew.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(side * side, dtype=np.int64).reshape(side, side)
    right = np.roll(idx, -1, axis=1)
    down = np.roll(idx, -1, axis=0)
    diag = np.roll(down, -1, axis=1)
    src = np.concatenate([idx.ravel()] * 3)
    dst = np.concatenate([right.ravel(), down.ravel(), diag.ravel()])
    return _symmetric_triplets(side * side, src, dst, rng)


def giant_component_sources(graph: Triplets, count: int, seed: int) -> list:
    """``count`` distinct seeded vertices of the largest connected component."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adj = sp.csr_matrix((np.ones(graph.nnz), (graph.rows, graph.cols)),
                        shape=(graph.n, graph.n))
    _, labels = connected_components(adj, directed=False)
    giant = np.flatnonzero(labels == np.bincount(labels).argmax())
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.choice(giant, size=count, replace=False)]


def frontier(rng: np.random.Generator, n: int, lo: int, hi: int):
    """A sorted random frontier: ``(indices, values)`` with lo..hi entries."""
    k = int(rng.integers(lo, hi + 1))
    idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    return idx, rng.random(k) + 0.1


def update_batch(rng: np.random.Generator, n: int, size: int):
    """``size`` distinct edge insertions/reweights ``(rows, cols, vals)``."""
    keys = np.unique(rng.integers(0, n * n, size=size))
    while len(keys) < size:
        keys = np.unique(np.concatenate([keys, rng.integers(0, n * n, size=size)]))[:size]
    keys = rng.permutation(keys)
    return keys // n, keys % n, rng.random(size) + 0.05
