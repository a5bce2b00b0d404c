"""The unified SpMSpV execution engine.

:class:`SpMSpVEngine` is the one place where three cross-cutting concerns
live, instead of being re-plumbed by every graph algorithm:

* **Persistent workspaces** (§III-A "Memory allocation") — the engine owns
  one :class:`~repro.core.workspace.SpMSpVWorkspace` per matrix and threads
  it through every kernel call, so an iterative algorithm performs zero
  per-iteration ``BucketStore``/SPA allocations.
* **Adaptive dispatch** (§V future work) — with ``algorithm="auto"`` each
  call picks between the vector-driven bucket algorithm and the
  matrix-driven GraphMat baseline.  The choice is *seeded* by the paper's
  density heuristic (switch once ``nnz(x)/n`` passes the threshold) and then
  *refined online*: every executed kernel's
  :class:`~repro.parallel.metrics.ExecutionRecord` is priced with the
  platform cost model, and per-algorithm linear cost models ``cost ≈ α + β·f``
  are fit from those observations.  Once every candidate has enough samples
  the learned models take over from the static threshold, with a periodic
  exploration call keeping the losing model fresh.
* **Batched multi-vector execution** — :meth:`SpMSpVEngine.multiply_many`
  runs a block of input vectors (multi-source BFS frontiers, blocked
  PageRank deltas) through one dispatch decision and one shared workspace,
  and — when the block cost model favours it — through the genuinely fused
  block kernel (:func:`repro.core.spmspv_block.spmspv_bucket_block`): one
  gather and one scatter for the whole vector block instead of a per-vector
  loop.

:func:`engine_for` caches engines per ``(matrix, context)`` so the
backward-compatible :func:`repro.core.dispatch.spmspv` entry point also
executes through the engine.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..formats.csc import CSCMatrix
from ..formats.delta import DeltaLog, apply_delta, build_patch, splice_overlay
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..machine.cost_model import block_features, cost_model_for, dispatch_features
from ..parallel.context import ExecutionContext, default_context
from ..parallel.metrics import ExecutionRecord, PhaseRecord
from ..semiring import PLUS_TIMES, Semiring
from .result import SpMSpVResult
from .workspace import SpMSpVWorkspace

#: candidate algorithms the adaptive policy arbitrates between by default:
#: one vector-driven (bucket) and one matrix-driven (GraphMat) kernel.
DEFAULT_CANDIDATES: Tuple[str, ...] = ("bucket", "graphmat")

#: algorithms whose work is driven by the matrix structure, not nnz(x)
MATRIX_DRIVEN = frozenset({"graphmat"})

#: default compaction break-even: rebuild a matrix (or strip) once the
#: delta-touched rows carry more than this fraction of its nonzeros.  The
#: overlay pays ~c1·patch_nnz extra kernel work per multiply while a rebuild
#: pays ~c2·nnz·log(nnz) once, so over an expected query horizon H the
#: break-even is patch_nnz > (c2·log(nnz)/(H·c1))·nnz — a constant fraction
#: for the steady-state serving workloads this repo targets.
COMPACT_FRACTION = 0.25


def merge_overlay_record(base: ExecutionRecord,
                         patch: ExecutionRecord) -> ExecutionRecord:
    """One record for a base ⊕ delta overlay execution.

    The patch kernel's phases are appended under ``delta:``-prefixed names so
    the cost model prices the overlay's extra work (and reporting can see
    it), without colliding with the base phases that per-strip record merging
    matches by name.
    """
    phases = list(base.phases)
    phases.extend(PhaseRecord(name="delta:" + p.name, parallel=p.parallel,
                              thread_metrics=p.thread_metrics,
                              serial_metrics=p.serial_metrics,
                              barriers=p.barriers)
                  for p in patch.phases)
    return ExecutionRecord(algorithm=base.algorithm,
                           num_threads=base.num_threads, phases=phases,
                           info=dict(base.info),
                           wall_time_s=base.wall_time_s + patch.wall_time_s)


def _overlay_result(base: SpMSpVResult, patch_result: SpMSpVResult,
                    patch: CSCMatrix, touched: np.ndarray) -> SpMSpVResult:
    """A base result corrected by the same call run on the delta patch."""
    return SpMSpVResult(
        vector=splice_overlay(base.vector, patch_result.vector, touched),
        record=merge_overlay_record(base.record, patch_result.record),
        info=dict(base.info, delta_patch_nnz=patch.nnz))


@lru_cache(maxsize=None)
def _accepts_workspace(fn) -> bool:
    """Whether a registered kernel supports the shared ``workspace=`` signature."""
    try:
        return "workspace" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/partials
        return False


class CostFit:
    """Online multi-feature least-squares fit of ``cost ≈ w · φ``.

    A running accumulation of the normal equations over observed
    ``(features, cost)`` pairs, solved with a small ridge term so the
    naturally collinear features (``nnz(x)``, density and nzc all grow
    together on one matrix) stay well-posed.  Two samples are enough to
    predict — the seed heuristic hands over early and the engine keeps
    exploring so the fit tracks the workload.  This generalizes the previous
    single-feature ``alpha + beta · nnz(x)`` fit to the richer
    (nnz(x), density, nzc) features of
    :func:`repro.machine.cost_model.dispatch_features` and the block
    features of :func:`repro.machine.cost_model.block_features`.
    """

    __slots__ = ("dim", "count", "xtx", "xty", "_weights")

    def __init__(self, dim: int = 4):
        self.dim = int(dim)
        self.count = 0
        self.xtx = np.zeros((self.dim, self.dim))
        self.xty = np.zeros(self.dim)
        self._weights: Optional[np.ndarray] = None

    def observe(self, features: np.ndarray, cost_ms: float) -> None:
        phi = np.asarray(features, dtype=np.float64)
        self.count += 1
        self.xtx += np.outer(phi, phi)
        self.xty += phi * cost_ms
        self._weights = None  # refit lazily on the next prediction

    def weights(self) -> Optional[np.ndarray]:
        """The current ridge-regularized fit (None until enough samples)."""
        if self.count < 2:
            return None
        if self._weights is None:
            # scale-aware ridge: tiny against the data, big enough to pin the
            # null space of collinear features
            lam = 1e-8 * (np.trace(self.xtx) / self.dim + 1.0)
            self._weights = np.linalg.solve(
                self.xtx + lam * np.eye(self.dim), self.xty)
        return self._weights

    def predict(self, features: np.ndarray) -> Optional[float]:
        """Predicted cost for a feature vector (None until enough samples)."""
        w = self.weights()
        if w is None:
            return None
        return max(float(w @ np.asarray(features, dtype=np.float64)), 0.0)


def _ranked_selection(fits: Dict[str, CostFit], phi: np.ndarray,
                      explore_every: int, modeled_count: int
                      ) -> Optional[Tuple[str, bool]]:
    """Fit-driven choice among candidates; None while any fit is cold.

    ``modeled_count`` is the 1-based index of this modeled decision — every
    ``explore_every``-th one deliberately runs the predicted runner-up to
    keep the losing model fresh.  Shared by the per-call and fused-vs-looped
    selections of every engine.
    """
    predictions = {name: fit.predict(phi) for name, fit in fits.items()}
    if not all(p is not None for p in predictions.values()):
        return None
    ranked = sorted(fits, key=lambda name: predictions[name])
    if explore_every > 0 and len(ranked) > 1 and modeled_count % explore_every == 0:
        return ranked[1], True
    return ranked[0], False


def _mask_keep_fraction(masks: Optional[Sequence[Optional[SparseVector]]],
                        mask_complement: bool, k: int, nrows: int) -> float:
    """Expected fraction of scattered pairs the early masks let through.

    The mask-selectivity feature of the block cost fits: the structural
    densities of the masks (``nnz/m``, complemented if asked), averaged over
    the batch with maskless vectors counting as 1.0.  Shared by every engine.
    """
    if masks is None or k == 0:
        return 1.0
    m = max(nrows, 1)
    total = 0.0
    for mask in masks:
        if mask is None:
            total += 1.0
        else:
            density = mask.nnz / m
            total += (1.0 - density) if mask_complement else density
    return total / k


@dataclass
class EngineCall:
    """One dispatch decision of the engine (the unit of the reporting layer)."""

    index: int
    algorithm: str
    #: what the caller asked for ('auto' or a fixed name)
    requested: str
    f: int
    density: float
    cost_ms: float
    #: True when the adaptive policy deliberately ran the predicted runner-up
    explored: bool = False
    #: batch id for calls issued through multiply_many, else None
    batch: Optional[int] = None
    #: True when the call was served by the fused block kernel
    fused: bool = False


class EngineBase:
    """What every SpMSpV engine shares around the execution of one call.

    The monolithic :class:`SpMSpVEngine` and the strip engines of
    :mod:`repro.core.strip_engine` differ only in how a call executes.
    Everything around it lives here:

    * the policy arguments (``algorithm``, ``candidates``,
      ``density_threshold``, ``explore_every``) and the selection they
      drive: the paper's §V density seed, handing over to online
      :class:`CostFit` models over the subclass's ``call_features``;
    * the :class:`EngineCall` history, its lifetime totals and trimming;
    * the batch planning of ``multiply_many`` — argument checks, one kernel
      choice per batch and the fused-vs-looped choice — and its looped path;
    * the context-manager lifecycle and the summary keys every engine reports.

    Subclasses define ``call_features``, ``select_algorithm`` and
    ``multiply``; one with a fused block path also defines ``_block_phi``
    and ``_multiply_fused``.
    """

    #: width of the subclass's ``call_features`` (the kernel fits' input)
    _fit_dim = 4

    def __init__(self, matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "auto",
                 candidates: Sequence[str] = DEFAULT_CANDIDATES,
                 density_threshold: Optional[float] = None,
                 explore_every: int = 8):
        from .dispatch import AUTO_DENSITY_SWITCH  # late: avoids import cycle

        self.matrix = matrix
        self.ctx = ctx if ctx is not None else default_context()
        self.algorithm = algorithm
        self.candidates = tuple(candidates)
        if not self.candidates:
            raise ValueError("engine needs at least one candidate algorithm")
        self.density_threshold = (density_threshold if density_threshold is not None
                                  else AUTO_DENSITY_SWITCH)
        self.explore_every = int(explore_every)
        #: recent dispatch decisions (trimmed beyond max_history; lifetime
        #: aggregates live in total_calls / total_cost_ms / total_explored)
        self.history: List[EngineCall] = []
        self.max_history = 4096
        self.total_calls = 0
        self.total_cost_ms = 0.0
        self.total_explored = 0
        self._models: Dict[str, CostFit] = {
            name: CostFit(dim=self._fit_dim) for name in self.candidates}
        #: wall-clock fits of blocked execution ('fused' vs 'looped'), over the
        #: block features (k, total nnz, union width, sharing ratio, mask
        #: selectivity, merge-segment count)
        self._block_fits: Dict[str, CostFit] = {
            mode: CostFit(dim=7) for mode in ("fused", "looped")}
        self._price = cost_model_for(self.ctx.platform)
        self._modeled_calls = 0
        self._modeled_blocks = 0
        self._batches = 0
        self._fused_batches = 0
        self.compact_fraction = COMPACT_FRACTION
        self.compactions = 0
        # one call at a time per engine: workspaces are not reentrant, and
        # the batch entry points hold the lock across their per-vector calls
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # adaptive selection
    # ------------------------------------------------------------------ #
    def _seed_choice(self, density: float) -> str:
        """The paper's §V heuristic: matrix-driven once the vector densifies."""
        matrix_driven = [c for c in self.candidates if c in MATRIX_DRIVEN]
        vector_driven = [c for c in self.candidates if c not in MATRIX_DRIVEN]
        if density >= self.density_threshold and matrix_driven:
            return matrix_driven[0]
        return vector_driven[0] if vector_driven else self.candidates[0]

    def _select(self, x: SparseVector, phi: np.ndarray) -> Tuple[str, bool]:
        """The kernel for ``x`` with call features ``phi``: ``(name, explored)``.

        The density seed decides until every candidate's fit is trained.
        """
        choice = _ranked_selection(self._models, phi, self.explore_every,
                                   self._modeled_calls + 1)
        if choice is not None:
            self._modeled_calls += 1
            return choice
        return self._seed_choice(x.nnz / max(x.n, 1)), False

    def _record_call(self, algorithm: str, requested: str, x: SparseVector,
                     cost_ms: float, explored: bool, batch: Optional[int],
                     fused: bool = False) -> None:
        """Append one dispatch decision to the history and the lifetime totals."""
        self.history.append(EngineCall(
            index=self.total_calls, algorithm=algorithm, requested=requested,
            f=x.nnz, density=x.nnz / max(x.n, 1), cost_ms=cost_ms,
            explored=explored, batch=batch, fused=fused))
        self.total_calls += 1
        self.total_cost_ms += cost_ms
        self.total_explored += int(explored)
        if len(self.history) > 2 * self.max_history:
            # cached engines live for the process: keep memory bounded
            del self.history[:len(self.history) - self.max_history]

    # ------------------------------------------------------------------ #
    # blocked execution
    # ------------------------------------------------------------------ #
    def _block_eligible(self, xs: List[SparseVector], requested: str,
                        kwargs: Dict) -> bool:
        """Whether this batch can run through the fused block kernel.

        The fused kernel is the block variant of the bucket algorithm, so the
        batch must have resolved to ``"bucket"``; it also needs ≥ 2 vectors of
        one dtype (mixed-dtype blocks would promote the value slab and break
        bit-identity with per-vector calls) and no kernel-specific kwargs.
        """
        return (requested == "bucket" and len(xs) >= 2 and not kwargs
                and len({x.dtype for x in xs}) == 1)

    @staticmethod
    def _block_stats(xs: List[SparseVector]) -> Tuple[int, int]:
        """``(total_nnz, union_nnz)`` of a batch, without building the block.

        The fused-vs-looped decision only needs these two scalars; the full
        :class:`SparseVectorBlock` (value slab, membership mask, positions)
        is O(union x k) and is built only for batches that actually fuse.
        """
        total_nnz = sum(x.nnz for x in xs)
        nonempty = [x.indices for x in xs if x.nnz]
        union_nnz = int(len(np.unique(np.concatenate(nonempty)))) if nonempty else 0
        return total_nnz, union_nnz

    def _select_block_mode(self, phi: np.ndarray, k: int, sharing: float
                           ) -> Tuple[str, bool]:
        """Fused or looped execution for one block, from its block features.

        Seeded by a sharing/width heuristic — fuse wide blocks (k ≥ 4), and
        narrower ones only when their column unions overlap enough for the
        shared gather to pay — then refined online from *measured wall time*
        of fused and looped batches over the block features
        ``(k, total nnz, union width, sharing)``.  Wall time, not simulated
        time, because the two paths do the same algorithmic work: fusion wins
        by eliminating per-vector dispatch and gather overhead, which only
        the clock sees.
        """
        choice = _ranked_selection(self._block_fits, phi, self.explore_every,
                                   self._modeled_blocks + 1)
        if choice is not None:
            self._modeled_blocks += 1
            return choice
        if k >= 4 or sharing >= 1.5:
            return "fused", False
        return "looped", False

    def _plan_batch(self, xs: Sequence[SparseVector],
                    masks: Optional[Sequence[Optional[SparseVector]]],
                    mask_complement: bool, algorithm: Optional[str],
                    block_mode: str, block_merge: str, kwargs: Dict
                    ) -> Tuple[List[SparseVector], int, str, bool, str,
                               Optional[np.ndarray]]:
        """Argument checks and the two decisions of one ``multiply_many`` batch.

        Under ``"auto"`` the whole batch gets one kernel, chosen for its
        *densest* vector (the worst case for a vector-driven kernel).  A
        batch the fused block kernel can serve then runs fused or looped per
        :meth:`_select_block_mode`, unless ``block_mode`` forces the choice
        (forcing ``"fused"`` on an ineligible batch — e.g. a single surviving
        BFS frontier — quietly loops, which is bit-identical anyway).

        Returns ``(xs, batch, requested, explored, mode, phi)``: ``explored``
        flags the exploration the chosen path made, and ``phi`` holds the
        block features of an eligible batch (else None).
        """
        if block_mode not in ("auto", "fused", "looped"):
            raise ValueError(f"block_mode must be auto|fused|looped, got {block_mode!r}")
        if block_merge not in ("segmented", "global"):
            raise ValueError(
                f"block_merge must be segmented|global, got {block_merge!r}")
        xs = list(xs)
        if masks is not None and len(masks) != len(xs):
            raise ValueError(f"got {len(xs)} vectors but {len(masks)} masks")
        batch = self._batches
        self._batches += 1
        requested = algorithm if algorithm is not None else self.algorithm
        explored = False
        if requested == "auto" and xs:
            densest = max(xs, key=lambda x: x.nnz)
            requested, explored = self.select_algorithm(densest)
        mode = "looped"
        phi: Optional[np.ndarray] = None
        if self._block_eligible(xs, requested, kwargs):
            total_nnz, union_nnz = self._block_stats(xs)
            phi = self._block_phi(len(xs), total_nnz, union_nnz,
                                  _mask_keep_fraction(masks, mask_complement,
                                                      len(xs), self.matrix.nrows))
            if block_mode == "auto":
                mode, block_explored = self._select_block_mode(
                    phi, len(xs), total_nnz / max(union_nnz, 1))
                explored = explored or (block_explored and mode == "fused")
            else:
                mode = block_mode
        return xs, batch, requested, explored, mode, phi

    def _multiply_looped(self, xs: List[SparseVector],
                         phi: Optional[np.ndarray], *, batch: int,
                         requested: str, explored: bool,
                         masks: Optional[Sequence[Optional[SparseVector]]],
                         kwargs: Dict, **call) -> List[SpMSpVResult]:
        """The per-vector loop of a batch, observed by the looped block fit."""
        # observed window spans the same per-call pricing/bookkeeping the
        # fused window spans, so the two wall-time fits stay comparable
        t0 = time.perf_counter()
        results = [self.multiply(
            x, mask=masks[i] if masks is not None else None,
            algorithm=requested, _batch=batch,
            # one exploration decision per batch: flag only its first call
            _explored=explored and i == 0, **call, **kwargs)
            for i, x in enumerate(xs)]
        if phi is not None:
            self._block_fits["looped"].observe(
                phi, (time.perf_counter() - t0) * 1e3)
        return results

    # ------------------------------------------------------------------ #
    # lifecycle and introspection (consumed by repro.analysis.reporting)
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release engine resources (the monolithic engine holds none)."""

    def health_stats(self) -> Dict[str, object]:
        """Resilience accounting, shape-compatible across engines.

        An in-process engine has no workers to lose, so every counter is
        zero — serving layers can aggregate health over a mixed engine
        fleet without special-casing."""
        return {"worker_deaths": [], "respawns": 0, "retries": 0,
                "fallback_calls": 0, "fallback_strips": 0, "deadline_hits": 0}

    def __enter__(self) -> "EngineBase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def algorithms_used(self) -> List[str]:
        """Distinct kernels executed, in first-use order."""
        seen: "OrderedDict[str, None]" = OrderedDict()
        for call in self.history:
            seen.setdefault(call.algorithm, None)
        return list(seen)

    @property
    def switch_count(self) -> int:
        """How many times consecutive calls used different algorithms."""
        return sum(1 for a, b in zip(self.history, self.history[1:])
                   if a.algorithm != b.algorithm)

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics of the engine's lifetime (for reporting).

        ``algorithms_used`` and ``switches`` are computed over the retained
        history window (``max_history`` recent calls); the scalar totals are
        lifetime counters.
        """
        return {
            "calls": self.total_calls,
            "batches": self._batches,
            "fused_batches": self._fused_batches,
            "algorithms_used": self.algorithms_used(),
            "switches": self.switch_count,
            "explored_calls": self.total_explored,
            "total_cost_ms": self.total_cost_ms,
            "compactions": self.compactions,
        }


class SpMSpVEngine(EngineBase):
    """Persistent-workspace, adaptively-dispatched SpMSpV executor for one matrix.

    Parameters
    ----------
    matrix:
        The matrix every multiplication of this engine uses.
    ctx:
        Execution context shared by all calls (defaults to a single-threaded
        Edison context).
    algorithm:
        Default policy: a registered kernel name, or ``"auto"`` for adaptive
        per-call selection.  Overridable per call.
    candidates:
        The algorithms the adaptive policy arbitrates between.
    density_threshold:
        The §V density heuristic seeding the adaptive choice before the
        online cost models have enough samples.
    explore_every:
        Once the cost models are trained, every ``explore_every``-th adaptive
        call runs the predicted runner-up instead of the winner, keeping its
        model fresh.  0 disables exploration.
    workspace:
        An externally owned workspace to share (e.g. between engines over the
        same matrix); by default the engine allocates its own.
    """

    def __init__(self, matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None, *,
                 algorithm: str = "auto",
                 candidates: Sequence[str] = DEFAULT_CANDIDATES,
                 density_threshold: Optional[float] = None,
                 explore_every: int = 8,
                 workspace: Optional[SpMSpVWorkspace] = None):
        super().__init__(matrix, ctx, algorithm=algorithm, candidates=candidates,
                         density_threshold=density_threshold,
                         explore_every=explore_every)
        self.workspace = (workspace if workspace is not None
                          else SpMSpVWorkspace(matrix.nrows, dtype=matrix.dtype))
        #: pending edge updates overlaid on self.matrix (see formats.delta)
        self.delta = DeltaLog(matrix.shape)
        self._patch: Optional[Tuple[CSCMatrix, np.ndarray]] = None
        self._row_nnz: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # adaptive selection
    # ------------------------------------------------------------------ #
    def call_features(self, x: SparseVector) -> np.ndarray:
        """The (bias, nnz(x), density, nzc) features of one call on this matrix.

        ``nzc`` is the number of selected columns that are non-empty in the
        matrix — an O(nnz(x)) indptr probe, and the feature that separates
        hub-heavy frontiers from flat ones at equal nnz(x).
        """
        f = x.nnz
        if f:
            nzc = int(np.count_nonzero(
                self.matrix.indptr[x.indices + 1] - self.matrix.indptr[x.indices]))
        else:
            nzc = 0
        return dispatch_features(f, x.n, nzc)

    def select_algorithm(self, x: SparseVector,
                         features: Optional[np.ndarray] = None) -> Tuple[str, bool]:
        """Pick the algorithm for one input vector; returns ``(name, explored)``.

        ``features`` lets a caller that already computed :meth:`call_features`
        (the nzc probe is O(nnz(x))) pass them in instead of recomputing.
        """
        return self._select(x, features if features is not None
                            else self.call_features(x))

    # ------------------------------------------------------------------ #
    # dynamic updates (delta overlay)
    # ------------------------------------------------------------------ #
    def apply_updates(self, rows, cols, values=None) -> Dict[str, object]:
        """Record edge updates against this engine's matrix.

        ``values=None`` deletes the listed edges; otherwise each ``(row,
        col)`` is inserted (or reweighted if present).  Updates take effect
        on the very next multiply via the delta overlay — the base matrix,
        its workspace and the learned cost models all stay warm.  Once the
        delta-touched rows carry more than ``compact_fraction`` of the base
        nonzeros the engine compacts: the effective matrix is rebuilt once
        and the delta resets.
        """
        with self._lock:
            if values is None:
                applied = self.delta.delete_edges(rows, cols)
            else:
                applied = self.delta.set_edges(rows, cols, values)
            self._patch = None
            compacted = self._maybe_compact_locked()
            return {"applied": applied, "delta_entries": self.delta.entries,
                    "compacted": compacted}

    def _overlay_nnz_locked(self) -> int:
        """Upper bound on the patch nnz the overlay pays per multiply."""
        if self._row_nnz is None:
            self._row_nnz = self.matrix.row_counts()
        return int(self._row_nnz[self.delta.touched_rows()].sum()) + self.delta.entries

    def _maybe_compact_locked(self) -> bool:
        if self.delta.is_empty:
            return False
        if self._overlay_nnz_locked() <= self.compact_fraction * max(self.matrix.nnz, 1):
            return False
        return self._compact_locked()

    def _compact_locked(self) -> bool:
        if self.delta.is_empty:
            return False
        self.matrix = apply_delta(self.matrix, self.delta)
        self.delta = DeltaLog(self.matrix.shape)
        self._patch = None
        self._row_nnz = None
        self.compactions += 1
        return True

    def compact(self) -> bool:
        """Fold the pending delta into the base matrix now; True if it ran."""
        with self._lock:
            return self._compact_locked()

    def effective_matrix(self) -> CSCMatrix:
        """The matrix this engine currently computes with (base ⊕ delta)."""
        with self._lock:
            if self.delta.is_empty:
                return self.matrix
            return apply_delta(self.matrix, self.delta)

    def delta_stats(self) -> Dict[str, object]:
        with self._lock:
            stats = self.delta.stats()
            stats["compactions"] = self.compactions
            return stats

    def _patch_pair_locked(self) -> Optional[Tuple[CSCMatrix, np.ndarray]]:
        if self.delta.is_empty:
            return None
        if self._patch is None:
            self._patch = build_patch(self.matrix, self.delta)
        return self._patch

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def multiply(self, x: SparseVector, *,
                 semiring: Semiring = PLUS_TIMES,
                 sorted_output: Optional[bool] = None,
                 mask: Optional[SparseVector] = None,
                 mask_complement: bool = False,
                 algorithm: Optional[str] = None,
                 workspace: Optional[object] = None,
                 _batch: Optional[int] = None,
                 _explored: bool = False,
                 **kwargs) -> SpMSpVResult:
        """Run ``y <- A x`` through the engine: select, execute, observe."""
        from .dispatch import get_algorithm  # late: avoids import cycle

        with self._lock:
            requested = algorithm if algorithm is not None else self.algorithm
            explored = _explored
            phi = None  # call features, computed at most once per call
            if requested == "auto":
                phi = self.call_features(x)
                name, explored = self.select_algorithm(x, features=phi)
            else:
                name = requested
            fn = get_algorithm(name)

            if workspace is None:
                workspace = self.workspace
            if _accepts_workspace(fn):
                kwargs = dict(kwargs, workspace=workspace)
            call = dict(semiring=semiring, sorted_output=sorted_output, mask=mask,
                        mask_complement=mask_complement, **kwargs)
            result = fn(self.matrix, x, self.ctx, **call)
            pair = self._patch_pair_locked()
            if pair is not None:
                # patch-correct the base result: same kernel, inputs and mask
                patch, touched = pair
                result = _overlay_result(result, fn(patch, x, self.ctx, **call),
                                         patch, touched)

            cost_ms = self._price.record_time_ms(result.record)
            if name in self._models:
                if phi is None:
                    phi = self.call_features(x)
                self._models[name].observe(phi, cost_ms)
            self._record_call(name, requested, x, cost_ms, explored, _batch)
            return result

    # ------------------------------------------------------------------ #
    # blocked execution
    # ------------------------------------------------------------------ #
    def _block_phi(self, k: int, total_nnz: int, union_nnz: int,
                   mask_keep: float) -> np.ndarray:
        """The block feature vector, with this engine's merge-segment count."""
        return block_features(k, total_nnz, union_nnz, mask_keep=mask_keep,
                              segments=k * self.ctx.num_buckets)

    def select_block_mode(self, block: SparseVectorBlock,
                          masks: Optional[Sequence[Optional[SparseVector]]] = None,
                          mask_complement: bool = False) -> Tuple[str, bool]:
        """Fused or looped execution for one block; returns ``(mode, explored)``."""
        return self._select_block_mode(
            self._block_phi(block.k, block.total_nnz, block.union_nnz,
                            _mask_keep_fraction(masks, mask_complement,
                                                block.k, self.matrix.nrows)),
            block.k, block.sharing_ratio())

    def multiply_block(self, block: SparseVectorBlock, *,
                       semiring: Semiring = PLUS_TIMES,
                       sorted_output: Optional[bool] = None,
                       masks: Optional[Sequence[Optional[SparseVector]]] = None,
                       mask_complement: bool = False,
                       algorithm: Optional[str] = None,
                       block_mode: str = "auto",
                       block_merge: str = "segmented") -> List[SpMSpVResult]:
        """Blocked execution of an **already-packed** :class:`SparseVectorBlock`.

        The batch entry point of the serving layer: a coalescer that packed
        concurrent requests into one block (it needs the block anyway, to
        demultiplex per-request results through the block's positions) hands
        it straight to the engine — the fused path reuses the pack instead of
        re-deriving the column union, and results come back one per member
        vector, in pack order, bit-identical to :meth:`multiply_many` over
        ``block.to_vectors()``.
        """
        return self.multiply_many(
            block.to_vectors(), semiring=semiring, sorted_output=sorted_output,
            masks=masks, mask_complement=mask_complement, algorithm=algorithm,
            block_mode=block_mode, block_merge=block_merge, _block=block)

    def multiply_many(self, xs: Sequence[SparseVector], *,
                      semiring: Semiring = PLUS_TIMES,
                      sorted_output: Optional[bool] = None,
                      masks: Optional[Sequence[Optional[SparseVector]]] = None,
                      mask_complement: bool = False,
                      algorithm: Optional[str] = None,
                      block_mode: str = "auto",
                      block_merge: str = "segmented",
                      _block: Optional[SparseVectorBlock] = None,
                      **kwargs) -> List[SpMSpVResult]:
        """Blocked execution of one matrix against many input vectors.

        The whole batch shares the engine's workspace and — under ``"auto"``
        — a single dispatch decision, made for the *densest* vector of the
        block (the worst case for a vector-driven kernel).  When the batch
        resolves to the bucket kernel, the engine additionally chooses between
        the **fused block kernel** (one gather, one masked scatter and one
        segmented merge for the whole block,
        :func:`~repro.core.spmspv_block.spmspv_bucket_block`) and the
        per-vector loop, per :meth:`select_block_mode`; ``block_mode`` forces
        the choice (``"fused"`` / ``"looped"``) instead of ``"auto"``, and
        ``block_merge`` selects the fused kernel's merge strategy
        (``"segmented"`` per-(vector, bucket) merge, or the legacy
        ``"global"`` composite-key sort — a perf knob for the regression
        harness).  Per-vector ``masks`` are folded into the fused scatter, so
        masked batches (multi-source BFS frontiers, restricted PageRank) do
        O(surviving pairs) merge work.  All paths return bit-identical
        results.  This is the multi-source BFS / blocked PageRank entry
        point.
        """
        xs, batch, requested, explored, mode, phi = self._plan_batch(
            xs, masks, mask_complement, algorithm, block_mode, block_merge, kwargs)
        call = dict(semiring=semiring, sorted_output=sorted_output, masks=masks,
                    mask_complement=mask_complement)
        if mode == "fused":
            return self._multiply_fused(
                xs, phi, batch=batch, requested=requested, explored=explored,
                block_merge=block_merge, block=_block, **call)
        return self._multiply_looped(xs, phi, batch=batch, requested=requested,
                                     explored=explored, kwargs=kwargs, **call)

    def _multiply_fused(self, xs: List[SparseVector], phi: np.ndarray, *,
                        batch: int, semiring: Semiring,
                        sorted_output: Optional[bool],
                        masks: Optional[Sequence[Optional[SparseVector]]],
                        mask_complement: bool, requested: str, explored: bool,
                        block_merge: str, block: Optional[SparseVectorBlock]
                        ) -> List[SpMSpVResult]:
        """Run one batch through the fused block kernel, observing its cost."""
        from .spmspv_block import spmspv_bucket_block  # late: avoids import cycle

        with self._lock:
            # the observed window covers everything fusion-specific the looped
            # path does not pay — block packing, the fused kernel, and the
            # per-result pricing/bookkeeping below — so the fused and looped
            # wall-time fits stay comparable
            t0 = time.perf_counter()
            if block is None:
                block = SparseVectorBlock.from_vectors(xs)
            call = dict(semiring=semiring, sorted_output=sorted_output,
                        masks=masks, mask_complement=mask_complement,
                        merge=block_merge, workspace=self.workspace)
            results = spmspv_bucket_block(self.matrix, block, self.ctx, **call)
            pair = self._patch_pair_locked()
            if pair is not None:
                patch, touched = pair
                results = [_overlay_result(r, p, patch, touched) for r, p in zip(
                    results, spmspv_bucket_block(patch, block, self.ctx, **call))]
            self._fused_batches += 1
            # block-aware exploration of the per-call models: each fused
            # vector's share of the block cost is an observation of what the
            # bucket algorithm costs on that frontier, so fused batches keep
            # the bucket-vs-graphmat fits current even for workloads that
            # never issue a per-vector call (multi-source BFS, blocked
            # PageRank).  The share is only faithful when the block's column
            # unions barely overlap: the fused record amortizes ONE union
            # gather across the block, so on heavily-shared blocks each share
            # under-counts the gather a standalone call would pay and would
            # train the fit systematically low — those observations are
            # skipped rather than corrected (the merge side is not amortized,
            # so no single scale factor fixes both).
            bucket_fit = self._models.get("bucket") if block.sharing_ratio() <= 1.25 else None
            for i, result in enumerate(results):
                cost_ms = self._price.record_time_ms(result.record)
                if bucket_fit is not None:
                    bucket_fit.observe(self.call_features(xs[i]), cost_ms)
                self._record_call("bucket_block", requested, xs[i], cost_ms,
                                  explored and i == 0, batch, fused=True)
            self._block_fits["fused"].observe(
                phi, (time.perf_counter() - t0) * 1e3)
            return results

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics of the engine's lifetime (see :meth:`EngineBase.summary`)."""
        return dict(super().summary(), workspace=self.workspace.stats(),
                    delta_entries=self.delta.entries)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SpMSpVEngine(matrix={self.matrix.nrows}x{self.matrix.ncols}, "
                f"algorithm={self.algorithm!r}, calls={len(self.history)})")


# --------------------------------------------------------------------------- #
# engine cache backing the repro.core.dispatch.spmspv shim
# --------------------------------------------------------------------------- #
_ENGINE_CACHE: "OrderedDict[tuple, SpMSpVEngine]" = OrderedDict()
_ENGINE_CACHE_LIMIT = 8
#: cache keys exempt from LRU eviction, with a pin count per key so nested
#: pinners (two EngineGroups over one matrix) compose
_ENGINE_PINS: Dict[tuple, int] = {}


def _evict_over_limit() -> None:
    """Evict the oldest *unpinned* entries beyond the cache limit.

    Pinned entries neither get evicted nor count toward the limit — a
    workload legitimately holding many live matrices (an
    :class:`~repro.core.sharded.EngineGroup`) must not have its members'
    workspaces silently rebuilt mid-algorithm by unrelated ``spmspv`` calls.
    """
    unpinned = [k for k in _ENGINE_CACHE if k not in _ENGINE_PINS]
    for key in unpinned[:max(len(unpinned) - _ENGINE_CACHE_LIMIT, 0)]:
        del _ENGINE_CACHE[key]


def engine_for(matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None, *,
               pin: bool = False) -> SpMSpVEngine:
    """The cached engine serving ``spmspv`` calls for ``(matrix, ctx)``.

    Entries pin the matrix (so ids cannot be recycled while cached) and are
    evicted LRU beyond a small limit; repeated calls on the same matrix —
    the shape of every iterative algorithm and benchmark — therefore reuse
    one workspace and one adaptive state.  ``pin=True`` additionally exempts
    the entry from LRU eviction until a matching :func:`unpin_engine` (see
    :func:`pin_engine`).  Shim engines run with exploration disabled:
    ``spmspv(..., algorithm="auto")`` on identical inputs must pick the
    predicted-best kernel deterministically (benchmarks time it), so the
    deliberate runner-up calls are an opt-in of explicitly constructed
    engines.
    """
    ctx = ctx if ctx is not None else default_context()
    key = (id(matrix), ctx)
    engine = _ENGINE_CACHE.get(key)
    if engine is not None and engine.matrix is matrix:
        _ENGINE_CACHE.move_to_end(key)
    else:
        engine = SpMSpVEngine(matrix, ctx, explore_every=0)
        _ENGINE_CACHE[key] = engine
    if pin:
        _ENGINE_PINS[key] = _ENGINE_PINS.get(key, 0) + 1
    _evict_over_limit()
    return engine


def pin_engine(matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None
               ) -> SpMSpVEngine:
    """Get-or-create the cached engine for ``(matrix, ctx)`` and pin it.

    A pinned engine survives any number of intervening ``spmspv`` calls on
    other matrices (the LRU limit only applies to unpinned entries), so its
    workspace and adaptive state are never rebuilt mid-algorithm.  Pins
    nest; every ``pin_engine`` needs a matching :func:`unpin_engine`.
    """
    return engine_for(matrix, ctx, pin=True)


def unpin_engine(matrix: CSCMatrix, ctx: Optional[ExecutionContext] = None) -> None:
    """Release one pin on the cached engine for ``(matrix, ctx)``.

    The entry stays cached but becomes evictable again once its pin count
    reaches zero.  Unpinning a key that is not pinned is a no-op.
    """
    ctx = ctx if ctx is not None else default_context()
    key = (id(matrix), ctx)
    count = _ENGINE_PINS.get(key)
    if count is None:
        return
    if count <= 1:
        del _ENGINE_PINS[key]
    else:
        _ENGINE_PINS[key] = count - 1
    _evict_over_limit()


def clear_engine_cache() -> None:
    """Drop all cached engines and pins (exposed for tests)."""
    _ENGINE_CACHE.clear()
    _ENGINE_PINS.clear()
