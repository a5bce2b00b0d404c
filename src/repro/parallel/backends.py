"""Pluggable execution backends for strip-partitioned SpMSpV.

A strip engine (:class:`~repro.core.strip_engine.StripEngine`: the row-split
:class:`~repro.core.sharded.ShardedEngine` and the column-split
:class:`~repro.core.column_sharded.ColumnShardedEngine`) turns one
multiplication into P independent per-strip kernel calls.  *How* those calls
execute is this module's concern, behind one small seam: a call is an
op-tagged strip call — ``multiply`` (a per-vector kernel on every row
strip), ``block`` (the fused block kernel on every row strip) or
``partial`` (the private half of a column strip's SpMSpV) — made of the
inputs every strip shares and the inputs each strip gets alone.  Each op
keeps only its own decisions: how its inputs pack (the typed
``submit_*`` packers of :class:`ExecutionBackend`) and which kernel runs on
a strip (:func:`run_strip`, the one place strips call kernels).  Every
backend executes the same strip call:

* :class:`EmulatedBackend` — strips run deterministically in the calling
  process (optionally fanned out on the GIL-bound thread pool).
  Bit-reproducible, zero setup cost, no wall-clock parallelism.
* :class:`ProcessBackend` — a persistent ``multiprocessing`` worker pool
  with a **zero-copy comm plane**.  Strip arrays are copied **once**, at
  backend build, into ``multiprocessing.shared_memory`` slabs
  (:class:`~repro.core.workspace.SharedSlab`); each worker attaches
  zero-copy views, builds the persistent
  :class:`~repro.core.workspace.SpMSpVWorkspace` objects its row strips
  use, and keeps both for its lifetime.  Per call, every array input — the
  frontier or packed :class:`~repro.formats.vector_block.SparseVectorBlock`,
  mask slices, column-frontier slices — is packed **once** into a
  shared-memory input arena (:class:`~repro.core.workspace.SlabArena`) that
  all strips attach — broadcast-once, instead of P pickled copies — and
  workers write their results directly into preallocated per-strip output
  slabs.  One codec pair moves inputs and results alike: arrays ride the
  slabs, and only fixed-shape control records (call id, strip ids, region
  descriptors, metric-record meta) ride the pipes.  Output slabs grow
  geometrically: a result that outgrows its granted region is retained by
  the worker, reported as a ``grow`` record, and flushed into a re-granted
  region — no respawn, no recompute.  The async :meth:`~ExecutionBackend.submit`
  / :meth:`~ExecutionBackend.gather` pair broadcasts a call's strips
  immediately and drains completion records as they land, so consecutive
  calls pipeline across workers instead of barriering per call
  (:meth:`~repro.core.strip_engine.StripEngine.gather` drives this).

Determinism contract: a kernel is a pure function of (strip, inputs, call
options), so for any *fixed* kernel/mode the backends are **bit
identical** — outputs, work metrics, and the priced costs that drive
adaptive dispatch (wall times differ, so the wall-time-trained fused-vs-
looped block fits may take different internal routes under ``"auto"``; every
route is itself bit-identical).  ``tests/test_backend_equivalence.py`` locks
this down across the full sharded grid, including the slab data plane
(output overflow/regrow, broadcast-once blocks, overlapped async ordering).

Failure contract: an exception raised inside a strip's kernel propagates to
the caller as itself (same type, same args), annotated with the failing
strip id (``exc.strip_id`` plus an ``add_note`` line) — identically for both
backends, and never retried (kernel exceptions are deterministic).  A worker
that *dies* (kill -9, segfault) is a *retryable* failure: under the
context's :class:`~repro.parallel.context.RetryPolicy` the lost strips are
transparently re-dispatched (respawn + re-grant + resend of the same input
region — bit-identical results), past the retry budget the
``degraded_fallback`` mode recomputes them in-process from the parent's own
strip copies and the inputs retained at submit, and only with both
exhausted/disabled does the call surface exactly one
:class:`~repro.errors.BackendError`.  A call that exceeds the context's
``deadline`` raises :class:`~repro.errors.DeadlineError` after being cleanly
abandoned (its slab regions release as late replies drain).
``health_stats()`` reports deaths/retries/fallbacks/deadline hits;
:mod:`repro.parallel.faults` injects all of these failures deterministically
through the ``chaos`` wrapper backend.  The pool respawns dead workers
against the same shared-memory strips, and backend shutdown (or garbage
collection of the engine, via a ``weakref`` finalizer) releases every
shared-memory segment — strip slabs and comm arenas alike — following the
context's ``shutdown_timeouts`` stop→terminate→kill escalation ladder.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
import weakref
from abc import ABC, abstractmethod
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import BackendError, DeadlineError, NotSupportedError
from ..formats.csc import CSCMatrix
from ..formats.sparse_vector import SparseVector
from ..formats.vector_block import SparseVectorBlock
from ..semiring import Semiring, get_semiring
from .context import ExecutionContext, RetryPolicy
from .threadpool import run_chunks

#: lazily-built template of :meth:`repro.core.workspace.SpMSpVWorkspace.stats`
#: for a workspace no kernel has touched yet (derived from the real class so
#: it cannot drift from the implementation)
_FRESH_STATS_TEMPLATE: Optional[Dict[str, float]] = None

#: env knobs for the comm plane's initial shared-memory footprint (bytes);
#: tests shrink these to force the overflow/regrow paths deterministically
_INPUT_SLAB_ENV = "REPRO_BACKEND_INPUT_SLAB"
_OUTPUT_SLAB_ENV = "REPRO_BACKEND_OUTPUT_SLAB"
#: env knob carrying a seeded fault plan (see :mod:`repro.parallel.faults`);
#: when set, :func:`make_backend` reroutes the process backend to the chaos
#: backend so every backend-selecting call site runs under injected faults
_FAULTS_ENV = "REPRO_BACKEND_FAULTS"

_DEFAULT_INPUT_SLAB = 1 << 16
_DEFAULT_OUTPUT_SLAB = 1 << 16

#: the strip ops, each with one grant-size hint per strip
_OPS = ("multiply", "block", "partial")


def _fresh_stats(spa_rows: int) -> Dict[str, float]:
    """Stats reported for a strip whose worker has not executed a call yet."""
    global _FRESH_STATS_TEMPLATE
    if _FRESH_STATS_TEMPLATE is None:
        from ..core.workspace import SpMSpVWorkspace  # late: avoids import cycle
        _FRESH_STATS_TEMPLATE = SpMSpVWorkspace(0).stats()
    return dict(_FRESH_STATS_TEMPLATE, spa_rows=spa_rows)


def _attach_strip_id(exc: BaseException, strip: int, backend: str,
                     remote_traceback: Optional[str] = None) -> BaseException:
    """Annotate a kernel exception with the strip that raised it."""
    try:
        exc.strip_id = strip
    except Exception:  # pragma: no cover - exotic immutable exceptions
        pass
    if hasattr(exc, "add_note"):
        try:
            exc.add_note(f"[repro] raised by strip {strip} ({backend} backend)")
            if remote_traceback:
                exc.add_note("[repro] worker traceback:\n" + remote_traceback)
        except Exception:  # pragma: no cover
            pass
    return exc


# --------------------------------------------------------------------------- #
# the strip call: one runner, one input and one result codec
# --------------------------------------------------------------------------- #
def _prepare_call(op: str, shared: Dict) -> Dict:
    """What every strip of one call reuses, derived once per call.

    Column strips all span the full row space, so a partial call's row mask
    compiles to one bitmap for the whole fan-out instead of one per strip.
    """
    if op != "partial":
        return shared
    from ..core.vector_ops import mask_bitmap  # late: avoids import cycle

    mask = shared["mask"]
    return dict(shared, bitmap=None if mask is None else mask_bitmap(mask, mask.n))


def run_strip(op: str, matrix, inputs: Dict, ctx: ExecutionContext,
              workspace) -> List:
    """Run one strip op on one strip; the only place strips call kernels.

    ``inputs`` merges the call's shared inputs (after
    :func:`_prepare_call`) with this strip's own (see the ``submit_*``
    packers of :class:`ExecutionBackend`); ``workspace`` is the strip's
    persistent workspace, or None for an op that uses none.  Returns the
    strip's result list: one :class:`~repro.core.result.SpMSpVResult` for
    ``multiply``, k for ``block``, one
    :class:`~repro.core.spmspv_column.ColumnPartial` for ``partial``.
    """
    semiring = inputs["semiring"]
    if op == "multiply":
        from ..core.dispatch import get_algorithm  # late: avoids import cycle
        from ..core.engine import _accepts_workspace

        fn = get_algorithm(inputs["algorithm"])
        kw = dict(inputs["kwargs"])
        if workspace is not None and _accepts_workspace(fn):
            kw["workspace"] = workspace
        return [fn(matrix, inputs["x"], ctx, semiring=semiring,
                   sorted_output=inputs["sorted_output"], mask=inputs["mask"],
                   mask_complement=inputs["mask_complement"], **kw)]
    if op == "block":
        from ..core.spmspv_block import spmspv_bucket_block

        return spmspv_bucket_block(
            matrix, inputs["block"], ctx, semiring=semiring,
            sorted_output=inputs["sorted_output"], masks=inputs["masks"],
            mask_complement=inputs["mask_complement"], workspace=workspace)
    if op == "partial":
        from ..core.spmspv_column import column_partial

        return [column_partial(
            matrix, inputs["idx"], inputs["vals"], inputs["gpos"], ctx,
            semiring=semiring, out_dtype=inputs["out_dtype"],
            algorithm=inputs["algorithm"], bitmap=inputs["bitmap"],
            mask_complement=inputs["mask_complement"])]
    raise BackendError(f"unknown backend op {op!r}")


def _semiring_name(semiring: Semiring) -> str:
    """Encode a semiring for transport (registered semirings only).

    Built-in semirings carry lambdas, which do not pickle; both ends of the
    pipe therefore exchange registry *names*.  An unregistered custom
    semiring is rejected here, parent-side, with a clear message instead of
    a worker-side pickling failure.
    """
    try:
        if get_semiring(semiring.name) == semiring:
            return semiring.name
    except KeyError:
        pass
    raise NotSupportedError(
        f"the process backend ships semirings by registry name, and "
        f"{semiring!r} is not the registered semiring of that name; "
        f"use the emulated backend for ad-hoc semirings")


class _Ref:
    """A value packed into a slab region: its kind, descriptors and meta."""

    __slots__ = ("kind", "descs", "meta")

    def __init__(self, kind: str, descs, meta=None):
        self.kind = kind
        #: ``(first, count)`` into the packed array list until
        #: :func:`_bind_refs` swaps in the region descriptors
        self.descs = descs
        self.meta = meta

    def __reduce__(self):
        return _Ref, (self.kind, self.descs, self.meta)


def _encode_value(value, arrays: List[np.ndarray], refs: List[_Ref]):
    """Move a value's arrays into ``arrays``; returns what rides the pipe.

    Vectors, blocks and arrays become slab references, semirings travel by
    registry name, lists encode element-wise, and anything else (flags,
    names, kernel options) rides the pipe as itself.
    """
    if isinstance(value, list):
        return [_encode_value(v, arrays, refs) for v in value]
    if isinstance(value, Semiring):
        return _Ref("semiring", (), _semiring_name(value))
    if isinstance(value, SparseVector):
        kind, meta, parts = "vector", (value.n, value.sorted), \
            (value.indices, value.values)
    elif isinstance(value, SparseVectorBlock):
        kind, (meta, parts) = "block", value.pack_arrays()
    elif isinstance(value, np.ndarray):
        kind, meta, parts = "array", None, (value,)
    else:
        return value
    ref = _Ref(kind, (len(arrays), len(parts)), meta)
    arrays.extend(np.ascontiguousarray(p) for p in parts)
    refs.append(ref)
    return ref


def _bind_refs(refs: List[_Ref], descs: List) -> None:
    """Point each reference at its arrays' descriptors in the packed region."""
    for ref in refs:
        first, count = ref.descs
        ref.descs = descs[first:first + count]


def _decode_value(value, region: np.ndarray, copy: bool = False):
    """Rebuild an encoded value over ``region`` (zero-copy unless ``copy``)."""
    if isinstance(value, list):
        return [_decode_value(v, region, copy) for v in value]
    if not isinstance(value, _Ref):
        return value
    if value.kind == "semiring":
        return get_semiring(value.meta)
    from ..core.workspace import unpack_arrays  # late: avoids import cycle

    arrays = unpack_arrays(region, value.descs)
    if copy:
        arrays = [a.copy() for a in arrays]
    if value.kind == "vector":
        n, sorted_flag = value.meta
        return SparseVector(n, *arrays, sorted=sorted_flag, check=False)
    if value.kind == "block":
        return SparseVectorBlock.from_arrays(value.meta, arrays)
    return arrays[0]


def _encode_inputs(inputs: Dict, arrays: List[np.ndarray],
                   refs: List[_Ref]) -> Dict:
    return {k: _encode_value(v, arrays, refs) for k, v in inputs.items()}


def _decode_inputs(spec: Dict, region: np.ndarray) -> Dict:
    return {k: _decode_value(v, region) for k, v in spec.items()}


def _encode_results(results: List, arrays: List[np.ndarray],
                    refs: List[_Ref]) -> List:
    """Encode one strip's results — kernel results or column partials.

    Execution records travel as dense int64 metric matrices *inside the
    slab*; only their small structural meta rides the pipe, so per-call
    pipe traffic stays fixed-shape whatever the result sizes.
    """
    from .metrics import encode_record

    out = []
    for r in results:
        rec_meta, metric_matrix = encode_record(r.record)
        body = ((r.nrows, r.rows, r.vals, r.gpos) if hasattr(r, "gpos")
                else (r.vector,))
        out.append(([_encode_value(v, arrays, refs) for v in body], rec_meta,
                    _encode_value(metric_matrix, arrays, refs), r.info))
    return out


def _decode_results(entries: List, region: np.ndarray) -> List:
    """Copy one strip's results out of its output region."""
    from ..core.result import SpMSpVResult  # late: avoids import cycle
    from ..core.spmspv_column import ColumnPartial
    from .metrics import decode_record

    out = []
    for body, rec_meta, metric, info in entries:
        body = [_decode_value(v, region, copy=True) for v in body]
        record = decode_record(rec_meta, _decode_value(metric, region))
        if len(body) == 4:
            nrows, rows, vals, gpos = body
            out.append(ColumnPartial(nrows=nrows, rows=rows, vals=vals,
                                     gpos=gpos, record=record, info=info))
        else:
            out.append(SpMSpVResult(vector=body[0], record=record, info=info))
    return out


class ExecutionBackend(ABC):
    """How a strip engine executes its P independent per-strip calls.

    A backend is built once per strip engine from the engine's strips and
    per-strip context (``num_threads=1`` — the paper's sync-free split
    configuration), owns whatever persistent per-strip state the execution
    needs (workspaces, worker processes, shared memory), and executes
    op-tagged strip calls through the async pair :meth:`submit` /
    :meth:`gather`.  Results always come back in strip order.

    The typed entry points are thin packers over that pair:
    :meth:`submit_multiply` (a per-vector kernel fanned across all row
    strips), :meth:`submit_block` (the fused block kernel fanned across all
    row strips) and :meth:`submit_partial` (column-strip partials), each
    with its ``gather_*`` and a synchronous ``run_*``.  A backend
    implements :meth:`submit`, :meth:`gather` and :meth:`workspace_stats`.
    """

    name: str = "?"

    @abstractmethod
    def submit(self, op: str, shared: Dict, strips: Sequence[Dict]):
        """Queue one strip call; returns an opaque token for :meth:`gather`.

        ``shared`` holds the inputs every strip uses, ``strips[s]`` the
        inputs of strip ``s`` alone; each strip runs
        ``run_strip(op, strip, {**shared, **strips[s]}, ...)``.
        """

    @abstractmethod
    def gather(self, token) -> List[List]:
        """Complete a submitted call; per-strip result lists in strip order."""

    @abstractmethod
    def workspace_stats(self) -> List[Dict[str, float]]:
        """Latest known per-strip workspace reuse statistics."""

    # ------------------------------------------------------------------ #
    # typed entry points: each op's packing decisions
    # ------------------------------------------------------------------ #
    def submit_multiply(self, algorithm: str, x: SparseVector, *,
                        semiring: Semiring, sorted_output: Optional[bool],
                        mask_slices: Sequence[Optional[SparseVector]],
                        mask_complement: bool, kwargs: Dict):
        """Queue one per-vector multiply; ``mask_slices[s]`` is strip ``s``'s
        slice of the row mask.  Token for :meth:`gather_multiply`."""
        return self.submit("multiply", {
            "algorithm": algorithm, "x": x, "semiring": semiring,
            "sorted_output": sorted_output,
            "mask_complement": mask_complement, "kwargs": kwargs},
            [{"mask": mask} for mask in mask_slices])

    def submit_block(self, block: SparseVectorBlock, *, semiring: Semiring,
                     sorted_output: Optional[bool], strip_masks: Sequence,
                     mask_complement: bool):
        """Queue one fused block multiply; ``strip_masks[s]`` is None or
        strip ``s``'s k mask slices.  Token for :meth:`gather_block`."""
        return self.submit("block", {
            "block": block, "semiring": semiring,
            "sorted_output": sorted_output,
            "mask_complement": mask_complement},
            [{"masks": masks} for masks in strip_masks])

    def submit_partial(self, algorithm: str, slices: Sequence[tuple], *,
                       semiring: Semiring, mask: Optional[SparseVector],
                       mask_complement: bool, out_dtype):
        """Queue one column-partial fan-out (column-split scheme only).

        ``slices`` holds one ``(local_idx, values, gpos)`` frontier slice
        per strip (see :func:`repro.core.spmspv_column.slice_frontier`);
        ``mask`` is the **full row-space** output mask (column strips all
        span the full row space, so one mask serves every strip).  Token
        for :meth:`gather_partial`, which returns per-strip
        :class:`~repro.core.spmspv_column.ColumnPartial` streams in strip
        order; the caller runs the reduction phase.
        """
        if self.scheme != "column":
            raise NotSupportedError(
                f"backend {self.name!r} was built for the {self.scheme!r} "
                f"scheme; construct it with scheme='column' to run column "
                f"partials")
        return self.submit("partial", {
            "algorithm": algorithm, "semiring": semiring, "mask": mask,
            "mask_complement": mask_complement,
            "out_dtype": np.dtype(out_dtype).str},
            [{"idx": idx, "vals": vals, "gpos": gpos}
             for idx, vals, gpos in slices])

    def gather_multiply(self, token) -> List:
        """Complete a one-result-per-strip call; results in strip order."""
        return [results[0] for results in self.gather(token)]

    def gather_block(self, token) -> List[List]:
        """Complete a fused block call; per-strip lists of k results."""
        return self.gather(token)

    def gather_partial(self, token) -> List:
        """Complete a column-partial call; per-strip streams in strip order."""
        return self.gather_multiply(token)

    def run_multiply(self, algorithm: str, x: SparseVector, **call) -> List:
        return self.gather_multiply(self.submit_multiply(algorithm, x, **call))

    def run_block(self, block: SparseVectorBlock, **call) -> List[List]:
        return self.gather_block(self.submit_block(block, **call))

    def run_partial(self, algorithm: str, slices: Sequence[tuple],
                    **call) -> List:
        return self.gather_partial(self.submit_partial(algorithm, slices, **call))

    # ------------------------------------------------------------------ #
    # lifecycle and accounting
    # ------------------------------------------------------------------ #
    def abandon(self, token) -> None:
        """Give up on a submitted call (its results will never be gathered)."""

    def comm_stats(self) -> Dict[str, float]:
        """Comm-plane accounting (empty for in-process backends)."""
        return {}

    def update_strip(self, strip: int, matrix: CSCMatrix) -> None:
        """Replace one strip's matrix in place (delta-layer compaction).

        The replacement must keep the strip's row count (sharded row ranges
        are fixed at build time), so the strip's persistent workspace stays
        valid and *must* be kept — per-strip compaction rebuilds only the
        matrix, never the warm state around it.  Backends without mutable
        strips reject the call.
        """
        raise NotSupportedError(
            f"backend {self.name!r} cannot update strips in place; "
            f"rebuild the engine instead")

    def health_stats(self) -> Dict[str, object]:
        """Resilience accounting: deaths, retries, fallbacks, deadline hits.

        In-process backends have no workers to lose, so every counter is
        zero; the keys are stable across backends so serving layers can
        aggregate health uniformly.
        """
        return {"worker_deaths": [], "respawns": 0, "retries": 0,
                "fallback_calls": 0, "fallback_strips": 0, "deadline_hits": 0}

    def close(self) -> None:
        """Release backend resources (idempotent; default: nothing to do)."""

    @property
    def closed(self) -> bool:
        return False

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EmulatedBackend(ExecutionBackend):
    """Deterministic in-process execution — the historical sharded behaviour.

    Strips run sequentially in the calling thread (or on the shared
    ``ThreadPoolExecutor`` when the context asks for it); each row strip
    owns a local persistent workspace (column partials use none).  This is
    the default backend: zero setup cost, bit-reproducible, and the right
    choice whenever the workload is dominated by correctness runs, tests,
    or single-core machines.
    """

    name = "emulated"

    def __init__(self, *, strips: Sequence[CSCMatrix], shard_ctx: ExecutionContext,
                 dtype, workers: int = 0, scheme: str = "row"):
        from ..core.workspace import SpMSpVWorkspace  # late: avoids import cycle

        self.strips = list(strips)
        self.shard_ctx = shard_ctx
        self.scheme = scheme
        #: per-strip persistent workspaces of the row ops; column partials
        #: acquire none, so a column backend holds none
        self.workspaces = [SpMSpVWorkspace(s.nrows, dtype=dtype)
                           for s in self.strips] if scheme == "row" else []

    def _deadline_check(self, started_at: float, s: int) -> None:
        """Cooperative per-strip deadline: in-process strips cannot be
        preempted, so the budget is enforced between strip calls — a call
        that has already exceeded it fails before starting its next strip."""
        deadline = getattr(self.shard_ctx, "deadline", None)
        if deadline is not None and time.monotonic() - started_at > deadline:
            raise DeadlineError(
                f"emulated backend call exceeded its {deadline:.3f}s deadline "
                f"before strip {s} started")

    def submit(self, op, shared, strips):
        # deferred to gather: in-process strips cannot overlap anyway, and
        # deferring keeps the backends' bookkeeping order identical
        return op, shared, strips

    def gather(self, token):
        op, shared, strips = token
        shared = _prepare_call(op, shared)
        t0 = time.monotonic()

        def call(s: int):
            self._deadline_check(t0, s)
            try:
                return run_strip(op, self.strips[s], {**shared, **strips[s]},
                                 self.shard_ctx,
                                 self.workspaces[s] if self.workspaces else None)
            except Exception as exc:
                raise _attach_strip_id(exc, s, self.name)

        return run_chunks(call, len(self.strips),
                          use_thread_pool=self.shard_ctx.use_thread_pool)

    def workspace_stats(self):
        return [ws.stats() for ws in self.workspaces]

    def update_strip(self, strip, matrix):
        if matrix.nrows != self.strips[strip].nrows:
            raise BackendError(
                f"strip {strip} replacement has {matrix.nrows} rows, "
                f"expected {self.strips[strip].nrows} (row ranges are fixed "
                f"at engine build)")
        # swap the matrix only: the strip's workspace (same nrows) stays warm
        self.strips[strip] = matrix


# --------------------------------------------------------------------------- #
# the process backend: shared-memory comm plane + a persistent worker pool
# --------------------------------------------------------------------------- #
def _dump_exception(exc: BaseException):
    """Serialize a worker-side exception for transport to the parent.

    Picklability is probed with ``dumps`` only — the historical immediate
    ``loads`` round-trip doubled the serialization cost for zero benefit,
    since the parent-side :func:`_load_exception` guards its own ``loads``
    and degrades to the same textual fallback.
    """
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return ("pickle", pickle.dumps(exc), tb)
    except Exception:
        return ("text", f"{type(exc).__name__}: {exc}", tb)


def _load_exception(dump, strip: int) -> BaseException:
    kind, payload, tb = dump
    if kind == "pickle":
        try:
            exc = pickle.loads(payload)
        except Exception:
            # dumps succeeded worker-side but loads failed here (e.g. an
            # exception whose reconstruction raises): degrade like the
            # unpicklable case instead of masking the kernel failure with a
            # parent-side UnpicklingError
            exc = BackendError(
                f"strip {strip} worker raised an exception that could not "
                f"be reconstructed parent-side; worker traceback follows")
    else:
        exc = BackendError(f"strip {strip} worker raised an unpicklable "
                           f"exception: {payload}")
    return _attach_strip_id(exc, strip, "process", remote_traceback=tb)


def _send_obj(conn, obj) -> int:
    """Pickle + send one control record; returns the exact pipe byte count."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(payload)
    return len(payload)


def _worker_loop(conn, spec, closers):  # pragma: no cover - worker process
    """Serve calls until stopped; every shm view lives inside this frame.

    The worker holds, for its assigned strips, zero-copy strip views over
    the parent's shared-memory slabs and locally-allocated persistent
    workspaces (row strips only: column partials use none).  A call
    message decodes into the same per-strip inputs the emulated backend
    and the degraded fallback use, and each strip runs :func:`run_strip`;
    results are packed into the parent-granted per-strip output regions,
    so replies carry only descriptors, records and stats.  A result that
    outgrows its grant is retained locally and reported as a ``grow``
    record; the parent re-grants a large-enough region and the worker
    flushes the retained results — no recompute, no respawn.  Kernel
    exceptions are caught per strip and shipped back; only transport
    failure ends the loop.  Workers do *not* untrack the segments they
    attach: a pool worker shares its parent's ``resource_tracker`` (both
    fork and spawn ship the tracker fd), whose registry is a set — the
    attach-side register is idempotent and the owner's unlink unregisters
    exactly once.

    The recv loop polls with a timeout and watches ``os.getppid()``: a
    fork-started worker inherits the parent ends of its *siblings'* pipes,
    so an abruptly-killed parent (SIGKILL skips daemon cleanup) never
    delivers EOF — the reparent check is what lets orphaned workers exit
    instead of pinning their shared-memory mappings forever.
    """
    from ..core.workspace import (
        SharedSlab,
        SlabReader,
        SpMSpVWorkspace,
        pack_arrays,
        packed_nbytes,
    )
    from ..formats.dcsc import DCSCMatrix

    if spec.get("affinity") is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {spec["affinity"]})
        except OSError:
            pass  # affinity is best-effort: containers may mask cores

    strips: Dict[int, CSCMatrix] = {}
    workspaces: Dict[int, "SpMSpVWorkspace"] = {}
    #: strip -> version of the shared-memory CSC currently attached; calls
    #: carry the parent's expected versions, so a call racing a compaction
    #: fails loudly instead of silently multiplying a stale strip
    versions: Dict[int, int] = {}

    def attach_strip(st) -> None:
        views = {}
        for name in st["arrays"]:
            seg, shape, dt = st["arrays"][name]
            slab = SharedSlab.attach(seg, shape, dt)
            closers.append(slab)
            views[name] = slab.array
        if st.get("format", "csc") == "dcsc":
            strips[st["strip"]] = DCSCMatrix(
                st["shape"], views["jc"], views["cp"], views["ir"],
                views["num"], build_aux=True, check=False)
        else:
            strips[st["strip"]] = CSCMatrix(
                st["shape"], views["indptr"], views["indices"], views["data"],
                sorted_within_columns=st["sorted"], check=False)
        versions[st["strip"]] = int(st.get("version", 0))

    for st in spec["strips"]:
        attach_strip(st)
        if st.get("format", "csc") == "csc":
            workspaces[st["strip"]] = SpMSpVWorkspace(
                strips[st["strip"]].nrows, dtype=np.dtype(st["dtype"]))
    reader = SlabReader()
    closers.append(reader)
    ctx = spec["ctx"]
    parent = os.getppid()
    #: (call_id, strip) -> result list awaiting a bigger grant
    retained: Dict[Tuple[int, int], List] = {}

    def write_results(out_ref, results):
        """Pack results into the granted region; ``(payload, needed_bytes)``.

        ``payload`` is ``None`` when the region is too small (the parent
        re-grants ``needed_bytes``).
        """
        arrays: List[np.ndarray] = []
        refs: List[_Ref] = []
        entries = _encode_results(results, arrays, refs)
        region = reader.region(out_ref)
        needed = packed_nbytes(arrays)
        if needed > region.nbytes:
            return None, needed
        _bind_refs(refs, pack_arrays(region, arrays))
        return (needed, entries), needed

    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent:  # orphaned: parent died abruptly
                    return
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        op = msg[0]
        if op == "stop":
            return
        if op == "flush":
            _, call_id, out_refs = msg
            flushed = {}
            for strip, ref in out_refs.items():
                results = retained.pop((call_id, strip), None)
                if results is None:
                    continue  # pragma: no cover - flush for an unknown call
                payload, _ = write_results(ref, results)
                if payload is None:  # pragma: no cover - parent granted too little
                    flushed[strip] = ("err", _dump_exception(BackendError(
                        f"strip {strip}: re-granted output region still too "
                        f"small for the retained result")))
                else:
                    flushed[strip] = ("ok", payload)
            try:
                _send_obj(conn, ("flushed", call_id, flushed))
            except (BrokenPipeError, OSError):
                return
            continue
        if op == "update_strip":
            # swap one strip's CSC view for a freshly-compacted shared copy;
            # the row count is unchanged, so the persistent workspace stays
            st = msg[1]
            attach_strip(st)
            try:
                _send_obj(conn, ("strip_updated", st["strip"], versions[st["strip"]]))
            except (BrokenPipeError, OSError):
                return
            continue

        (_, call_id, strip_ids, expected_versions, in_ref, shared_spec,
         strip_specs, out_refs) = msg
        in_region = reader.region(in_ref)
        shared = None
        outs = []
        for strip in strip_ids:
            try:
                if expected_versions.get(strip, 0) != versions.get(strip, 0):
                    raise BackendError(
                        f"strip {strip} version mismatch: call expects "
                        f"v{expected_versions.get(strip, 0)}, worker holds "
                        f"v{versions.get(strip, 0)} — a compaction raced "
                        f"this call")
                if shared is None:  # decoded once per message, errors per strip
                    shared = _prepare_call(
                        op, _decode_inputs(shared_spec, in_region))
                results = run_strip(
                    op, strips[strip],
                    {**shared, **_decode_inputs(strip_specs[strip], in_region)},
                    ctx, workspaces.get(strip))
                payload, needed = write_results(out_refs[strip], results)
                if payload is None:
                    retained[(call_id, strip)] = results
                    outs.append((strip, "grow", needed))
                else:
                    outs.append((strip, "ok", payload))
            except Exception as exc:
                outs.append((strip, "err", _dump_exception(exc)))
        stats = {strip: workspaces[strip].stats() for strip in strip_ids
                 if strip in workspaces}
        try:
            _send_obj(conn, ("done", call_id, outs, stats))
        except (BrokenPipeError, OSError):
            return


def _worker_main(conn, spec):  # pragma: no cover - runs in the worker process
    """Entry point of one pool worker: loop, release shm mappings, hard-exit.

    The CSC views, kernel results and message locals all live in
    :func:`_worker_loop`'s frame, so by the time the slabs close here no
    exported pointer into *this worker's* segments remains.  The exit is
    ``os._exit`` rather than a normal interpreter teardown: a forked worker
    also inherits the parent's own slab objects (and whatever other engines
    were alive at fork time), whose still-exported views would make their
    inherited ``SharedMemory.__del__``\\ s spray ``BufferError`` tracebacks
    during shutdown — those mappings belong to the parent, die with the
    process either way, and are not this worker's to close.
    """
    closers: List = []
    try:
        _worker_loop(conn, spec, closers)
    finally:
        for closer in closers:
            closer.close()
        try:
            conn.close()
        except OSError:
            pass
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)


def _shutdown_pool(workers: List, conns: List, slabs: List, arenas: List,
                   timeouts: Tuple[float, float, float] = (2.0, 1.0, 1.0)
                   ) -> None:
    """Stop workers, close pipes, release shared memory (idempotent).

    Module-level so a ``weakref.finalize`` can run it after the backend
    object is gone; the lists are the backend's own mutable state, shared by
    identity, so an explicit ``close()`` beforehand leaves nothing to do.
    ``timeouts`` is the context's ``shutdown_timeouts`` escalation ladder:
    a worker that ignores ``stop`` for ``timeouts[0]`` seconds is
    terminated, one that survives SIGTERM for ``timeouts[1]`` more (e.g. a
    SIGSTOPped process, whose pending SIGTERM never delivers) is killed,
    and the final join waits ``timeouts[2]``.  The slabs and arenas are
    released regardless of how far the escalation had to go, so a worker
    dying (or hanging) mid-shutdown never leaks a ``/dev/shm`` segment —
    the parent owns every segment and unlinks them all here.
    """
    stop_s, term_s, kill_s = timeouts
    for conn in conns:
        if conn is not None:
            try:
                _send_obj(conn, ("stop",))
            except Exception:
                pass
    for w, proc in enumerate(workers):
        if proc is None:
            continue
        proc.join(timeout=stop_s)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=term_s)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=kill_s)
        workers[w] = None
    for i, conn in enumerate(conns):
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            conns[i] = None
    for slab in slabs:
        slab.close()
        slab.unlink()
    slabs.clear()
    for arena in arenas:
        arena.destroy()
    arenas.clear()


class _Inflight:
    """Parent-side state of one submitted (possibly still running) call."""

    __slots__ = ("call_id", "op", "pending", "flushing", "payloads", "errors",
                 "input_region", "out_regions", "abandoned", "finalized",
                 # resilience state
                 "proto", "strip_specs", "inputs", "outstanding", "lost",
                 "last_death", "attempts", "redispatches", "local_results",
                 "local_errors", "deadline_at", "used_fallback")

    def __init__(self, call_id: int, op: str):
        self.call_id = call_id
        self.op = op
        self.pending: Set[int] = set()
        self.flushing: Set[int] = set()
        self.payloads: Dict[int, object] = {}
        self.errors: Dict[int, tuple] = {}
        self.input_region = None
        self.out_regions: Dict[int, tuple] = {}
        self.abandoned = False
        self.finalized = False
        #: ``(input ref, encoded shared inputs)``, kept so lost strips can
        #: be resent
        self.proto: Optional[tuple] = None
        #: encoded per-strip inputs (all strips, for re-dispatch)
        self.strip_specs: List[Dict] = []
        #: ``(shared, strips)`` parent-side inputs (degraded-fallback only)
        self.inputs: Optional[tuple] = None
        #: worker -> strips dispatched to it and not yet resolved
        self.outstanding: Dict[int, Set[int]] = {}
        #: strips lost to a worker death, awaiting retry/fallback/raise
        self.lost: Set[int] = set()
        self.last_death: Optional[Tuple[int, Optional[int]]] = None
        #: strip -> total dispatch attempts (first dispatch counts as 1)
        self.attempts: Dict[int, int] = {}
        self.redispatches = 0
        #: strip -> results recomputed in-process (degraded fallback)
        self.local_results: Dict[int, List] = {}
        #: strip -> kernel exception raised by a fallback recompute
        self.local_errors: Dict[int, BaseException] = {}
        #: monotonic instant the call's deadline expires (None = no deadline)
        self.deadline_at: Optional[float] = None
        self.used_fallback = False

    @property
    def complete(self) -> bool:
        return not self.pending and not self.flushing


class ProcessBackend(ExecutionBackend):
    """Real multi-process execution of the per-strip kernel calls.

    Build cost: one shared-memory copy of every strip's CSC arrays plus one
    worker process per strip (capped by ``workers`` / the machine's core
    count; strips are assigned round-robin, and a strip always runs on the
    same worker so its workspace persists), plus the comm plane's input
    arena and per-strip output slabs.  Per-call cost: one packed
    shared-memory write of the call's array inputs (broadcast-once: every
    strip attaches the same region), one shared-memory write per strip of
    its results, and small fixed-shape control records over the pipes.

    Environment knobs: ``REPRO_BACKEND_WORKERS`` caps the pool when the
    context doesn't, ``REPRO_BACKEND_START`` picks the multiprocessing start
    method (default ``fork`` where available — workers inherit the loaded
    package; ``spawn`` re-imports it), and ``REPRO_BACKEND_INPUT_SLAB`` /
    ``REPRO_BACKEND_OUTPUT_SLAB`` set the initial arena sizes (bytes; they
    grow geometrically on demand).  ``ExecutionContext.pin_workers``
    pins each worker to one CPU core (``os.sched_setaffinity``; silently a
    no-op where unsupported).
    """

    name = "process"
    # the typed entry points the column engine calls, bound in this class's
    # own namespace: the benchmark's layer tracer (e2ebench/tracing.py)
    # times the process backend by wrapping these class-body attributes
    submit_partial = ExecutionBackend.submit_partial
    gather_multiply = ExecutionBackend.gather_multiply

    def __init__(self, *, strips: Sequence[CSCMatrix], shard_ctx: ExecutionContext,
                 dtype, workers: int = 0, scheme: str = "row"):
        from ..core.workspace import SlabArena  # late: avoids import cycle

        self.shard_ctx = shard_ctx
        self.scheme = scheme
        #: shared-memory array set per strip: CSC triplets for row strips,
        #: DCSC quadruplets for column strips
        self._array_names = (("jc", "cp", "ir", "num") if scheme == "column"
                             else ("indptr", "indices", "data"))
        self._strip_format = "dcsc" if scheme == "column" else "csc"
        self.num_strips = len(strips)
        #: parent-side strip references (zero-copy: the engine's own split)
        #: — the degraded-fallback path recomputes a lost strip from these
        self._strips = list(strips)
        self._dtype = np.dtype(dtype)
        #: resilience knobs (older pickled contexts may lack the fields)
        self._retry: RetryPolicy = getattr(shard_ctx, "retry", None) or RetryPolicy()
        self._degraded_fallback = bool(getattr(shard_ctx, "degraded_fallback",
                                               False))
        self._deadline_s: Optional[float] = getattr(shard_ctx, "deadline", None)
        self._shutdown_timeouts: Tuple[float, float, float] = tuple(
            getattr(shard_ctx, "shutdown_timeouts", (2.0, 1.0, 1.0)))
        #: lazily-built parent-side workspaces for fallback recomputes of
        #: the row ops (column partials use none)
        self._fallback_ws: Dict[int, object] = {}
        cap = int(workers) or int(os.environ.get("REPRO_BACKEND_WORKERS", "0") or 0) \
            or (os.cpu_count() or 1)
        self.num_workers = max(1, min(self.num_strips, cap))
        start = os.environ.get(
            "REPRO_BACKEND_START",
            "fork" if "fork" in get_all_start_methods() else "spawn")
        self._mp = get_context(start)

        #: flat slab list shared by identity with the weakref finalizer —
        #: mutated in place (never rebound) when strips are updated
        self._slabs: List = []
        #: strip -> the slabs currently backing it (retired on update)
        self._strip_slabs: List[List] = [[] for _ in strips]
        #: strip -> the spec a worker attaches the strip from
        self._strip_specs: List[Dict] = [{} for _ in strips]
        #: monotonically increasing per-strip version (bumped by update_strip)
        self._strip_versions: List[int] = [0] * self.num_strips
        #: (strip, version) update acks routed out of the reply stream
        self._strip_acks: Set[Tuple[int, int]] = set()
        for s, strip in enumerate(strips):
            self._share_strip(s, strip, 0)
        self._spa_rows = [strip.nrows for strip in strips]
        #: strip -> worker assignment (round-robin; fixed for the pool's life)
        self.assignment = [[s for s in range(self.num_strips)
                            if s % self.num_workers == w]
                           for w in range(self.num_workers)]
        #: worker -> pinned core (only when the context asks for pinning)
        self._affinity: List[Optional[int]] = [None] * self.num_workers
        if getattr(shard_ctx, "pin_workers", False) and \
                hasattr(os, "sched_getaffinity"):
            cores = sorted(os.sched_getaffinity(0))
            if cores:
                self._affinity = [cores[w % len(cores)]
                                  for w in range(self.num_workers)]

        in_bytes = int(os.environ.get(_INPUT_SLAB_ENV, "0") or 0) \
            or _DEFAULT_INPUT_SLAB
        out_bytes = int(os.environ.get(_OUTPUT_SLAB_ENV, "0") or 0) \
            or _DEFAULT_OUTPUT_SLAB
        self._input_arena = SlabArena("in", initial_bytes=in_bytes)
        self._out_arenas = [SlabArena(f"out{s}", initial_bytes=out_bytes)
                            for s in range(self.num_strips)]
        self._arenas: List = [self._input_arena, *self._out_arenas]
        #: per-op, per-strip grant size hints (grown from observed outputs)
        self._grant_hint = {op: [out_bytes] * self.num_strips for op in _OPS}
        self._comm: Dict[str, float] = {
            "calls": 0, "pipe_bytes_out": 0, "pipe_bytes_in": 0,
            "pipe_msgs_out": 0, "pipe_msgs_in": 0,
            "slab_bytes_in": 0, "slab_bytes_out": 0,
            "output_overflows": 0, "max_inflight": 0,
        }

        self._health: Dict[str, object] = {
            "worker_deaths": [0] * self.num_workers, "respawns": 0,
            "retries": 0, "fallback_calls": 0, "fallback_strips": 0,
            "deadline_hits": 0,
        }
        self._workers: List = [None] * self.num_workers
        self._conns: List = [None] * self.num_workers
        self._stats: Dict[int, Dict[str, float]] = {}
        self._call_seq = 0
        self._tokens: Dict[int, _Inflight] = {}
        #: (worker, pid) deaths detected outside any gather (e.g. by the
        #: non-blocking drain); raised once from the next _ensure_workers
        self._dead_unreported: List[Tuple[int, Optional[int]]] = []
        self._closed = False
        #: gc safety net: releases workers and /dev/shm segments even when
        #: nobody called close() (the lists are shared by identity, so an
        #: explicit close() leaves this a no-op).  Registered *before* the
        #: spawn loop: if a fork fails mid-way, the half-built pool and every
        #: already-created segment still get torn down when this object dies.
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._workers, self._conns, self._slabs,
            self._arenas, self._shutdown_timeouts)
        try:
            for w in range(self.num_workers):
                self._spawn(w)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #
    def _share_strip(self, s: int, matrix, version: int) -> None:
        """Copy strip ``s`` into fresh shared-memory slabs and record its spec."""
        from ..core.workspace import SharedSlab  # late: avoids import cycle

        slabs = [SharedSlab.create(getattr(matrix, name))
                 for name in self._array_names]
        self._slabs.extend(slabs)
        self._strip_slabs[s] = slabs
        self._strip_specs[s] = {
            "strip": s, "shape": matrix.shape,
            "sorted": getattr(matrix, "sorted_within_columns", True),
            "arrays": {name: slab.meta
                       for name, slab in zip(self._array_names, slabs)},
            "format": self._strip_format, "dtype": self._dtype.str,
            "version": version}

    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        spec = {"strips": [self._strip_specs[s] for s in self.assignment[w]],
                "ctx": self.shard_ctx, "affinity": self._affinity[w]}
        proc = self._mp.Process(target=_worker_main, args=(child_conn, spec),
                                daemon=True, name=f"repro-strip-worker-{w}")
        proc.start()
        child_conn.close()  # parent keeps one end only, so worker death -> EOF
        self._workers[w] = proc
        self._conns[w] = parent_conn

    @property
    def _resilient(self) -> bool:
        """Whether worker deaths are absorbed (retried or degraded) instead
        of surfacing as one :class:`BackendError` per death."""
        return self._retry.max_attempts > 1 or self._degraded_fallback

    def _mark_dead(self, w: int) -> Optional[int]:
        conn, self._conns[w] = self._conns[w], None
        proc = self._workers[w]
        was_live = conn is not None or proc is not None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers[w] = None
        pid = None
        if proc is not None:
            pid = proc.pid
            if proc.is_alive():  # pragma: no cover - unreachable but hung
                proc.terminate()
            proc.join(timeout=1.0)
        if was_live:
            self._health["worker_deaths"][w] += 1
        # every in-flight call expecting this worker has lost the strips it
        # still owed; their gathers recover (retry/fallback) or raise, which
        # counts as reporting the death
        reported = False
        for token in list(self._tokens.values()):
            waited = w in token.pending or w in token.flushing
            lost = token.outstanding.pop(w, None)
            if not waited and not lost:
                continue
            token.pending.discard(w)
            token.flushing.discard(w)
            if lost:
                token.lost.update(lost)
            token.last_death = (w, pid)
            reported = reported or not token.abandoned
            if token.abandoned and token.complete:
                self._finalize(token)
        if not reported:
            # died between calls (nobody was waiting on it): surface the
            # death from the next _ensure_workers instead of losing it
            self._dead_unreported.append((w, pid))
        return pid

    def _ensure_workers(self) -> None:
        """Respawn dead workers; report each worker death exactly once.

        A slot that is ``None`` was already reported (its death was
        recovered or raised mid-call) and is respawned silently; a worker
        found dead *here* — killed between calls — is respawned too, but the
        death still surfaces as one clean :class:`BackendError` so callers
        never silently lose a worker.  With retries or degraded fallback
        enabled, between-call deaths are absorbed instead — they are counted
        in :meth:`health_stats` and the pool heals without failing any call.
        Either way the very next call runs on a complete pool.
        """
        for w in range(self.num_workers):
            if self._workers[w] is None:
                self._spawn(w)
                self._health["respawns"] += 1
            elif not self._workers[w].is_alive():
                self._mark_dead(w)  # lands in _dead_unreported
                self._spawn(w)
                self._health["respawns"] += 1
        unreported, self._dead_unreported = self._dead_unreported, []
        if unreported and not self._resilient:
            raise BackendError(
                f"strip worker(s) {unreported} died since the last call "
                f"(killed or crashed); the pool has respawned them — the "
                f"next call will run normally")

    def worker_pids(self) -> List[int]:
        """Live worker pids (fault-injection tests kill these)."""
        return [proc.pid for proc in self._workers if proc is not None]

    def update_strip(self, strip: int, matrix: CSCMatrix) -> None:
        """Swap one strip for a freshly-compacted matrix, versioned.

        Copies ``matrix`` into new shared-memory slabs, sends the owning
        worker an ``update_strip`` record, waits for its ack, and only then
        unlinks the old slabs (attach-after-unlink is a race; ack-first is
        not).  The strip's version is bumped and every subsequent call
        message carries the expected versions, so a worker that somehow
        still holds the stale strip fails that call with a clear
        :class:`BackendError` instead of returning stale results.  Requires
        no calls in flight — the sharded engine enforces this at
        ``apply_updates``/``compact`` time.  A worker that dies mid-update
        is simply left dead: its respawn (from ``_ensure_workers`` on the
        next call, which also reports the death once) attaches the already-
        updated strip specs.
        """
        if self._closed:
            raise BackendError("process backend is closed")
        if self._tokens:
            raise BackendError(
                f"update_strip({strip}) with {len(self._tokens)} call(s) "
                f"in flight; gather or abandon them first")
        if matrix.nrows != self._strips[strip].nrows:
            raise BackendError(
                f"strip {strip} replacement has {matrix.nrows} rows, "
                f"expected {self._strips[strip].nrows} (row ranges are "
                f"fixed at engine build)")
        old_slabs = list(self._strip_slabs[strip])
        version = self._strip_versions[strip] + 1
        # commit parent-side state first: even if the worker dies below, its
        # respawn and the degraded-fallback path both see the new strip
        self._share_strip(strip, matrix, version)
        spec = self._strip_specs[strip]
        self._strip_versions[strip] = version
        self._strips[strip] = matrix
        w = strip % self.num_workers
        key = (strip, version)
        if self._workers[w] is not None and self._send(w, ("update_strip", spec)):
            while key not in self._strip_acks:
                conn = self._conns[w]
                if conn is None:
                    break  # died mid-update; respawn reads the new specs
                try:
                    ready = conn.poll(0.2)
                except (EOFError, OSError):  # pragma: no cover - pipe torn down
                    self._mark_dead(w)
                    break
                if ready:
                    if not self._pump_worker(w):
                        break
                elif self._workers[w] is not None and \
                        not self._workers[w].is_alive():
                    self._mark_dead(w)
                    break
        self._strip_acks.discard(key)
        # nothing references the old segments anymore (worker swapped or died)
        for slab in old_slabs:
            try:
                self._slabs.remove(slab)
            except ValueError:  # pragma: no cover - already shut down
                continue
            slab.close()
            slab.unlink()

    # ------------------------------------------------------------------ #
    # comm plane: packing, granting, pumping
    # ------------------------------------------------------------------ #
    def _send(self, w: int, msg) -> bool:
        """Send one control record to worker ``w``; never raises.

        A send that fails (worker already dead, pipe gone) marks the worker
        dead, which attributes every strip it still owed to the affected
        tokens' ``lost`` sets — the gather loop then retries, degrades, or
        raises, exactly as if the death had happened mid-compute.  Returns
        whether the send succeeded.
        """
        conn = self._conns[w]
        if conn is None:
            self._mark_dead(w)
            return False
        try:
            nbytes = _send_obj(conn, msg)
        except (BrokenPipeError, OSError):
            self._mark_dead(w)
            return False
        self._comm["pipe_bytes_out"] += nbytes
        self._comm["pipe_msgs_out"] += 1
        return True

    def _pack_input(self, arrays: List[np.ndarray]):
        """Reserve + fill one input-arena region; returns (region, ref, descs)."""
        from ..core.workspace import pack_arrays, packed_nbytes

        nbytes = packed_nbytes(arrays)
        region = self._input_arena.reserve(nbytes)
        descs = pack_arrays(self._input_arena.view(region), arrays)
        self._comm["slab_bytes_in"] += nbytes
        return region, self._input_arena.ref(region), descs

    def _grant(self, token: _Inflight, strip: int) -> tuple:
        """Reserve a per-strip output region sized from observed history."""
        region = self._out_arenas[strip].reserve(
            self._grant_hint[token.op][strip])
        token.out_regions[strip] = region
        return self._out_arenas[strip].ref(region)

    def _begin_call(self, op: str) -> _Inflight:
        if self._closed:
            raise BackendError("process backend is closed")
        self._drain_ready()
        self._ensure_workers()
        self._call_seq += 1
        token = _Inflight(self._call_seq, op)
        if self._deadline_s is not None:
            # the budget covers the whole call, measured from submission
            token.deadline_at = time.monotonic() + self._deadline_s
        self._tokens[token.call_id] = token
        self._comm["calls"] += 1
        self._comm["max_inflight"] = max(self._comm["max_inflight"],
                                         len(self._tokens))
        return token

    def _drain_ready(self) -> None:
        """Route any replies already sitting in the pipes (non-blocking)."""
        for w in range(self.num_workers):
            conn = self._conns[w]
            while conn is not None and conn.poll(0):
                if not self._pump_worker(w):
                    break

    def _pump_worker(self, w: int) -> bool:
        """Receive + route one reply from worker ``w``; False if it died."""
        conn = self._conns[w]
        if conn is None:
            return False
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            self._mark_dead(w)
            return False
        self._comm["pipe_bytes_in"] += len(payload)
        self._comm["pipe_msgs_in"] += 1
        reply = pickle.loads(payload)
        self._route(w, reply)
        return True

    def _route(self, w: int, reply) -> None:
        kind, call_id = reply[0], reply[1]
        if kind == "strip_updated":
            self._strip_acks.add((reply[1], reply[2]))
            return
        token = self._tokens.get(call_id)
        if token is None:
            return  # reply for a call that was already finalized
        if kind == "done":
            _, _, outs, stats = reply
            self._stats.update(stats)
            token.pending.discard(w)
            grows: Dict[int, int] = {}
            for strip, status, payload in outs:
                if status == "ok":
                    token.payloads[strip] = payload
                    token.outstanding.get(w, set()).discard(strip)
                elif status == "err":
                    token.errors[strip] = payload
                    token.outstanding.get(w, set()).discard(strip)
                else:  # grow: result retained worker-side, needs a bigger grant
                    grows[strip] = int(payload)
            if grows:
                self._comm["output_overflows"] += len(grows)
                refs = {}
                for strip, needed in grows.items():
                    arena = self._out_arenas[strip]
                    arena.release(token.out_regions[strip])
                    hint = self._grant_hint[token.op]
                    hint[strip] = max(hint[strip], needed + needed // 4)
                    region = arena.reserve(needed)
                    token.out_regions[strip] = region
                    refs[strip] = arena.ref(region)
                if self._send(w, ("flush", call_id, refs)):
                    token.flushing.add(w)
            else:
                token.outstanding.pop(w, None)
        elif kind == "flushed":
            _, _, flushed = reply
            token.flushing.discard(w)
            for strip, (status, payload) in flushed.items():
                if status == "ok":
                    token.payloads[strip] = payload
                else:  # pragma: no cover - re-granted region still too small
                    token.errors[strip] = payload
                token.outstanding.get(w, set()).discard(strip)
            if not token.outstanding.get(w):
                token.outstanding.pop(w, None)
        if token.abandoned and token.complete:
            self._finalize(token)

    def _pump_token(self, token: _Inflight) -> None:
        """Block until every strip of this call is resolved.

        Resolution means: an ``ok``/``err`` record routed, a lost strip
        recovered (re-dispatched within the :class:`RetryPolicy` budget or
        recomputed in-process under ``degraded_fallback``), or — past the
        budget with fallback off — exactly one :class:`BackendError` for
        the whole call.  A configured ``deadline`` is checked before every
        wait, so a stalled worker can never hang the gather past its
        budget: the call is abandoned (regions release as late replies
        drain) and :class:`~repro.errors.DeadlineError` raised.
        """
        while True:
            if token.lost:
                self._recover(token)
            if not token.pending and not token.flushing:
                return
            if token.deadline_at is not None and \
                    time.monotonic() >= token.deadline_at:
                self._deadline_hit(token)
            waiting = token.pending or token.flushing
            w = next(iter(waiting))
            conn = self._conns[w]
            if conn is None:
                # raced with a death detected elsewhere; _mark_dead already
                # moved its strips to token.lost
                self._mark_dead(w)
                continue
            if token.deadline_at is None:
                self._pump_worker(w)
                continue
            remaining = token.deadline_at - time.monotonic()
            try:
                ready = conn.poll(min(max(remaining, 0.0), 0.2))
            except (EOFError, OSError):  # pragma: no cover - pipe torn down
                self._mark_dead(w)
                continue
            if ready:
                self._pump_worker(w)

    def _deadline_hit(self, token: _Inflight) -> None:
        """Abandon a call that exceeded its deadline and raise DeadlineError."""
        self._health["deadline_hits"] += 1
        waiting = sorted(token.pending | token.flushing)
        raise DeadlineError(
            f"backend call exceeded its {self._deadline_s:.3f}s deadline "
            f"with worker(s) {waiting} still running; the call was "
            f"abandoned — its shared-memory regions are released as the "
            f"late replies drain, and no partial result is returned")

    # ------------------------------------------------------------------ #
    # resilience: re-dispatch, degraded fallback
    # ------------------------------------------------------------------ #
    def _dispatch(self, token: _Inflight, w: int, strips: Sequence[int]) -> None:
        """(Re-)send a subset of the call's strips to worker ``w``.

        Builds the op message from the token's retained prologue
        (``proto``/``strip_specs``) with fresh output grants — the input
        region is still held by the token, so the resent call reads the
        exact bytes of the original dispatch and its results are
        bit-identical.  Bookkeeping (``pending``/``outstanding``) is updated
        *before* the send so a send failure attributes the strips as lost.
        """
        strips = sorted(strips)
        out_refs = {}
        for s in strips:
            old = token.out_regions.pop(s, None)
            if old is not None:
                self._out_arenas[s].release(old)
            out_refs[s] = self._grant(token, s)
            token.attempts[s] = token.attempts.get(s, 0) + 1
        msg = (token.op, token.call_id, strips,
               {s: self._strip_versions[s] for s in strips}, *token.proto,
               {s: token.strip_specs[s] for s in strips}, out_refs)
        token.pending.add(w)
        token.outstanding.setdefault(w, set()).update(strips)
        self._send(w, msg)

    def _recover(self, token: _Inflight) -> None:
        """Resolve the call's lost strips: retry, degrade, or raise."""
        lost, token.lost = sorted(token.lost), set()
        retryable: List[int] = []
        exhausted: List[int] = []
        for s in lost:
            if token.attempts.get(s, 1) < self._retry.max_attempts and \
                    token.redispatches < self._retry.budget:
                retryable.append(s)
                token.redispatches += 1
            else:
                exhausted.append(s)
        if retryable:
            self._health["retries"] += len(retryable)
            # exponential backoff before the i-th re-dispatch of a strip,
            # clipped so it can never sleep the call past its deadline
            max_prior = max(token.attempts.get(s, 1) for s in retryable)
            delay = self._retry.backoff_s * (2 ** (max_prior - 1))
            if delay > 0:
                if token.deadline_at is not None:
                    delay = min(delay, max(
                        0.0, token.deadline_at - time.monotonic()))
                time.sleep(delay)
            for w in range(self.num_workers):
                if self._workers[w] is None:
                    self._spawn(w)
                    self._health["respawns"] += 1
            by_worker: Dict[int, List[int]] = {}
            for s in retryable:
                by_worker.setdefault(s % self.num_workers, []).append(s)
            for w, strips in by_worker.items():
                self._dispatch(token, w, strips)
        if exhausted:
            if self._degraded_fallback:
                if not token.used_fallback:
                    token.used_fallback = True
                    self._health["fallback_calls"] += 1
                for s in exhausted:
                    self._fallback_strip(token, s)
            else:
                w, pid = token.last_death or (None, None)
                raise BackendError(
                    f"strip(s) {exhausted} lost to worker death (last: "
                    f"worker {w}, pid {pid}) after "
                    f"{max(token.attempts.get(s, 1) for s in exhausted)} "
                    f"attempt(s); retry policy {self._retry} exhausted — "
                    f"the pool respawns dead workers on the next call")

    def _fallback_strip(self, token: _Inflight, strip: int) -> None:
        """Recompute one lost strip in-process (the degraded path).

        Runs the same strip call on the parent's own copy of the strip with
        the same shard context and the inputs retained at submit time, so
        the result is bit-identical to what the worker would have produced.
        The strip's output region (if any) is released here — nothing will
        ever write it.
        """
        from ..core.workspace import SpMSpVWorkspace  # late: avoids cycle

        self._health["fallback_strips"] += 1
        old = token.out_regions.pop(strip, None)
        if old is not None:
            self._out_arenas[strip].release(old)
        ws = self._fallback_ws.get(strip)
        if ws is None and self.scheme == "row":
            ws = SpMSpVWorkspace(self._strips[strip].nrows, dtype=self._dtype)
            self._fallback_ws[strip] = ws
        shared, strips = token.inputs
        try:
            token.local_results[strip] = run_strip(
                token.op, self._strips[strip],
                {**_prepare_call(token.op, shared), **strips[strip]},
                self.shard_ctx, ws)
            if ws is not None:
                self._stats[strip] = ws.stats()
        except Exception as exc:
            # kernel exceptions are deterministic: surface exactly as a
            # worker-side failure would, annotated with the strip id
            token.local_errors[strip] = _attach_strip_id(exc, strip, self.name)

    def _finalize(self, token: _Inflight) -> None:
        """Release the call's arena regions once nothing can still write them."""
        if not token.complete:
            token.abandoned = True  # finalized by _route on the last reply
            return
        if token.finalized:
            return
        token.finalized = True
        if token.input_region is not None:
            self._input_arena.release(token.input_region)
        for strip, region in token.out_regions.items():
            self._out_arenas[strip].release(region)
        self._tokens.pop(token.call_id, None)

    def _read_results(self, token: _Inflight, strip: int) -> List:
        """Copy a strip's packed results out of its output region."""
        needed, entries = token.payloads[strip]
        self._comm["slab_bytes_out"] += needed
        hint = self._grant_hint[token.op]
        hint[strip] = max(hint[strip], needed + needed // 4)
        return _decode_results(
            entries, self._out_arenas[strip].view(token.out_regions[strip]))

    # ------------------------------------------------------------------ #
    # async submit/gather (the overlapped data plane)
    # ------------------------------------------------------------------ #
    def submit(self, op, shared, strips):
        """Pack the call's inputs once, grant outputs, dispatch every strip.

        Every array input — shared or per-strip — rides one input-arena
        region that all strips attach (broadcast-once); the pipe carries
        only the encoded inputs' descriptors.  With degraded fallback on,
        the parent-side inputs are retained for in-process recomputes.
        """
        arrays: List[np.ndarray] = []
        refs: List[_Ref] = []
        shared_spec = _encode_inputs(shared, arrays, refs)
        strip_specs = [_encode_inputs(st, arrays, refs) for st in strips]
        token = self._begin_call(op)
        token.input_region, in_ref, descs = self._pack_input(arrays)
        _bind_refs(refs, descs)
        token.proto = (in_ref, shared_spec)
        token.strip_specs = strip_specs
        if self._degraded_fallback:
            token.inputs = (shared, strips)
        for w in range(self.num_workers):
            if self.assignment[w]:
                self._dispatch(token, w, self.assignment[w])
        return token

    def _raise_strip_error(self, token: _Inflight) -> None:
        """Re-raise the lowest-strip kernel exception, worker- or parent-side."""
        strips = set(token.errors) | set(token.local_errors)
        if not strips:
            return
        strip = min(strips)
        if strip in token.local_errors:
            raise token.local_errors[strip]
        raise _load_exception(token.errors[strip], strip)

    def _strip_results(self, token: _Inflight, strip: int) -> List:
        """A strip's result list: fallback recompute or slab read-out."""
        if strip in token.local_results:
            return token.local_results[strip]
        return self._read_results(token, strip)

    def gather(self, token: _Inflight) -> List[List]:
        try:
            self._pump_token(token)
            self._raise_strip_error(token)
            return [self._strip_results(token, s)
                    for s in range(self.num_strips)]
        finally:
            self._finalize(token)

    def abandon(self, token: _Inflight) -> None:
        self._finalize(token)

    # ------------------------------------------------------------------ #
    # ExecutionBackend interface
    # ------------------------------------------------------------------ #
    def workspace_stats(self):
        if self.scheme != "row":
            return []  # column partials use no workspace, as in the emulated backend
        return [self._stats.get(s) or _fresh_stats(self._spa_rows[s])
                for s in range(self.num_strips)]

    def comm_stats(self) -> Dict[str, float]:
        """Comm-plane accounting: pipe vs. slab traffic, growth, overlap."""
        stats = dict(self._comm)
        stats["inflight"] = len(self._tokens)
        stats["input_grows"] = self._input_arena.grow_count
        stats["output_grows"] = sum(a.grow_count for a in self._out_arenas)
        stats["input_arena_bytes"] = self._input_arena.capacity
        stats["output_arena_bytes"] = sum(a.capacity for a in self._out_arenas)
        return stats

    def health_stats(self) -> Dict[str, object]:
        """Resilience accounting: deaths, retries, fallbacks, deadlines.

        ``worker_deaths`` is a per-worker-slot death count; ``respawns``
        counts replacement workers started; ``retries`` counts strip
        re-dispatches after a death; ``fallback_calls``/``fallback_strips``
        count calls (and strips within them) served by the in-process
        degraded path; ``deadline_hits`` counts calls abandoned at their
        deadline.  All zero on a healthy pool.
        """
        stats = dict(self._health)
        stats["worker_deaths"] = list(self._health["worker_deaths"])
        return stats

    def segment_names(self) -> List[str]:
        """Names of the live shared-memory segments (leak checks)."""
        names = [slab.name for slab in self._slabs]
        for arena in self._arenas:
            names.extend(arena.segment_names())
        return names

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the pool and release every shared-memory segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._tokens.clear()
        self._finalizer.detach()
        _shutdown_pool(self._workers, self._conns, self._slabs, self._arenas,
                       self._shutdown_timeouts)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "emulated": EmulatedBackend,
    "process": ProcessBackend,
}


def register_backend(name: str, factory: Callable[..., ExecutionBackend], *,
                     overwrite: bool = False) -> None:
    """Register an execution backend under a context-selectable name.

    ``factory`` is called with the keyword arguments of
    :func:`make_backend` (``strips``, ``shard_ctx``, ``dtype``, ``workers``,
    ``scheme``) and must return an
    :class:`ExecutionBackend`.
    """
    if name in _BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Names of all registered execution backends."""
    return sorted(_BACKENDS)


def make_backend(name: str, *, strips: Sequence[CSCMatrix],
                 shard_ctx: ExecutionContext, dtype,
                 workers: int = 0, scheme: str = "row") -> ExecutionBackend:
    """Build the backend ``name`` for one sharded engine's strips.

    ``scheme`` names the partition the strips came from: ``"row"``
    (horizontal CSC strips, the default) or ``"column"`` (vertical
    :class:`~repro.formats.dcsc.DCSCMatrix` strips, enabling the
    ``partial`` column-split op).  When the
    ``REPRO_BACKEND_FAULTS`` environment variable carries a fault plan (see
    :mod:`repro.parallel.faults`), requests for the ``process`` backend are
    transparently rerouted to the ``chaos`` wrapper, so every call site
    that selects the process backend — including suites that name it
    explicitly — runs under the seeded injected faults.
    """
    if name == "process" and os.environ.get(_FAULTS_ENV):
        from . import faults  # noqa: F401  (registers the chaos backend)
        name = "chaos"
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise NotSupportedError(
            f"unknown execution backend {name!r}; available: "
            f"{available_backends()}") from None
    return factory(strips=strips, shard_ctx=shard_ctx, dtype=dtype,
                   workers=workers, scheme=scheme)
