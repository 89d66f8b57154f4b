"""Partition-parallel SpMV engine over the three matrix layouts.

The decomposition mirrors the paper's OpenMP strategy: the row
partitions (Hilbert-ordered, so spatially coherent) are split into one
**contiguous range per worker**.  Every layout — CSR row blocks,
stage-grouped buffered, partition-padded ELL — produces a disjoint,
contiguous span of output rows per partition range, so the parallel
result is the concatenation of the per-worker results in partition
order.  Within each range the kernels execute exactly the serial
instruction stream, which makes parallel output **bit-identical** to
serial output for every backend (the determinism contract the tests
enforce).

Thread mode shares the layouts directly.  Process mode exports each
layout's arrays into POSIX shared memory once, at engine construction;
workers attach in their pool initializer and rebuild zero-copy views,
so a task is just ``(direction, part0, part1, input-segment name)``.

This module deliberately knows nothing about operators or geometry —
it receives layouts and a partition size explicitly, keeping
``repro.parallel`` import-cycle-free below ``repro.core``.
"""

from __future__ import annotations

import weakref
from time import perf_counter

import numpy as np

from ..obs import (
    PARALLEL_DISPATCHES,
    PARALLEL_SHM_BYTES,
    PARALLEL_TASKS,
    REGISTRY,
    add_count,
    emit_span,
)
from ..sparse.buffering import BufferedMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.ell import ELLPartitioned
from ..sparse.partition import RowPartitions
from . import shm
from .backend import ProcessBackend, SerialBackend, make_backend

__all__ = ["ParallelSpmvEngine", "partition_ranges"]


def partition_ranges(num_partitions: int, workers: int) -> list[tuple[int, int]]:
    """Balanced contiguous split of ``[0, num_partitions)`` into ranges.

    At most ``workers`` non-empty ranges; the first
    ``num_partitions % workers`` ranges get one extra partition.
    """
    if num_partitions <= 0:
        return []
    workers = max(1, min(workers, num_partitions))
    base, extra = divmod(num_partitions, workers)
    ranges: list[tuple[int, int]] = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# -- layout helpers (uniform view over the three formats) ---------------


def _layout_partitions(layout, partition_size: int) -> int:
    if isinstance(layout, CSRMatrix):
        return RowPartitions(layout.num_rows, partition_size).num_partitions
    return layout.partitions.num_partitions


def _slice_layout(layout, part0: int, part1: int, partition_size: int):
    if isinstance(layout, CSRMatrix):
        row0 = part0 * partition_size
        row1 = min(part1 * partition_size, layout.num_rows)
        return layout.row_block(row0, row1)
    return layout.partition_slice(part0, part1)


def _kernel_call(layout, x: np.ndarray, batched: bool) -> np.ndarray:
    """Apply the layout's production kernel — the one dispatch point.

    The operator's serial path, every worker slice of the engine and
    the autotuner's trials all call this, so each runs the kernel the
    others run.  Buffered and ELL layouts keep a literal reference
    kernel (``spmv``, plus ``spmv_batch`` for ELL) beside a faster
    bit-identical production one: buffered runs ``spmv_vectorized``,
    ELL runs scipy's ``csr_matvec(s)`` over its unpadded rows.
    """
    if isinstance(layout, ELLPartitioned):
        return layout.spmv_vendor(x, batched)
    if batched:
        return layout.spmv_batch(x)
    vectorized = getattr(layout, "spmv_vectorized", None)
    return vectorized(x) if vectorized is not None else layout.spmv(x)


def _flatten_layout(layout) -> tuple[str, dict[str, np.ndarray], dict]:
    """Decompose a layout into shm-exportable arrays plus scalar meta."""
    if isinstance(layout, CSRMatrix):
        arrays = {"displ": layout.displ, "ind": layout.ind, "val": layout.val}
        return "csr", arrays, {"num_cols": layout.num_cols}
    if isinstance(layout, BufferedMatrix):
        arrays = {
            "partdispl": layout.partdispl,
            "stagedispl": layout.stagedispl,
            "map": layout.map,
            "displ": layout.displ,
            "ind": layout.ind,
            "val": layout.val,
        }
        meta = {
            "num_cols": layout.num_cols,
            "num_rows": layout.num_rows,
            "partition_size": layout.partitions.partition_size,
            "buffer_elements": layout.buffer_elements,
        }
        return "buffered", arrays, meta
    if isinstance(layout, ELLPartitioned):
        rows = np.array([slab.shape[1] for slab in layout.ind_slabs], dtype=np.int64)

        def flat(slabs: list[np.ndarray], dtype) -> np.ndarray:
            if not slabs:
                return np.empty(0, dtype=dtype)
            return np.concatenate([slab.ravel() for slab in slabs])

        arrays = {
            "widths": np.asarray(layout.widths, dtype=np.int64),
            "rows": rows,
            "ind_flat": flat(layout.ind_slabs, np.int32),
            "val_flat": flat(layout.val_slabs, np.float32),
            "displ": layout.csr.displ,
            "ind": layout.csr.ind,
            "val": layout.csr.val,
        }
        meta = {
            "num_cols": layout.num_cols,
            "num_rows": layout.num_rows,
            "partition_size": layout.partitions.partition_size,
        }
        return "ell", arrays, meta
    raise TypeError(f"unsupported layout type {type(layout)!r}")


def _rebuild_layout(kind: str, arrays: dict[str, np.ndarray], meta: dict):
    """Inverse of :func:`_flatten_layout` over (possibly shm-backed) views."""
    if kind == "csr":
        return CSRMatrix(
            displ=arrays["displ"],
            ind=arrays["ind"],
            val=arrays["val"],
            num_cols=meta["num_cols"],
            # Without this an fp64 operator's values would be silently
            # downcast to the float32 default on worker-side rebuild.
            value_dtype=arrays["val"].dtype.name,
        )
    if kind == "buffered":
        return BufferedMatrix(
            partitions=RowPartitions(meta["num_rows"], meta["partition_size"]),
            buffer_elements=meta["buffer_elements"],
            partdispl=arrays["partdispl"],
            stagedispl=arrays["stagedispl"],
            map=arrays["map"],
            displ=arrays["displ"],
            ind=arrays["ind"],
            val=arrays["val"],
            num_cols=meta["num_cols"],
        )
    if kind == "ell":
        widths = arrays["widths"]
        rows = arrays["rows"]
        sizes = widths * rows
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        ind_slabs = []
        val_slabs = []
        for p in range(len(sizes)):
            lo, hi = offsets[p], offsets[p + 1]
            shape = (int(widths[p]), int(rows[p]))
            ind_slabs.append(arrays["ind_flat"][lo:hi].reshape(shape))
            val_slabs.append(arrays["val_flat"][lo:hi].reshape(shape))
        return ELLPartitioned(
            partitions=RowPartitions(meta["num_rows"], meta["partition_size"]),
            widths=widths,
            ind_slabs=ind_slabs,
            val_slabs=val_slabs,
            num_cols=meta["num_cols"],
            csr=_rebuild_layout("csr", arrays, meta),
        )
    raise ValueError(f"unknown layout kind {kind!r}")


# -- process-worker side ------------------------------------------------

# Populated by _worker_init in every pool worker:
# {direction: (layout, partition_size)}.
_WORKER_LAYOUTS: dict[str, tuple[object, int]] = {}


def _worker_init(payload: dict) -> None:
    """Pool initializer: attach shm segments, rebuild layouts once."""
    _WORKER_LAYOUTS.clear()
    for direction, (kind, seg_name, manifest, meta, partition_size) in payload.items():
        arrays = shm.attach_arrays(seg_name, manifest)
        _WORKER_LAYOUTS[direction] = (
            _rebuild_layout(kind, arrays, meta),
            partition_size,
        )


def _process_task(task: tuple) -> tuple[np.ndarray, float, float]:
    """One worker task: SpMV of a partition range against a shm input."""
    direction, part0, part1, batched, seg_name, manifest = task
    start = perf_counter()
    layout, partition_size = _WORKER_LAYOUTS[direction]
    x = shm.read_copy(seg_name, manifest)["x"]
    sub = _slice_layout(layout, part0, part1, partition_size)
    y = _kernel_call(sub, x, batched)
    return y, start, perf_counter()


# -- the engine ---------------------------------------------------------


class ParallelSpmvEngine:
    """Dispatch forward/adjoint SpMV across partition-range workers.

    Parameters
    ----------
    workers, mode:
        Resolved backend spec (see :func:`repro.parallel.parse_workers`).
    partition_size:
        Rows per partition — the decomposition granularity for CSR
        layouts (buffered/ELL carry their own partitioning).
    forward_layout, adjoint_layout:
        The two kernel objects; any of :class:`CSRMatrix`,
        :class:`BufferedMatrix`, :class:`ELLPartitioned`.
    """

    def __init__(
        self,
        *,
        workers: int,
        mode: str,
        partition_size: int,
        forward_layout,
        adjoint_layout,
    ):
        self.workers = workers
        self.mode = mode
        self.partition_size = partition_size
        self._layouts = {"forward": forward_layout, "adjoint": adjoint_layout}
        self._ranges = {
            direction: partition_ranges(
                _layout_partitions(layout, partition_size), workers
            )
            for direction, layout in self._layouts.items()
        }
        self._slices: dict[str, list] = {}
        self._segments: list[shm.SharedArrays] = []
        self._closed = False
        if mode == "process":
            payload = {}
            shm_bytes = 0
            for direction, layout in self._layouts.items():
                kind, arrays, meta = _flatten_layout(layout)
                shared = shm.SharedArrays(arrays)
                self._segments.append(shared)
                shm_bytes += shared.nbytes
                payload[direction] = (
                    kind,
                    shared.name,
                    shared.manifest,
                    meta,
                    partition_size,
                )
            add_count(PARALLEL_SHM_BYTES, shm_bytes)
            self._backend = make_backend(
                workers, mode, initializer=_worker_init, initargs=(payload,)
            )
        else:
            self._backend = make_backend(workers, mode)
            for direction, layout in self._layouts.items():
                self._slices[direction] = [
                    _slice_layout(layout, p0, p1, partition_size)
                    for p0, p1 in self._ranges[direction]
                ]
        # Shared-memory segments must not outlive the process even if
        # close() is never called explicitly.
        self._finalizer = weakref.finalize(
            self, _release, self._backend, list(self._segments)
        )

    # -- dispatch -------------------------------------------------------

    def apply(self, direction: str, x: np.ndarray) -> np.ndarray:
        """Run the ``direction`` kernel on ``x`` (1D vector or 2D slab).

        Falls back to the plain serial kernel when the decomposition
        is degenerate (one range or serial backend).
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        layout = self._layouts[direction]
        ranges = self._ranges[direction]
        batched = x.ndim == 2
        if len(ranges) < 2 or isinstance(self._backend, SerialBackend):
            return _kernel_call(layout, x, batched)
        observing = REGISTRY.active
        if self.mode == "process":
            shared_x = shm.SharedArrays({"x": np.ascontiguousarray(x)})
            try:
                if observing:
                    add_count(PARALLEL_SHM_BYTES, shared_x.nbytes)
                tasks = [
                    (direction, p0, p1, batched, shared_x.name, shared_x.manifest)
                    for p0, p1 in ranges
                ]
                results = self._backend.map(_process_task, tasks)
            finally:
                shared_x.dispose()
        else:
            slices = self._slices[direction]

            def run(sub) -> tuple[np.ndarray, float, float]:
                start = perf_counter()
                y = _kernel_call(sub, x, batched)
                return y, start, perf_counter()

            results = self._backend.map(run, slices)

        if observing:
            add_count(PARALLEL_DISPATCHES, 1)
            add_count(PARALLEL_TASKS, len(ranges))
            for index, ((_, start, end), (p0, p1)) in enumerate(zip(results, ranges)):
                emit_span(
                    "parallel.worker",
                    start,
                    end,
                    worker=index,
                    direction=direction,
                    part0=p0,
                    part1=p1,
                    mode=self.mode,
                )
        return np.concatenate([y for y, _, _ in results])

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the backend down and unlink shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release(self._backend, self._segments)
        self._segments = []

    def __enter__(self) -> "ParallelSpmvEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _release(backend, segments: list) -> None:
    # Workers only attach; the pool must drain before the parent
    # unlinks, or late tasks would attach a vanished segment.
    backend.close()
    for shared in segments:
        shared.dispose()
