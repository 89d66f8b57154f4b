"""Multi-stage input buffering (paper Section 3.3, Listing 3).

For each row partition, the distinct input elements it gathers are
collected (in domain order, so Hilbert locality carries over), split
into *stages* of at most one buffer's worth, and the partition's
nonzeros are regrouped by stage.  At execution time each stage is
explicitly copied from the input vector into a small buffer
(``input[i] = x[map[start + i]]``) and the stage's nonzeros then gather
from the buffer with **16-bit** local indices instead of 32-bit global
ones — the 25 % regular-bandwidth saving of Section 3.3.5.

Data structures follow Listing 3 exactly:

* ``partdispl`` — stage ranges per partition;
* ``stagedispl`` / ``stagenz`` — per-stage offsets into ``map``;
* ``map`` — global input indices to stage;
* ``displ`` — nonzero offsets indexed by ``stage * partsize + j``
  (row ``j`` within the partition);
* ``ind`` (uint16) / ``val`` — buffer-local indices and values in the
  stage-grouped order.

Two kernels are provided: :meth:`BufferedMatrix.spmv` walks
partition/stage/row exactly like Listing 3 (used in tests and the cache
simulator), and :meth:`BufferedMatrix.spmv_vectorized` evaluates the
identical dataflow with whole-array numpy operations (used by the
solvers and benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix, csr_row_sums
from .partition import RowPartitions

__all__ = [
    "BufferedMatrix",
    "build_buffered",
    "validate_buffer_bytes",
    "BYTES_PER_INPUT_ELEMENT",
]

#: Input elements are float32.
BYTES_PER_INPUT_ELEMENT = 4

#: uint16 buffer addressing caps the buffer at 2^16 elements = 256 KB,
#: exactly the limit stated in paper Section 3.3.5.
_MAX_BUFFER_ELEMENTS = 1 << 16


def validate_buffer_bytes(buffer_bytes: int) -> int:
    """Validate a buffered-kernel capacity, returning the element count.

    Shared by :func:`build_buffered` and ``OperatorConfig`` so an
    out-of-range capacity fails at config construction, not after
    tracing has already been paid for.  The capacity must be a whole
    number of float32 elements — a non-multiple of 4 would silently
    floor (30 KB + 3 B behaving as 30 KB), so it is rejected instead.
    """
    if buffer_bytes % BYTES_PER_INPUT_ELEMENT:
        raise ValueError(
            f"buffer_bytes must be a multiple of {BYTES_PER_INPUT_ELEMENT} "
            f"(float32 elements), got {buffer_bytes}"
        )
    buffer_elements = buffer_bytes // BYTES_PER_INPUT_ELEMENT
    if buffer_elements < 1:
        raise ValueError(f"buffer too small: {buffer_bytes} bytes")
    if buffer_elements > _MAX_BUFFER_ELEMENTS:
        raise ValueError(
            f"buffer of {buffer_bytes} bytes exceeds 16-bit addressing "
            f"({_MAX_BUFFER_ELEMENTS * BYTES_PER_INPUT_ELEMENT} bytes max)"
        )
    return buffer_elements


@dataclass
class BufferedMatrix:
    """A CSR matrix re-laid-out for multi-stage input buffering."""

    partitions: RowPartitions
    buffer_elements: int
    partdispl: np.ndarray  # (numparts + 1,) stage ranges
    stagedispl: np.ndarray  # (numstages + 1,) offsets into map
    map: np.ndarray  # (sum stagenz,) int32 global input indices
    displ: np.ndarray  # (numstages * partsize + 1,) nonzero offsets
    ind: np.ndarray  # (nnz,) uint16 buffer-local indices
    val: np.ndarray  # (nnz,) values (float32, or float64 on the fp64 path)
    num_cols: int

    # -- properties ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.partitions.num_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nnz(self) -> int:
        return int(self.ind.shape[0])

    @property
    def num_stages(self) -> int:
        return self.stagedispl.shape[0] - 1

    @property
    def buffer_bytes(self) -> int:
        """Configured buffer capacity in bytes."""
        return self.buffer_elements * BYTES_PER_INPUT_ELEMENT

    def stages_per_partition(self) -> np.ndarray:
        """Stage count of each partition (paper Fig. 6(b))."""
        return np.diff(self.partdispl)

    # -- persistence ---------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the layout fields only, never the lazy index plan.

        ``_vector_plan`` caches derived index arrays on the instance;
        carrying that cache through pickling (the plan cache, the
        process-pool backend) would persist megabytes of redundant
        state and could go stale if ``displ``/``ind`` are replaced
        after a load.  It is rebuilt lazily on first use instead.
        """
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    def __setstate__(self, state: dict) -> None:
        state.pop("_plan", None)  # defensive: drop plans from old pickles
        self.__dict__.update(state)

    def map_bytes(self) -> int:
        """Extra memory traffic for staging: the ``map`` reads."""
        return int(self.map.shape[0]) * 4

    def regular_bytes_per_fma(self) -> float:
        """Regular-stream bytes per FMA: value bytes + 2 B uint16 index.

        6 B for the default float32 values (paper Section 3.3.5), 10 B
        on the opt-in float64 path.
        """
        return float(self.val.dtype.itemsize + 2)

    # -- kernels -------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Literal rendering of paper Listing 3 (partition/stage loops).

        Slow (Python-level loops over partitions and stages) but
        structurally identical to the C kernel; the cache simulator
        replays exactly this access pattern.
        """
        x = np.asarray(x)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"x has {x.shape[0]} entries, expected {self.num_cols}")
        partsize = self.partitions.partition_size
        y = np.zeros(self.num_rows, dtype=np.result_type(x.dtype, np.float32))
        for part in range(self.partitions.num_partitions):
            row0, row1 = self.partitions.bounds(part)
            output = np.zeros(partsize, dtype=y.dtype)
            for stage in range(self.partdispl[part], self.partdispl[part + 1]):
                s0, s1 = self.stagedispl[stage], self.stagedispl[stage + 1]
                buffer = x[self.map[s0:s1]]  # explicit staging gather
                base = stage * partsize
                d = self.displ[base : base + partsize + 1]
                prod = self.val[d[0] : d[-1]] * buffer[self.ind[d[0] : d[-1]]]
                output += csr_row_sums(prod, d - d[0], partsize)
            y[row0:row1] += output[: row1 - row0]
        return y

    def _vector_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays shared by the vectorized kernels, built lazily.

        Returns ``(global_ind, keep, rows_kept)``: the buffer-global
        index of each nonzero, the mask of real (non-padding) row
        slots, and the output row of each kept slot.  Cached on the
        instance and reused by every later call — :meth:`spmv_batch`
        builds it at most once for all of its columns.
        """
        plan = getattr(self, "_plan", None)
        if plan is None:
            partsize = self.partitions.partition_size
            num_stages = self.num_stages
            stage_of_slot = np.repeat(np.arange(num_stages, dtype=np.int64), partsize)
            slot_nnz = np.diff(self.displ)
            stage_of_nnz = np.repeat(stage_of_slot, slot_nnz)
            global_ind = self.stagedispl[stage_of_nnz] + self.ind
            # Row j of partition p accumulates its slot in every stage.
            part_of_stage = np.repeat(
                np.arange(self.partitions.num_partitions, dtype=np.int64),
                np.diff(self.partdispl),
            )
            rows_of_slot = (
                part_of_stage.repeat(partsize) * partsize
                + np.tile(np.arange(partsize, dtype=np.int64), num_stages)
            )
            keep = rows_of_slot < self.num_rows
            plan = (global_ind, keep, rows_of_slot[keep])
            self._plan = plan
        return plan

    def spmv_vectorized(self, x: np.ndarray) -> np.ndarray:
        """Whole-array evaluation of the same staged dataflow.

        Gathers ``x`` through ``map`` once (the concatenation of all
        stage buffers), forms all products, and row-reduces with the
        stage-grouped ``displ``.  Numerically identical to
        :meth:`spmv`.
        """
        x = np.asarray(x)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"x has {x.shape[0]} entries, expected {self.num_cols}")
        staged = x[self.map]  # all stage buffers back to back
        # Global buffer-index of each nonzero: stage offset + local uint16.
        global_ind, keep, rows_kept = self._vector_plan()
        prod = self.val * staged[global_ind]
        slot_sums = csr_row_sums(
            prod, self.displ, self.num_stages * self.partitions.partition_size
        )
        y = np.zeros(self.num_rows, dtype=np.result_type(x.dtype, np.float32))
        np.add.at(y, rows_kept, slot_sums[keep])
        return y

    def partition_slice(self, part0: int, part1: int) -> "BufferedMatrix":
        """View-based sub-layout of the partition range ``[part0, part1)``.

        The stage-grouped arrays of a contiguous partition range are
        themselves contiguous, so the slice shares ``map``/``ind``/
        ``val`` storage with the parent; only the small offset arrays
        are rebased copies.  Running any kernel on the slice produces
        exactly the rows ``[part0 * partsize, min(part1 * partsize,
        num_rows))`` of the parent's result, bit-identically — the
        contract the partition-parallel backend is built on.
        """
        if not 0 <= part0 <= part1 <= self.partitions.num_partitions:
            raise ValueError(
                f"partition range [{part0}, {part1}) outside "
                f"[0, {self.partitions.num_partitions})"
            )
        partsize = self.partitions.partition_size
        s0, s1 = int(self.partdispl[part0]), int(self.partdispl[part1])
        m0, m1 = int(self.stagedispl[s0]), int(self.stagedispl[s1])
        d0 = int(self.displ[s0 * partsize])
        d1 = int(self.displ[s1 * partsize])
        row0 = part0 * partsize
        row1 = min(part1 * partsize, self.num_rows)
        return BufferedMatrix(
            partitions=RowPartitions(row1 - row0, partsize),
            buffer_elements=self.buffer_elements,
            partdispl=self.partdispl[part0 : part1 + 1] - s0,
            stagedispl=self.stagedispl[s0 : s1 + 1] - m0,
            map=self.map[m0:m1],
            displ=self.displ[s0 * partsize : s1 * partsize + 1] - d0,
            ind=self.ind[d0:d1],
            val=self.val[d0:d1],
            num_cols=self.num_cols,
        )

    def spmv_batch(self, x: np.ndarray) -> np.ndarray:
        """Staged multi-RHS SpMV for an ``(num_cols, S)`` slab.

        Runs :meth:`spmv_vectorized` once per column of a
        column-contiguous copy, so column ``j`` *is*
        ``spmv_vectorized(x[:, j])`` (same bits, same dtype) and costs
        about one single call; a slab-wide ``x[map]`` gather costs 3–6x
        that per column.  Returns an ``(num_rows, S)`` view with
        contiguous columns.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected an (num_cols, S) slab, got shape {x.shape}")
        if x.shape[0] != self.num_cols:
            raise ValueError(f"x has {x.shape[0]} rows, expected {self.num_cols}")
        columns = np.ascontiguousarray(x.T)
        y = np.empty(
            (x.shape[1], self.num_rows), dtype=np.result_type(x.dtype, np.float32)
        )
        for j, column in enumerate(columns):
            y[j] = self.spmv_vectorized(column)
        return y.T


def build_buffered(
    matrix: CSRMatrix,
    partition_size: int,
    buffer_bytes: int = 32 * 1024,
) -> BufferedMatrix:
    """Build the multi-stage buffered layout of ``matrix``.

    Parameters
    ----------
    matrix:
        CSR matrix whose columns are already in the desired domain
        order (stages follow that order, so Hilbert ordering must be
        applied *before* buffering — the paper applies the
        optimizations in that order for the same reason).
    partition_size:
        Rows per partition (thread block size).
    buffer_bytes:
        Buffer capacity; at most 256 KB because of uint16 addressing.
    """
    buffer_elements = validate_buffer_bytes(buffer_bytes)
    parts = RowPartitions(matrix.num_rows, partition_size)

    partdispl = np.zeros(parts.num_partitions + 1, dtype=np.int64)
    stage_sizes: list[int] = []
    map_parts: list[np.ndarray] = []
    displ_parts: list[np.ndarray] = []
    ind_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []

    for part in range(parts.num_partitions):
        row0, row1 = parts.bounds(part)
        lo, hi = matrix.displ[row0], matrix.displ[row1]
        cols = matrix.ind[lo:hi]
        vals = matrix.val[lo:hi]
        rows_local = np.repeat(
            np.arange(row1 - row0, dtype=np.int64), np.diff(matrix.displ[row0 : row1 + 1])
        )
        # Distinct inputs of the partition, in domain (ascending) order.
        distinct, inverse = np.unique(cols, return_inverse=True)
        num_stages = max(1, -(-distinct.shape[0] // buffer_elements))
        stage_of_nnz = inverse // buffer_elements
        local_ind = (inverse % buffer_elements).astype(np.uint16)

        # Group this partition's nonzeros by (stage, row), keeping the
        # within-row domain order.
        order = np.lexsort((np.arange(cols.shape[0]), rows_local, stage_of_nnz))
        sorted_stage = stage_of_nnz[order]
        sorted_rows = rows_local[order]
        ind_parts.append(local_ind[order])
        val_parts.append(vals[order])

        # Per-(stage, row-slot) counts -> displ block for this partition.
        partsize = parts.partition_size
        slot = sorted_stage * partsize + sorted_rows
        counts = np.bincount(slot, minlength=num_stages * partsize)
        displ_parts.append(counts.astype(np.int64))

        # Stage buffers: consecutive chunks of the distinct-input list.
        for s in range(num_stages):
            chunk = distinct[s * buffer_elements : (s + 1) * buffer_elements]
            map_parts.append(chunk.astype(np.int32))
            stage_sizes.append(chunk.shape[0])
        partdispl[part + 1] = partdispl[part] + num_stages

    stagedispl = np.zeros(len(stage_sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(stage_sizes, dtype=np.int64), out=stagedispl[1:])
    all_counts = (
        np.concatenate(displ_parts) if displ_parts else np.empty(0, dtype=np.int64)
    )
    displ = np.zeros(all_counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(all_counts, out=displ[1:])

    return BufferedMatrix(
        partitions=parts,
        buffer_elements=buffer_elements,
        partdispl=partdispl,
        stagedispl=stagedispl,
        map=np.concatenate(map_parts) if map_parts else np.empty(0, dtype=np.int32),
        displ=displ,
        ind=np.concatenate(ind_parts) if ind_parts else np.empty(0, dtype=np.uint16),
        val=np.concatenate(val_parts)
        if val_parts
        else np.empty(0, dtype=matrix.val.dtype),
        num_cols=matrix.num_cols,
    )
