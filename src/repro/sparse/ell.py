"""Partition-padded ELL format (paper Section 3.1.4).

The GPU variant of the MemXCT baseline stores each row partition
(thread block) in column-major ELL: the block's rows are padded to the
block-local maximum row length, so consecutive threads (rows) read
consecutive memory locations — coalesced access.  Two details the paper
calls out versus cuSPARSE:

* padding is applied **per partition**, not per matrix, so a few long
  rows don't blow up the whole matrix;
* padded slots hold index ``0`` and value ``0`` and are multiplied
  redundantly instead of branched around, avoiding thread divergence.

The slab kernels (``spmv``/``spmv_batch``) walk the pad width with one
vector operation per column slot, mirroring the lockstep execution of a
warp.  They are the literal reference.  The production kernel
(``spmv_vendor``, single or batched) runs scipy's in-C
``csr_matvec(s)`` over the layout's unpadded rows instead.  Both sum each
row left to right from ``0.0`` in the same dtype, so the results are
bit-identical; only the padded ``0.0 * x[0]`` terms are gone, and with
them a non-finite ``x[0]`` leaking into every padded row.

A multi-RHS row sum in ``csr_matvecs`` waits on its own previous
update at every nonzero.  When the layout also knows its matrix by
columns (the operator's other direction) and each row is sorted by
column, the batched kernel runs ``csc_matvecs`` instead: it scatters
the same terms into each row in the same ascending-column order, with
no such chain, so it is faster and still bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .csr import CSRMatrix
from .partition import RowPartitions

__all__ = ["ELLPartitioned", "build_ell"]


@dataclass
class ELLPartitioned:
    """Partition-level padded ELL storage.

    Attributes
    ----------
    partitions:
        The row partitioning (one ELL slab per partition).
    widths:
        Pad width (max row nnz) of each partition.
    ind_slabs, val_slabs:
        Per-partition column-major arrays of shape
        ``(width, rows_in_partition)``; padded entries have index 0 and
        value 0.
    num_cols:
        Input-vector length.
    csr:
        The unpadded rows the slabs were built from, in slab order
        (shared, not copied); the vendor kernels run on them.
    columns:
        Optionally, the same matrix stored by columns: its transpose's
        rows, as the operator keeps them for the other direction.
        Partition slices drop it.
    """

    partitions: RowPartitions
    widths: np.ndarray
    ind_slabs: list[np.ndarray]
    val_slabs: list[np.ndarray]
    num_cols: int
    csr: CSRMatrix = field(repr=False, compare=False)
    columns: CSRMatrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.columns is not None and (
            self.columns.shape != self.csr.shape[::-1]
            or self.columns.nnz != self.csr.nnz
        ):
            raise ValueError(
                f"columns {self.columns.shape} with {self.columns.nnz} "
                f"nonzeros do not transpose rows {self.csr.shape} with "
                f"{self.csr.nnz} nonzeros"
            )

    @property
    def num_rows(self) -> int:
        return self.partitions.num_rows

    @property
    def padded_nnz(self) -> int:
        """Stored element count including padding."""
        return int(sum(slab.size for slab in self.val_slabs))

    @property
    def padding_overhead(self) -> float:
        """Fraction of stored elements that are padding."""
        real = sum(int(np.count_nonzero(slab)) for slab in self.val_slabs)
        total = self.padded_nnz
        return 1.0 - real / total if total else 0.0

    def partition_slice(self, part0: int, part1: int) -> "ELLPartitioned":
        """View-based sub-layout of the partition range ``[part0, part1)``.

        The per-partition slabs are shared (list slices of the same
        arrays) and the rows are a :meth:`CSRMatrix.row_block` view, so
        worker-owned partition ranges of the parallel backend cost no
        slab or row copies.  Any kernel on the slice produces
        exactly rows ``[part0 * partsize, min(part1 * partsize,
        num_rows))`` of the parent's result, bit-identically.
        """
        if not 0 <= part0 <= part1 <= self.partitions.num_partitions:
            raise ValueError(
                f"partition range [{part0}, {part1}) outside "
                f"[0, {self.partitions.num_partitions})"
            )
        partsize = self.partitions.partition_size
        row0 = part0 * partsize
        row1 = min(part1 * partsize, self.num_rows)
        return ELLPartitioned(
            partitions=RowPartitions(row1 - row0, partsize),
            widths=self.widths[part0:part1],
            ind_slabs=self.ind_slabs[part0:part1],
            val_slabs=self.val_slabs[part0:part1],
            num_cols=self.num_cols,
            csr=self.csr.row_block(row0, row1),
        )

    @cached_property
    def _scipy_rows(self) -> sp.csr_matrix:
        return _scipy_view(self.csr, self.csr.shape, sp.csr_matrix)

    @cached_property
    def _scipy_batch(self) -> sp.csr_matrix | sp.csc_matrix:
        """The batched kernel's matrix: by columns when that is bit-identical.

        Scattering by columns adds each row's terms in ascending column
        order, which is the row-wise order only if every row is sorted
        by column index.
        """
        if self.columns is None or not _rows_ascending(self.csr):
            return self._scipy_rows
        return _scipy_view(self.columns, self.csr.shape, sp.csc_matrix)

    def spmv_vendor(self, x: np.ndarray, batched: bool = False) -> np.ndarray:
        """Production SpMV: scipy's in-C kernel (see the module docstring).

        Bit-identical to :meth:`spmv`, or with ``batched`` to
        :meth:`spmv_batch` for an ``(num_cols, S)`` slab.
        """
        x = np.asarray(x)
        if batched and x.ndim != 2:
            raise ValueError(f"expected an (num_cols, S) slab, got shape {x.shape}")
        if x.shape[0] != self.num_cols:
            raise ValueError(f"x has {x.shape[0]} entries, expected {self.num_cols}")
        out = np.result_type(x.dtype, np.float32)
        if np.result_type(self.csr.val.dtype, x.dtype) != out:
            # scipy would accumulate in the wider value dtype; the slab
            # kernel accumulates in ``out``.  No cast keeps both.
            raise TypeError(
                f"{x.dtype} input on a {self.csr.val.dtype} ELL layout: "
                f"cast the input to {self.csr.val.dtype} first"
            )
        return (self._scipy_batch if batched else self._scipy_rows) @ x

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference coalesced-style SpMV: one vector op per ELL column slot."""
        x = np.asarray(x)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"x has {x.shape[0]} entries, expected {self.num_cols}")
        y = np.zeros(self.num_rows, dtype=np.result_type(x.dtype, np.float32))
        for part in range(self.partitions.num_partitions):
            start, stop = self.partitions.bounds(part)
            ind = self.ind_slabs[part]
            val = self.val_slabs[part]
            acc = np.zeros(stop - start, dtype=y.dtype)
            for w in range(ind.shape[0]):
                # Padded slots multiply x[0] by 0.0 — redundant work in
                # place of a branch, as on the GPU.
                acc += val[w] * x[ind[w]]
            y[start:stop] = acc
        return y

    def spmv_batch(self, x: np.ndarray) -> np.ndarray:
        """Reference coalesced-style multi-RHS SpMV for an ``(num_cols, S)`` slab.

        Each ELL column slot now updates an ``(rows, S)`` accumulator,
        so the padded layout is streamed once for all ``S`` right-hand
        sides.  Column ``j`` is bit-identical to ``spmv(x[:, j])``.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected an (num_cols, S) slab, got shape {x.shape}")
        if x.shape[0] != self.num_cols:
            raise ValueError(f"x has {x.shape[0]} rows, expected {self.num_cols}")
        y = np.zeros(
            (self.num_rows, x.shape[1]), dtype=np.result_type(x.dtype, np.float32)
        )
        for part in range(self.partitions.num_partitions):
            start, stop = self.partitions.bounds(part)
            ind = self.ind_slabs[part]
            val = self.val_slabs[part]
            acc = np.zeros((stop - start, x.shape[1]), dtype=y.dtype)
            for w in range(ind.shape[0]):
                acc += val[w][:, None] * x[ind[w]]
            y[start:stop] = acc
        return y


def _scipy_view(stored: CSRMatrix, shape, kind):
    """Zero-copy scipy ``kind`` (csr/csc) matrix over ``stored``'s arrays.

    ``CSRMatrix.to_scipy`` would do, except that scipy copies index
    and value arrays that are views of a much larger array, which
    every row block is.  Only ``displ`` is narrowed to the index
    dtype, an O(rows) copy.
    """
    index = np.int32 if stored.nnz <= np.iinfo(np.int32).max else np.int64
    view = kind(shape, dtype=stored.val.dtype)
    view.indptr = stored.displ.astype(index)
    view.indices = stored.ind.astype(index, copy=False)
    view.data = stored.val
    return view


def _rows_ascending(matrix: CSRMatrix) -> bool:
    """Whether every row's column indices strictly increase."""
    steps = np.diff(matrix.ind)
    breaks = matrix.displ[1:-1]
    steps[breaks[(breaks > 0) & (breaks < matrix.nnz)] - 1] = 1
    return bool((steps > 0).all())


def build_ell(
    matrix: CSRMatrix, partition_size: int, columns: CSRMatrix | None = None
) -> ELLPartitioned:
    """Convert a CSR matrix into partition-padded column-major ELL.

    The slabs inherit the matrix's value-storage dtype, so a
    ``float64`` matrix yields a full double-precision ELL layout.
    ``columns`` (the matrix's transpose, if at hand) is kept for the
    batched vendor kernel.
    """
    parts = RowPartitions(matrix.num_rows, partition_size)
    widths = np.zeros(parts.num_partitions, dtype=np.int64)
    ind_slabs: list[np.ndarray] = []
    val_slabs: list[np.ndarray] = []
    row_nnz = matrix.row_nnz()
    for part in range(parts.num_partitions):
        start, stop = parts.bounds(part)
        nrows = stop - start
        width = int(row_nnz[start:stop].max()) if nrows else 0
        widths[part] = width
        ind = np.zeros((width, nrows), dtype=np.int32)
        val = np.zeros((width, nrows), dtype=matrix.val.dtype)
        for j, row in enumerate(range(start, stop)):
            lo, hi = matrix.displ[row], matrix.displ[row + 1]
            k = hi - lo
            ind[:k, j] = matrix.ind[lo:hi]
            val[:k, j] = matrix.val[lo:hi]
        ind_slabs.append(ind)
        val_slabs.append(val)
    return ELLPartitioned(
        partitions=parts,
        widths=widths,
        ind_slabs=ind_slabs,
        val_slabs=val_slabs,
        num_cols=matrix.num_cols,
        csr=matrix,
        columns=columns,
    )
