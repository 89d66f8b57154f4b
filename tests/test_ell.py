"""Tests for partition-padded ELL storage (GPU-style layout)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.sparse import CSRMatrix, build_ell, scan_transpose
from repro.trace import build_projection_matrix


def _random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return sp.random(rows, cols, density=density, random_state=rng, format="csr", dtype=np.float32)


class TestELL:
    @pytest.mark.parametrize("partition_size", [1, 4, 16, 64])
    def test_spmv_matches_csr(self, partition_size):
        S = _random_sparse(50, 37, 0.15, 0)
        A = CSRMatrix.from_scipy(S)
        E = build_ell(A, partition_size)
        x = np.random.default_rng(1).random(37).astype(np.float32)
        np.testing.assert_allclose(E.spmv(x), A.spmv(x), atol=1e-4)

    def test_partition_level_padding_beats_matrix_level(self):
        """One long row must only pad its own partition — the point of
        partition-level ELL (paper Section 3.1.4)."""
        dense = np.zeros((32, 32), dtype=np.float32)
        dense[:, 0] = 1.0  # every row has 1 nnz ...
        dense[0, :] = 1.0  # ... except row 0, which has 32
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        E = build_ell(A, partition_size=8)
        matrix_level_padded = 32 * 32  # global width = 32
        assert E.padded_nnz < matrix_level_padded
        assert E.widths[0] == 32 and (E.widths[1:] == 1).all()

    def test_padded_slots_are_zero(self):
        A = CSRMatrix.from_scipy(_random_sparse(20, 20, 0.2, 2))
        E = build_ell(A, 8)
        for ind, val in zip(E.ind_slabs, E.val_slabs):
            pad = val == 0
            assert (ind[pad] == 0).all()

    def test_padding_overhead_range(self):
        A = CSRMatrix.from_scipy(_random_sparse(40, 40, 0.2, 3))
        E = build_ell(A, 8)
        assert 0.0 <= E.padding_overhead < 1.0

    def test_empty_partition_tail(self):
        """Row count not divisible by partition size."""
        S = _random_sparse(13, 9, 0.4, 4)
        A = CSRMatrix.from_scipy(S)
        E = build_ell(A, 5)
        assert E.partitions.num_partitions == 3
        x = np.random.default_rng(5).random(9).astype(np.float32)
        np.testing.assert_allclose(E.spmv(x), A.spmv(x), atol=1e-4)

    def test_wrong_input_length_rejected(self):
        E = build_ell(CSRMatrix.from_scipy(_random_sparse(6, 7, 0.5, 6)), 4)
        with pytest.raises(ValueError):
            E.spmv(np.ones(6, dtype=np.float32))

    def test_traced_matrix(self, small_matrix):
        E = build_ell(small_matrix, 16)
        x = np.random.default_rng(7).random(small_matrix.num_cols).astype(np.float32)
        np.testing.assert_allclose(E.spmv(x), small_matrix.spmv(x), rtol=1e-4, atol=1e-4)


def _traced(value_dtype: str) -> tuple[CSRMatrix, CSRMatrix]:
    """A traced, row-sorted matrix and its transpose, as the operator has them."""
    raw = build_projection_matrix(ParallelBeamGeometry(24, 20))
    A = CSRMatrix.from_scipy(raw, dtype=value_dtype).sort_rows_by_index()
    return A, scan_transpose(A)


#: (matrix value dtype, input dtype) for the operator's three precisions:
#: mixed and fp32 (dtype None / "float32") run fp32 kernels on an fp32
#: matrix, fp64 runs fp64 on fp64; an fp64 input on an fp32 matrix
#: upcasts in both kernels alike.
PRECISIONS = [
    ("float32", np.float32),
    ("float32", np.float64),
    ("float64", np.float64),
]


class TestVendorKernelBitIdentity:
    """The production ELL kernels (scipy csr/csc matvec(s)) equal the
    reference slab loops bit for bit.  This pins scipy's summation
    order: a scipy whose order differs fails here, not in a solve."""

    def _layouts(self, value_dtype):
        A, AT = _traced(value_dtype)
        return [
            build_ell(A, 16, AT),   # batched runs by columns
            build_ell(AT, 16, A),
            build_ell(A, 16),       # batched runs by rows
            build_ell(AT, 16),
        ]

    @staticmethod
    def _blocks(layout):
        n = layout.partitions.num_partitions
        yield layout
        for split in (1, n // 2, n - 1):
            yield layout.partition_slice(0, split)
            yield layout.partition_slice(split, n)

    @pytest.mark.parametrize("value_dtype,input_dtype", PRECISIONS)
    def test_single_and_batched(self, value_dtype, input_dtype):
        rng = np.random.default_rng(3)
        for layout in self._layouts(value_dtype):
            x = rng.standard_normal(layout.num_cols).astype(input_dtype)
            X = rng.standard_normal((layout.num_cols, 5)).astype(input_dtype)
            for block in self._blocks(layout):
                ref, got = block.spmv(x), block.spmv_vendor(x)
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)
                ref_b, got_b = block.spmv_batch(X), block.spmv_vendor(X, batched=True)
                assert got_b.dtype == ref_b.dtype
                assert np.array_equal(got_b, ref_b)

    def test_column_path_taken_only_for_sorted_rows(self):
        A, AT = _traced("float32")
        assert build_ell(A, 16, AT)._scipy_batch.format == "csc"
        assert build_ell(A, 16)._scipy_batch.format == "csr"
        assert build_ell(A, 16, AT).partition_slice(0, 2).columns is None
        # Swap two entries of one row: scattering by columns would now
        # add them in another order, so the batched kernel keeps rows.
        ind, val = A.ind.copy(), A.val.copy()
        lo = int(A.displ[np.flatnonzero(A.row_nnz() >= 2)[0]])
        ind[[lo, lo + 1]], val[[lo, lo + 1]] = ind[[lo + 1, lo]], val[[lo + 1, lo]]
        shuffled = CSRMatrix(A.displ, ind, val, A.num_cols)
        E = build_ell(shuffled, 16, AT)
        assert E._scipy_batch.format == "csr"
        X = np.random.default_rng(4).random((A.num_cols, 3)).astype(np.float32)
        assert np.array_equal(E.spmv_vendor(X, batched=True), E.spmv_batch(X))

    def test_columns_must_transpose_rows(self):
        A, AT = _traced("float32")
        with pytest.raises(ValueError):
            build_ell(A, 16, A)

    def test_fp32_input_on_fp64_layout_rejected(self):
        """scipy would accumulate in float64 where the slab kernel
        accumulates in float32: refuse rather than drift."""
        A, AT = _traced("float64")
        E = build_ell(A, 16, AT)
        with pytest.raises(TypeError):
            E.spmv_vendor(np.ones(A.num_cols, dtype=np.float32))
        with pytest.raises(TypeError):
            E.spmv_vendor(np.ones((A.num_cols, 2), dtype=np.float32), batched=True)

    @pytest.mark.parametrize("dtype", [None, "float32", "float64"])
    def test_operator_precisions(self, dtype):
        """Through the operator's own cast, every precision runs the
        vendor kernel and lands on the reference bits and dtype."""
        op, _ = preprocess(
            ParallelBeamGeometry(24, 20),
            config=OperatorConfig(kernel="ell", partition_size=16, dtype=dtype),
            cache="off",
        )
        rng = np.random.default_rng(5)
        x = rng.standard_normal(op.num_pixels)
        X = rng.standard_normal((op.num_pixels, 4))
        y = rng.standard_normal(op.num_rays)
        cast = op.compute_dtype
        for got, ref in (
            (op.forward(x), op.ell_forward.spmv(x.astype(cast))),
            (op.adjoint(y), op.ell_adjoint.spmv(y.astype(cast))),
            (op.forward_batch(X), op.ell_forward.spmv_batch(X.astype(cast))),
        ):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_batched_rejects_a_vector(self):
        A, AT = _traced("float32")
        with pytest.raises(ValueError):
            build_ell(A, 16, AT).spmv_vendor(np.ones(A.num_cols, np.float32), batched=True)
