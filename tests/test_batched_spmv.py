"""Tests for the batched multi-RHS SpMV paths of all three kernels.

The contract under test: for every kernel layout (CSR, multi-stage
buffered, partition-padded ELL), ``spmv_batch(X)[:, j]`` is
**bit-identical** to ``spmv(X[:, j])`` — the batched path is the same
arithmetic in the same order, just amortizing the matrix streams over
``S`` right-hand sides — and the operator-level batch entry points
preserve adjointness per column.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import OperatorConfig, preprocess
from repro.sparse import build_buffered, build_ell, scan_transpose


@pytest.fixture(scope="module")
def batch_operator(request):
    from repro.geometry import ParallelBeamGeometry

    op, _ = preprocess(
        ParallelBeamGeometry(36, 24),
        config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=4096),
    )
    return op


def _slab(rng, n, s):
    return rng.normal(size=(n, s)).astype(np.float32)


class TestKernelBatchEquivalence:
    """spmv_batch column j == spmv(column j), bitwise, per layout."""

    def test_csr(self, medium_matrix, rng):
        X = _slab(rng, medium_matrix.num_cols, 5)
        Y = medium_matrix.spmv_batch(X)
        assert Y.shape == (medium_matrix.num_rows, 5)
        for j in range(5):
            assert np.array_equal(Y[:, j], medium_matrix.spmv(X[:, j]))

    def test_buffered(self, ordered_medium, rng):
        matrix, _, _ = ordered_medium
        buffered = build_buffered(matrix, partition_size=64, buffer_bytes=4096)
        X = _slab(rng, matrix.num_cols, 4)
        Y = buffered.spmv_batch(X)
        for j in range(4):
            assert np.array_equal(Y[:, j], buffered.spmv_vectorized(X[:, j]))

    def test_ell(self, ordered_medium, rng):
        matrix, _, _ = ordered_medium
        ell = build_ell(matrix, partition_size=64)
        X = _slab(rng, matrix.num_cols, 4)
        Y = ell.spmv_batch(X)
        for j in range(4):
            assert np.array_equal(Y[:, j], ell.spmv(X[:, j]))

    def test_transpose_csr(self, medium_matrix, rng):
        matrix_t = scan_transpose(medium_matrix)
        Y = _slab(rng, matrix_t.num_cols, 3)
        X = matrix_t.spmv_batch(Y)
        for j in range(3):
            assert np.array_equal(X[:, j], matrix_t.spmv(Y[:, j]))

    def test_single_column_slab(self, medium_matrix, rng):
        X = _slab(rng, medium_matrix.num_cols, 1)
        assert np.array_equal(
            medium_matrix.spmv_batch(X)[:, 0], medium_matrix.spmv(X[:, 0])
        )


class TestShapeValidation:
    def test_csr_rejects_1d(self, medium_matrix):
        with pytest.raises(ValueError, match="slab"):
            medium_matrix.spmv_batch(np.zeros(medium_matrix.num_cols, dtype=np.float32))

    def test_csr_rejects_wrong_rows(self, medium_matrix):
        with pytest.raises(ValueError, match="rows"):
            medium_matrix.spmv_batch(
                np.zeros((medium_matrix.num_cols + 1, 2), dtype=np.float32)
            )

    def test_ell_rejects_1d(self, ordered_medium):
        matrix, _, _ = ordered_medium
        ell = build_ell(matrix, partition_size=64)
        with pytest.raises(ValueError, match="slab"):
            ell.spmv_batch(np.zeros(matrix.num_cols, dtype=np.float32))

    def test_buffered_rejects_wrong_rows(self, ordered_medium):
        matrix, _, _ = ordered_medium
        buffered = build_buffered(matrix, partition_size=64, buffer_bytes=4096)
        with pytest.raises(ValueError, match="rows"):
            buffered.spmv_batch(np.zeros((matrix.num_cols + 3, 2), dtype=np.float32))


class TestOperatorBatch:
    """MemXCTOperator.forward_batch / adjoint_batch."""

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_matches_single(self, kernel, rng):
        from repro.geometry import ParallelBeamGeometry

        op, _ = preprocess(
            ParallelBeamGeometry(36, 24),
            config=OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=4096),
        )
        X = _slab(rng, op.num_pixels, 3)
        Y = op.forward_batch(X)
        for j in range(3):
            assert np.array_equal(Y[:, j], op.forward(X[:, j]))
        B = _slab(rng, op.num_rays, 3)
        Xb = op.adjoint_batch(B)
        for j in range(3):
            assert np.array_equal(Xb[:, j], op.adjoint(B[:, j]))

    def test_adjointness_per_column(self, batch_operator, rng):
        """<A x_j, y_j> == <x_j, A^T y_j> per column, to float32 accuracy."""
        op = batch_operator
        X = _slab(rng, op.num_pixels, 4)
        Y = _slab(rng, op.num_rays, 4)
        AX = op.forward_batch(X)
        AtY = op.adjoint_batch(Y)
        for j in range(4):
            lhs = float(AX[:, j].astype(np.float64) @ Y[:, j].astype(np.float64))
            rhs = float(X[:, j].astype(np.float64) @ AtY[:, j].astype(np.float64))
            assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_obs_accounting_amortizes_regular_bytes(self, batch_operator, rng):
        """A batch of S counts S SpMVs of FLOPs/irregular traffic but
        charges the regular matrix stream exactly once."""
        op = batch_operator
        S = 6
        X = _slab(rng, op.num_pixels, S)
        with obs.capture() as cap_batch:
            op.forward_batch(X)
        with obs.capture() as cap_single:
            op.forward(X[:, 0])
        assert cap_batch.total(obs.SPMV_CALLS) == S
        assert cap_batch.total(obs.SPMV_FLOPS) == S * cap_single.total(obs.SPMV_FLOPS)
        assert cap_batch.total(obs.SPMV_IRREGULAR_BYTES) == (
            S * cap_single.total(obs.SPMV_IRREGULAR_BYTES)
        )
        # The amortization the batched path exists for:
        assert cap_batch.total(obs.SPMV_REGULAR_BYTES) == cap_single.total(
            obs.SPMV_REGULAR_BYTES
        )

    def test_batch_span_attrs(self, batch_operator, rng):
        op = batch_operator
        with obs.capture() as cap:
            op.forward_batch(_slab(rng, op.num_pixels, 3))
        (sp,) = cap.find_spans("spmv.forward")
        assert sp.attrs["batch"] == 3


class TestMatrixOperatorBatch:
    def test_solver_base_operator(self, medium_matrix, rng):
        from repro.solvers import MatrixOperator

        op = MatrixOperator(medium_matrix)
        X = _slab(rng, op.num_pixels, 3)
        Y = op.forward_batch(X)
        for j in range(3):
            assert np.array_equal(Y[:, j], op.forward(X[:, j]))
        B = _slab(rng, op.num_rays, 3)
        Xb = op.adjoint_batch(B)
        for j in range(3):
            assert np.array_equal(Xb[:, j], op.adjoint(B[:, j]))


def _slab_layouts(rng, n, S, dtype):
    """The same ``(n, S)`` values as C-order, F-order and strided slabs."""
    X = rng.standard_normal((n, S)).astype(dtype)
    strided = np.zeros((2 * n, 3 * S), dtype=dtype)[::2, 1::3]
    strided[...] = X
    return {"C": X, "F": np.asfortranarray(X), "strided": strided}


#: (layout value dtype, input dtype): fp32 and fp64 layouts x fp32 and
#: fp64 inputs.
BUFFERED_PRECISIONS = [
    ("float32", np.float32),
    ("float32", np.float64),
    ("float64", np.float32),
    ("float64", np.float64),
]


class TestBufferedBatchBitIdentity:
    """Column ``j`` of the buffered ``spmv_batch`` equals the production
    single-vector kernel and the literal Listing-3 kernel bit for bit,
    with the same dtype, for any slab memory layout and batch width."""

    @staticmethod
    def _layouts(matrix, value_dtype):
        A = matrix.sort_rows_by_index().astype(value_dtype)
        AT = scan_transpose(A)
        layouts = {
            "one-stage": build_buffered(A, 16),
            "multi-stage": build_buffered(A, 16, buffer_bytes=64),
            "adjoint multi-stage": build_buffered(AT, 16, buffer_bytes=64),
        }
        assert (layouts["one-stage"].stages_per_partition() == 1).all()
        for key in ("multi-stage", "adjoint multi-stage"):
            assert (layouts[key].stages_per_partition() >= 2).all()
        return layouts

    @staticmethod
    def _blocks(layout):
        n = layout.partitions.num_partitions
        yield layout
        for split in (1, n // 2):
            yield layout.partition_slice(0, split)
            yield layout.partition_slice(split, n)

    @pytest.mark.parametrize("value_dtype,input_dtype", BUFFERED_PRECISIONS)
    @pytest.mark.parametrize("S", [1, 2, 8])
    def test_columns_match_single_vector_kernels(
        self, small_matrix, value_dtype, input_dtype, S
    ):
        rng = np.random.default_rng(S)
        for name, layout in self._layouts(small_matrix, value_dtype).items():
            slabs = _slab_layouts(rng, layout.num_cols, S, input_dtype)
            for block in self._blocks(layout):
                refs = [block.spmv_vectorized(slabs["C"][:, j]) for j in range(S)]
                for j, ref in enumerate(refs):
                    assert np.array_equal(block.spmv(slabs["C"][:, j]), ref), name
                for order, X in slabs.items():
                    Y = block.spmv_batch(X)
                    assert Y.shape == (block.num_rows, S), (name, order)
                    for j, ref in enumerate(refs):
                        assert Y.dtype == ref.dtype, (name, order)
                        assert np.array_equal(Y[:, j], ref), (name, order, j)

    def test_empty_batch(self, small_matrix):
        layout = self._layouts(small_matrix, "float32")["multi-stage"]
        Y = layout.spmv_batch(np.zeros((layout.num_cols, 0), dtype=np.float32))
        assert Y.shape == (layout.num_rows, 0)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_engines_match_single_vector(self, dtype):
        """Serial, thread and process engines: every batched column is
        the serial single-vector result, forward and adjoint, on a
        multi-stage layout."""
        from repro.geometry import ParallelBeamGeometry

        op, _ = preprocess(
            ParallelBeamGeometry(24, 20),
            config=OperatorConfig(
                kernel="buffered",
                partition_size=16,
                buffer_bytes=64,
                workers=1,
                dtype=dtype,
            ),
            cache="off",
        )
        assert (op.buffered_forward.stages_per_partition() >= 2).all()
        rng = np.random.default_rng(7)
        X = rng.standard_normal((op.num_pixels, 8)).astype(dtype)
        B = rng.standard_normal((op.num_rays, 8)).astype(dtype)
        fwd = [op.forward(X[:, j]) for j in range(8)]
        adj = [op.adjoint(B[:, j]) for j in range(8)]
        for spec in (1, "thread:2", "process:2"):
            op.set_workers(spec)
            try:
                for S in (1, 2, 8):
                    Y = op.forward_batch(X[:, :S])
                    Xb = op.adjoint_batch(B[:, :S])
                    for j in range(S):
                        assert Y.dtype == fwd[j].dtype and Xb.dtype == adj[j].dtype
                        assert np.array_equal(Y[:, j], fwd[j]), (spec, S, j)
                        assert np.array_equal(Xb[:, j], adj[j]), (spec, S, j)
            finally:
                op.close()
