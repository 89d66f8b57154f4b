"""Tests for the shared-memory parallel execution backend.

The backend's one promise is that parallelism is an execution knob,
never a numerics knob: every worker owns a contiguous partition range
and reductions concatenate in fixed partition-major order, so serial
and parallel results must be **bit-identical** on all three layouts,
for thread and process modes, for single-vector and batched kernels,
through every public entry point (operator, reconstruct, preprocess,
pipeline).  These tests enforce exactly that, plus the satellite
fixes: worker-spec parsing, shared-memory lifecycle, the buffered
vector-plan persistence exclusion, buffer-capacity validation, and
``permute`` input validation.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.cache import PlanCache
from repro.core import MemXCTOperator, OperatorConfig, preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.io import load_operator, save_operator
from repro.parallel import (
    ParallelSpmvEngine,
    SerialBackend,
    ThreadBackend,
    make_backend,
    parse_workers,
    partition_ranges,
)
from repro.parallel import shm as shm_mod
from repro.pipeline import reconstruct_stack
from repro.resilience import FaultConfig
from repro.sparse import CSRMatrix, build_buffered, build_ell, validate_buffer_bytes
from repro.trace import build_projection_matrix

KERNELS = ("csr", "buffered", "ell")
WORKER_SPECS = (2, 4, "process:2")


@pytest.fixture(scope="module")
def geometry() -> ParallelBeamGeometry:
    return ParallelBeamGeometry(40, 32)


@pytest.fixture(scope="module")
def operators(geometry) -> dict[str, MemXCTOperator]:
    """One serial operator per kernel, partition size small enough to
    give every worker several partitions."""
    return {
        kernel: preprocess(
            geometry,
            config=OperatorConfig(
                kernel=kernel, partition_size=16, buffer_bytes=2048
            ),
        )[0]
        for kernel in KERNELS
    }


@pytest.fixture(scope="module")
def sinogram(geometry) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.random(geometry.sinogram_shape).astype(np.float32)


class TestParseWorkers:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (1, (1, "serial")),
            (4, (4, "thread")),
            ("serial", (1, "serial")),
            ("3", (3, "thread")),
            ("thread:2", (2, "thread")),
            ("process:2", (2, "process")),
            ("process:1", (1, "process")),
            ("", (1, "serial")),
        ],
    )
    def test_specs(self, spec, expected):
        assert parse_workers(spec) == expected

    def test_none_defers_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert parse_workers(None) == (1, "serial")
        monkeypatch.setenv("REPRO_WORKERS", "thread:3")
        assert parse_workers(None) == (3, "thread")

    def test_auto_uses_cpu_count(self):
        workers, mode = parse_workers("auto")
        assert workers == max(os.cpu_count() or 1, 1)
        assert mode in ("serial", "thread")

    @pytest.mark.parametrize("bad", [0, -1, "0", "frob", "thread:x", "frob:2", 1.5])
    def test_bad_specs_raise(self, bad):
        with pytest.raises((ValueError, TypeError)):
            parse_workers(bad)

    def test_config_validates_spec(self):
        with pytest.raises(ValueError):
            OperatorConfig(workers="frob")
        assert OperatorConfig(workers=4).workers == 4


class TestPartitionRanges:
    def test_balanced_contiguous(self):
        assert partition_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert partition_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_more_workers_than_partitions(self):
        assert partition_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert partition_ranges(0, 4) == []

    def test_cover_without_overlap(self):
        for n, w in [(13, 4), (128, 7), (5, 5)]:
            ranges = partition_ranges(n, w)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(a1 == b0 for (_, a1), (b0, _) in zip(ranges, ranges[1:]))


class TestBackends:
    def test_make_backend_modes(self):
        assert isinstance(make_backend(1, "serial"), SerialBackend)
        assert isinstance(make_backend(4, "thread"), ThreadBackend)

    def test_thread_pool_is_shared(self):
        a, b = ThreadBackend(3), ThreadBackend(3)
        assert a._pool() is b._pool()

    def test_map_preserves_order(self):
        backend = make_backend(3, "thread")
        assert backend.map(lambda v: v * v, list(range(20))) == [
            v * v for v in range(20)
        ]


class TestSharedMemory:
    def test_roundtrip_and_dispose(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.random.default_rng(0).random((3, 5)).astype(np.float32),
            "c": np.empty(0, dtype=np.uint16),
        }
        shared = shm_mod.SharedArrays(arrays)
        try:
            out = shm_mod.read_copy(shared.name, shared.manifest)
            for key, array in arrays.items():
                assert out[key].dtype == array.dtype
                assert out[key].shape == array.shape
                assert (out[key] == array).all()
        finally:
            shared.dispose()
        # Double-dispose is safe; the segment is gone afterwards.
        shared.dispose()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shared.name)

    def test_attach_views_share_storage(self):
        shared = shm_mod.SharedArrays({"x": np.arange(8, dtype=np.float32)})
        try:
            views = shm_mod.attach_arrays(shared.name, shared.manifest)
            assert (views["x"] == np.arange(8)).all()
        finally:
            shm_mod.detach_all()
            shared.dispose()


class TestNonFiniteLayoutParity:
    """A non-finite input entry poisons exactly the rows that touch it,
    in every layout, worker mode and batch shape.  (ELL's padded slots
    once multiplied ``x[0]`` into nearly every row.)"""

    @pytest.fixture(scope="class")
    def square(self) -> dict[str, MemXCTOperator]:
        geometry = ParallelBeamGeometry(32, 32)
        return {
            kernel: preprocess(
                geometry,
                config=OperatorConfig(kernel=kernel, partition_size=16, buffer_bytes=2048),
                cache="off",
            )[0]
            for kernel in KERNELS
        }

    @staticmethod
    def _bad_rows(op, direction: str) -> list[np.ndarray]:
        """Non-finite output rows: single, then each batched column."""
        n = op.num_pixels if direction == "forward" else op.num_rays
        x = np.random.default_rng(2).random(n).astype(np.float32)
        x[0] = np.inf
        X = np.random.default_rng(3).random((n, 3)).astype(np.float32)
        X[0, 1] = np.inf
        single = getattr(op, direction)(x)
        batched = getattr(op, f"{direction}_batch")(X)
        return [np.flatnonzero(~np.isfinite(single))] + [
            np.flatnonzero(~np.isfinite(batched[:, j])) for j in range(3)
        ]

    @pytest.mark.parametrize("direction", ["forward", "adjoint"])
    def test_same_rows_everywhere(self, square, direction):
        expected = self._bad_rows(square["csr"], direction)
        assert 0 < expected[0].size < square["csr"].num_rays // 10
        assert np.array_equal(expected[2], expected[0])
        assert expected[1].size == 0 and expected[3].size == 0
        for kernel, op in square.items():
            for spec in (None, "thread:2", "process:2"):
                op.set_workers(spec)
                try:
                    got = self._bad_rows(op, direction)
                finally:
                    op.set_workers(None)
                for rows, ref in zip(got, expected):
                    assert np.array_equal(rows, ref), (kernel, spec)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("spec", WORKER_SPECS)
    def test_forward_adjoint_batch(self, operators, kernel, spec):
        serial = operators[kernel]
        rng = np.random.default_rng(7)
        x = rng.random(serial.num_pixels).astype(np.float32)
        y = rng.random(serial.num_rays).astype(np.float32)
        X = rng.random((serial.num_pixels, 3)).astype(np.float32)
        Y = rng.random((serial.num_rays, 3)).astype(np.float32)
        ref = (
            serial.forward(x),
            serial.adjoint(y),
            serial.forward_batch(X),
            serial.adjoint_batch(Y),
        )
        serial.set_workers(spec)
        try:
            assert (serial.forward(x) == ref[0]).all()
            assert (serial.adjoint(y) == ref[1]).all()
            assert (serial.forward_batch(X) == ref[2]).all()
            assert (serial.adjoint_batch(Y) == ref[3]).all()
        finally:
            serial.set_workers(None)

    def test_engine_close_is_idempotent(self, operators):
        fwd, adj = operators["csr"].matrix, operators["csr"].transpose
        engine = ParallelSpmvEngine(
            workers=2,
            mode="process",
            partition_size=16,
            forward_layout=fwd,
            adjoint_layout=adj,
        )
        x = np.ones(fwd.num_cols, dtype=np.float32)
        assert (engine.apply("forward", x) == fwd.spmv(x)).all()
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.apply("forward", x)

    def test_serial_scope_pins_serial(self, operators):
        op = operators["buffered"]
        op.set_workers(2)
        try:
            assert op._active_engine() is not None
            with op.serial_scope():
                assert op._active_engine() is None
                with op.serial_scope():
                    assert op._active_engine() is None
                assert op._active_engine() is None
            assert op._active_engine() is not None
        finally:
            op.set_workers(None)


class TestObservability:
    def test_parallel_counters_and_spans(self, operators):
        op = operators["buffered"]
        op.set_workers(2)
        try:
            x = np.ones(op.num_pixels, dtype=np.float32)
            with obs.capture() as cap:
                op.forward(x)
            assert cap.total(obs.PARALLEL_DISPATCHES) == 1
            assert cap.total(obs.PARALLEL_TASKS) == 2
            spans = cap.find_spans("parallel.worker")
            assert len(spans) == 2
            assert {sp.attrs["worker"] for sp in spans} == {0, 1}
            for sp in spans:
                assert sp.attrs["mode"] == "thread"
                assert sp.duration >= 0.0
        finally:
            op.set_workers(None)

    def test_process_mode_counts_shm_bytes(self, operators):
        op = operators["csr"]
        op.set_workers("process:2")
        try:
            x = np.ones(op.num_pixels, dtype=np.float32)
            with obs.capture() as cap:
                op.forward(x)
            assert cap.total(obs.PARALLEL_SHM_BYTES) >= x.nbytes
        finally:
            op.set_workers(None)


class TestSolverEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cgls_bit_identical(self, geometry, operators, sinogram, kernel):
        ref = reconstruct(
            sinogram, geometry, solver="cg", iterations=8, operator=operators[kernel]
        ).image
        for spec in WORKER_SPECS:
            image = reconstruct(
                sinogram,
                geometry,
                solver="cg",
                iterations=8,
                operator=operators[kernel],
                workers=spec,
            ).image
            assert (image == ref).all(), spec
        operators[kernel].set_workers(None)

    def test_fault_injected_run_with_workers(self, geometry, sinogram, operators):
        """Resilience machinery and the parallel backend compose."""
        op = operators["buffered"]
        kwargs = dict(
            solver="cg",
            iterations=6,
            num_ranks=2,
            faults=FaultConfig(drop=0.05, corrupt=0.02, seed=7),
            operator=op,
        )
        ref = reconstruct(sinogram, geometry, **kwargs)
        parallel = reconstruct(sinogram, geometry, workers=2, **kwargs)
        op.set_workers(None)
        assert (parallel.image == ref.image).all()
        assert parallel.extra["fault_stats"]["recoveries"] >= 1


class TestPreprocessFanOut:
    @pytest.mark.parametrize("spec", [2, "process:2"])
    def test_traced_matrix_identical(self, geometry, spec):
        serial = build_projection_matrix(geometry)
        workers, mode = parse_workers(spec)
        backend = make_backend(workers, mode)
        try:
            fanned = build_projection_matrix(geometry, backend=backend)
        finally:
            backend.close()
        assert (fanned.indptr == serial.indptr).all()
        assert (fanned.indices == serial.indices).all()
        assert (fanned.data == serial.data).all()

    def test_preprocess_with_workers_matches(self, geometry):
        ref, _ = preprocess(geometry, config=OperatorConfig(partition_size=16, buffer_bytes=2048))
        par, _ = preprocess(
            geometry,
            config=OperatorConfig(partition_size=16, buffer_bytes=2048, workers=2),
        )
        try:
            assert (par.matrix.displ == ref.matrix.displ).all()
            assert (par.matrix.ind == ref.matrix.ind).all()
            assert (par.matrix.val == ref.matrix.val).all()
        finally:
            par.close()

    def test_cache_hit_applies_requested_workers(self, geometry, tmp_path):
        cache = PlanCache(tmp_path / "plans")
        cold, report = preprocess(geometry, cache=cache)
        assert not report.cache_hit
        warm, report = preprocess(
            geometry, config=OperatorConfig(workers=2), cache=cache
        )
        try:
            assert report.cache_hit
            assert warm.config.workers == 2
            x = np.ones(warm.num_pixels, dtype=np.float32)
            assert (warm.forward(x) == cold.forward(x)).all()
        finally:
            warm.close()


class TestPipelineWorkers:
    @pytest.fixture(scope="class")
    def stack(self):
        rng = np.random.default_rng(13)
        return rng.random((4, 32, 32)).astype(np.float32)

    @pytest.fixture(scope="class")
    def stack_geometry(self):
        return ParallelBeamGeometry(32, 32)

    def test_batched_volume_bit_identical(self, stack, stack_geometry):
        ref = reconstruct_stack(stack, stack_geometry, iterations=6).volume
        for spec in (2, "process:2"):
            vol = reconstruct_stack(
                stack, stack_geometry, iterations=6, workers=spec
            ).volume
            assert (vol == ref).all(), spec

    def test_looped_slice_fanout_bit_identical(self, stack, stack_geometry):
        ref = reconstruct_stack(
            stack, stack_geometry, iterations=6, batch=False
        ).volume
        vol = reconstruct_stack(
            stack, stack_geometry, iterations=6, batch=False, workers=2
        ).volume
        assert (vol == ref).all()

    def test_env_var_workers(self, stack, stack_geometry, monkeypatch):
        ref = reconstruct_stack(stack, stack_geometry, iterations=4).volume
        monkeypatch.setenv("REPRO_WORKERS", "2")
        vol = reconstruct_stack(stack, stack_geometry, iterations=4).volume
        assert (vol == ref).all()


class TestBufferedPlanPersistence:
    """The `_plan` cache must never ride along with a pickled layout."""

    @pytest.fixture()
    def layout(self, small_matrix):
        return build_buffered(small_matrix.sort_rows_by_index(), 16, 1024)

    def test_pickle_excludes_plan(self, layout):
        x = np.ones(layout.num_cols, dtype=np.float32)
        warm = layout.spmv_vectorized(x)
        assert hasattr(layout, "_plan")
        clone = pickle.loads(pickle.dumps(layout))
        assert not hasattr(clone, "_plan")
        # Lazy rebuild produces the same plan and the same result.
        assert (clone.spmv_vectorized(x) == warm).all()
        assert hasattr(clone, "_plan")

    def test_setstate_drops_stale_plan(self, layout):
        state = dict(layout.__dict__)
        state["_plan"] = ("stale", "stale", "stale")
        clone = object.__new__(type(layout))
        clone.__setstate__(state)
        assert not hasattr(clone, "_plan")

    def test_warm_operator_cache_roundtrip(self, tmp_path):
        """Regression: a warmed operator persists and reloads cleanly,
        and the loaded copy rebuilds its plan lazily.

        Serial on purpose (``workers=1``, whatever ``REPRO_WORKERS``
        says): an engine's partition slices warm their own plans, so
        the parent layout this test persists would stay cold."""
        geometry = ParallelBeamGeometry(24, 24)
        cache = PlanCache(tmp_path / "plans")
        op, _ = preprocess(
            geometry,
            config=OperatorConfig(partition_size=16, buffer_bytes=1024, workers=1),
            cache=cache,
        )
        x = np.ones(op.num_pixels, dtype=np.float32)
        warm_result = op.forward(x)  # warms the vector plan
        assert hasattr(op.buffered_forward, "_plan")
        path = tmp_path / "op.npz"
        save_operator(path, op)
        loaded = load_operator(path)
        assert not hasattr(loaded.buffered_forward, "_plan")
        assert (loaded.forward(x) == warm_result).all()


class TestValidationFixes:
    @pytest.mark.parametrize("bad", [3, 30, 4097, 1023])
    def test_buffer_bytes_must_be_element_multiple(self, bad):
        with pytest.raises(ValueError, match="multiple"):
            validate_buffer_bytes(bad)
        with pytest.raises(ValueError, match="multiple"):
            OperatorConfig(kernel="buffered", buffer_bytes=bad)

    @pytest.mark.parametrize("good", [4, 1024, 2048, 256 * 1024])
    def test_buffer_bytes_multiples_accepted(self, good):
        assert validate_buffer_bytes(good) == good // 4
        OperatorConfig(kernel="buffered", buffer_bytes=good)

    def test_permute_rejects_bad_row_perm(self, small_matrix):
        with pytest.raises(ValueError, match="row_perm"):
            small_matrix.permute(np.array([0, small_matrix.num_rows]), None)
        with pytest.raises(ValueError, match="row_perm"):
            small_matrix.permute(np.array([[0, 1]]), None)

    def test_permute_rejects_bad_col_rank(self, small_matrix):
        ncols = small_matrix.num_cols
        with pytest.raises(ValueError, match="shape"):
            small_matrix.permute(None, np.arange(ncols - 1))
        with pytest.raises(ValueError, match="outside"):
            rank = np.arange(ncols)
            rank[0] = ncols
            small_matrix.permute(None, rank)
        with pytest.raises(ValueError, match="injective"):
            rank = np.arange(ncols)
            rank[1] = rank[0]
            small_matrix.permute(None, rank)

    def test_permute_still_allows_row_subsets(self, small_matrix):
        sub = small_matrix.permute(np.array([3, 1, 3]), None)
        assert sub.num_rows == 3


class TestPartitionSlices:
    """Layout slices are the unit the engine is built on — cover the
    slicing math directly, including ragged final partitions."""

    def test_csr_row_block(self, small_matrix):
        x = np.random.default_rng(0).random(small_matrix.num_cols).astype(np.float32)
        ref = small_matrix.spmv(x)
        mid = small_matrix.num_rows // 3
        parts = [
            small_matrix.row_block(0, mid).spmv(x),
            small_matrix.row_block(mid, small_matrix.num_rows).spmv(x),
        ]
        assert (np.concatenate(parts) == ref).all()
        with pytest.raises(ValueError):
            small_matrix.row_block(5, small_matrix.num_rows + 1)

    @pytest.mark.parametrize("builder", ["buffered", "ell"])
    def test_partition_slice_concat(self, small_matrix, builder):
        ordered = small_matrix.sort_rows_by_index()
        layout = (
            build_buffered(ordered, 16, 1024)
            if builder == "buffered"
            else build_ell(ordered, 16)
        )
        x = np.random.default_rng(1).random(layout.num_cols).astype(np.float32)
        ref = layout.spmv(x)
        n = layout.partitions.num_partitions
        for split in range(1, n):
            parts = [
                layout.partition_slice(0, split).spmv(x),
                layout.partition_slice(split, n).spmv(x),
            ]
            assert (np.concatenate(parts) == ref).all(), split
        with pytest.raises(ValueError):
            layout.partition_slice(0, n + 1)
