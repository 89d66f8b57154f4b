"""The observability layer: spans, counters, capture scoping, export,
CLI trace surface, and the disabled-overhead guarantee."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.solvers import cgls, sirt


class TestSpans:
    def test_span_measures_duration_without_capture(self):
        with obs.span("idle") as sp:
            time.sleep(0.002)
        assert sp.duration >= 0.002
        assert not obs.REGISTRY.active

    def test_capture_collects_spans(self):
        with obs.capture() as cap:
            with obs.span("outer"):
                with obs.span("inner", detail=7):
                    pass
        assert cap.span_names() == ["inner", "outer"]
        (inner,) = cap.find_spans("inner")
        assert inner.attrs == {"detail": 7}
        assert inner.parent is cap.find_spans("outer")[0]

    def test_span_tree_roots_and_children(self):
        with obs.capture() as cap:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("c"):
                    pass
            with obs.span("d"):
                pass
        roots = cap.roots()
        assert [r.name for r in roots] == ["a", "d"]
        a = cap.find_spans("a")[0]
        assert [c.name for c in cap.children(a)] == ["b", "c"]

    def test_nothing_recorded_outside_capture(self):
        with obs.span("before"):
            pass
        with obs.capture() as cap:
            pass
        with obs.span("after"):
            pass
        assert cap.spans == []

    def test_nested_captures_both_record(self):
        with obs.capture() as outer:
            with obs.span("first"):
                pass
            with obs.capture() as inner:
                with obs.span("second"):
                    pass
        assert outer.span_names() == ["first", "second"]
        assert inner.span_names() == ["second"]

    def test_span_survives_exception(self):
        with obs.capture() as cap:
            with pytest.raises(RuntimeError):
                with obs.span("failing"):
                    raise RuntimeError("boom")
            with obs.span("next"):
                pass
        assert cap.span_names() == ["failing", "next"]
        # The failing span must have been popped: "next" is a root.
        assert cap.find_spans("next")[0].parent is None

    def test_traced_decorator(self):
        @obs.traced("math.double")
        def double(v):
            return 2 * v

        assert double(21) == 42  # inactive: plain call
        with obs.capture() as cap:
            assert double(21) == 42
        assert cap.span_names() == ["math.double"]


class TestCounters:
    def test_add_count_accumulates(self):
        with obs.capture() as cap:
            obs.add_count(obs.SPMV_FLOPS, 100)
            obs.add_count(obs.SPMV_FLOPS, 50)
        assert cap.total(obs.SPMV_FLOPS) == 150
        assert cap.events(obs.SPMV_FLOPS) == 2
        assert cap.counters[obs.SPMV_FLOPS].unit == "flop"

    def test_unit_mismatch_rejected(self):
        with obs.capture():
            obs.add_count("custom.counter", 1, unit="widget")
            with pytest.raises(ValueError, match="unit"):
                obs.add_count("custom.counter", 1, unit="byte")

    def test_unknown_counter_defaults_to_count_unit(self):
        with obs.capture() as cap:
            obs.add_count("adhoc.thing", 3)
        assert cap.counters["adhoc.thing"].unit == "count"

    def test_add_count_noop_when_inactive(self):
        obs.add_count(obs.SPMV_FLOPS, 10**9)  # must not raise or leak
        with obs.capture() as cap:
            pass
        assert cap.total(obs.SPMV_FLOPS) == 0.0

    def test_counter_events_record_running_total(self):
        with obs.capture() as cap:
            obs.add_count(obs.COMM_BYTES, 10)
            obs.add_count(obs.COMM_BYTES, 5)
        totals = [total for _, name, total in cap.counter_events if name == obs.COMM_BYTES]
        assert totals == [10, 15]


class TestChromeExport:
    def test_export_structure(self, tmp_path):
        with obs.capture() as cap:
            with obs.span("work", size=3):
                obs.add_count(obs.SPMV_FLOPS, 7)
        path = tmp_path / "trace.json"
        cap.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C", "M"} <= phases
        (work,) = [e for e in doc["traceEvents"] if e.get("name") == "work"]
        assert work["ph"] == "X"
        assert work["dur"] >= 0
        assert work["args"] == {"size": 3}

    def test_timestamps_relative_to_origin(self):
        with obs.capture() as cap:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        doc = cap.to_chrome_trace()
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(ts) == 0.0
        assert ts == sorted(ts)

    def test_empty_capture_exports(self, tmp_path):
        with obs.capture() as cap:
            pass
        path = tmp_path / "empty.json"
        cap.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


class TestInstrumentation:
    def test_preprocess_emits_four_stage_spans(self, small_geometry):
        with obs.capture() as cap:
            _, report = preprocess(small_geometry)
        (root,) = cap.find_spans("preprocess")
        stages = [c.name for c in cap.children(root)]
        assert stages == [
            "preprocess.ordering",
            "preprocess.tracing",
            "preprocess.transpose",
            "preprocess.partitioning",
        ]
        # Spans still populate the report, and they agree.
        (tracing,) = cap.find_spans("preprocess.tracing")
        assert report.tracing_seconds == pytest.approx(tracing.duration)
        assert report.total_seconds > 0

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_spmv_counters_per_kernel(self, small_geometry, kernel):
        op, _ = preprocess(
            small_geometry,
            config=OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=4096),
        )
        x = np.ones(op.num_pixels, dtype=np.float32)
        with obs.capture() as cap:
            op.forward(x)
            op.adjoint(np.ones(op.num_rays, dtype=np.float32))
        assert cap.total(obs.SPMV_CALLS) == 2
        assert cap.total(obs.SPMV_FLOPS) == 2 * 2 * op.matrix.nnz
        footprint = op.memory_footprint()
        assert cap.total(obs.SPMV_REGULAR_BYTES) == (
            footprint["regular_forward"] + footprint["regular_adjoint"]
        )
        assert cap.total(obs.SPMV_IRREGULAR_BYTES) == (
            footprint["irregular_forward"] + footprint["irregular_adjoint"]
        )
        spans = cap.span_names()
        assert spans.count("spmv.forward") == 1
        assert spans.count("spmv.adjoint") == 1
        if kernel == "buffered":
            assert cap.total(obs.BUFFER_STAGES) > 0

    def test_solver_iteration_spans_nested_under_solve(self, small_operator):
        y = small_operator.forward(np.ones(small_operator.num_pixels, dtype=np.float32))
        with obs.capture() as cap:
            result = cgls(small_operator, y, num_iterations=4)
        (solve,) = cap.find_spans("solver.solve")
        assert solve.attrs["solver"] == "cg"
        iterations = cap.find_spans("solver.iteration")
        assert len(iterations) == result.iterations == 4
        assert all(s.parent is solve for s in iterations)
        assert cap.total(obs.SOLVER_ITERATIONS) == 4
        # Each iteration contains one forward and one adjoint SpMV.
        first = iterations[0]
        kinds = sorted(c.name for c in cap.children(first))
        assert kinds == ["spmv.adjoint", "spmv.forward"]

    def test_sirt_iterations_observed(self, small_operator):
        y = small_operator.forward(np.ones(small_operator.num_pixels, dtype=np.float32))
        with obs.capture() as cap:
            sirt(small_operator, y, num_iterations=3)
        assert len(cap.find_spans("solver.iteration")) == 3
        assert cap.find_spans("solver.solve")[0].attrs["solver"] == "sirt"

    def test_comm_counters_from_simulated_mpi(self):
        from repro.dist import SimComm

        comm = SimComm(3)
        payload = [
            [np.ones(4, dtype=np.float32) for _ in range(3)] for _ in range(3)
        ]
        with obs.capture() as cap:
            comm.alltoallv(payload)
        # 6 off-diagonal messages of 16 bytes; diagonal self-sends excluded.
        assert cap.total(obs.COMM_BYTES) == 6 * 16
        assert cap.total(obs.COMM_MESSAGES) == 6
        assert cap.span_names().count("comm.alltoallv") == 1
        assert cap.total(obs.COMM_BYTES) == comm.log.off_diagonal_volume()


class TestCLITraceSurface:
    def test_reconstruct_trace_file_structure(self, tmp_path):
        trace = tmp_path / "t.json"
        out = tmp_path / "r.npz"
        assert main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.1",
            "--iterations", "4", "--trace", str(trace), "-o", str(out),
        ]) == 0
        doc = json.loads(trace.read_text())
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        for stage in (
            "preprocess.ordering",
            "preprocess.tracing",
            "preprocess.transpose",
            "preprocess.partitioning",
        ):
            assert names.count(stage) == 1, stage
        assert names.count("solver.iteration") == 4
        assert names.count("solver.solve") == 1
        assert "spmv.forward" in names

    def test_metrics_flag_prints_counters(self, tmp_path, capsys):
        assert main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.1",
            "--iterations", "2", "--metrics", "-o", str(tmp_path / "r.npz"),
        ]) == 0
        out = capsys.readouterr().out
        assert "spmv.flops" in out
        assert "solver.iterations" in out

    def test_trace_flag_parses_on_all_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["info", "--metrics"],
            ["preprocess", "--angles", "8", "--channels", "8", "--trace", "t.json"],
            ["reconstruct", "--demo", "ADS1", "--trace", "t.json"],
            ["bench", "--trace", "t.json"],
            ["scale", "--metrics"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "trace") and hasattr(args, "metrics")

    def test_registry_inactive_after_cli_capture(self, tmp_path):
        main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.1",
            "--iterations", "1", "--trace", str(tmp_path / "t.json"),
            "-o", str(tmp_path / "r.npz"),
        ])
        assert not obs.REGISTRY.active


class TestDisabledOverhead:
    def test_spmv_overhead_within_5_percent_when_disabled(self):
        """Instrumented operator dispatch vs the bare kernel it wraps.

        Mirrors the ``bench_kernels.py`` small case (scaled ADS2
        buffered SpMV).  With no capture active the operator's
        ``forward`` must stay within 5% of calling the underlying
        buffered kernel directly — the instrumentation is one
        attribute check.
        """
        from repro.core import get_dataset

        spec = get_dataset("ADS2").scaled(0.125)
        op, _ = preprocess(spec.geometry())
        x = np.random.default_rng(0).random(op.num_pixels).astype(np.float32)
        kernel = op.buffered_forward.spmv_vectorized

        def call_time(fn):
            t0 = time.perf_counter()
            fn(x)
            return time.perf_counter() - t0

        # Interleave the two timings, alternating which goes first, so
        # machine drift and cache state hit both sides alike; the
        # minimum of each then discards transient stalls.
        for _ in range(5):  # warm up
            call_time(kernel)
            call_time(op.forward)
        bare_times, instrumented_times = [], []
        for rep in range(30):
            if rep % 2:
                instrumented_times.append(call_time(op.forward))
                bare_times.append(call_time(kernel))
            else:
                bare_times.append(call_time(kernel))
                instrumented_times.append(call_time(op.forward))
        bare = min(bare_times)
        instrumented = min(instrumented_times)
        assert not obs.REGISTRY.active
        assert instrumented <= bare * 1.05, (
            f"disabled-obs overhead too high: {instrumented:.6f}s vs {bare:.6f}s"
        )
