"""Where the tracer cuts the program, and the per-layer metrics it yields.

The layers are the ``repro`` modules a user's wait passes through.
Every boundary is patched where its callers look it up: functions that
``repro.core.preprocess`` imported by name are patched in that module
(``repro.core.preprocess`` as an attribute of ``repro.core`` is the
function, so the module is taken from ``sys.modules``), solver entry
points in the module that calls them, and methods on their class.

The preprocess "transpose" step of the program's own report covers the
permute, the row sort and the scan transpose; here each is its own
layer, so the record charges each to the step that spent it.
"""

from __future__ import annotations

import sys

import numpy as np

from tracer import Tracer

#: Layers whose self times make up a cold plan build (``setup_s``).
PREPROCESS_LAYERS = (
    "ordering", "trace", "sparse.from_scipy", "sparse.permute",
    "sparse.sort_rows", "sparse.transpose", "sparse.layout_build",
    "cache.store",
)
SPMV_LAYERS = ("core.forward", "core.adjoint", "core.forward_batch",
               "core.adjoint_batch")
#: Per-layer metrics that are shares, rates or percentiles.  Every other
#: one is a total over the traced window, reported per result (slice or
#: job) so that it does not grow with how many results fit in the window.
NOT_TOTALS = frozenset({
    "cache.hit_ratio",
    "core.forward.p50_s", "core.forward.p90_s",
    "core.adjoint.p50_s", "core.adjoint.p90_s",
    "core.spmv.flops_per_byte", "core.spmv.gflops",
    "parallel.efficiency",
    "service.queue_wait.p50_s", "service.queue_wait.p90_s",
    "service.batch_size.mean", "service.coalesced_frac",
    "bench.setup_coverage_frac", "bench.solve_coverage_frac",
    "bench.trace_overhead_frac",
})


def _columns(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[1])


class Layers:
    """Installs the repro boundaries on a :class:`Tracer`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._footprints: dict[int, tuple[object, dict]] = {}
        self._submitted: dict[str, float] = {}

    def install(self) -> None:
        from repro.cache import PlanCache
        from repro.core import MemXCTOperator
        from repro.dataio import Conveyor, NpzShardSink, NpzShardSource
        from repro.parallel import ParallelSpmvEngine
        from repro.pipeline.stages import Stage
        from repro.resilience import CheckpointManager
        from repro.service import ReconService
        from repro.service.journal import JobJournal
        from repro.sparse import CSRMatrix

        wrap = self.tracer.wrap
        pre = sys.modules["repro.core.preprocess"]
        wrap(pre, "make_ordering", "ordering")
        wrap(pre, "build_projection_matrix", "trace", self._after_trace)
        wrap(CSRMatrix, "from_scipy", "sparse.from_scipy")
        wrap(CSRMatrix, "permute", "sparse.permute")
        wrap(CSRMatrix, "sort_rows_by_index", "sparse.sort_rows")
        wrap(pre, "scan_transpose", "sparse.transpose")
        wrap(pre, "build_buffered", "sparse.layout_build")
        wrap(pre, "build_ell", "sparse.layout_build")

        wrap(PlanCache, "load", "cache.load", self._after_load)
        wrap(PlanCache, "store", "cache.store", self._after_store)

        for method in ("forward", "adjoint", "forward_batch", "adjoint_batch"):
            wrap(MemXCTOperator, method, f"core.{method}", self._after_spmv)
        wrap(ParallelSpmvEngine, "apply", "parallel.apply", self._after_apply)
        wrap(sys.modules["repro.parallel.spmv"], "_kernel_call", "parallel.worker")

        # Solver entry points, where each caller binds them.
        wrap(sys.modules["repro.solvers"], "cgls", "solvers.solve",
             self._after_solve)
        executor = sys.modules["repro.pipeline.executor"]
        wrap(executor, "cgls_batch", "solvers.solve", self._after_solve)
        engine = sys.modules["repro.service.engine"]
        wrap(engine, "cgls", "solvers.solve", self._after_solve)
        wrap(engine, "cgls_batch", "solvers.solve", self._after_solve)

        wrap(sys.modules["repro.pipeline"], "reconstruct_stack",
             "pipeline.stack", self._after_stack)
        wrap(Stage, "__call__", "pipeline.condition")
        wrap(NpzShardSource, "read", "dataio.read", self._after_read)
        wrap(NpzShardSink, "write", "dataio.write", self._after_write)
        wrap(Conveyor, "chunks", "dataio.wait")
        wrap(Conveyor, "put", "dataio.wait")
        wrap(Conveyor, "finish", "dataio.wait")

        wrap(ReconService, "submit", "service.submit", self._after_submit)
        wrap(JobJournal, "load_input", "service.load_input",
             self._after_load_input)
        wrap(ReconService, "_solve", "service.solve", self._after_dispatch)
        wrap(JobJournal, "save_result", "service.persist")
        wrap(JobJournal, "record_done", "service.persist")
        wrap(CheckpointManager, "save", "resilience.checkpoint",
             self._after_checkpoint)

    # -- annotations (run after the call, outside its span) ------------

    @staticmethod
    def _after_trace(sp, args, kwargs, result):
        sp.attrs["nnz"] = int(result.nnz)

    @staticmethod
    def _after_load(sp, args, kwargs, result):
        sp.attrs["hit"] = result is not None

    @staticmethod
    def _after_store(sp, args, kwargs, result):
        sp.attrs["bytes"] = int(result.stat().st_size)

    def _after_spmv(self, sp, args, kwargs, result):
        op, x = args[0], args[1]
        entry = self._footprints.get(id(op))
        if entry is None or entry[0] is not op:
            entry = self._footprints[id(op)] = (op, op.memory_footprint())
        footprint = entry[1]
        direction = "forward" if sp.name.startswith("core.forward") else "adjoint"
        columns = _columns(x)
        sp.attrs["columns"] = columns
        sp.attrs["flops"] = 2 * int(op.matrix.nnz) * columns
        # Computed, not measured: the regular matrix stream once per
        # call plus the gathered vector once per column.
        sp.attrs["bytes"] = (footprint[f"regular_{direction}"]
                             + columns * footprint[f"irregular_{direction}"])

    @staticmethod
    def _after_apply(sp, args, kwargs, result):
        sp.attrs["workers"] = int(args[0].workers)

    @staticmethod
    def _after_solve(sp, args, kwargs, result):
        sp.attrs["iterations"] = int(np.max(result.iterations))

    @staticmethod
    def _after_stack(sp, args, kwargs, result):
        sp.attrs["chunks"] = len(result.chunks)

    @staticmethod
    def _after_read(sp, args, kwargs, result):
        sp.attrs["bytes"] = int(result.nbytes)

    @staticmethod
    def _after_write(sp, args, kwargs, result):
        sp.attrs["bytes"] = int(np.asarray(args[3]).nbytes)

    def _after_submit(self, sp, args, kwargs, result):
        self._submitted[result["job_id"]] = sp.end

    def _after_load_input(self, sp, args, kwargs, result):
        submitted = self._submitted.pop(args[1], None)
        if submitted is not None:
            self.tracer.add("service.queue_wait", submitted, sp.start,
                            job=args[1])

    @staticmethod
    def _after_dispatch(sp, args, kwargs, result):
        sp.attrs["batch"] = len(args[1])

    @staticmethod
    def _after_checkpoint(sp, args, kwargs, result):
        path = args[0].path
        sp.attrs["bytes"] = int(path.stat().st_size) if path is not None else 0


def _busy(spans) -> float:
    return float(sum(s.duration for s in spans))


def _self(spans) -> float:
    return float(sum(s.self_time for s in spans))


def _pct(spans, q: float) -> float:
    if not spans:
        return 0.0
    return float(np.percentile([s.duration for s in spans], q))


def _attr_sum(spans, key: str) -> int:
    return int(sum(s.attrs.get(key, 0) for s in spans))


def per_layer_metrics(tracer: Tracer, overhead_frac: float,
                      results: int) -> dict[str, float]:
    """Derive every per-layer metric of ``BENCHMARK.json`` from the spans.

    ``results`` is the number of slices or jobs the traced window
    delivered; totals are divided by it (see :data:`NOT_TOTALS`).  A
    layer the workload never entered reads 0: that is the measured
    outcome on the workloads that bypass it.
    """
    by_name: dict[str, list] = {}
    for s in list(tracer.spans):
        by_name.setdefault(s.name, []).append(s)

    def get(name):
        return by_name.get(name, [])

    m: dict[str, float] = {}
    m["ordering.busy_s"] = _busy(get("ordering"))
    m["trace.busy_s"] = _busy(get("trace"))
    m["trace.nnz"] = _attr_sum(get("trace"), "nnz")
    for layer in ("from_scipy", "permute", "sort_rows", "transpose",
                  "layout_build"):
        m[f"sparse.{layer}.busy_s"] = _busy(get(f"sparse.{layer}"))
    m["cache.store.busy_s"] = _busy(get("cache.store"))
    m["cache.store.bytes"] = _attr_sum(get("cache.store"), "bytes")
    loads = get("cache.load")
    m["cache.load.busy_s"] = _busy(loads)
    m["cache.hit_ratio"] = (
        sum(1 for s in loads if s.attrs.get("hit")) / len(loads) if loads else 0.0
    )
    for direction in ("forward", "adjoint"):
        spans = get(f"core.{direction}")
        m[f"core.{direction}.busy_s"] = _busy(spans)
        m[f"core.{direction}.p50_s"] = _pct(spans, 50)
        m[f"core.{direction}.p90_s"] = _pct(spans, 90)
    m["core.forward_batch.busy_s"] = _busy(get("core.forward_batch"))
    m["core.adjoint_batch.busy_s"] = _busy(get("core.adjoint_batch"))
    spmv = [s for layer in SPMV_LAYERS for s in get(layer)]
    flops = _attr_sum(spmv, "flops")
    nbytes = _attr_sum(spmv, "bytes")
    spmv_busy = _busy(spmv)
    m["core.spmv.columns"] = _attr_sum(spmv, "columns")
    m["core.spmv.flops"] = flops
    m["core.spmv.bytes_computed"] = nbytes
    m["core.spmv.flops_per_byte"] = flops / nbytes if nbytes else 0.0
    m["core.spmv.gflops"] = flops / spmv_busy / 1e9 if spmv_busy else 0.0

    applies = get("parallel.apply")
    workers = get("parallel.worker")
    apply_busy = _busy(applies)
    capacity = sum(s.duration * s.attrs.get("workers", 1) for s in applies)
    m["parallel.apply.busy_s"] = apply_busy
    m["parallel.worker.busy_s"] = _busy(workers)
    m["parallel.efficiency"] = _busy(workers) / capacity if capacity else 0.0

    solves = get("solvers.solve")
    m["solvers.solve.busy_s"] = _busy(solves)
    m["solvers.vector.self_s"] = _self(solves)
    m["solvers.iterations"] = _attr_sum(solves, "iterations")

    stacks = get("pipeline.stack")
    m["pipeline.stack.self_s"] = _self(stacks)
    m["pipeline.condition.busy_s"] = _busy(get("pipeline.condition"))
    m["pipeline.chunks"] = _attr_sum(stacks, "chunks")
    m["dataio.read.busy_s"] = _busy(get("dataio.read"))
    m["dataio.read.bytes"] = _attr_sum(get("dataio.read"), "bytes")
    m["dataio.write.busy_s"] = _busy(get("dataio.write"))
    m["dataio.write.bytes"] = _attr_sum(get("dataio.write"), "bytes")
    m["dataio.wait_s"] = _busy(get("dataio.wait"))

    m["service.submit.busy_s"] = _busy(get("service.submit"))
    waits = get("service.queue_wait")
    m["service.queue_wait.p50_s"] = _pct(waits, 50)
    m["service.queue_wait.p90_s"] = _pct(waits, 90)
    dispatches = get("service.solve")
    m["service.solve.busy_s"] = _busy(dispatches)
    m["service.persist.busy_s"] = _busy(get("service.persist"))
    sizes = [s.attrs.get("batch", 1) for s in dispatches]
    m["service.batch_size.mean"] = float(np.mean(sizes)) if sizes else 0.0
    m["service.coalesced_frac"] = (
        sum(n for n in sizes if n > 1) / sum(sizes) if sizes else 0.0
    )
    m["service.rejected"] = sum(
        1 for s in get("service.submit") if "error" in s.attrs
    )
    checkpoints = get("resilience.checkpoint")
    m["resilience.checkpoint.busy_s"] = _busy(checkpoints)
    m["resilience.checkpoint.bytes"] = _attr_sum(checkpoints, "bytes")

    # Coverage of the benchmark's own setup and solve spans by the
    # layers named for them (the record is only as good as this split).
    setup_total = _busy(get("bench.setup"))
    named = sum(_self(get(layer)) for layer in PREPROCESS_LAYERS)
    m["bench.setup_coverage_frac"] = named / setup_total if setup_total else 0.0
    solve_total = _busy(get("bench.solve")) or m["solvers.solve.busy_s"]
    covered = spmv_busy + m["solvers.vector.self_s"]
    m["bench.solve_coverage_frac"] = covered / solve_total if solve_total else 0.0
    m["bench.trace_overhead_frac"] = overhead_frac
    per = max(1, results)
    return {k: (v if k in NOT_TOTALS else v / per) for k, v in m.items()}


def layer_self_times(tracer: Tracer, results: int) -> dict[str, float]:
    """Self seconds per span name and result: what ``compare.py`` attributes gains to."""
    out: dict[str, float] = {}
    for s in list(tracer.spans):
        out[s.name] = out.get(s.name, 0.0) + s.self_time
    per = max(1, results)
    return {k: v / per for k, v in sorted(out.items())}
