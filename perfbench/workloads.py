"""The three benchmark workloads, their inputs and their output checks.

Each workload has three parts:

* ``prepare`` makes the inputs from the seed and does every set-up step
  off the clock;
* ``window`` runs the timed work for a given number of seconds and
  returns its samples (a tracer, when given, records spans around it);
* ``check`` verifies every slice or job off the clock, against checks
  that share nothing with the kernels under test: every plan equals a
  matrix rebuilt with scipy (``oracle.ReferencePlan``), values are
  finite, the error against the known phantom stays under a fixed
  ceiling, and the image agrees with a plain scipy-CSR CGLS of the same
  iteration count on the rebuilt matrix.  The sinograms are simulated
  with scipy on that matrix too, not with the program's kernels.

Why these three (ROADMAP "end to end" paths):

* ``slice-cold`` - one caller, one new geometry: a cold ``preprocess``
  (plan cache miss, stored into an empty cache) and a single-vector
  CGLS.  Nearly all work is in the preprocess layers and single-vector
  SpMV.  Serial: it is also the plain single-threaded baseline.
* ``stack-batched`` - a 3D beamline scan through ``reconstruct_stack``:
  NPZ shards in, conditioning, batched CG, shards out, with the
  conveyor's reader and writer threads and a 2-thread SpMV engine.
  The plan cache is warm.  Two threads are slower than one on this
  code today; the workload keeps them so the record shows it.
* ``service-closed`` - two closed-loop clients of an in-process
  ``ReconService``: admission, fsync'd journal, queue wait, coalescing,
  and each client's every 4th job checkpointed (those are never
  coalesced today).
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import ReferencePlan

#: Fixed ceiling on the relative L2 error against the phantom.
REL_ERROR_CEILING = 0.6


@dataclass
class RunContext:
    seed: int
    tmp: Path
    tracer: object = None

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


@dataclass
class Window:
    """Samples of one timed window."""

    latencies: list[float] = field(default_factory=list)
    #: Solver seconds charged to each slice (a batch's time is split
    #: evenly over its slices).
    solves: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    results: int = 0
    busy_s: float = 0.0
    outputs: list = field(default_factory=list)
    failed: int = 0
    info: dict = field(default_factory=dict)


def median(values) -> float | None:
    """Median, or None (JSON null) when every operation failed."""
    return float(statistics.median(values)) if len(values) else None


def mean(values) -> float | None:
    return float(sum(values) / len(values)) if len(values) else None


def percentile(values, q: float) -> float | None:
    if not len(values):
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_image(image, reference, truth, tolerance) -> tuple[bool, float]:
    """(passed, error against the phantom) for one reconstructed image."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != truth.shape or not np.all(np.isfinite(image)):
        return False, float("nan")
    error = rel(image, truth)
    ok = rel(image, reference) <= tolerance and error <= REL_ERROR_CEILING
    return ok, error


def tally(cases, tolerance: float, lost: int = 0) -> tuple[int, int, list[float]]:
    """(attempted, failed, errors) over ``(image, reference, truth)`` cases.

    ``tolerance`` is the relative L2 distance allowed from the oracle;
    ``lost`` counts outputs that never arrived or came from a plan that
    differs from the reference, which are failures.
    """
    failed = lost
    errors = []
    for image, reference, truth in cases:
        ok, error = check_image(image, reference, truth, tolerance)
        failed += not ok
        errors.append(error)
    return lost + len(errors), failed, errors


def noisy(clean: np.ndarray, rng: np.random.Generator, level: float = 0.01):
    return clean + rng.normal(scale=level * float(np.abs(clean).max()),
                              size=clean.shape)


def cold_builds(geometry, config, tmp: Path, count: int):
    """``count`` cold plan builds, each into an empty cache.

    Returns the build seconds, the cache that holds the last plan, the
    geometry's :class:`ReferencePlan`, and how many of the built plans,
    or the plan loaded back from the cache, differ from the reference.
    """
    from repro.core import preprocess

    seconds, reference, bad = [], None, 0
    for k in range(count):
        cache = tmp / f"setup-cache-{k}"
        t0 = time.perf_counter()
        op, _ = preprocess(geometry, config=config, cache=str(cache))
        seconds.append(time.perf_counter() - t0)
        op.close()
        reference = reference or ReferencePlan(geometry, op)
        bad += not reference.matches(op)
        del op
        if k + 1 < count:
            shutil.rmtree(cache)
    loaded, report = preprocess(geometry, config=config, cache=str(cache))
    if not report.cache_hit:
        raise RuntimeError("warm plan cache missed")
    bad += not reference.matches(loaded)
    loaded.close()
    return seconds, cache, reference, bad


# -- slice-cold ----------------------------------------------------------


class SliceCold:
    """Cold ``preprocess`` of a new geometry, then a 30-iteration CGLS."""

    name = "slice-cold"
    solve_summary = "median"
    size = 128
    iterations = 30
    # The buffered kernel sums each row in another order than scipy, and
    # 30 CGLS iterations on noisy data amplify those last bits to up to
    # 1e-2 of the image (measured); a wrong operator lands at order 1.
    oracle_tolerance = 5e-2

    def prepare(self, run: RunContext):
        from repro.core import preprocess
        from repro.geometry import ParallelBeamGeometry
        from repro.phantoms import shale_phantom

        self.geometry = ParallelBeamGeometry(self.size, self.size)
        # An off-clock build pays the first-call costs (imports, lazy
        # set-up) and gives the orderings of the reference plan.
        op, _ = preprocess(self.geometry, cache=str(run.tmp / "warmup"))
        self.reference = ReferencePlan(self.geometry, op)
        op.close()
        # The specimen is fixed; the seed draws the measurement noise, so
        # the error against the phantom does not swing with the seed.
        rng = np.random.default_rng(run.seed)
        self.truth = shale_phantom(self.size)
        self.y = noisy(self.reference.project(self.truth), rng)

    def window(self, run: RunContext, seconds: float) -> Window:
        from repro import solvers
        from repro.core import preprocess

        w = Window()
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            cache = run.tmp / f"cold-{k}"
            k += 1
            t0 = time.perf_counter()
            with run.span("bench.setup"):
                op, report = preprocess(self.geometry, cache=str(cache))
            t1 = time.perf_counter()
            with run.span("bench.solve"):
                result = solvers.cgls(op, self.y, num_iterations=self.iterations)
            t2 = time.perf_counter()
            if report.cache_hit:
                raise RuntimeError("cold build hit the plan cache")
            w.setups.append(t1 - t0)
            w.solves.append(t2 - t1)
            w.latencies.append(t2 - t0)
            w.busy_s += t2 - t0
            w.results += 1
            # Off the clock: the plan must equal the reference exactly.
            w.outputs.append((op.ordered_to_image(result.x),
                              self.reference.matches(op)))
            op.close()
            del op, result
            shutil.rmtree(cache)
        return w

    def setup_seconds(self, windows) -> list[float]:
        return [s for w in windows for s in w.setups]

    def check(self, windows) -> tuple[int, int, list[float]]:
        reference = self.reference.cgls_image(self.y, self.iterations)
        outputs = [out for w in windows for out in w.outputs]
        return tally(((image, reference, self.truth)
                      for image, plan_ok in outputs if plan_ok),
                     self.oracle_tolerance,
                     lost=sum(not plan_ok for _, plan_ok in outputs))


# -- stack-batched -------------------------------------------------------


class StackBatched:
    """``reconstruct_stack`` over on-disk shards with a warm plan cache."""

    name = "stack-batched"
    solve_summary = "median"
    size = 64
    slices = 16
    chunk = 8
    iterations = 15
    # ELL sums each row in scipy's order, so the images match the oracle
    # bit for bit today; the slack admits another order (buffered drifts
    # up to 2.4e-3 in 15 iterations) but not 2 % on 1 % of the rows
    # (2.7e-2).
    oracle_tolerance = 1e-2
    setup_builds = 11

    def _config(self):
        from repro.core import OperatorConfig

        return OperatorConfig(kernel="ell")

    def prepare(self, run: RunContext):
        from repro.dataio import save_stack
        from repro.geometry import ParallelBeamGeometry
        from repro.phantoms import (
            ring_gains,
            simulate_counts,
            stacked_shepp_logan,
            synthetic_darks_flats,
        )

        self.geometry = ParallelBeamGeometry(self.size, self.size)
        self.setups, self.cache, self.reference, self.bad_plans = cold_builds(
            self.geometry, self._config(), run.tmp, self.setup_builds
        )
        # Simulated the way ``repro.pipeline.demo_stack`` does it, with
        # every random draw taken from the run's seed.
        truth = stacked_shepp_logan(self.size, self.slices)
        sinograms = np.stack(
            [self.reference.project_sinogram(truth[k])
             for k in range(self.slices)]
        )
        scale = 2.0 / float(sinograms.max())
        sinograms *= scale
        darks, flats = synthetic_darks_flats(self.slices, self.size,
                                             seed=run.seed + 1)
        gains = ring_gains(self.size, seed=run.seed + 2)
        raw, _ = simulate_counts(sinograms, darks, flats, attenuation_scale=1.0,
                                 gains=gains, poisson=True, seed=run.seed)
        self.truth = truth * scale
        self.input = save_stack(run.tmp / "stack-in", raw, darks, flats)

    def window(self, run: RunContext, seconds: float) -> Window:
        from repro import pipeline

        w = Window()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            out = tempfile.mkdtemp(prefix="stack-out-", dir=run.tmp)
            t0 = time.perf_counter()
            result = pipeline.reconstruct_stack(
                str(self.input),
                config=self._config(),
                solver="cg",
                iterations=self.iterations,
                chunk_slices=self.chunk,
                prefetch=2,
                workers=2,
                sink=out,
                cache=str(self.cache),
            )
            t1 = time.perf_counter()
            if not result.preprocess_report.cache_hit:
                raise RuntimeError("warm plan cache missed")
            w.latencies.append(t1 - t0)
            for c in result.chunks:
                n = c["stop"] - c["start"]
                w.solves.extend([c["seconds"] / n] * n)
            w.busy_s += t1 - t0
            w.results += self.slices
            w.outputs.append((out, self.reference.matches(result.operator)))
            result.operator.close()
        return w

    def setup_seconds(self, windows) -> list[float]:
        return self.setups

    def _references(self) -> np.ndarray:
        """Oracle images: the program's conditioning, then scipy CGLS."""
        from repro.dataio import open_source
        from repro.pipeline import StageContext, default_stages

        source = open_source(str(self.input))
        stages = default_stages(source.darks, source.flats)
        ctx = StageContext(angles=self.geometry.angles())
        images = []
        for start in range(0, self.slices, self.chunk):
            stop = min(start + self.chunk, self.slices)
            ctx.info["slice_offset"] = start
            chunk = source.read(start, stop)
            for stage in stages:
                chunk = stage(chunk, ctx)
            for k in range(stop - start):
                y = self.reference.sinogram_to_ordered(chunk[k])
                images.append(self.reference.cgls_image(y, self.iterations))
        source.close()
        return np.stack(images)

    def check(self, windows) -> tuple[int, int, list[float]]:
        from repro.dataio import load_volume

        references = self._references()
        cases, lost = [], self.bad_plans
        for w in windows:
            for out, plan_ok in w.outputs:
                if not plan_ok:
                    lost += self.slices
                    continue
                try:
                    volume = load_volume(out)
                except (OSError, ValueError):  # missing shard or manifest
                    lost += self.slices
                    continue
                cases.extend(zip(volume, references, self.truth))
        return tally(cases, self.oracle_tolerance, lost)


# -- service-closed ------------------------------------------------------


class ServiceClosed:
    """Two closed-loop clients of one in-process ``ReconService``."""

    name = "service-closed"
    # Paired and solo jobs form separate clusters of solve time; a
    # median would jump between them with the pairing share.
    solve_summary = "mean"
    size = 48
    iterations = 15
    # Buffered kernel, 15 iterations: up to 2.4e-3 from the oracle.
    oracle_tolerance = 2e-2
    clients = 2
    pool = 16
    checkpoint_every = 5
    # Wide enough that both clients' jobs always meet in the queue: at
    # the engine's 5 ms default, whether a pair coalesces is a race
    # against the client's own submit latency, and the run's throughput
    # swings with how many pairs that race happens to form.
    coalesce_window_s = 0.02
    setup_builds = 11
    timeout_s = 60.0

    def _config(self):
        from repro.core import OperatorConfig

        return OperatorConfig(kernel="buffered")

    def prepare(self, run: RunContext):
        from repro.geometry import ParallelBeamGeometry
        from repro.phantoms import shale_phantom

        self.geometry = ParallelBeamGeometry(self.size, self.size)
        self.setups, self.cache, self.reference, self.bad_plans = cold_builds(
            self.geometry, self._config(), run.tmp, self.setup_builds
        )
        rng = np.random.default_rng(run.seed)
        self.truths = [shale_phantom(self.size, seed=j) for j in range(self.pool)]
        self.sinograms = [noisy(self.reference.project_sinogram(t), rng)
                          for t in self.truths]

    def window(self, run: RunContext, seconds: float) -> Window:
        from repro.service import (
            JobFailedError,
            JobSpec,
            ReconService,
            ResultNotReadyError,
            ServiceConfig,
            ServiceError,
        )

        spool = tempfile.mkdtemp(prefix="spool-", dir=run.tmp)
        service = ReconService(ServiceConfig(
            spool=spool, cache=str(self.cache), kernel="buffered",
            coalesce_window_s=self.coalesce_window_s,
        ))
        w = Window()
        lock = threading.Lock()
        counter = iter(range(1 << 30))
        records: list[tuple] = []
        crashed: list[BaseException] = []

        def closed_loop(deadline: float) -> None:
            k = 0
            while time.perf_counter() < deadline:
                with lock:
                    i = next(counter)
                # Each client checkpoints its own every 4th job, so both
                # clients' checkpointed jobs fall in the same round.
                k += 1
                spec = JobSpec(
                    self.size, self.size, iterations=self.iterations,
                    checkpoint_every=(self.checkpoint_every if k % 4 == 0 else 0),
                )
                t0 = time.perf_counter()
                try:
                    job = service.submit(self.sinograms[i % self.pool], spec)
                    service.wait([job["job_id"]], timeout=self.timeout_s)
                    image = service.result(job["job_id"])
                except (ServiceError, JobFailedError, ResultNotReadyError):
                    with lock:
                        records.append((i, None, t0, time.perf_counter(), None))
                    continue
                t1 = time.perf_counter()
                with lock:
                    records.append((i, job["job_id"], t0, t1, image))

        def client(deadline: float) -> None:
            try:
                closed_loop(deadline)
            except BaseException as exc:  # re-raised on the caller's thread
                crashed.append(exc)

        service.start()
        try:
            start = time.perf_counter()
            threads = [
                threading.Thread(target=client, args=(start + seconds,),
                                 name=f"bench-client-{c}")
                for c in range(self.clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            end = time.perf_counter()
            if crashed:
                raise crashed[0]
            status = {
                job_id: service.status(job_id)
                for _, job_id, _, _, image in records if image is not None
            }
        finally:
            service.stop(drain=True)
            service.close()
        for i, job_id, t0, t1, image in sorted(records, key=lambda r: r[0]):
            if image is None:
                w.failed += 1
                continue
            w.latencies.append(t1 - t0)
            w.solves.append(status[job_id]["solve_seconds"]
                            / status[job_id]["batch_size"])
            w.outputs.append((i % self.pool, image))
        w.results = len(w.outputs)
        w.busy_s = end - start
        sizes = [st["batch_size"] for st in status.values()]
        w.info["coalesced_frac"] = sum(n > 1 for n in sizes) / max(1, len(sizes))
        shutil.rmtree(spool)
        return w

    def setup_seconds(self, windows) -> list[float]:
        return self.setups

    def check(self, windows) -> tuple[int, int, list[float]]:
        references = [
            self.reference.cgls_image(self.reference.sinogram_to_ordered(s),
                                      self.iterations)
            for s in self.sinograms
        ]
        # The jobs' plans are loaded inside the service, unseen; with a
        # trace that misses its chords, no job can be right.
        outputs = [out for w in windows for out in w.outputs]
        if not self.reference.valid:
            outputs, lost = [], len(outputs)
        else:
            lost = 0
        return tally(
            ((image, references[j], self.truths[j]) for j, image in outputs),
            self.oracle_tolerance,
            lost=lost + self.bad_plans + sum(w.failed for w in windows),
        )


WORKLOADS = {cls.name: cls for cls in (SliceCold, StackBatched, ServiceClosed)}
