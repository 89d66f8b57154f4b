"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload slice-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs half the window untraced and half under the
outside-in tracer, and prints the per-layer metrics (plus the tracing
overhead); the spans are also written as Chrome-trace JSON for
Perfetto.  Every run writes a host-stamped record under
``perfbench/out/records/``; ``perfbench/compare.py`` diffs two sets.

The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

from layers import Layers, layer_self_times, per_layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, RunContext, mean, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Metric names, units and bounds live in one place: BENCHMARK.json.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Environment knobs the program reads; CI sets several of them.  They
#: are cleared so every run sees the defaults, and the plan cache is
#: pinned inside the run's own temp dir.
REPRO_ENV = (
    "REPRO_WORKERS", "REPRO_DTYPE", "REPRO_TOPOLOGY", "REPRO_FAULTS",
    "REPRO_SERVICE_FAULTS", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES",
)


def isolate(tmp: Path) -> None:
    """Keep every default cache of the program inside the run's temp dir."""
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-plans")
    os.environ["XDG_CACHE_HOME"] = str(tmp / "xdg-cache")


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_fingerprint() -> dict:
    """What a record needs so a change of host cannot pass for a regression."""
    import numpy
    import scipy

    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level is None:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/size")
    return {
        "cores": os.cpu_count(),
        "cpu_model": model or platform.processor() or "unknown",
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def code_fingerprint() -> dict:
    """Git commit when the checkout is a repository, and a source digest."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, windows, errors, rss) -> dict[str, float]:
    latencies = [x for w in windows for x in w.latencies]
    solves = [x for w in windows for x in w.solves]
    results = sum(w.results for w in windows)
    busy = sum(w.busy_s for w in windows)
    # Outputs that failed their check have no error worth averaging.
    errors = [e for e in errors if math.isfinite(e)]
    return {
        "setup_s": median(workload.setup_seconds(windows)),
        "solve_s": (median(solves) if workload.solve_summary == "median"
                    else mean(solves)),
        "slices_per_s": results / busy,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "rel_error": mean(errors),
        "peak_rss_mb": rss,
    }


def throughput(window) -> float:
    return window.results / window.busy_s


def run(args) -> tuple[dict, dict]:
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    workload = WORKLOADS[args.workload]()
    (HERE / "tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{run_id}-", dir=HERE / "tmp"))
    extra: dict = {"run_id": run_id}
    try:
        isolate(tmp)
        ctx = RunContext(seed=args.seed, tmp=tmp)
        workload.prepare(ctx)
        if not args.trace:
            windows = [workload.window(ctx, args.seconds)]
            rss = peak_rss_mb()
        else:
            plain = workload.window(ctx, args.seconds / 2)
            tracer = ctx.tracer = Tracer(run_id)
            with tracer:  # restores every patched entry point on exit
                Layers(tracer).install()
                with tracer.span("bench.window", workload=args.workload):
                    traced = workload.window(ctx, args.seconds / 2)
            ctx.tracer = None
            windows = [plain, traced]
        attempted, failed, errors = workload.check(windows)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not args.trace:
        values = end_to_end(workload, windows, errors, rss)
    else:
        overhead = throughput(plain) / throughput(traced) - 1.0
        values = per_layer_metrics(tracer, overhead, traced.results)
        trace_path = OUT / "traces" / f"{run_id}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
        extra["layer_self_s_per_result"] = layer_self_times(tracer, traced.results)
        extra["spans"] = len(tracer.spans)
    extra["samples"] = {
        "latency": sum(len(w.latencies) for w in windows),
        "solve": sum(len(w.solves) for w in windows),
        "setup": len(workload.setup_seconds(windows)),
        "results": sum(w.results for w in windows),
    }
    extra["window_info"] = [w.info for w in windows if w.info]
    extra["failed_frac"] = failed / attempted if attempted else 1.0
    line = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCH["per_layer" if args.trace else "end_to_end"]
        },
    }
    return line, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for name in REPRO_ENV:
        os.environ.pop(name, None)
    import_program()
    started = time.time()
    line, extra = run(args)
    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_s": time.time() - started,
        "host": host_fingerprint(),
        "code": code_fingerprint(),
        "result": line,
        **extra,
    }
    path = OUT / "records" / f"{extra['run_id']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
