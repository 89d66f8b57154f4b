"""Compare two sets of benchmark records, workload by workload.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE HEAD

``BASE`` and ``HEAD`` are each a record file written by ``run.py``, a
directory of them, or a JSON file holding a list of records.  For every
workload and every end-to-end metric it prints both medians, the change,
each side's run-to-run spread (interquartile range over median) and a
verdict against the metric's bound in the root ``BENCHMARK.json``:

* ``worse`` - the head median is worse than the base median by more
  than the bound;
* ``better`` - the head beats the base in at least 9 of 10 runs paired
  by seed, and its median is better by more than the base spread;
* ``same`` - neither;
* ``unresolved`` - a side's spread exceeds the bound (or a side has a
  single run), unless every head run is better than every base run.

* ``failed`` - the head's runs failed more operations than the base's,
  or a head run is not correct: no gain counts then.

It prints each side's total ``failed`` per workload.  Under each
workload it lists the per-layer self-time changes per result (slice or
job) from the traced records, largest first, so a gain in an end-to-end
metric can be attributed to the layer that made it.  The exit status is
1 when any metric is ``worse`` or ``failed``, else 0.  Records from
different hosts are flagged, because a change of host is not a change
of code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
HOST_KEYS = ("cpu_model", "cores", "l2_per_core", "l3", "python", "numpy",
             "scipy")
#: Per-layer rows shown under each workload.
TOP_LAYERS = 8


def load_records(spec: str) -> list[dict]:
    path = Path(spec)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        return [json.loads(f.read_text()) for f in files]
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def spread(values: list[float]) -> float | None:
    """Interquartile range over median, or None below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else None


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def verdict(base: dict, head: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, worsening as a share of the base median).

    ``base`` and ``head`` map each run's seed to the metric's value.
    """
    bv, hv = list(base.values()), list(head.values())
    mb, mh = statistics.median(bv), statistics.median(hv)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mh - mb) / abs(mb) if mb else 0.0
    spreads = [spread(bv), spread(hv)]
    if better == "lower":
        dominates = max(hv) < min(bv)
    else:
        dominates = min(hv) > max(bv)
    if any(s is None or s > bound for s in spreads) and not dominates:
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    paired = base.keys() & head.keys()
    wins = sum(sign * (head[s] - base[s]) < 0 for s in paired)
    if paired and wins >= 0.9 * len(paired) and -worse > (spreads[0] or 0.0):
        return "better", worse
    return "same", worse


def group(records: list[dict]) -> dict[tuple[str, int], list[dict]]:
    out: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        out.setdefault((r["workload"], int(r["trace"])), []).append(r)
    return out


def metric_values(records, name) -> dict[int, float]:
    """The metric's value per seed; a run that measured none is left out."""
    out = {}
    for r in records:
        value = r["result"]["metrics"].get(name, {}).get("value")
        if value is not None:
            out[r["seed"]] = value
    return out


def failures(records) -> tuple[int, int]:
    """(failed operations, runs not correct) over a set of records."""
    return (sum(r["result"]["failed"] for r in records),
            sum(not r["result"]["correct"] for r in records))


def self_times(records) -> dict[str, float]:
    """Median self seconds per layer and result over traced records."""
    key = "layer_self_s_per_result"
    names = {n for r in records for n in r.get(key, {})}
    return {
        n: statistics.median(r.get(key, {}).get(n, 0.0) for r in records)
        for n in names
    }


def host_differences(base, head) -> list[str]:
    out = []
    for key in HOST_KEYS:
        a = {str(r["host"].get(key)) for r in base}
        b = {str(r["host"].get(key)) for r in head}
        if a != b:
            out.append(f"{key}: {sorted(a)} -> {sorted(b)}")
    return out


def compare(base: list[dict], head: list[dict]) -> int:
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    base_g, head_g = group(base), group(head)
    regressions = 0
    for line in host_differences(base, head):
        print(f"warning: host differs, {line}")
    workloads = sorted({w for w, _ in base_g} | {w for w, _ in head_g})
    for workload in workloads:
        b_all = base_g.get((workload, 0), []) + base_g.get((workload, 1), [])
        h_all = head_g.get((workload, 0), []) + head_g.get((workload, 1), [])
        (b_failed, _), (h_failed, h_wrong) = failures(b_all), failures(h_all)
        failing = bool(h_all) and (h_failed > b_failed or h_wrong > 0)
        regressions += failing
        b_runs, h_runs = base_g.get((workload, 0), []), head_g.get((workload, 0), [])
        print(f"\n== {workload}: {len(b_runs)} base runs, {len(h_runs)} head runs; "
              f"failed operations {b_failed} base, {h_failed} head"
              + (f", {h_wrong} head runs not correct" if h_wrong else ""))
        if b_runs and h_runs:
            print(f"{'metric':16s} {'base':>11s} {'head':>11s} {'worse':>8s} "
                  f"{'spread b/h':>13s} {'bound':>6s}  verdict")
            for name, spec in bounds.items():
                bv, hv = metric_values(b_runs, name), metric_values(h_runs, name)
                if failing:
                    # A head that fails more gets no verdict on speed.
                    print(f"{name:16s} {'':>11s} {'':>11s} {'':>8s} {'':>13s} "
                          f"{spec['bound']:6.2f}  failed")
                    continue
                if not bv or not hv:
                    continue
                v, worse = verdict(bv, hv, spec["better"], spec["bound"])
                regressions += v == "worse"
                sb = _fmt(spread(list(bv.values())))
                sh = _fmt(spread(list(hv.values())))
                print(f"{name:16s} {statistics.median(bv.values()):11.5g} "
                      f"{statistics.median(hv.values()):11.5g} {worse:+8.3f} "
                      f"{sb:>6s}/{sh:<6s} {spec['bound']:6.2f}  {v}")
        bt, ht = base_g.get((workload, 1), []), head_g.get((workload, 1), [])
        if bt and ht:
            bs, hs = self_times(bt), self_times(ht)
            names = sorted(
                bs.keys() | hs.keys(),
                key=lambda n: (-abs(hs.get(n, 0.0) - bs.get(n, 0.0)),
                               -max(hs.get(n, 0.0), bs.get(n, 0.0))),
            )
            print("per-layer self time per result, head - base "
                  f"({len(bt)}/{len(ht)} traced runs):")
            for name in names[:TOP_LAYERS]:
                b, h = bs.get(name, 0.0), hs.get(name, 0.0)
                print(f"  {name:28s} {b:9.4f}s -> {h:9.4f}s  ({h - b:+.4f}s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    return compare(load_records(args.base), load_records(args.head))


if __name__ == "__main__":
    sys.exit(main())
