"""Summarise saved benchmark outputs; compare two sets of them.

Usage::

    python3 repobench/compare.py RUN.out ... [--against BASE.out ...]

Each file holds the stdout of one ``run.py`` call (fingerprint line, then
the result line).  For every workload and metric the summary gives the
median, the quartiles and their spread (``(q3 - q1) / median``, the figure
the bounds in ``BENCHMARK.json`` are checked against).  With
``--against``, it also gives each median's change relative to the base
set.  Runs whose host fingerprints differ are flagged: their numbers come
from different machines, core sets or BLAS builds and do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> tuple[dict[tuple[str, int], list[dict]], list[dict]]:
    """Results grouped by (workload, trace), and the fingerprints seen."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    prints: list[dict] = []
    for path in paths:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise SystemExit(f"{path}: expected a fingerprint line and a result line")
        head, result = json.loads(lines[-2]), json.loads(lines[-1])
        if head["fingerprint"] not in prints:
            prints.append(head["fingerprint"])
        runs[(head["workload"], head["trace"])].append(result)
    return runs, prints


def bounds() -> dict[str, float]:
    if not BENCHMARK_JSON.is_file():
        return {}
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with ``statistics.quantiles(n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)
    runs, prints = load(args.runs)
    base, base_prints = load(args.against) if args.against else ({}, [])
    limits = bounds()
    if len(prints) > 1 or (base_prints and base_prints != prints):
        print("WARNING: runs come from different host fingerprints; do not compare them:")
        for fp in prints + [p for p in base_prints if p not in prints]:
            print(f"  {json.dumps(fp)}")
    for (workload, trace), results in sorted(runs.items()):
        ok = all(r["correct"] for r in results)
        print(f"{workload} trace={trace} runs={len(results)} all_correct={ok}")
        names = results[0]["metrics"]
        for name, first in names.items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
            line = (
                f"  {name:40s} median {med:12.6g} {first['unit']:8s} "
                f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.3f}"
            )
            if name in limits:
                line += f" bound {limits[name]:.2f}"
                if spread > limits[name]:
                    line += " OVER"
                elif spread > limits[name] / 3:
                    line += " >1/3"
            old = base.get((workload, trace))
            if old:
                old_med = statistics.median(r["metrics"][name]["value"] for r in old)
                if old_med:
                    line += f" vs base {med / old_med - 1:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
