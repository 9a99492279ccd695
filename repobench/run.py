"""Repository benchmark: one seeded workload per process.

Usage (from the repository root)::

    python3 repobench/run.py --workload serve-closed --seed 1 --seconds 20 --trace 0

Runs the workload for ``--seconds`` of measurement, checks its outputs and
prints, as the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
traced variant and reports the per-layer ones (``metrics.py``).  The line
before it is the host fingerprint; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    import host
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in END_TO_END if name not in result.metrics]
    if missing and not args.trace:
        raise RuntimeError(f"workload {args.workload} did not report {missing}")
    metrics = {}
    for name, unit in wanted.items():
        # Per-layer metrics that do not apply to the workload read 0; a
        # non-finite value (a NaN output's error) reads as the largest float.
        value = float(result.metrics.get(name, 0.0))
        metrics[name] = {"value": value if math.isfinite(value) else sys.float_info.max, "unit": unit}
    print(json.dumps({"fingerprint": host.fingerprint(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
