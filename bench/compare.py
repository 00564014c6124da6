#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (its --out). For every
workload and metric, prints each side's run count, median and quartile
spread (as a share of the median), and the change's median relative to the
parent's. The comparison is flagged, and the exit code is 1, when the two
sides' environment records differ in Python, numpy, BLAS, BLAS threads or
nproc.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from envinfo import differences


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((result["workload"], result["trace"]), []).append(result)
    return groups


def _summary(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    envs = [r["env"] for side in (parent, change) for runs in side.values() for r in runs]
    flags = sorted({d for env in envs[1:] for d in differences(envs[0], env)})
    for flag in flags:
        print(f"WARNING: environments differ: {flag}")

    print(f"{'workload':12s} {'metric':34s} {'unit':8s} {'n':>3s} {'parent':>12s} {'iqr%':>6s} "
          f"{'n':>3s} {'change':>12s} {'iqr%':>6s} {'delta%':>8s}")
    for key in sorted(set(parent) & set(change)):
        names = parent[key][0]["metrics"]
        for name, first in names.items():
            a = [r["metrics"][name]["value"] for r in parent[key] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not a or not b:
                continue
            (ma, sa), (mb, sb) = _summary(a), _summary(b)
            delta = 100.0 * (mb / ma - 1.0) if ma else float("nan")
            label = key[0] + ("+trace" if key[1] else "")
            print(f"{label:12s} {name:34s} {first['unit']:8s} {len(a):3d} {ma:12.6g} {100 * sa:6.1f} "
                  f"{len(b):3d} {mb:12.6g} {100 * sb:6.1f} {delta:8.2f}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
