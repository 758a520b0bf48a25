"""Compare two sets of benchmark runs of one workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are text files holding the last output line of each run,
one JSON object per line (for instance ten runs with seeds 1..10 on
each commit).  For every metric the script prints both medians, both
interquartile ranges as a share of the median, and the change of the
median.  It judges each end-to-end metric against the bound that
BENCHMARK.json fixes for it: "worse" when NEW's median is worse than
BASE's by more than the bound, "unresolved" when either side's own
spread exceeds the bound, "ok" otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                for name, m in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(base_path: str, new_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    worse = 0
    print(f"{'metric':<36} {'base':>12} {'iqr':>6} {'new':>12} {'iqr':>6} {'change':>8}  verdict")
    for name in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[name]), statistics.median(new[name])
        change = (n - b) / b if b else 0.0
        verdict = ""
        m = declared.get(name, {})
        if "bound" in m:
            sign = 1 if m["better"] == "lower" else -1
            if max(spread(base[name]), spread(new[name])) > m["bound"]:
                verdict = "unresolved"
            elif sign * change > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
        print(f"{name:<36} {b:>12.6g} {spread(base[name]):>6.3f} {n:>12.6g} "
              f"{spread(new[name]):>6.3f} {change:>+8.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
