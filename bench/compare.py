"""Compare two sets of benchmark runs metric by metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines ``bench/run.py --out FILE`` appends.
Runs are paired per workload in file order, so record them as
alternating pairs (parent, change, parent, change, ...) with the same
``--seconds``.  One row is printed per workload and metric, with each
side's median and quartiles and a verdict:

- ``improved``: at least 10 pairs, the change wins at least 9 of every
  10 (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
- ``regressed``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json`` (per-layer
  metrics have no bound: the improved rule with the sides swapped);
- ``unresolved``: a side's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent
  run; per-layer metrics that neither improved nor regressed;
- ``within bound``: everything else.

Per-layer metrics that read 0 on both sides (a layer the workload does
not exercise) are left out.

The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` in file order."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                run = json.loads(line)
                for name, metric in run["metrics"].items():
                    values[(run["workload"], name)].append(metric["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: Optional[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "improved"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > c_q3 - c_q1:
            return "regressed"
        return "unresolved"
    scale = abs(p_med) or 1.0
    if max(p_q3 - p_q1, c_q3 - c_q1) / scale > bound:
        beats_all = all(sign * (b - a) > 0 for a in parent for b in change)
        return "within bound" if beats_all else "unresolved"
    if -gain / scale > bound:
        return "regressed"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    header = (
        f"{'workload':<14} {'metric':<40} {'unit':<6} "
        f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'pairs':>5} {'wins':>4}  verdict"
    )
    print(header)
    regressed = False
    for workload, name in sorted(set(parent) & set(change)):
        if name not in metrics:
            continue
        spec_row = metrics[name]
        a, b = parent[(workload, name)], change[(workload, name)]
        if not any(a) and not any(b):
            continue  # a layer this workload does not exercise
        sign = 1.0 if spec_row["better"] == "higher" else -1.0
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        result = verdict(a, b, spec_row["better"], spec_row.get("bound"))
        regressed = regressed or result == "regressed"
        cells = []
        for values in (a, b):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        print(
            f"{workload:<14} {name:<40} {spec_row['unit']:<6} {cells[0]:>34} {cells[1]:>34} "
            f"{min(len(a), len(b)):>5} {wins:>4}  {result}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
