"""Compare result files of a base commit and a head commit.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py compare --base A1.json A2.json ... \\
        --head B1.json B2.json ...

Each file is one ``run.py --out`` result; give two or more per side,
ideally ten pairs measured alternately.  All runs of a workload must
have the same ``--seconds`` (and smoke setting): compare exits 2
otherwise.  For every workload and metric
present on both sides this prints each side's median and quartiles, the
head's win fraction over index-aligned pairs, and a verdict:

* ``improved``: the head wins at least 9 of 10 pairs and the medians
  differ by more than the base's own quartile spread;
* ``regressed``: the head's median is worse than the base's by more
  than the metric's bound (per-layer metrics, which have no bound:
  the head loses at least 9 of 10 pairs by more than the spread);
* ``unresolved``: the base's spread exceeds the bound and the head does
  not beat every base run, or a jobs-2 workload ran on one CPU;
* ``no worse`` (``no change`` for per-layer metrics) otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WIN_FRACTION = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """``(verdict, head win fraction)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) > 0 for b, h in pairs) / len(pairs)
    losses = sum(sign * (h - b) < 0 for b, h in pairs) / len(pairs)
    b_q1, b_med, b_q3 = quartiles(base)
    spread = b_q3 - b_q1
    gain = sign * (statistics.median(head) - b_med)
    beats_all = (min(sign * h for h in head) > max(sign * b for b in base))
    if bound is not None and b_med and spread / abs(b_med) > bound \
            and not beats_all:
        return "unresolved", wins
    if wins >= WIN_FRACTION and gain > spread:
        return "improved", wins
    if bound is None:
        if losses >= WIN_FRACTION and -gain > spread:
            return "regressed", wins
        return "no change", wins
    if -gain > bound * abs(b_med):
        return "regressed", wins
    return "no worse", wins


def load(paths: Sequence[str]) -> Dict[str, List[Dict]]:
    """Result files grouped by workload, in the order given."""
    grouped: Dict[str, List[Dict]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        grouped[result["workload"]].append(result)
    return grouped


def values(results: List[Dict], name: str) -> List[float]:
    """The metric's value in every result file that has it."""
    found = []
    for result in results:
        for table in (result["metrics"], result.get("layers", {})):
            if name in table:
                found.append(float(table[name]))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = [(m["name"], m["unit"], m["better"], m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]]
    base, head = load(args.base), load(args.head)
    for workload in sorted(set(base) & set(head)):
        lengths = {(r["seconds"], r["smoke"])
                   for r in base[workload] + head[workload]}
        if len(lengths) > 1:
            print(f"{workload}: runs of different lengths "
                  f"(seconds, smoke) {sorted(lengths)} cannot be paired",
                  file=sys.stderr)
            return 2
    regressed = False
    print(f"{'workload':<12} {'metric':<34} {'base q1/med/q3':>32} "
          f"{'head q1/med/q3':>32} {'wins':>5}  verdict")
    for workload in sorted(set(base) & set(head)):
        unresolved = any(r["unresolved"]
                         for r in base[workload] + head[workload])
        for name, unit, better, bound in metrics:
            b = values(base[workload], name)
            h = values(head[workload], name)
            if len(b) < 2 or len(h) < 2:
                continue
            outcome, wins = verdict(b, h, better, bound)
            if unresolved and bound is not None:
                outcome = "unresolved"
            regressed |= outcome == "regressed" and bound is not None
            print(f"{workload:<12} {name:<34} "
                  f"{'%.4g / %.4g / %.4g' % quartiles(b):>32} "
                  f"{'%.4g / %.4g / %.4g' % quartiles(h):>32} "
                  f"{wins:>5.2f}  {outcome} ({unit})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
