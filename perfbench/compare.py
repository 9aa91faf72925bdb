#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of the records run.py writes under
``.perfbench_work/results/`` (one checkout per side).  Untraced runs pair up
by workload and seed, in the order they started, so run the two sides in
alternating order.  For each workload and end-to-end metric the table gives
each side's median and quartiles, the share of pairs the change won and a
verdict:

- improved: the change won at least 9 of 10 pairs, over at least ten pairs,
  the medians differ by more than the parent's interquartile range, and the
  change fails no larger share of its operations than the parent;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: otherwise, when the parent's spread (interquartile range over
  median) exceeds the bound, unless every change run beats every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_ns"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """The k-th parent run of a seed with the k-th change run of that seed."""
    def by_seed(records):
        out: dict[int, list[dict]] = {}
        for r in records:
            out.setdefault(r["seed"], []).append(r)
        return out

    left, right = by_seed(parent), by_seed(change)
    return [
        pair for seed in sorted(left.keys() & right.keys())
        for pair in zip(left[seed], right[seed])
    ]


def verdict(parent: list[float], change: list[float], wins: int, n_pairs: int,
            higher_is_better: bool, bound: float, more_failed: bool) -> str:
    sign = 1 if higher_is_better else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if (n_pairs >= 10 and wins >= 0.9 * n_pairs and gain > p3 - p1
            and not more_failed):
        return "improved"
    if -gain > bound * abs(pm):
        return "worse"
    all_better = (min(change) > max(parent)) if higher_is_better else (max(change) < min(parent))
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_runs, change_runs = (load(Path(a)) for a in argv)
    print(f"{'workload':18} {'metric':12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:18} (no runs on {'both sides' if not parent and not change else 'one side'})")
            continue
        matched = pairs(parent, change)
        failed = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (parent, change)]
        first = sum(1 for a, b in matched if a["started_ns"] < b["started_ns"])
        print(f"{workload:18} pairs {len(matched)}, parent ran first in {first}"
              + ("" if abs(2 * first - len(matched)) <= 1 else
                 " -- not alternating, so host drift can pass for a change"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            p = [r["metrics"][name] for r in parent]
            c = [r["metrics"][name] for r in change]
            wins = sum(
                1 for a, b in matched
                if (b["metrics"][name] > a["metrics"][name]) == higher
                and b["metrics"][name] != a["metrics"][name]
            )
            cells = []
            for values in (p, c):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:18} {name:12} {cells[0]:>32} {cells[1]:>32} "
                  f"{wins:>3}/{len(matched):<3}  "
                  f"{verdict(p, c, wins, len(matched), higher, metric['bound'], failed[1] > failed[0])}")
        print(f"{workload:18} {'failed_frac':12} {failed[0]:>32.4g} {failed[1]:>32.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
