#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named <workload>.<run>.json (for
example bundle-scale.03.json), containing the run's stdout; the last line
is the result object.  Runs pair up by sorted file name, so run the parent
and the change alternately and number the pairs the same on both sides.

For every workload and metric it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict, following the rules the benchmark fixes:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (for a per-layer metric, which has no
              bound: it loses 9 in 10 pairs by more than the spread);
  unresolved  the parent's spread is wider than the bound and not every
              change run reads better than every parent run;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as fh:
            last = fh.read().strip().splitlines()[-1]
        runs.setdefault(name.split(".", 1)[0], []).append(json.loads(last)["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher: bool, bound) -> tuple[float, str]:
    sign = 1.0 if higher else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return share, "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > spread:
            return share, "worse"
        return share, "unchanged"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and spread / abs(pm) > bound and not all_better:
        return share, "unresolved"
    if pm and -gain / abs(pm) > bound:
        return share, "worse"
    return share, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rules = {m["name"]: (m["better"] == "higher", m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':14s} {'metric':42s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        names = [n for n in parent[workload][0] if n in rules]
        for name in names:
            p = [r[name]["value"] for r in parent[workload]]
            c = [r[name]["value"] for r in change[workload]]
            higher, bound = rules[name]
            share, word = verdict(p, c, higher, bound)
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            print(f"{workload:14s} {name:42s} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {share:5.2f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
