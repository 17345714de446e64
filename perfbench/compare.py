#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of saved run.py outputs (one file
per run, the whole standard output) or a list of such files joined with
commas. Only untraced (--trace 0) runs count. Within each side, runs are
taken in file-name order, and the i-th parent run is paired with the i-th
change run of the same workload -- so save them as, say, 00.txt, 01.txt,
... in the order they ran, alternating which side runs first.

One row per workload and end-to-end metric of BENCHMARK.json: each side's
median and quartiles (statistics.quantiles, n=4), the share of pairs the
change won (ties count for neither side), and a verdict:

  improved    the change won at least 9/10 of the pairs and its median is
              better than the parent's by more than the parent's own
              quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's quartile spread exceeds the bound, unless
              every change run is better than every parent run;
  unchanged   otherwise.

Exit status: 0 when nothing regressed and every run was correct, 1
otherwise, 2 on unreadable input.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(arg):
    paths = []
    for part in arg.split(","):
        path = Path(part)
        paths += sorted(p for p in path.iterdir() if p.is_file()) \
            if path.is_dir() else [path]
    runs = {}
    for path in paths:
        record = None
        for line in path.read_text().splitlines():
            if line.startswith('{"perfbench"'):
                record = json.loads(line)["perfbench"]
        if record is None:
            raise ValueError(f"{path}: no perfbench record line")
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, lower_is_better, bound):
    sign = -1.0 if lower_is_better else 1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    gain = sign * (c_med - p_med)
    scale = abs(p_med) if p_med else 1.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pairs and share >= 0.9 and gain > (p_q3 - p_q1):
        word = "improved"
    elif -gain > bound * scale:
        word = "regressed"
    elif ((p_q3 - p_q1) > bound * scale or
          (c_q3 - c_q1) > bound * scale) and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return (p_q1, p_med, p_q3), (c_q1, c_med, c_q3), share, word


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC.read_text())
        parent_runs = load_runs(sys.argv[1])
        change_runs = load_runs(sys.argv[2])
    except (OSError, ValueError, KeyError) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2

    status = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for workload, records in runs.items():
            bad = [r for r in records if not r["correct"]]
            if bad:
                status = 1
                print(f"{side} {workload}: {len(bad)} run(s) failed "
                      f"correctness: {bad[0]['error']}")

    fmt = "{:<13} {:<20} {:>34} {:>34} {:>6}  {}"
    print(fmt.format("workload", "metric", "parent q1 / median / q3",
                     "change q1 / median / q3", "won", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload}: no runs on "
                  f"{'parent' if not parent else 'change'} side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in parent]
            c_values = [r["metrics"][name]["value"] for r in change]
            p, c, share, word = verdict(p_values, c_values,
                                        metric["better"] == "lower",
                                        metric["bound"])
            if word == "regressed":
                status = 1
            print(fmt.format(
                workload, name,
                " / ".join(f"{v:.5g}" for v in p),
                " / ".join(f"{v:.5g}" for v in c),
                f"{share:.0%}", word))
    return status


if __name__ == "__main__":
    sys.exit(main())
