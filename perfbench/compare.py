"""Summarise benchmark run records, or compare two sets of them.

Usage, from the root of a checkout::

    python3 perfbench/compare.py RESULTS_DIR              # spread of one set
    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR     # change of medians

A results directory holds the records that ``run.py`` writes to
``.perfbench/results``.  For each workload and end-to-end metric this
prints the median and quartiles over the untraced runs, the spread
(quartile distance over median) and, for two sets, the change of the
median as a share of the first median beside the metric's bound in
``BENCHMARK.json``.  Records whose backend or CPU count differ are not
compared: the command exits with status 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = ("backend", "nproc")


def load(directory: str) -> dict:
    """{workload: [record, ...]} for the untraced full-size runs in directory."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record["trace"] == 0 and record["size"] == "full":
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    dirs = sys.argv[1:] if argv is None else argv
    if len(dirs) not in (1, 2):
        sys.stderr.write(__doc__)
        return 64
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    sets = [load(d) for d in dirs]
    builds = {
        tuple(r["build"][k] for k in PINNED)
        for runs in sets for records in runs.values() for r in records
    }
    if len(builds) > 1:
        sys.stderr.write(f"refusing to compare: {PINNED} differ across records: {sorted(builds)}\n")
        return 2
    for workload in sorted(set().union(*sets)):
        for metric, bound in bounds.items():
            cells = []
            medians = []
            for runs in sets:
                values = [r["result"]["metrics"][metric]["value"] for r in runs.get(workload, [])]
                if not values:
                    cells.append("no runs")
                    medians.append(None)
                    continue
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                cells.append(f"n={len(values)} median {q2:.4f} [{q1:.4f}, {q3:.4f}] "
                             f"spread {(q3 - q1) / q2:.3f}")
            line = f"{workload:<16} {metric:<12} bound {bound:<5} " + " | ".join(cells)
            if len(sets) == 2 and None not in medians:
                change = (medians[1] - medians[0]) / medians[0]
                line += f" | change {change:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
