"""Regenerate ``references.json``: the digest of every canonical report.

Run from the root of a fknichols checkout::

    python3 perfbench/make_references.py

Only do this on purpose, when a change to the reports is intended and
explained: the benchmark counts every report that differs from these
digests as a failed job.
"""

import argparse
import json
import os
import shutil
import sys

import run
import checks
import workloads


def main() -> int:
    root = os.getcwd()
    work = os.path.join(root, ".perfbench", "references")
    os.makedirs(work, exist_ok=True)
    references = {}
    try:
        for size in workloads.SIZES:
            references[size] = {}
            for workload in workloads.WORKLOADS:
                args = argparse.Namespace(workload=workload, seed=0, size=size)
                batch, why = run._Runner(args, root, work).child("batch")
                if batch is None:
                    sys.stderr.write(f"{workload} ({size}): {why}\n")
                    return 1
                for job in batch["jobs"]:
                    if job["code"] != 0:
                        sys.stderr.write(f"{job['id']}: exit {job['code']}\n")
                        return 1
                    references[size][job["id"]] = checks.report_digests(job["report"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
