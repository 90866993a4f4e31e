"""Answer checks: reference digests and independent oracles.

Every report is compared with ``references.json``, taken at the commit that
introduced the benchmark.  A job whose input is the canonical one (k=1) must
match byte for byte; a relabelled cyclic job must match the answer, which is
the report without its ``source`` field.  The oracles recompute answers by
other routes and run outside the timed region, in the benchmark's own
process.  Each check returns ``{job index: [reasons]}`` for the jobs it fails.
"""

from __future__ import annotations

import hashlib
import json

# the exact cross-check of a modular series stops here: exact elimination on
# the cyclic input grows steeply in cost beyond it
EXACT_CROSS_DEGREE = 10


def answer_digest(report: str) -> str:
    data = json.loads(report)
    data.pop("source", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def report_digests(report: str) -> dict:
    return {
        "sha256": hashlib.sha256(report.encode()).hexdigest(),
        "answer_sha256": answer_digest(report),
    }


def _add(failures: dict, index: int, reason: str) -> None:
    failures.setdefault(index, []).append(reason)


def against_references(jobs: list[dict], references: dict) -> dict:
    """Exit status and reference digest of every job of one batch."""
    failures: dict = {}
    for i, job in enumerate(jobs):
        if job["code"] != 0:
            reason = job["error"].strip().splitlines()[-1] if job["error"] else ""
            _add(failures, i, f"exit {job['code']} {reason}".rstrip())
            continue
        ref = references.get(job["id"])
        if ref is None:
            _add(failures, i, "no reference")
        elif job["k"] == 1:
            if hashlib.sha256(job["report"].encode()).hexdigest() != ref["sha256"]:
                _add(failures, i, "report differs from the reference bytes")
        else:
            try:
                digest = answer_digest(job["report"])
            except json.JSONDecodeError:
                digest = None
            if digest != ref["answer_sha256"]:
                _add(failures, i, "answer differs from the reference")
    return failures


def same_reports(jobs: list[dict], others: list[dict], what: str) -> dict:
    """Jobs whose report differs from the same job in another batch."""
    failures: dict = {}
    for i, (a, b) in enumerate(zip(jobs, others)):
        if a["report"] != b["report"]:
            _add(failures, i, f"report differs from the {what}")
    return failures


# ---------------------------------------------------------------------------
# Oracles


def _sweep(jobs, failures):
    from fknichols import diagonal

    if jobs[1]["code"] == 0 and jobs[0]["report"] != jobs[1]["report"]:
        _add(failures, 1, "resumed report differs from the fresh one")
    report = json.loads(jobs[0]["report"])
    if report["conjectureHolds"] is not True:
        _add(failures, 0, "conjectureHolds is not true")
    for e in report["entries"]:
        if e["status"] != diagonal.FAILS_AT or e["inheritedFrom"] is not None:
            continue
        braiding = diagonal.cyclic_braiding(e["witnessOrder"], e["witnessSubset"])
        reached = diagonal.replay_witness(braiding, e["witness"])
        v = e["failingVertex"]
        if not reached.q(v, v).is_one:
            _add(failures, 0, f"witness for n={e['n']} does not reach label 1")


def _space(argv):
    """The braided space of a hilbert job's argv, and its cyclic braiding or None."""
    from fknichols import diagonal, reflection_groups, symmetrizer

    if "--group" in argv:
        at = argv.index("--group")
        params = reflection_groups.GroupParams(*map(int, argv[at + 1 : at + 4]))
        return symmetrizer.space_from_yd(reflection_groups.yd_module(params)), None
    n = int(argv[argv.index("--cyclic") + 1])
    subset = [int(a) for a in argv[argv.index("--subset") + 1].split(",")]
    braiding = diagonal.cyclic_braiding(n, subset)
    return symmetrizer.space_from_diagonal(braiding), braiding


def _hilbert(job, index, failures):
    """Direct symmetrizer to degree 3, the other mode on shared degrees, and
    the PBW series for cyclic inputs."""
    from fknichols import diagonal, symmetrizer

    argv = job["argv"]
    report = json.loads(job["report"])
    nichols = report["nichols"] if "nichols" in report else report
    mode = report["mode"]
    space, braiding = _space(argv)
    series = nichols["perDegree"]
    direct = [symmetrizer.direct_graded_dim(space, d) for d in range(min(3, len(series) - 1) + 1)]
    if series[: len(direct)] != direct:
        _add(failures, index, f"Nichols {series[:len(direct)]} != direct symmetrizer {direct}")

    other = "modular" if mode == "exact" else "exact"
    shared = len(series) - 1
    if other == "exact":
        shared = min(shared, EXACT_CROSS_DEGREE)
    if "nichols" in report:
        cmp = symmetrizer.hilbert_compare(space, shared, mode=other)
        mine = (series[: shared + 1], report["quadratic"]["perDegree"][: shared + 1])
        theirs = (list(cmp.nichols.per_degree), list(cmp.quadratic.per_degree))
    else:
        mine = series[: shared + 1]
        theirs = list(symmetrizer.nichols_hilbert(space, shared, mode=other).per_degree)
    if mine != theirs:
        _add(failures, index, f"{mode} series differs from {other} to degree {shared}")

    if braiding is not None:
        pbw = diagonal.pbw_hilbert_series(braiding, len(series) - 1)
        if series != pbw:
            _add(failures, index, f"Nichols series {series} != PBW series {pbw}")


def _yd(job, index, failures):
    from fknichols import reflection_groups

    report = json.loads(job["report"])
    params = reflection_groups.GroupParams(report["m"], report["p"], report["n"])
    if report["dim"] != reflection_groups.expected_reflection_count(params):
        _add(failures, index, "YD dimension differs from the reflection count")
    if sum(s["dim"] for s in report["summands"]) != report["dim"]:
        _add(failures, index, "summand dimensions do not add up")
    if len(report["summands"]) != reflection_groups.expected_summand_count(params):
        _add(failures, index, "summand count differs from the rank formula")


def oracles(workload: str, jobs: list[dict]) -> dict:
    """Independent checks of one batch's answers (jobs that exited 0 only)."""
    failures: dict = {}
    checks = []
    if workload == "sweep":
        checks.append((0, lambda: _sweep(jobs, failures)))
    elif workload.startswith("hilbert"):
        for i, job in enumerate(jobs):
            if job["argv"][0] == "yd":
                checks.append((i, lambda job=job, i=i: _yd(job, i, failures)))
            else:
                checks.append((i, lambda job=job, i=i: _hilbert(job, i, failures)))
    for index, check in checks:
        if jobs[index]["code"] != 0:
            continue
        try:
            check()
        except Exception as exc:  # a malformed answer fails its job
            _add(failures, index, f"oracle raised {type(exc).__name__}: {exc}")
    return failures
