"""The four fixed batches of CLI jobs and their seed-driven variations.

A job is ``(job_id, argv, k)``: ``job_id`` names the canonical input (the
key into ``references.json``), ``argv`` is what ``fknichols.cli.main``
receives and ``k`` is the unit used to relabel a cyclic input I -> kI
(1 when the input is the canonical one).

The seed sets the order of the survey's jobs and the unit that relabels the
cyclic Hilbert inputs.  Relabelling is a Galois conjugation zeta -> zeta^k,
so it changes neither the answer nor the cost.  The hilbert batches keep a
fixed order: running the G(3,3,3) compare before the C8 series instead of
after it raises peak RSS by about 5%, which would tie peak_rss_mb to the
seed.  The sweep's two jobs depend on each other.  Seed 0 keeps the
canonical order and k=1.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("sweep", "survey", "hilbert_exact", "hilbert_modular")
SIZES = ("full", "tiny")

# cyclic inputs (order, subset, max degree) per size and mode
_CYCLIC = {
    ("full", "exact"): (8, (1, 4), 12),
    ("full", "modular"): (8, (1, 4), 18),
    ("tiny", "exact"): (8, (1, 4), 6),
    ("tiny", "modular"): (8, (1, 4), 8),
}
_GROUP = {"full": (3, 3, 3, 4), "tiny": (2, 1, 2, 3)}
_YD_GROUPS = {"full": ((4, 1, 5), (6, 2, 4), (3, 3, 6)), "tiny": ((2, 1, 3),)}
_SWEEP_MAX = {"full": 200, "tiny": 30}
_SURVEY = {"full": (range(2, 31), 4), "tiny": (range(2, 9), 3)}
_MODULAR_BUDGET = 50_000


def _units(n: int) -> list[int]:
    return [k for k in range(1, n) if gcd(k, n) == 1]


def _cyclic_job(size: str, mode: str, k: int):
    n, subset, degree = _CYCLIC[(size, mode)]
    job_id = f"nichols-c{n}-{'-'.join(map(str, subset))}-d{degree}-{mode}"
    relabelled = ",".join(str(k * a % n) for a in subset)
    argv = ["nichols", "hilbert", "--cyclic", str(n), "--subset", relabelled,
            "--max-degree", str(degree)]
    if mode == "modular":
        argv += ["--modular", "--budget", str(_MODULAR_BUDGET)]
    return job_id, argv, k


def _group_job(size: str, mode: str):
    m, p, n, degree = _GROUP[size]
    argv = ["hilbert", "compare", "--group", str(m), str(p), str(n),
            "--max-degree", str(degree)]
    if mode == "modular":
        argv.append("--modular")
    return f"compare-g{m}{p}{n}-d{degree}-{mode}", argv, 1


def jobs(workload: str, seed: int, size: str, checkpoint: str):
    """The job list of one batch, in the order it runs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(seed)
    canonical = seed == 0
    if workload == "sweep":
        # the resume depends on the checkpoint the first job wrote
        argv = ["groupoid", "sweep", "--max", str(_SWEEP_MAX[size]),
                "--jobs", "1", "--checkpoint", checkpoint]
        job_id = f"sweep-{_SWEEP_MAX[size]}"
        batch = [(job_id, argv, 1), (job_id, list(argv), 1)]
    elif workload == "survey":
        ns, rank = _SURVEY[size]
        batch = [
            (f"subsystems-{n}-r{rank}", ["subsystems", str(n), "--max-rank", str(rank)], 1)
            for n in ns
        ]
    else:
        mode = "exact" if workload == "hilbert_exact" else "modular"
        k = 1 if canonical else rng.choice(_units(_CYCLIC[(size, mode)][0]))
        batch = [_group_job(size, mode), _cyclic_job(size, mode, k)]
        if mode == "modular":
            batch += [
                (f"yd-{m}{p}{n}", ["yd", "decompose", str(m), str(p), str(n)], 1)
                for m, p, n in _YD_GROUPS[size]
            ]
    if workload == "survey" and not canonical:
        rng.shuffle(batch)
    return [(job_id, argv + ["--format", "json"], k) for job_id, argv, k in batch]
