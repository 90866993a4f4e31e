"""fknichols benchmark: fixed batches of CLI jobs, timed end to end.

Usage, from the root of a fknichols checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each batch runs in a fresh process (``child.py``), one job at a time through
``fknichols.cli.main``: a closed loop with one client.  With ``--trace 0``
batches repeat while the next one is expected to end within ``--seconds``
(at least one runs), and the end-to-end metrics are medians over batches.
Set-up is measured in every batch process and in a few processes that only
set up.  With ``--trace 1`` one untraced and one traced batch run; the
traced one reports time and counts per layer.

Every answer is checked against ``references.json`` and, outside the timed
region, against independent oracles (``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics, the
failure share and the build.  A record of the run goes to
``.perfbench/results``, the traced run's spans to ``.perfbench/trace``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# set-up-only processes per untraced run, on top of one set-up per batch
SETUP_PROBES = 4
# a run must end within 180 s; children share what is left of this
RUN_DEADLINE_S = 170.0

# per-layer metrics that are not a counter or a call count of the tracer
_SPECIAL = {
    "cyclic_fk.enumerate_finite_subsystems.classified": "cyclic_fk._classify_subset.calls",
    "cli.report_bytes": "report_bytes",
    "trace.overhead_s": "overhead_s",
    "trace.unattributed_s": "unattributed_s",
}


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("FKNICHOLS_JOBS", None)
    env["FKNICHOLS_BACKEND"] = "py"
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


class _Runner:
    """Starts child processes for one run and keeps its deadline."""

    def __init__(self, args, root: str, work: str, spans: str | None = None):
        self.args = args
        self.root = root
        self.work = work
        self.spans = spans
        self.env = _child_env(os.path.join(root, "src"))
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0

    def child(self, mode: str, trace: bool = False):
        """(result dict, None) for a child that finished, else (None, reason)."""
        self.count += 1
        tag = f"{mode}{self.count}"
        out = os.path.join(self.work, tag + ".json")
        cfg = {
            "workload": self.args.workload, "seed": self.args.seed,
            "size": self.args.size, "mode": mode, "trace": trace,
            "checkpoint": os.path.join(self.work, tag + ".checkpoint.jsonl"),
            "src": os.path.join(self.root, "src"), "out": out,
            "spans": self.spans if trace else None,
        }
        cfg["spawned_ns"] = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
            env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, "timed out"
        if code != 0 or not os.path.exists(out):
            return None, f"child exited {code}"
        with open(out, encoding="utf-8") as fh:
            return json.load(fh), None

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _check(args, batches, references, n_jobs):
    """(attempted, failed, messages) over all batches; oracles on the first."""
    attempted = failed = 0
    messages = []
    first = None
    for b, (batch, why) in enumerate(batches):
        attempted += n_jobs
        if batch is None:
            failed += n_jobs
            messages.append(f"batch {b}: {why}")
            continue
        jobs = batch["jobs"]
        failures = checks.against_references(jobs, references)
        if first is None:
            first = jobs
            extra = checks.oracles(args.workload, jobs)
        else:
            what = "untraced batch" if args.trace else "first batch"
            extra = checks.same_reports(jobs, first, what)
        for i, reasons in extra.items():
            failures.setdefault(i, []).extend(reasons)
        failed += len(failures)
        for i, reasons in sorted(failures.items()):
            messages.append(f"batch {b} job {jobs[i]['id']}: {'; '.join(reasons)}")
    return attempted, failed, messages


def _untraced(runner, args, spec):
    setups = []
    for _ in range(SETUP_PROBES):
        probe, _why = runner.child("setup")
        if probe is not None:
            setups.append(probe["setup_s"])
    batches = []
    start = time.monotonic()
    while not runner.expired():
        batches.append(runner.child("batch"))
        elapsed = time.monotonic() - start
        if batches[-1][0] is None or elapsed * (len(batches) + 1) / len(batches) > args.seconds:
            break
    good = [b for b, _ in batches if b is not None]
    metrics = None
    if good:
        setups += [b["setup_s"] for b in good]
        values = {
            "wall_s": statistics.median(b["wall_s"] for b in good),
            "cpu_s": statistics.median(b["cpu_s"] for b in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in good),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    record = {"setups": setups, "batches": [
        {k: b[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")} for b in good
    ]}
    return batches, metrics, record


def _traced(runner, args, spec):
    plain = runner.child("batch")
    traced = runner.child("batch", trace=True)
    batches = [plain, traced]
    if plain[0] is None or traced[0] is None:
        return batches, None, {}
    summary = traced[0]["trace"]
    values = dict(summary["counts"])
    values.update({f"{name}.calls": e["calls"] for name, e in summary["by_name"].items()})
    values.update({f"layer.{layer}.self_s": s for layer, s in summary["layers"].items()})
    values.update(report_bytes=summary["report_bytes"], unattributed_s=summary["unattributed_s"],
                  overhead_s=traced[0]["wall_s"] - plain[0]["wall_s"])
    # a counter that never fired reads 0
    metrics = {
        m["name"]: {"value": values.get(_SPECIAL.get(m["name"], m["name"]), 0), "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    record = {"untraced_wall_s": plain[0]["wall_s"], "traced_wall_s": traced[0]["wall_s"],
              "by_name": summary["by_name"], "spans": summary["spans"]}
    return batches, metrics, record


def _parse(argv):
    p = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny runs the self-test inputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fknichols", "cli.py")):
        sys.stderr.write("perfbench: src/fknichols/cli.py not found; "
                         "run from the root of a fknichols checkout\n")
        return 2
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)[args.size]
    # metric names and units
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # the checks import fknichols here, pinned like the children
    os.environ.update(FKNICHOLS_BACKEND="py")
    os.environ.pop("FKNICHOLS_JOBS", None)
    sys.path.insert(0, src)
    import fknichols

    if not os.path.abspath(fknichols.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: fknichols imported from {fknichols.__file__}\n")
        return 2
    # the build: byte-compile once so that no measured set-up compiles
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(src, "fknichols"), HERE],
        env=_child_env(src), stdout=subprocess.DEVNULL, check=True,
    )
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans = None
    if args.trace:
        os.makedirs(os.path.join(base, "trace"), exist_ok=True)
        spans = os.path.join(base, "trace", f"{args.workload}-seed{args.seed}.spans.jsonl")
    try:
        runner = _Runner(args, root, work, spans)
        measure = _traced if args.trace else _untraced
        batches, metrics, record = measure(runner, args, spec)
        n_jobs = len(workloads.jobs(args.workload, args.seed, args.size, ""))
        attempted, failed, messages = _check(args, batches, references, n_jobs)
        first = next((b for b, _ in batches if b is not None), None)
        build = {
            "backend": first["backend"] if first else None,
            "python": first["python"] if first else None,
            "numpy": _version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in messages:
        sys.stderr.write(f"perfbench: FAIL {message}\n")
    if build["backend"] != "py":
        sys.stderr.write(f"perfbench: backend {build['backend']!r}, expected 'py'\n")
        failed = max(failed, 1)
    if metrics is None:
        sys.stderr.write("perfbench: no batch completed\n")
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(base, "results", name), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "trace": args.trace, "build": build, "result": result,
                   "failures": messages, **record}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"batches={len(batches)} " + " ".join(f"{k}={v}" for k, v in build.items()))
    if args.trace:
        print(f"  {'span or kernel':<42} {'calls':>9} {'s':>10} {'self_s':>10}")
        for fn, e in sorted(record["by_name"].items()):
            print(f"  {fn:<42} {e['calls']:>9} {e['s']:>10.4f} {e['self_s']:>10.4f}")
    for k, m in metrics.items():
        print(f"  {k:<50} {m['value']} {m['unit']}")
    print(f"  {'fail_frac':<50} {failed / attempted} ratio ({failed} of {attempted} jobs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
