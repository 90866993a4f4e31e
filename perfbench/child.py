"""One fresh benchmark process: set up, then run one batch of CLI jobs.

``run.py`` starts it as ``python3 perfbench/child.py CONFIG`` where CONFIG
is a JSON object with the keys ``workload``, ``seed``, ``size``, ``mode``
(``setup`` to stop once set up, ``batch`` to run the jobs), ``trace``,
``checkpoint``, ``spawned_ns`` (the parent's ``time.monotonic_ns()`` just
before the start), ``src``, ``out`` (where the result JSON goes) and
``spans`` (where a traced batch writes its spans).

Set-up is everything from process start until the first job is ready: the
interpreter, ``import fknichols.cli`` and input generation.  The jobs then
run one at a time through ``fknichols.cli.main`` with the report captured
in memory; wall and CPU time cover the first job's start to the last answer.
"""

import json
import os
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    import contextlib
    import io
    import resource
    import traceback

    import fknichols
    from fknichols import cli

    if not os.path.abspath(fknichols.__file__).startswith(cfg["src"] + os.sep):
        sys.stderr.write(f"fknichols imported from {fknichols.__file__}, not {cfg['src']}\n")
        return 2

    import workloads

    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    batch = workloads.jobs(cfg["workload"], cfg["seed"], cfg["size"], cfg["checkpoint"])
    setup_s = (time.monotonic_ns() - cfg["spawned_ns"]) / 1e9
    result = {"setup_s": setup_s, "backend": fknichols.BACKEND,
              "python": sys.version.split()[0]}
    if cfg["mode"] == "batch":
        jobs = []
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for job_id, argv, k in batch:
            buf = io.StringIO()
            error = None
            if tracer is not None:
                tracer.job = f"{len(jobs)}:{job_id}"
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # a crashed job fails; the batch goes on
                code, error = None, traceback.format_exc()
            jobs.append({"id": job_id, "argv": argv, "k": k, "code": code,
                         "report": buf.getvalue(), "error": error})
        wall_s = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            jobs=jobs,
            wall_s=wall_s,
            cpu_s=(usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
            peak_rss_mb=usage1.ru_maxrss / 1024,
        )
        if tracer is not None:
            result["trace"] = tracer.summary(wall_s)
            result["trace"]["report_bytes"] = sum(len(j["report"].encode()) for j in jobs)
            tracer.write_spans(cfg["spans"])
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
