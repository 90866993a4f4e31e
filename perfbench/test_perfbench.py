"""Self-tests of the benchmark, on the tiny inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run(cwd, *extra):
    """(stdout lines, parsed result) of one tiny run from cwd."""
    proc = subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def fail_frac(lines):
    line = next(line for line in lines if line.split()[0] == "fail_frac")
    assert line.split()[2] == "ratio"
    return float(line.split()[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    lines, result = run(ROOT, "--workload", workload, "--seed", "3", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert fail_frac(lines) == 0
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def copy_checkout(tmp_path):
    """A copy of the benchmark and the package to modify."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src", "fknichols"), tmp_path / "src" / "fknichols",
                    ignore=shutil.ignore_patterns("__pycache__", "*.c", "*.so"))


def test_corrupted_reference_digest_fails(tmp_path):
    copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "references.json"
    references = json.loads(path.read_text(encoding="utf-8"))
    ref = references["tiny"]["subsystems-8-r3"]
    ref["sha256"] = ref["sha256"][::-1]
    path.write_text(json.dumps(references), encoding="utf-8")
    lines, result = run(tmp_path, "--workload", "survey")
    assert not result["correct"] and result["failed"] >= 1
    assert fail_frac(lines) > 0


def test_wrong_kernel_fails(tmp_path):
    """A copy of the checkout whose modular combine kernel is off by one in
    the last coefficient it returns."""
    copy_checkout(tmp_path)
    with open(tmp_path / "src" / "fknichols" / "_kernels_py.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_right_combine_mod = combine_mod\n\n\n"
            "def combine_mod(a, idx, co, b, pidx, pco, p):\n"
            "    idx, co = _right_combine_mod(a, idx, co, b, pidx, pco, p)\n"
            "    return idx, co[:-1] + [(co[-1] + 1) % p] if co else co\n"
        )
    lines, result = run(tmp_path, "--workload", "hilbert_modular")
    assert not result["correct"] and result["failed"] >= 1
    assert fail_frac(lines) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
