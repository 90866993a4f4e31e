import concurrent.futures
import json
import time
from concurrent.futures import Future

import pytest

from fknichols import cli, diagonal as dg


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_groupoid_check_6_fails_with_replayable_witness(capsys):
    code, out, _ = run_cli(capsys, "groupoid", "check", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schemaVersion"] == 1
    assert data["status"] == "failsAt"
    braiding = dg.full_cyclic_braiding(6)
    reached = dg.replay_witness(braiding, data["witness"])
    assert isinstance(
        dg.reflect(reached, data["failingVertex"]), dg.ReflectionFailure
    )


def test_groupoid_check_4_exists_six_objects(capsys):
    code, out, _ = run_cli(capsys, "groupoid", "check", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "exists"
    assert len(data["objects"]) == 6


def test_nichols_hilbert_b2(capsys):
    code, out, _ = run_cli(
        capsys,
        "nichols",
        "hilbert",
        "--group",
        "2",
        "1",
        "2",
        "--max-degree",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["perDegree"] == [1, 4, 8, 12, 14]


def test_fk_hilbert_dih5(capsys):
    code, out, _ = run_cli(
        capsys,
        "fk",
        "hilbert",
        "--group",
        "5",
        "5",
        "2",
        "--max-degree",
        "4",
    )
    assert code == 0
    assert json.loads(out)["perDegree"] == [1, 5, 16, 45, 121]


def test_hilbert_compare_reports_divergence(capsys):
    code, out, _ = run_cli(
        capsys,
        "hilbert",
        "compare",
        "--group",
        "2",
        "1",
        "2",
        "--max-degree",
        "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["divergenceDegree"] == 4


def test_hilbert_compare_fk4_to_degree_6_within_the_default_budget(capsys):
    code, out, _ = run_cli(
        capsys, "hilbert", "compare", "--group", "1", "1", "4", "--max-degree", "6"
    )
    assert code == 0
    data = json.loads(out)
    assert data["nichols"]["perDegree"] == [1, 6, 19, 42, 71, 96, 106]
    assert data["quadratic"]["perDegree"] == [1, 6, 19, 42, 71, 96, 106]
    assert data["divergenceDegree"] is None


def test_pbw_dim_cyclic_subset(capsys):
    code, out, _ = run_cli(
        capsys, "pbw", "dim", "--cyclic", "7", "--subset", "1,3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 117649 and data["finite"]
    assert data["rootOrders"] == [7] * 6
    code, out, _ = run_cli(
        capsys, "pbw", "dim", "--cyclic", "8", "--subset", "2,7"
    )
    assert sorted(json.loads(out)["rootOrders"]) == [2, 2, 4, 4, 8, 8]


def test_json_round_trip_byte_identical(capsys):
    for argv in (
        ["groupoid", "check", "6"],
        ["subsystems", "6", "--max-rank", "2"],
        ["group", "info", "4", "2", "2"],
        ["yd", "decompose", "4", "2", "2"],
        ["nichols", "hilbert", "--cyclic", "4", "--max-degree", "3"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_sweep_parallel_output_identical(capsys):
    code1, out1, _ = run_cli(capsys, "groupoid", "sweep", "--max", "30", "--jobs", "1")
    code2, out2, _ = run_cli(capsys, "groupoid", "sweep", "--max", "30", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_expect_conjecture_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "groupoid", "sweep", "--max", "12", "--expect-conjecture"
    )
    assert code == 0
    assert json.loads(out)["conjectureHolds"] is True


def test_sweep_checkpoint_resume(tmp_path, capsys):
    path = str(tmp_path / "ck.jsonl")
    code, out1, _ = run_cli(
        capsys, "groupoid", "sweep", "--max", "12", "--checkpoint", path
    )
    assert code == 0
    lines = open(path).read().strip().splitlines()
    assert len(lines) == 1 + 11  # the header, then one line per n
    code, out2, _ = run_cli(
        capsys, "groupoid", "sweep", "--max", "12", "--checkpoint", path
    )
    assert code == 0
    assert out1 == out2
    assert open(path).read().strip().splitlines() == lines


def test_sweep_refuses_a_checkpoint_entry_with_a_bogus_status(tmp_path, capsys):
    path = tmp_path / "ck.jsonl"
    code, _, _ = run_cli(capsys, "groupoid", "sweep", "--max", "3", "--checkpoint", str(path))
    assert code == 0
    header = path.read_text().splitlines()[0]
    path.write_text(header + '\n{"n": 4, "status": "bogus"}\n')
    code, out, err = run_cli(
        capsys, "groupoid", "sweep", "--max", "12", "--checkpoint", str(path)
    )
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: checkpoint {path} line 2 ")
    assert "bogus" in err


def test_sweep_refuses_a_checkpoint_entry_with_a_wrongly_typed_field(tmp_path, capsys):
    path = tmp_path / "ck.jsonl"
    code, _, _ = run_cli(capsys, "groupoid", "sweep", "--max", "3", "--checkpoint", str(path))
    assert code == 0
    header = path.read_text().splitlines()[0]
    path.write_text(header + '\n{"n": 4, "status": "failsAt", "witness": 5}\n')
    code, out, err = run_cli(
        capsys, "groupoid", "sweep", "--max", "6", "--checkpoint", str(path)
    )
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: checkpoint {path} line 2 ")


def test_output_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "groupoid", "check", "4", "--output", str(tmp_path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_checkpoint_in_a_missing_directory_is_an_error(tmp_path, capsys):
    path = tmp_path / "missing" / "ck.jsonl"
    code, out, err = run_cli(
        capsys, "groupoid", "sweep", "--max", "3", "--checkpoint", str(path)
    )
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.parent.exists()


def test_jobs_below_one_is_a_usage_error(capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "groupoid", "sweep", "--max", "5", "--jobs", value)
        assert code == cli.EXIT_USAGE and out == ""
        assert "--jobs" in err and f"got {value}" in err
    args = cli.build_parser().parse_args(["groupoid", "sweep", "--max", "5"])
    assert args.jobs == 1
    with pytest.raises(dg.DomainError):
        cli.cyclic_fk.sweep_groupoid_existence(5, jobs=0)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    submitted call at once, so no process starts."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self):
        pass


def test_sweep_starts_at_most_cpu_count_workers(monkeypatch, capsys):
    # the sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.cyclic_fk.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlinePool, "started", [])
    code, out, _ = run_cli(capsys, "groupoid", "sweep", "--max", "10", "--jobs", "5000")
    assert code == 0
    assert _InlinePool.started == [3]
    assert out == run_cli(capsys, "groupoid", "sweep", "--max", "10", "--jobs", "1")[1]
    assert _InlinePool.started == [3]  # --jobs 1 starts no pool
    monkeypatch.setattr(cli.cyclic_fk.os, "cpu_count", lambda: None)
    assert run_cli(capsys, "groupoid", "sweep", "--max", "10", "--jobs", "5000")[1] == out
    assert _InlinePool.started == [3]  # an unknown CPU count runs inline


def test_usage_error_exit_64(capsys):
    assert run_cli(capsys, "bogus")[0] == 64
    assert run_cli(capsys, "groupoid", "check", "6", "--nope")[0] == 64
    assert run_cli(capsys, "groupoid")[0] == 64
    assert run_cli(capsys, "groupoid", "sweep", "--max", "5", "--no-heuristic")[0] == 64
    hilbert = ("nichols", "hilbert", "--cyclic", "4", "--max-degree", "3")
    assert run_cli(capsys, *hilbert, "--exact")[0] == 64
    code, _, err = run_cli(
        capsys, "nichols", "hilbert", "--cyclic", "4", "--max-degree", "3", "--budget", "-1"
    )
    assert code == 64 and "--budget" in err


def test_domain_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "groupoid", "check", "4", "--subset", "9")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "group", "info", "4", "3", "2")
    assert code == 1
    code, _, err = run_cli(
        capsys, "hilbert", "compare", "--cyclic", "4", "--subset", "1,2", "--max-degree", "1"
    )
    assert code == 1 and err.startswith("error: ")
    code, out, err = run_cli(
        capsys, "nichols", "hilbert", "--cyclic", "4", "--max-degree", "-1"
    )
    assert code == 1 and err.startswith("error: ") and out == ""
    for bound in ("0", "-1"):
        code, out, err = run_cli(capsys, "pbw", "dim", "--cyclic", "4", "--max-roots", bound)
        assert code == 1 and err.startswith("error: ") and out == "", bound


def test_pbw_dim_infinite_is_not_an_error(capsys):
    code, out, _ = run_cli(capsys, "pbw", "dim", "--cyclic", "5")
    assert code == 0
    data = json.loads(out)
    assert data["finite"] is False and data["dimension"] is None


def test_pbw_dim_rank2_infinite_is_decided_by_the_loop(capsys):
    # the closure used to grind to the bound: seconds at this one
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "pbw", "dim", "--cyclic", "8", "--subset", "1,2",
        "--max-roots", "1000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["finite"] is False


def test_pbw_dim_rank2_bound_still_applies_to_finite_systems(capsys):
    # C5 (1,2) is finite, of dimension 625, but its closure exceeds one root
    code, out, _ = run_cli(
        capsys, "pbw", "dim", "--cyclic", "5", "--subset", "1,2",
        "--max-roots", "1", "--format", "table",
    )
    assert code == 0 and out.splitlines()[0] == "dimension: Infinite"


def test_resource_error_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "nichols",
        "hilbert",
        "--cyclic",
        "4",
        "--max-degree",
        "7",
        "--budget",
        "5",
    )
    assert code == 2 and "budget" in err


def test_table_and_csv_formats(capsys):
    code, out, _ = run_cli(
        capsys, "subsystems", "6", "--max-rank", "2", "--format", "table"
    )
    assert code == 0 and "dimension" in out and "36" in out
    code, out, _ = run_cli(
        capsys, "groupoid", "sweep", "--max", "8", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n,status")
    assert len(rows) == 8  # header + n = 2..8


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "groupoid", "check", "4", "--output", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["status"] == "exists"
