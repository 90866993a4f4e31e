import json
import re

import pytest
from _oracles import _failing_vertex, diagram_of, heuristic_witness, survey_per_n

from fknichols import backend, cli
from fknichols import cyclic_fk as cf
from fknichols import diagonal as dg
from fknichols._numtheory import is_prime


def replay_fails(entry: cf.SweepEntry) -> bool:
    """A FailsAt witness must replay to an undefined Cartan entry."""
    braiding = entry.witness_braiding()
    reached = dg.replay_witness(braiding, entry.witness)
    return isinstance(
        dg.reflect(reached, entry.failing_vertex), dg.ReflectionFailure
    )


def test_sweep_to_12():
    report = cf.sweep_groupoid_existence(12)
    assert report.exists_set() == {2, 3, 4, 5, 7, 11}
    assert report.entries[6].status == cf.FAILS_AT
    assert report.entries[4].status == cf.EXISTS
    assert report.entries[4].object_count == 6
    for n, entry in report.entries.items():
        if entry.status == cf.FAILS_AT:
            assert replay_fails(entry), n


def test_sweep_inheritance_and_verify():
    report = cf.sweep_groupoid_existence(24)
    assert report.entries[12].inherited_from == 6
    assert report.entries[12].status == cf.FAILS_AT
    assert replay_fails(report.entries[12])
    direct = cf.sweep_groupoid_existence(24, verify=True)
    assert direct.entries[12].inherited_from is None
    assert direct.entries[12].status == cf.FAILS_AT
    assert direct.exists_set() == report.exists_set()


def test_sweep_parallel_is_deterministic():
    seq = cf.report_to_json(cf.sweep_groupoid_existence(40))
    par = cf.report_to_json(cf.sweep_groupoid_existence(40, jobs=2))
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_sweep_checkpoint_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    cf.sweep_groupoid_existence(12, checkpoint=str(path))
    header, *first = path.read_text().strip().splitlines()
    # the bytes of the header a default sweep has always written
    assert header == (
        '{"heuristicCap": 200, "heuristicFirst": true, "maxObjects": 100000, '
        '"sweepCheckpoint": 1, "verify": false}'
    )
    assert len(first) == 11
    report = cf.sweep_groupoid_existence(15, checkpoint=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[: 1 + len(first)] == [header, *first]
    assert len(lines) == 1 + 14  # append-only: only 13, 14, 15 added
    assert report.exists_set() == {n for n in range(2, 16) if is_prime(n) or n == 4}


def test_sweep_resumes_from_checkpoint_cut_mid_line(tmp_path):
    path = tmp_path / "sweep.jsonl"
    fresh = cf.report_to_json(cf.sweep_groupoid_existence(30, checkpoint=str(path)))
    data = path.read_bytes()
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[1]
    path.write_bytes(data[: len(data) - 1 - len(last) // 2])  # a crash mid-write
    resumed = cf.report_to_json(cf.sweep_groupoid_existence(30, checkpoint=str(path)))
    assert resumed == fresh
    assert path.read_bytes() == data  # the cut entry was dropped and rewritten


def test_checkpoint_of_other_parameters_is_refused(tmp_path):
    path = tmp_path / "sweep.jsonl"
    cf.sweep_groupoid_existence(30, checkpoint=str(path))
    data = path.read_bytes()
    # without the header check this resume reused inherited entries
    with pytest.raises(cf.CheckpointMismatchError, match="verify"):
        cf.sweep_groupoid_existence(30, verify=True, checkpoint=str(path))
    header, body = data.split(b"\n", 1)
    for key, value in (("heuristicCap", 7), ("heuristicFirst", False)):
        # a checkpoint written under other sweep constants
        other = cf._json_line({**json.loads(header), key: value})
        path.write_bytes(other.encode() + body)
        found = re.escape(f'"{key}": {json.dumps(value)}')
        with pytest.raises(cf.CheckpointMismatchError, match=found):
            cf.sweep_groupoid_existence(30, checkpoint=str(path))
    path.write_bytes(data)
    argv = ["groupoid", "sweep", "--max", "30", "--verify", "--checkpoint", str(path)]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    assert path.read_bytes() == data


def test_checkpoint_without_header_is_refused(tmp_path):
    path = tmp_path / "sweep.jsonl"
    cf.sweep_groupoid_existence(12, checkpoint=str(path))
    data = path.read_bytes()
    headerless = data.split(b"\n", 1)[1]
    path.write_bytes(headerless)
    with pytest.raises(cf.CheckpointMismatchError, match="no header"):
        cf.sweep_groupoid_existence(12, checkpoint=str(path))
    assert path.read_bytes() == headerless


def test_checkpoint_with_cut_header_starts_afresh(tmp_path):
    path = tmp_path / "sweep.jsonl"
    fresh = cf.report_to_json(cf.sweep_groupoid_existence(12, checkpoint=str(path)))
    data = path.read_bytes()
    header = data.split(b"\n", 1)[0]
    path.write_bytes(header[: len(header) // 2])  # a crash mid-write
    resumed = cf.report_to_json(cf.sweep_groupoid_existence(12, checkpoint=str(path)))
    assert resumed == fresh
    assert path.read_bytes() == data


def test_corrupt_checkpoint_line_before_the_last_raises(tmp_path):
    path = tmp_path / "sweep.jsonl"
    cf.sweep_groupoid_existence(12, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3][: len(lines[3]) // 2] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(cf.CheckpointMismatchError, match="line 4 "):
        cf.sweep_groupoid_existence(12, checkpoint=str(path))


@pytest.mark.parametrize(
    "bad",
    [
        "not json",
        "[4, 5]",
        '{"status": "exists"}',
        '{"n": "4", "status": "exists"}',
        '{"n": 4}',
        '{"n": 4, "status": "bogus"}',
        '{"n": true, "status": "exists"}',
        '{"n": 4, "status": "failsAt", "witness": 5}',
        '{"n": 4, "status": "failsAt", "witness": "abc"}',
        '{"n": 4, "status": "failsAt", "witness": [1, "2"]}',
        '{"n": 4, "status": "failsAt", "witnessSubset": {"1": 2}}',
        '{"n": 4, "status": "failsAt", "failingVertex": "1"}',
        '{"n": 4, "status": "failsAt", "witnessOrder": 4.0}',
        '{"n": 4, "status": "failsAt", "inheritedFrom": [2]}',
        '{"n": 4, "status": "exists", "objects": [1]}',
        '{"n": 4, "status": "exists", "heuristicUsed": 1}',
    ],
)
def test_malformed_checkpoint_entry_is_refused(tmp_path, bad):
    path = tmp_path / "sweep.jsonl"
    cf.sweep_groupoid_existence(12, checkpoint=str(path))
    header, body = path.read_text().split("\n", 1)
    data = f"{header}\n{bad}\n{body}"
    path.write_text(data)
    with pytest.raises(cf.CheckpointMismatchError, match=f"{re.escape(str(path))} line 2 "):
        cf.sweep_groupoid_existence(12, checkpoint=str(path))
    assert path.read_text() == data


@pytest.mark.parametrize("cap", [200, 13, 12])
def test_heuristic_search_matches_the_whole_diagram_oracle(cap):
    # 25 of these n first fail at word 13, the first word of the fourth
    # window: cap 13 cuts that window after it, cap 12 leaves them no witness
    for n in range(5, 81):
        if not is_prime(n):
            found = cf._heuristic_search(n, cf._first_reflection(n), cap)
            assert found == heuristic_witness(n, cap), n


@pytest.mark.parametrize("p", [p for p in range(2, 201) if is_prime(p)])
def test_prime_route_replays_its_proof(p):
    # check_single returns EXISTS for a prime without looking: the start
    # diagram's m-rows are -(i + j) / i mod p (and -2 at i itself), so the
    # braiding is of Cartan type
    assert dg.is_cartan_type(dg.full_cyclic_braiding(p))
    diag, edge = cf._start_diagram(p)
    for i in range(1, p):
        expected = [-2 if j == i else -(i + j) * pow(i, -1, p) % p for j in range(1, p)]
        assert backend.cartan_mrow(diag, edge, p, i - 1) == expected, i
    assert cf.check_single(p).status == cf.EXISTS


@pytest.mark.parametrize("n", [1, 0, -6])
def test_check_single_below_two_raises(n):
    with pytest.raises(dg.DomainError):
        cf.check_single(n)


def test_start_diagram_is_the_full_cyclic_braiding():
    for n in range(2, 61):
        braiding = dg.full_cyclic_braiding(n)
        assert cf._start_diagram(n) == braiding.diagram(), n


def test_counterexample_families():
    assert (3, 5) in cf.counterexample_family(15)
    assert (7, 4) in cf.counterexample_family(28)
    assert cf.counterexample_family(7) == []
    assert cf.counterexample_family(6) == [(3, 2)]
    assert (13, 7) in cf.counterexample_family(91)
    for n in (6, 15, 28, 33, 40, 51, 65, 77, 91):
        family = cf.counterexample_family(n)
        assert family, n
        for p, r in family:
            assert is_prime(p) and r >= 2
            assert n % (p * r) == 0 and (2 * r - 1) % p == 0


def test_minimal_failure_multiples_fail(sweep200):
    minimal = (6, 15, 28, 33, 40, 51, 65, 77, 91)
    for n in range(2, 201):
        if any(n % r == 0 for r in minimal):
            assert cf.counterexample_family(n), n
            assert sweep200.entries[n].status == cf.FAILS_AT, n


def test_every_sweep_witness_replays(sweep200):
    for n, entry in sweep200.entries.items():
        if entry.status != cf.FAILS_AT:
            continue
        braiding = entry.witness_braiding()
        reached = dg.replay_witness(braiding, entry.witness)
        # the reached object carries label 1 at the recorded connected vertex
        bad = _failing_vertex(reached.order, diagram_of(reached.order, reached.exponents))
        assert bad == entry.failing_vertex, n
        assert isinstance(
            dg.reflect(reached, entry.failing_vertex), dg.ReflectionFailure
        ), n


def test_subsystems_n5():
    records = cf.enumerate_finite_subsystems(5, 2)
    assert len(records) == 1
    (rec,) = records
    assert rec.representative == (1, 2)
    assert rec.dimension == 625
    assert rec.cartan_type
    assert rec.positive_root_count == 4
    assert set(rec.members) == {(1, 2), (1, 3), (2, 4), (3, 4)}


def test_subsystems_n4_includes_rank3():
    records = cf.enumerate_finite_subsystems(4, 3)
    dims = {r.representative: r.dimension for r in records}
    assert dims == {(1, 2): 16, (1, 2, 3): 256}


def test_subsystems_n6_rows():
    records = cf.enumerate_finite_subsystems(6, 2)
    dims = {r.representative: r.dimension for r in records}
    assert dims == {(1, 3): 72, (1, 4): 108, (2, 3): 36}
    row3 = next(r for r in records if r.representative == (2, 3))
    assert any("2^2*3^3" in note for note in row3.notes)
    for rep in ((1, 3), (1, 4)):
        rec = next(r for r in records if r.representative == rep)
        assert rec.notes == ()


def test_subsystems_n8_single_new_class_with_annotation():
    records = cf.enumerate_finite_subsystems(8, 2)
    new = [r for r in records if r.first_appears == 8]
    assert len(new) == 1
    (rec,) = new
    # the Weyl-linked class covers both subset families {2,7}-orbit and {1,4}-orbit
    assert set(rec.members) == {
        (1, 4),
        (3, 4),
        (4, 5),
        (4, 7),
        (2, 7),
        (2, 3),
        (5, 6),
        (1, 6),
    }
    assert rec.positive_root_count == 6
    assert rec.dimension == 4096
    assert any("differs from the tabulated value 256" in note for note in rec.notes)
    inherited = [r for r in records if r.first_appears == 4]
    assert len(inherited) == 1 and inherited[0].dimension == 16


def test_subsystems_n10():
    records = cf.enumerate_finite_subsystems(10, 2)
    new = [r for r in records if r.first_appears == 10]
    assert len(new) == 1
    assert new[0].dimension == 40000
    assert new[0].positive_root_count == 8
    assert new[0].notes == ()


def test_subsystems_n7():
    records = cf.enumerate_finite_subsystems(7, 2)
    assert len(records) == 1
    assert records[0].dimension == 117649
    assert records[0].cartan_type


@pytest.mark.parametrize("n", [3, 9])
def test_subsystems_pure_powers_of_three_are_empty(n):
    assert cf.enumerate_finite_subsystems(n, 2) == []


def test_subsystems_include_infinite():
    records = cf.enumerate_finite_subsystems(5, 2, include_infinite=True)
    assert all(r.finite for r in records)  # every connected pair of C_5 is finite
    records6 = cf.enumerate_finite_subsystems(6, 2, include_infinite=True)
    infinite = [r for r in records6 if not r.finite]
    assert infinite and all(r.dimension is None for r in infinite)


def test_survey_matches_the_per_n_survey():
    # the primitive classes are kept across calls: start from an empty
    # cache, and survey each multiple before its divisors
    cf._finite_classes.cache_clear()
    for n in range(60, 1, -1):
        assert cf.enumerate_finite_subsystems(n, 4) == survey_per_n(n, 4), n
    # a kept default class must not leak into an include_infinite report,
    # nor one of its classes into a default report
    for n in range(2, 25):
        for include_infinite in (True, False):
            assert cf.enumerate_finite_subsystems(
                n, 3, include_infinite
            ) == survey_per_n(n, 3, include_infinite), (n, include_infinite)
    # the divisor-assembled path of include_infinite at rank 4
    for n in range(2, 21):
        assert cf.enumerate_finite_subsystems(
            n, 4, True
        ) == survey_per_n(n, 4, True), n


def test_include_infinite_finds_the_default_finite_classes():
    # both modes record a finite class where its exploration finds it, and
    # only include_infinite walks the union-find for the other classes
    cf._finite_classes.cache_clear()
    for n in [*range(2, 41), *range(40, 1, -1)]:
        records = cf.enumerate_finite_subsystems(n, 4, include_infinite=True)
        finite = [r for r in records if r.finite]
        assert finite == cf.enumerate_finite_subsystems(n, 4), n


@pytest.mark.parametrize("include_infinite", [False, True])
def test_survey_explores_a_class_with_a_groupoid_once(monkeypatch, include_infinite):
    # exploring a member of a class whose groupoid exists adds nothing: its
    # class is the Galois orbits of the subsets the first exploration linked
    explored = {}  # (order, subset) -> whether each exploration found a groupoid

    def explore(braiding, *args, **kwargs):
        result = explore_groupoid(braiding, *args, **kwargs)
        subset = tuple(row[0] for row in braiding.exponents)
        key = (braiding.order, subset)
        explored.setdefault(key, []).append(result.status == dg.EXISTS)
        return result

    explore_groupoid = dg.explore_groupoid
    monkeypatch.setattr(dg, "explore_groupoid", explore)
    cf._finite_classes.cache_clear()
    for n in range(2, 31):
        explored.clear()
        for record in cf.enumerate_finite_subsystems(n, 4, include_infinite):
            if record.first_appears == n:
                found = [
                    exists
                    for member in record.members
                    for exists in explored.get((n, member), [])
                ]
                assert len(found) == 1 or not any(found), (n, record.representative)


# The connected sub-braidings with finite root systems that first appear at
# C_d, as (d, representative): (positive roots, dimension).  A claim checked
# for d <= 60 at rank <= 4, not a theorem: no new finite braiding appears
# above d = 10 in that range.
PRIMITIVE_FINITE_BRAIDINGS = {
    (4, (1, 2)): (3, 16),
    (4, (1, 2, 3)): (6, 256),
    (5, (1, 2)): (4, 625),
    (6, (1, 3)): (4, 72),
    (6, (1, 4)): (4, 108),
    (6, (2, 3)): (4, 36),
    (7, (1, 3)): (6, 117_649),
    (8, (1, 4)): (6, 4_096),
    (10, (1, 5)): (8, 40_000),
}


def test_primitive_finite_braidings_to_60():
    found = {
        (d, r.representative): (r.positive_root_count, r.dimension)
        for d in range(2, 61)
        for r in cf.enumerate_finite_subsystems(d, 4)
        if r.first_appears == d
    }
    assert found == PRIMITIVE_FINITE_BRAIDINGS


def test_weyl_linkage_does_not_depend_on_vertex_order():
    # the groupoid of (1,4,7) holds the object (2,7,6): the diagram
    # of 7*(1,2,6) = (2,6,7) mod 8 with its last two vertices swapped
    exploration = dg.explore_groupoid(dg.cyclic_braiding(8, (1, 4, 7)))
    assert (2, 7, 6) in {labels for labels, _ in exploration.objects}
    assert (2, 6, 7) in cf._linked_subsets(8, exploration.objects)
    records = cf.enumerate_finite_subsystems(8, 3, include_infinite=True)
    (record,) = [r for r in records if (1, 2, 6) in r.members]
    assert (1, 4, 7) in record.members and not record.finite


def test_record_json_round_trip():
    records = cf.enumerate_finite_subsystems(6, 2)
    data = [cf.record_to_json(r) for r in records]
    text = json.dumps(data, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text
