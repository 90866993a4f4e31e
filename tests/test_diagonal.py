import functools
import json
from itertools import combinations

import pytest
from _oracles import (
    _cartan_m,
    _failing_vertex,
    _reflect_rank2,
    is_cartan_type,
    rank2_root_system,
    reflect_full,
    root_closure,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from fknichols import _kernels_py as kernels
from fknichols import cyclic_fk
from fknichols import diagonal as dg
from fknichols.cyclotomic import RootOfUnity


def _edge_labels(braiding):
    """{(i, j): q_ij q_ji} over the edges of the braiding's diagram, i < j."""
    n = braiding.order
    return {
        (i, j): RootOfUnity(n, e)
        for i, j, e in dg.diagram_to_json(n, braiding.diagram())["edges"]
    }


def _upper(rows):
    """The upper triangle of a diagram's rows, row-major: its edge exponents."""
    return tuple(row[j] for i, row in enumerate(rows) for j in range(i + 1, len(row)))


def _components(braiding):
    """Vertex sets of the connected components of the braiding's diagram."""
    rows = braiding.diagram()[1]
    comps = []
    for v in range(1, braiding.rank + 1):
        joined = [c for c in comps if any(rows[v - 1][w - 1] for w in c)]
        comps = [c for c in comps if c not in joined]
        comps.append(frozenset({v}).union(*joined))
    return comps


def test_cyclic_braiding_examples():
    assert dg.cyclic_braiding(2, [1]).exponents == ((1,),)
    assert dg.full_cyclic_braiding(4).exponents == ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    b = dg.cyclic_braiding(5, [1, 2])
    assert b.order == 5 and b.diagram()[0] == (1, 2)
    assert _edge_labels(b) == {(1, 2): RootOfUnity(5, 3)}


def test_cyclic_braiding_domain_errors():
    with pytest.raises(dg.DomainError):
        dg.cyclic_braiding(4, [0])
    with pytest.raises(dg.DomainError):
        dg.cyclic_braiding(4, [4])
    with pytest.raises(dg.DomainError):
        dg.cyclic_braiding(4, [])
    with pytest.raises(dg.DomainError):
        dg.cyclic_braiding(1, [1])


def test_dynkin_diagram_c4_path():
    c4 = dg.full_cyclic_braiding(4)
    assert c4.diagram()[0] == (1, 2, 3)
    # no edge between the vertices labelled xi and xi^(n-1)
    assert (1, 3) not in _edge_labels(c4)
    assert _edge_labels(c4) == {
        (1, 2): RootOfUnity(4, 3),
        (2, 3): RootOfUnity(4, 1),
    }


def test_dynkin_diagram_c3_isolated():
    c3 = dg.full_cyclic_braiding(3)
    assert _edge_labels(c3) == {}
    assert len(_components(c3)) == 2


def test_dynkin_diagram_rank_one():
    labels, rows = dg.cyclic_braiding(5, [2]).diagram()
    assert len(labels) == 1 and _upper(rows) == ()


def test_cartan_entries():
    c5 = dg.cartan_matrix(dg.full_cyclic_braiding(5))
    assert c5[0][1] == -2
    c4 = dg.cartan_matrix(dg.full_cyclic_braiding(4))
    assert c4[1][0] == -1
    # q_ij q_ji = 1 forces a_ij = 0
    assert c4[0][2] == 0
    assert c4[0][0] == 2


def test_cartan_entry_undefined():
    # vertex label 1 with an incident edge
    b = dg.DiagonalBraiding(4, ((0, 1), (1, 1)))
    cm = dg.cartan_matrix(b)
    assert cm[0][1] is None
    assert cm[1][0] is not None


def test_cartan_matrices_match_tables():
    c4 = dg.cartan_matrix(dg.full_cyclic_braiding(4))
    assert c4 == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert all(None not in row for row in c4)
    c5 = dg.cartan_matrix(dg.full_cyclic_braiding(5))
    assert c5 == ((2, -2, -1, 0), (-1, 2, 0, -2), (-2, 0, 2, -1), (0, -1, -2, 2))
    iso = dg.cartan_matrix(dg.full_cyclic_braiding(3))
    assert iso == ((2, 0), (0, 2))


def test_is_cartan_type():
    assert dg.is_cartan_type(dg.full_cyclic_braiding(7))
    assert not dg.is_cartan_type(dg.full_cyclic_braiding(4))
    assert not dg.is_cartan_type(dg.full_cyclic_braiding(6))


def test_reflect_c6_counterexample_chain():
    # sub-braiding {4,5} of C_6: diagram (-xi, xi^-1; edge -1)
    b = dg.cyclic_braiding(6, [4, 5])
    assert b.diagram()[0] == (4, 5) and _edge_labels(b)[(1, 2)] == RootOfUnity(2, 1)
    assert dg.cartan_matrix(b) == ((2, -2), (-3, 2))
    b1 = dg.reflect(b, 1)
    assert b1.diagram()[0] == (4, 3)  # (-xi, -1)
    assert _edge_labels(b1)[(1, 2)] == RootOfUnity(6, 5)  # xi^-1
    b2 = dg.reflect(b1, 2)
    assert not isinstance(b2, dg.ReflectionFailure)
    # the reached object has label 1 at the (connected) first vertex
    assert b2.diagram()[0][0] == 0 and (1, 2) in _edge_labels(b2)
    failure = dg.reflect(b2, 1)
    assert isinstance(failure, dg.ReflectionFailure)
    assert failure.vertex == 1 and not failure.edge_label.is_one


def test_reflect_disconnected_is_identity_on_diagram():
    b = dg.full_cyclic_braiding(3)
    for i in (1, 2):
        reflected = dg.reflect(b, i)
        assert reflected.diagram() == b.diagram()


def test_reflect_c4_follows_groupoid_figure():
    # a1 --s2--> a2 --s1--> a3 (vertex labels and edges of the figure)
    a1 = dg.full_cyclic_braiding(4)
    a2 = dg.reflect(a1, 2)
    assert a2.diagram()[0] == (2, 2, 2)
    assert _edge_labels(a2) == {(1, 2): RootOfUnity(4, 1), (2, 3): RootOfUnity(4, 3)}
    a3 = dg.reflect(a2, 1)
    assert a3.diagram()[0] == (2, 1, 2)
    assert _edge_labels(a3) == {(1, 2): RootOfUnity(4, 3), (2, 3): RootOfUnity(4, 3)}
    # s1 and s3 act as the identity at a1
    for i in (1, 3):
        assert dg.reflect(a1, i).diagram() == a1.diagram()


def test_explore_c4_six_objects():
    result = dg.explore_groupoid(dg.full_cyclic_braiding(4))
    assert result.status == dg.EXISTS
    assert len(result.objects) == 6
    assert result.morphism_count == 12
    states = {(labels, _upper(rows)) for labels, rows in result.objects}
    a1 = ((1, 2, 3), (3, 0, 1))
    a2 = ((2, 2, 2), (1, 0, 3))
    a3 = ((2, 1, 2), (3, 0, 3))
    expected = set()
    for v, e in (a1, a2, a3):
        expected.add((v, e))
        expected.add((tuple(-x % 4 for x in v), tuple(-x % 4 for x in e)))
    assert states == expected


def test_explore_c6_fails_with_replayable_witness():
    result = dg.explore_groupoid(dg.full_cyclic_braiding(6))
    assert result.status == dg.FAILS_AT
    assert result.witness is not None
    reached = dg.replay_witness(dg.full_cyclic_braiding(6), result.witness)
    failure = dg.reflect(reached, result.failing_vertex)
    assert isinstance(failure, dg.ReflectionFailure)


def test_explore_c6_subdiagram_witness_matches_two_step_chain():
    # the {4,5} sub-braiding fails after reflecting at 1 then at 2, reaching
    # label 1 at the connected first vertex
    result = dg.explore_groupoid(dg.cyclic_braiding(6, [4, 5]))
    assert result.status == dg.FAILS_AT
    assert result.witness == (1, 2)
    assert result.failing_vertex == 1


def test_explore_rank_one():
    result = dg.explore_groupoid(dg.cyclic_braiding(5, [2]))
    assert result.status == dg.EXISTS and len(result.objects) == 1


@pytest.mark.parametrize(
    "n, subset, objects, morphisms",
    [
        # labeled-diagram counts; the two-object drawings omit objects that
        # only invert or transpose the labels, the BFS keeps them
        (4, (1, 2), 3, 4),
        (5, (1, 2), 1, 0),
        (6, (1, 3), 2, 2),
        (6, (1, 4), 2, 2),
        (6, (2, 3), 2, 2),
        (7, (1, 3), 1, 0),
        (8, (2, 7), 3, 4),
        (8, (1, 4), 3, 4),
        (10, (7, 5), 2, 2),
    ],
)
def test_explore_subsystem_groupoid_sizes(n, subset, objects, morphisms):
    result = dg.explore_groupoid(dg.cyclic_braiding(n, subset))
    assert result.status == dg.EXISTS
    assert len(result.objects) == objects
    assert result.morphism_count == morphisms


def test_explore_bound_exceeded():
    result = dg.explore_groupoid(dg.full_cyclic_braiding(8), max_objects=2)
    assert result.status == dg.BOUND_EXCEEDED_STATUS


def _random_braiding(rand):
    n = rand.randrange(2, 13)
    r = rand.randrange(1, 5)
    rows = tuple(tuple(rand.randrange(n) for _ in range(r)) for _ in range(r))
    return dg.DiagonalBraiding(n, rows)


def test_reflect_is_involution_on_diagrams(rng):
    done = 0
    while done < 100:
        b = _random_braiding(rng)
        i = rng.randrange(1, b.rank + 1)
        first = dg.reflect(b, i)
        if isinstance(first, dg.ReflectionFailure):
            continue
        second = dg.reflect(first, i)
        if isinstance(second, dg.ReflectionFailure):
            continue
        assert second.diagram() == b.diagram()
        done += 1


def test_reflect_preserves_components(rng):
    done = 0
    while done < 100:
        b = _random_braiding(rng)
        i = rng.randrange(1, b.rank + 1)
        out = dg.reflect(b, i)
        if isinstance(out, dg.ReflectionFailure):
            continue
        before = set(_components(b))
        after = set(_components(out))
        assert len(before) == len(after)
        done += 1


def test_is_cartan_type_matches_its_definition(rng):
    """Every subset of 1..n-1 of rank <= 3 for n <= 12, and random
    braidings, against the definition with each Cartan entry found by
    search."""
    seen = set()
    for n in range(2, 13):
        for rank in range(1, 4):
            for subset in combinations(range(1, n), rank):
                b = dg.cyclic_braiding(n, subset)
                expected = is_cartan_type(n, b.exponents)
                assert dg.is_cartan_type(b) == expected, (n, subset)
                seen.add(expected)
    assert seen == {True, False}
    for _ in range(300):
        b = _random_braiding(rng)
        assert dg.is_cartan_type(b) == is_cartan_type(b.order, b.exponents), b


def test_cartan_zero_symmetry(rng):
    for _ in range(100):
        b = _random_braiding(rng)
        cm = dg.cartan_matrix(b)
        for i in range(b.rank):
            for j in range(b.rank):
                if i != j and cm[i][j] is not None and cm[j][i] is not None:
                    assert (cm[i][j] == 0) == (cm[j][i] == 0)


def test_row_kernels_read_the_reflected_diagram(rng):
    """The m-rows agree entry by entry with the Cartan entry oracle, and the
    labels, rows, failure test, exposed vertex and scan with an independent
    reflection of the whole diagram and the oracle's failure test, on
    diagrams with failing vertices too.  n up to 60 makes labels that share
    a factor with n common, so both the entries without a solution and
    those solved through the inverse occur."""
    for _ in range(300):
        n, r = rng.randrange(2, 61), rng.randrange(1, 7)
        diag = [rng.randrange(n) for _ in range(r)]
        edge = [[0] * r for _ in range(r)]
        for a in range(r):
            for b in range(a + 1, r):
                edge[a][b] = edge[b][a] = rng.choice((0, rng.randrange(n)))
        first_hit = None
        for j in range(r):
            m = kernels.cartan_mrow(diag, edge, n, j)
            for k in range(r):
                if k != j:
                    entry = _cartan_m(n, diag[j], edge[j][k])
                    assert m[k] == (kernels.UNDEFINED if entry is None else entry)
            reflected = reflect_full(n, (diag, edge), j)
            assert (reflected is None) == (kernels.UNDEFINED in m)
            if reflected is None:
                continue
            labels, rows = reflected
            assert kernels.reflected_labels(diag, edge, n, j, m) == labels
            assert [kernels.reflected_row(diag, edge, n, j, m, v) for v in range(r)] == rows
            bad = _failing_vertex(n, reflected)
            exposed = kernels.exposed_vertex(diag, edge, n, j, m)
            assert exposed == (None if bad is None else bad - 1)
            assert kernels.failure_vertex(labels, rows, n) == exposed
            if first_hit is None and bad is not None and diag[j]:
                first_hit = (j, bad - 1)
        assert kernels.scan_bad_reflection(diag, edge, n) == first_hit


@pytest.mark.parametrize(
    "braiding",
    [dg.cyclic_braiding(5, [1, 2]), dg.cyclic_braiding(7, [1, 3]), dg.full_cyclic_braiding(3)],
    ids=["C5-B2", "C7-G2", "C3"],
)
def test_cartan_type_groupoids_have_constant_cartan_data(braiding):
    assert dg.is_cartan_type(braiding)
    result = dg.explore_groupoid(braiding)
    assert result.status == dg.EXISTS
    datas = set()
    for labels, rows in result.objects:
        from fknichols import backend

        entries = []
        for i in range(len(labels)):
            m = backend.cartan_mrow(labels, rows, braiding.order, i)
            entries.append(tuple(2 if j == i else -m[j] for j in range(len(labels))))
        datas.add(tuple(entries))
    assert len(datas) == 1


def test_positive_roots_c4():
    roots = dg.enumerate_positive_roots(dg.full_cyclic_braiding(4))
    assert roots == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
    }


def test_positive_roots_c5_subsystem():
    roots = dg.enumerate_positive_roots(dg.cyclic_braiding(5, [1, 2]))
    assert roots == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_positive_roots_full_c5_exceeds_bounds():
    assert (
        dg.enumerate_positive_roots(dg.full_cyclic_braiding(5), max_roots=2000)
        is dg.BOUND_EXCEEDED
    )


def _survey_rank3_closures(max_n):
    """The rank-3 explorations whose roots the survey closes, n <= max_n."""
    closed = []
    positive_roots = dg.positive_roots

    def record(exploration, max_roots):
        if len(exploration.objects[0][0]) == 3:
            closed.append(exploration)
        return positive_roots(exploration, max_roots)

    # the survey keeps its classes across calls: start from none kept
    cyclic_fk._finite_classes.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg, "positive_roots", record)
        for n in range(2, max_n + 1):
            cyclic_fk.enumerate_finite_subsystems(n, 3)
    return closed


def test_rank3_root_count_bound_agrees_with_the_plain_closure():
    """At rank 3 the closure stops once one object holds more than 2 * 37
    roots.  It must call a subset finite exactly when the plain closure of
    the oracle closes within the same total, and no finite one may have
    more than 37 positive roots.  The subsets: every rank-3 subset of C_n
    with an existing groupoid for n <= 12, and every rank-3 subset that the
    survey closes for n <= 30."""
    explorations = (
        dg.explore_groupoid(dg.cyclic_braiding(n, subset))
        for n in range(4, 13)
        for subset in combinations(range(1, n), 3)
    )
    existing = [e for e in explorations if e.status == dg.EXISTS]
    assert len(existing) == 331
    surveyed = _survey_rank3_closures(30)
    assert surveyed
    finite = 0
    for exploration in existing + surveyed:
        bounded = dg.positive_roots(exploration, 2000)
        plain = root_closure(exploration, 2000)
        assert (bounded is dg.BOUND_EXCEEDED) == (plain is None)
        if plain is not None:
            finite += 1
            assert bounded == {alpha for alpha in plain if min(alpha) >= 0}
            assert len(bounded) <= dg.RANK3_MAX_POSITIVE_ROOTS
    assert finite


@functools.lru_cache(maxsize=None)
def _existing_pairs(max_n):
    """(n, a, b, exploration) for every pair a < b of 1..n-1, n <= max_n,
    whose groupoid exists."""
    out = []
    for n in range(3, max_n + 1):
        for a in range(1, n):
            for b in range(a + 1, n):
                exploration = dg.explore_groupoid(dg.cyclic_braiding(n, (a, b)))
                if exploration.status == dg.EXISTS:
                    out.append((n, a, b, exploration))
    return tuple(out)


def _mul2(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


IDENTITY2 = ((1, 0), (0, 1))


def test_rank2_loop_agrees_with_root_chain_oracle():
    pairs = _existing_pairs(30)
    assert len(pairs) > 3000
    for n, a, b, exploration in pairs:
        infinite = dg.rank2_is_infinite(exploration)
        assert infinite == (rank2_root_system(n, a, b) is None), (n, a, b)
        assert (dg.positive_roots(exploration) is dg.BOUND_EXCEEDED) == infinite


def test_rank2_loop_certificate_replays_in_the_oracle():
    """Replay each loop's steps through the oracle's own reflections: they
    return to the start object, the oracle's composed map W is the inverse
    of the loop matrix, and W^12 != I exactly when the loop says infinite."""
    for n, a, b, exploration in _existing_pairs(30):
        steps, loop = dg.rank2_loop(exploration)
        assert steps > 0 and steps % 2 == 0
        start = (a % n, (a + b) % n, b % n)
        obj, w = start, IDENTITY2
        for k in range(steps):
            obj, w = _reflect_rank2(n, obj, w, k % 2)
        assert obj == start, (n, a, b)
        # w[j] is the image of alpha_j, so the matrix of W has columns w[j]
        matrix = tuple(zip(*w))
        assert _mul2(matrix, loop) == IDENTITY2, (n, a, b)
        power = IDENTITY2
        for _ in range(12):
            power = _mul2(power, matrix)
        assert (power != IDENTITY2) == dg.rank2_is_infinite(exploration), (n, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reflection_is_an_involution_on_groupoid_objects(data):
    """The rank-2 loop ends because s_i s_i is the identity on objects; it
    also relies on the m-row at i being the same at s and at s_i(s)."""
    n = data.draw(st.integers(min_value=3, max_value=30))
    rank = data.draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    subset = data.draw(
        st.lists(st.integers(1, n - 1), min_size=rank, max_size=rank, unique=True)
    )
    exploration = dg.explore_groupoid(dg.cyclic_braiding(n, subset), 5_000)
    if exploration.status != dg.EXISTS:
        return
    moves = exploration.transitions
    for s, obj in enumerate(exploration.objects):
        for i in range(rank):
            target = moves[s][i]
            assert moves[target][i] == s, (n, subset, s, i)
            assert kernels.cartan_mrow(*obj, n, i) == kernels.cartan_mrow(
                *exploration.objects[target], n, i
            ), (n, subset, s, i)


@pytest.mark.parametrize(
    "braiding, max_objects, status",
    [
        (dg.full_cyclic_braiding(4), 100_000, dg.EXISTS),
        (dg.full_cyclic_braiding(4), 3, dg.BOUND_EXCEEDED_STATUS),
        (dg.full_cyclic_braiding(6), 100_000, dg.FAILS_AT),
        (dg.cyclic_braiding(8, [1, 2]), 100_000, dg.EXISTS),
    ],
    ids=["C4", "C4-bound", "C6", "C8-12"],
)
def test_exploration_keeps_the_mrows_of_expanded_objects(braiding, max_objects, status):
    exploration = dg.explore_groupoid(braiding, max_objects)
    assert exploration.status == status
    assert len(exploration.mrows) == len(exploration.transitions) > 0
    n = braiding.order
    for obj, rows in zip(exploration.objects, exploration.mrows):
        assert rows == tuple(
            tuple(kernels.cartan_mrow(*obj, n, i)) for i in range(braiding.rank)
        )


def test_root_enumeration_propagates_failure():
    with pytest.raises(dg.RootSystemUndefinedError):
        dg.enumerate_positive_roots(dg.full_cyclic_braiding(6))


def test_root_labels():
    c4 = dg.full_cyclic_braiding(4)
    assert dg.root_label(c4, (1, 1, 0)) == RootOfUnity(2, 1)
    assert dg.root_label(c4, (1, 1, 1)) == RootOfUnity(2, 1)
    for i in range(1, 4):
        alpha = tuple(1 if k == i - 1 else 0 for k in range(3))
        assert dg.root_label(c4, alpha) == c4.q(i, i)


def test_pbw_dimensions_table1():
    assert dg.pbw_dimension(dg.full_cyclic_braiding(2)) == 2
    assert dg.pbw_dimension(dg.full_cyclic_braiding(3)) == 9
    assert dg.pbw_dimension(dg.full_cyclic_braiding(4)) == 256
    assert dg.pbw_dimension(dg.full_cyclic_braiding(5), max_roots=1500) is dg.INFINITE


def test_pbw_dimensions_table2():
    assert dg.pbw_dimension(dg.cyclic_braiding(7, [1, 3])) == 117649
    assert dg.pbw_dimension(dg.cyclic_braiding(6, [1, 3])) == 72
    assert dg.pbw_dimension(dg.cyclic_braiding(6, [1, 4])) == 108
    assert dg.pbw_dimension(dg.cyclic_braiding(6, [2, 3])) == 36
    assert dg.pbw_dimension(dg.cyclic_braiding(10, [5, 7])) == 40000


def test_pbw_undefined_dimension_for_label_one_root():
    b = dg.DiagonalBraiding(4, ((0,),))  # single vertex labelled 1
    with pytest.raises(dg.UndefinedDimensionError):
        dg.pbw_dimension(b)


def test_pbw_data_undefined_when_a_root_has_label_one():
    # q_11 = 1 at an isolated vertex: the groupoid exists, with roots (1, 0)
    # and (0, 1), but the PBW factor of (1, 0) is undefined
    b = dg.DiagonalBraiding(3, ((0, 0), (0, 1)))
    assert dg.enumerate_positive_roots(b) == {(1, 0), (0, 1)}
    with pytest.raises(dg.UndefinedDimensionError):
        dg.pbw_dimension(b)
    with pytest.raises(dg.UndefinedDimensionError):
        dg.pbw_hilbert_series(b, 2)
    with pytest.raises(dg.UndefinedDimensionError):
        dg.pbw_top_degree(b)


def _poly_mul(a, b, cap):
    out = [0] * (cap + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y and i + j <= cap:
                    out[i + j] += x * y
    return out


def test_pbw_hilbert_series():
    assert dg.pbw_hilbert_series(dg.full_cyclic_braiding(2), 1) == [1, 1]
    # C4 series against an independent polynomial expansion of
    # (1+t+t^2+t^3)^2 (1+t) (1+t^2)^2 (1+t^3)
    cap = 14
    poly = [1]
    for factor in (
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [1, 1],
        [1, 0, 1],
        [1, 0, 1],
        [1, 0, 0, 1],
    ):
        poly = _poly_mul(poly, factor, cap)
    c4 = dg.full_cyclic_braiding(4)
    assert dg.pbw_hilbert_series(c4, 3) == poly[:4]
    assert dg.pbw_hilbert_series(c4, 3) == [1, 3, 7, 14]
    full = dg.pbw_hilbert_series(c4, dg.pbw_top_degree(c4))
    assert full == poly
    assert sum(full) == 256
    assert sum(dg.pbw_hilbert_series(dg.full_cyclic_braiding(3), 4)) == 9


@pytest.mark.parametrize(
    "braiding",
    [
        dg.full_cyclic_braiding(2),
        dg.full_cyclic_braiding(3),
        dg.full_cyclic_braiding(4),
        dg.cyclic_braiding(4, [1, 2]),
        dg.cyclic_braiding(5, [1, 2]),
        dg.cyclic_braiding(6, [1, 3]),
        dg.cyclic_braiding(6, [1, 4]),
        dg.cyclic_braiding(6, [2, 3]),
        dg.cyclic_braiding(7, [1, 3]),
        dg.cyclic_braiding(8, [2, 7]),
        dg.cyclic_braiding(10, [5, 7]),
    ],
    ids=str,
)
def test_pbw_dimension_equals_series_sum(braiding):
    top = dg.pbw_top_degree(braiding)
    series = dg.pbw_hilbert_series(braiding, top)
    assert sum(series) == dg.pbw_dimension(braiding)
    assert series[top] != 0


def test_json_round_trips():
    result = dg.explore_groupoid(dg.full_cyclic_braiding(4))
    data = dg.exploration_to_json(4, result)
    assert data["status"] == "exists"
    assert len(data["objects"]) == 6
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("n", range(2, 11))
def test_explored_objects_are_diagrams_in_the_one_form(n):
    """Every object an exploration reports, run to its end or stopped at 5
    objects, is a diagram (labels, rows) mod n: the start is the braiding's
    own diagram, the rows are symmetric with 0 on the diagonal, and its JSON
    edges are exactly the nonzero entries above the diagonal, 1-based."""
    for rank in range(1, 4):
        for subset in combinations(range(1, n), rank):
            braiding = dg.cyclic_braiding(n, subset)
            for max_objects in (100_000, 5):
                result = dg.explore_groupoid(braiding, max_objects)
                if max_objects == 5:
                    assert len(result.objects) <= 5
                else:
                    assert result.status in (dg.EXISTS, dg.FAILS_AT), subset
                assert result.objects[0] == braiding.diagram()
                for labels, rows in result.objects:
                    assert len(labels) == len(rows) == rank
                    assert all(0 <= a < n for a in labels)
                    for i in range(rank):
                        assert len(rows[i]) == rank and rows[i][i] == 0
                        for j in range(rank):
                            assert 0 <= rows[i][j] < n
                            assert rows[i][j] == rows[j][i]
                    data = dg.diagram_to_json(n, (labels, rows))
                    assert data["order"] == n and data["vertices"] == list(labels)
                    edges = data["edges"]
                    assert edges == sorted(edges)
                    assert {(i, j): e for i, j, e in edges} == {
                        (i + 1, j + 1): rows[i][j]
                        for i, j in combinations(range(rank), 2)
                        if rows[i][j]
                    }
