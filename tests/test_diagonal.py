import pytest
from _oracles import _cartan_entry, reflect_full

from fknichols import _kernels_py as kernels
from fknichols import diagonal as dg
from fknichols.cyclotomic import RootOfUnity


def test_cyclic_braiding_examples():
    assert dg.cyclic_braiding(2, [1]).exponents == ((1,),)
    assert dg.full_cyclic_braiding(4).exponents == ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    b = dg.cyclic_braiding(5, [1, 2])
    diagram = dg.dynkin_diagram(b)
    assert diagram.vertex_labels() == [RootOfUnity(5, 1), RootOfUnity(5, 2)]
    assert diagram.edge_labels() == {(1, 2): RootOfUnity(5, 3)}


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
    diagram = dg.dynkin_diagram(dg.full_cyclic_braiding(4))
    assert diagram.vertex_exponents == (1, 2, 3)
    # no edge between the vertices labelled xi and xi^(n-1)
    assert (1, 3) not in diagram.edge_labels()
    assert diagram.edge_labels() == {
        (1, 2): RootOfUnity(4, 3),
        (2, 3): RootOfUnity(4, 1),
    }


def test_dynkin_diagram_c3_isolated():
    diagram = dg.dynkin_diagram(dg.full_cyclic_braiding(3))
    assert diagram.edge_exponents == ()
    assert not diagram.is_connected
    assert len(diagram.connected_components()) == 2


def test_dynkin_diagram_rank_one():
    diagram = dg.dynkin_diagram(dg.cyclic_braiding(5, [2]))
    assert diagram.rank == 1 and diagram.edge_exponents == ()


def test_cartan_entries():
    c5 = dg.full_cyclic_braiding(5)
    assert dg.cartan_entry(c5, 1, 2) == -2
    c4 = dg.full_cyclic_braiding(4)
    assert dg.cartan_entry(c4, 2, 1) == -1
    # q_ij q_ji = 1 forces a_ij = 0
    assert dg.cartan_entry(c4, 1, 3) == 0
    assert dg.cartan_entry(c4, 1, 1) == 2


def test_cartan_entry_undefined():
    # vertex label 1 with an incident edge
    b = dg.DiagonalBraiding(4, ((0, 1), (1, 1)))
    assert dg.cartan_entry(b, 1, 2) is None
    assert dg.cartan_entry(b, 2, 1) is not None


def test_cartan_matrices_match_tables():
    c4 = dg.cartan_matrix(dg.full_cyclic_braiding(4))
    assert c4.entries == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert c4.all_defined
    c5 = dg.cartan_matrix(dg.full_cyclic_braiding(5))
    assert c5.entries == ((2, -2, -1, 0), (-1, 2, 0, -2), (-2, 0, 2, -1), (0, -1, -2, 2))
    iso = dg.cartan_matrix(dg.full_cyclic_braiding(3))
    assert iso.entries == ((2, 0), (0, 2))


def test_is_cartan_type():
    assert dg.is_cartan_type(dg.full_cyclic_braiding(7))
    assert not dg.is_cartan_type(dg.full_cyclic_braiding(4))
    assert not dg.is_cartan_type(dg.full_cyclic_braiding(6))


def test_reflect_c6_counterexample_chain():
    # sub-braiding {4,5} of C_6: diagram (-xi, xi^-1; edge -1)
    b = dg.cyclic_braiding(6, [4, 5])
    d0 = dg.dynkin_diagram(b)
    assert d0.vertex_exponents == (4, 5) and d0.edge_labels()[(1, 2)] == RootOfUnity(2, 1)
    assert dg.cartan_matrix(b).entries == ((2, -2), (-3, 2))
    b1 = dg.reflect(b, 1)
    d1 = dg.dynkin_diagram(b1)
    assert d1.vertex_exponents == (4, 3)  # (-xi, -1)
    assert d1.edge_labels()[(1, 2)] == RootOfUnity(6, 5)  # xi^-1
    b2 = dg.reflect(b1, 2)
    assert not isinstance(b2, dg.ReflectionFailure)
    # the reached object has label 1 at the (connected) first vertex
    d2 = dg.dynkin_diagram(b2)
    assert d2.vertex_exponents[0] == 0 and (1, 2) in d2.edge_labels()
    failure = dg.reflect(b2, 1)
    assert isinstance(failure, dg.ReflectionFailure)
    assert failure.vertex == 1 and not failure.edge_label.is_one


def test_reflect_disconnected_is_identity_on_diagram():
    b = dg.full_cyclic_braiding(3)
    for i in (1, 2):
        reflected = dg.reflect(b, i)
        assert dg.canonical_object(reflected) == dg.canonical_object(b)


def test_reflect_c4_follows_groupoid_figure():
    # a1 --s2--> a2 --s1--> a3 (vertex labels and edges of the figure)
    a1 = dg.full_cyclic_braiding(4)
    a2 = dg.reflect(a1, 2)
    d2 = dg.dynkin_diagram(a2)
    assert d2.vertex_exponents == (2, 2, 2)
    assert d2.edge_labels() == {(1, 2): RootOfUnity(4, 1), (2, 3): RootOfUnity(4, 3)}
    a3 = dg.reflect(a2, 1)
    d3 = dg.dynkin_diagram(a3)
    assert d3.vertex_exponents == (2, 1, 2)
    assert d3.edge_labels() == {(1, 2): RootOfUnity(4, 3), (2, 3): RootOfUnity(4, 3)}
    # s1 and s3 act as the identity at a1
    for i in (1, 3):
        assert dg.canonical_object(dg.reflect(a1, i)) == dg.canonical_object(a1)


def test_explore_c4_six_objects():
    result = dg.explore_groupoid(dg.full_cyclic_braiding(4))
    assert result.status == dg.EXISTS
    assert len(result.objects) == 6
    assert result.morphism_count == 12
    states = {(o.vertices, o.edges) for o in result.objects}
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
        assert dg.canonical_object(second) == dg.canonical_object(b)
        done += 1


def test_reflect_preserves_components(rng):
    done = 0
    while done < 100:
        b = _random_braiding(rng)
        i = rng.randrange(1, b.rank + 1)
        out = dg.reflect(b, i)
        if isinstance(out, dg.ReflectionFailure):
            continue
        before = {frozenset(c) for c in dg.dynkin_diagram(b).connected_components()}
        after = {frozenset(c) for c in dg.dynkin_diagram(out).connected_components()}
        assert len(before) == len(after)
        done += 1


def test_cartan_zero_symmetry(rng):
    for _ in range(100):
        b = _random_braiding(rng)
        cm = dg.cartan_matrix(b)
        for i in range(b.rank):
            for j in range(b.rank):
                if i != j and cm.defined[i][j] and cm.defined[j][i]:
                    assert (cm.entries[i][j] == 0) == (cm.entries[j][i] == 0)


def test_row_kernels_read_the_reflected_diagram(rng):
    """The m-rows agree entry by entry with the Cartan entry oracle, and the
    labels, rows, exposed vertex and scan with an independent reflection of
    the whole diagram, on diagrams with failing vertices too.  n up to 60
    makes labels that share a factor with n common, so both the entries
    without a solution and those solved through the inverse occur."""
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
                    entry = _cartan_entry(n, diag[j], edge[j][k])
                    assert m[k] == (kernels.UNDEFINED if entry is None else entry)
            reflected = reflect_full(n, (diag, edge), j)
            assert (reflected is None) == (kernels.UNDEFINED in m)
            if reflected is None:
                continue
            labels, rows = reflected
            assert kernels.reflected_labels(diag, edge, n, j, m) == labels
            assert [kernels.reflected_row(diag, edge, n, j, m, v) for v in range(r)] == rows
            bad = dg._state_failure_vertex(labels, rows, n)
            exposed = kernels.exposed_vertex(diag, edge, n, j, m)
            assert exposed == (None if bad is None else bad - 1)
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
    for obj in result.objects:
        diag = list(obj.vertices)
        edge = [[obj.edge(i + 1, j + 1) for j in range(obj.rank)] for i in range(obj.rank)]
        from fknichols import backend

        entries = []
        for i in range(obj.rank):
            m = backend.cartan_mrow(diag, edge, obj.order, i)
            entries.append(tuple(2 if j == i else -m[j] for j in range(obj.rank)))
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
    b = dg.full_cyclic_braiding(4)
    assert dg.braiding_from_json(dg.braiding_to_json(b)) == b
    result = dg.explore_groupoid(b)
    data = dg.exploration_to_json(result)
    assert data["status"] == "exists"
    assert len(data["objects"]) == 6
