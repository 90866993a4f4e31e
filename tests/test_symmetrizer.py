import collections
import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import rref_fraction
from conftest import echelon_vector
from fknichols import cyclotomic
from fknichols import diagonal as dg
from fknichols import reflection_groups as rg
from fknichols import symmetrizer as sm
from fknichols._linalg import ExactEchelon
from fknichols.cyclotomic import (
    BadModularSpecError,
    CyclotomicNumber,
    ModularSpec,
    find_modular_spec,
    integer_zeta_power,
)


def diag_space(*args):
    if len(args) == 1:
        return sm.space_from_diagonal(dg.full_cyclic_braiding(args[0]))
    return sm.space_from_diagonal(dg.cyclic_braiding(args[0], args[1]))


@pytest.fixture(scope="module")
def b2_space(yd_cache):
    return sm.space_from_yd(yd_cache(2, 1, 2))


def _lift_along(space, degree, word):
    """Psi applied at the positions of word, in order, to every basis tensor
    of V^(ox degree): one sparse Z[zeta] vector per basis tensor."""
    scalars = sm._ExactScalars(space.scalar_order)
    out = []
    for key in range(space.dim**degree):
        vec = {key: scalars.one}
        for pos in word:
            vec = sm._apply_psi_sparse(space, scalars, vec, pos, degree)
        out.append(vec)
    return out


def test_sparse_lift_identity_and_transposition():
    space = diag_space(4)
    one = integer_zeta_power(space.scalar_order, 0)
    for degree in (2, 3):
        assert _lift_along(space, degree, []) == [{k: one} for k in range(space.dim**degree)]
    assert sm.reduced_word((0, 1)) == [] and sm.reduced_word((1, 0)) == [1]
    # the word [1] at degree 2 is Psi itself, as braid_pair gives it
    expected = []
    for a in range(space.dim):
        for b in range(space.dim):
            c, d, e = space.braid_pair(a, b)
            expected.append({c * space.dim + d: integer_zeta_power(space.scalar_order, e)})
    assert _lift_along(space, 2, [1]) == expected


def test_sparse_lift_longest_element_both_words():
    for space in (diag_space(4), diag_space(8, [2, 7])):
        word121 = _lift_along(space, 3, (1, 2, 1))
        assert word121 == _lift_along(space, 3, (2, 1, 2))
        assert word121 == _lift_along(space, 3, sm.reduced_word((2, 1, 0)))


def _pair_permutation_space(targets):
    """dim-2 space whose braiding permutes the pair basis by targets, with
    every scalar 1."""
    return sm.BraidedSpace(2, 2, targets, (0,) * 4, grading=(1, 1))


def _yang_baxter_on_digits(targets):
    """Yang-Baxter for a pair permutation of a dim-2 space, checked on digit
    triples (x0, x1, x2) with no packed tensor index."""

    def psi(x, pos):
        c, d = divmod(targets[2 * x[pos - 1] + x[pos]], 2)
        return x[: pos - 1] + (c, d) + x[pos + 1 :]

    return all(
        psi(psi(psi(x, 1), 2), 1) == psi(psi(psi(x, 2), 1), 2)
        for x in itertools.product(range(2), repeat=3)
    )


def test_yang_baxter_fails_for_a_pair_permutation():
    assert not sm.yang_baxter_holds(_pair_permutation_space((0, 1, 3, 2)))
    assert sm.yang_baxter_holds(_pair_permutation_space((0, 2, 1, 3)))  # the flip
    # Psi(e_a ox e_b) = q_ab e_a ox e_b gives q_ab^2 q_bc against q_ab q_bc^2
    # on e_a ox e_b ox e_c: only the scalars break Yang-Baxter here
    scaled = sm.BraidedSpace(2, 2, (0, 1, 2, 3), (0, 1, 0, 0), grading=(1, 1))
    assert not sm.yang_baxter_holds(scaled)


def test_yang_baxter_matches_digit_oracle_on_all_pair_permutations():
    verdicts = []
    for targets in itertools.permutations(range(4)):
        holds = sm.yang_baxter_holds(_pair_permutation_space(targets))
        assert holds == _yang_baxter_on_digits(targets), targets
        verdicts.append(holds)
    assert verdicts.count(False) == 19


def _alternate_reduced_word(perm):
    """Reduced word built from the highest descent (differs from bubble order)."""
    p = list(perm)
    word = []
    while True:
        descents = [i for i in range(len(p) - 1) if p[i] > p[i + 1]]
        if not descents:
            return word
        i = descents[-1]
        p[i], p[i + 1] = p[i + 1], p[i]
        word.append(i + 1)


def test_matsumoto_reduced_word_independence(rng):
    for _ in range(6):
        n = rng.choice([3, 4, 5, 6, 8])
        r = rng.randrange(2, 4)
        rows = tuple(tuple(rng.randrange(n) for _ in range(r)) for _ in range(r))
        space = sm.space_from_diagonal(dg.DiagonalBraiding(n, rows))
        assert sm.yang_baxter_holds(space)
        for d in (3, 4):
            for perm in itertools.permutations(range(d)):
                w1 = sm.reduced_word(perm)
                w2 = _alternate_reduced_word(perm)
                assert len(w1) == len(w2)
                assert _lift_along(space, d, w1) == _lift_along(space, d, w2)


@pytest.mark.parametrize(
    "space_args",
    [(2,), (3,), (4,), (6, (1, 3)), (8, (2, 7))],
    ids=["C2", "C3", "C4", "C6-13", "C8-27"],
)
def test_recursive_equals_direct(space_args):
    space = diag_space(*space_args)
    for mode in ("exact", "modular"):
        calc = sm.NicholsCalculator(space, mode)
        for d in range(6):
            assert calc.graded_dim(d) == sm.direct_graded_dim(space, d, mode), (mode, d)


def test_recursive_equals_direct_group_case(b2_space, yd_cache):
    # non-diagonal braidings: Psi permutes the letters as well as scaling them
    for space, modes, top in (
        (b2_space, ("exact", "modular"), 5),
        (sm.space_from_yd(yd_cache(3, 3, 2)), ("exact", "modular"), 5),
        (sm.space_from_yd(yd_cache(4, 2, 2)), ("exact",), 3),
    ):
        for mode in modes:
            calc = sm.NicholsCalculator(space, mode)
            for d in range(top + 1):
                assert calc.graded_dim(d) == sm.direct_graded_dim(space, d, mode), (
                    space.name, mode, d,
                )


@pytest.mark.parametrize(
    "groups, top, total",
    [
        (((1, 1, 3), (3, 3, 2)), 4, 12),
        (((2, 1, 2), (4, 4, 2)), 8, 64),
        (((1, 1, 4), (2, 2, 3)), 12, 576),
    ],
    ids=["dim12", "dim64", "dim576"],
)
def test_finite_nichols_algebras_vanish_above_top_degree(groups, top, total, yd_cache):
    # exact mode with no budget: the series sums to the dimension and
    # B^(top+1) = 0, which bounds every higher degree too (B is generated
    # in degree 1); FK_4 = B(Y_G(1,1,4)) has dimension 576 and top degree 12
    for group in groups:
        data = sm.nichols_hilbert(sm.space_from_yd(yd_cache(*group)), top + 1, block_budget=None)
        assert data.per_degree[top] == 1 and data.per_degree[top + 1] == 0, group
        assert sum(data.per_degree) == total, group


@pytest.mark.parametrize(
    "order, subset, degree",
    [(4, (1, 2, 3), 15), (5, (1, 2), 29)],
    ids=["C4-123", "C5-12"],
)
def test_nichols_series_equals_pbw_series_past_the_top(order, subset, degree):
    braiding = dg.cyclic_braiding(order, subset)
    data = sm.nichols_hilbert(sm.space_from_diagonal(braiding), degree, block_budget=None)
    assert list(data.per_degree) == list(dg.pbw_hilbert_series(braiding, degree))
    assert data.per_degree[-1] == 0


# conductors 8, 12, 5 and 10 all have phi = 4, with four different Phi_n
PHI4_CYCLIC = ((8, (1, 4)), (12, (1, 5)), (5, (1, 2)), (10, (1, 5)))


def test_product_tables_keep_conductors_of_equal_phi_apart():
    # one process, two orders, each from freshly built rings: a table that
    # served one conductor's matrices to another would change a series
    runs = []
    for order in (PHI4_CYCLIC, PHI4_CYCLIC[::-1]):
        cyclotomic.zeta_ring.cache_clear()
        runs.append(
            {case: sm.nichols_hilbert(diag_space(*case), 8).per_degree for case in order}
        )
    assert runs[0] == runs[1]
    for (order, subset), series in runs[0].items():
        braiding = dg.cyclic_braiding(order, subset)
        if order == 12:
            # C12 (1,5) has an infinite root system, so no PBW series: the
            # direct symmetrizer ranks stand in for it at low degree
            with pytest.raises(dg.RootSystemUndefinedError):
                dg.pbw_hilbert_series(braiding, 8)
            space = diag_space(order, subset)
            assert list(series[:6]) == [sm.direct_graded_dim(space, d) for d in range(6)]
        else:
            assert list(series) == list(dg.pbw_hilbert_series(braiding, 8)), order


def test_quadratic_multidegree_sums(b2_space, yd_cache):
    for space in (b2_space, sm.space_from_yd(yd_cache(4, 2, 2))):
        calc = sm.QuadraticCalculator(space)
        for d in range(5):
            md = calc.multidegree_dims(d)
            assert sum(md.values()) == calc.graded_dim(d)


# The quadratic-cover series of ROADMAP item 6's table, measured while the
# cover was computed from its ideal in T^d: (group, mode, series)
QUADRATIC_TABLE = [
    ((2, 1, 2), "exact", [1, 4, 8, 12, 16, 20, 24]),
    ((5, 5, 2), "exact", [1, 5, 16, 45, 121, 320, 841]),
    ((6, 6, 2), "exact", [1, 6, 21, 60, 159, 414, 1076]),
    ((3, 1, 2), "exact", [1, 7, 32, 122, 425, 1415]),
    ((4, 1, 2), "exact", [1, 10, 67, 382, 1996]),
    ((1, 1, 4), "exact", [1, 6, 19, 42, 71, 96, 106]),
    ((4, 2, 2), "modular", [1, 6, 21, 60, 156, 384, 916]),
    ((6, 3, 2), "modular", [1, 8, 40, 168, 651, 2420]),
]


@pytest.mark.parametrize("group, mode, series", QUADRATIC_TABLE)
def test_quadratic_cover_matches_the_ideal_route_table(yd_cache, group, mode, series):
    space = sm.space_from_yd(yd_cache(*group))
    data = sm.quadratic_hilbert(space, len(series) - 1, mode)
    assert list(data.per_degree) == series


@pytest.mark.parametrize("calculator", [sm.NicholsCalculator, sm.QuadraticCalculator])
def test_negative_degree_is_rejected(calculator):
    calc = calculator(diag_space(4))
    assert calc.graded_dim(3) > 0  # levels 0..3 exist
    with pytest.raises(ValueError):
        calc.graded_dim(-1)
    with pytest.raises(ValueError):
        calc.multidegree_dims(-1)


def test_direct_oracle_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        sm.direct_graded_dim(diag_space(4), -1)


# groups G(m,p,n) with m <= 4 and n <= 2 whose YD module is nonzero
SMALL_GROUPS = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    for n in (1, 2)
    if m % p == 0 and (n == 2 or p < m)
]


@st.composite
def small_spaces(draw, yd_cache):
    if draw(st.booleans()):
        return sm.space_from_yd(yd_cache(*draw(st.sampled_from(SMALL_GROUPS))))
    order = draw(st.integers(2, 12))
    rank = draw(st.integers(1, 3))
    entry = st.integers(0, order - 1)
    rows = draw(
        st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=rank, max_size=rank)
    )
    return sm.space_from_diagonal(dg.DiagonalBraiding(order, tuple(map(tuple, rows))))


def _nonzero(dims: dict) -> dict:
    return {md: v for md, v in dims.items() if v}


@functools.lru_cache(maxsize=None)
def _large_prime_spec(order):
    return find_modular_spec(order, min_prime=10**6)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_calculators_agree_with_each_other_and_the_oracle(data, yd_cache):
    """Exact and direct ranks agree, and so do modular ranks over a large
    prime.  Over the default prime, the smallest q = 1 (mod L), modular mode
    is only a bound: the rank of S_d can drop mod q (for q = 1 and L = 2,
    S_3 is 6 = 0 mod 3), so B(V) can only shrink and the quadratic cover
    only grow.  The quadratic cover bounds B(V) in every multidegree, with
    equality through degree 2, because B(V) is a graded quotient of
    T(V)/(ker(Psi + Id))."""
    space = data.draw(small_spaces(yd_cache))
    spec = _large_prime_spec(space.scalar_order)
    calcs = [
        (sm.NicholsCalculator(space, *args), sm.QuadraticCalculator(space, *args))
        for args in (("exact",), ("modular", spec), ("modular",))
    ]
    for d in range(4):
        (nich, quad), (nich_mod, quad_mod), (nich_low, quad_high) = [
            (_nonzero(n.multidegree_dims(d)), q.multidegree_dims(d)) for n, q in calcs
        ]
        assert sum(nich.values()) == sm.direct_graded_dim(space, d), (space.name, d)
        assert (nich_mod, quad_mod) == (nich, quad), (space.name, d)
        assert all(nich.get(md, 0) >= v for md, v in nich_low.items()), (space.name, d)
        assert all(quad_high.get(md, 0) >= v for md, v in quad.items()), (space.name, d)
        assert all(quad.get(md, 0) >= v for md, v in nich.items()), (space.name, d)
        if d <= 2:
            assert quad == nich, (space.name, d)


def test_c2_graded_dims():
    space = diag_space(2)
    assert [sm.nichols_graded_dim(space, d) for d in range(4)] == [1, 1, 0, 0]


def test_exact_c8_coefficients_stay_small():
    # every echelon pivot has a rational-integer lead, so the exact levels
    # of C8 (1,4) keep small coefficients (without that they double in
    # bit length with each degree, to 25,648 bits at degree 12)
    braiding = dg.cyclic_braiding(8, (1, 4))
    series = dg.pbw_hilbert_series(braiding, 14)
    calc = sm.NicholsCalculator(sm.space_from_diagonal(braiding))
    for d in range(15):
        assert calc.graded_dim(d) == series[d], d
        if d <= 12:
            bits = max(
                abs(x).bit_length()
                for vectors in calc._levels[d].values()
                for _, co in vectors
                for c in co
                for x in c
            )
            assert bits < 64, (d, bits)


def test_b2_nichols_series(b2_space):
    calc = sm.NicholsCalculator(b2_space)
    dims = [calc.graded_dim(d) for d in range(9)]
    assert dims == [1, 4, 8, 12, 14, 12, 8, 4, 1]
    assert sum(dims) == 64
    # the series equals the expansion of (1+t)^4 (1+t^2)^2 = specialized
    # multigraded polynomial (1+t1)^2 (1+t1t2)^2 (1+t2)^2 at t1 = t2 = t
    poly = [1]
    for factor in ([1, 1], [1, 1], [1, 0, 1], [1, 0, 1], [1, 1], [1, 1]):
        new = [0] * 9
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                if i + j <= 8:
                    new[i + j] += x * y
        poly = new
    assert dims == poly


def test_b2_bigraded_component(b2_space):
    calc = sm.NicholsCalculator(b2_space)
    md = calc.multidegree_dims(2)
    # coefficient of t1 t2 in (1+t1)^2 (1+t1t2)^2 (1+t2)^2: expand exactly
    coeff = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                from math import comb

                if a + b == 1 and c + b == 1:
                    coeff += comb(2, a) * comb(2, b) * comb(2, c)
    assert coeff == 6
    assert md[("V0", "V1")] == coeff
    assert md[("V0", "V0")] == 1 and md[("V1", "V1")] == 1


def test_multidegree_specialization(b2_space):
    calc = sm.NicholsCalculator(b2_space)
    for d in range(5):
        md = calc.multidegree_dims(d)
        assert sum(md.values()) == calc.graded_dim(d)
        assert all(len(key) == d for key in md)


def _full_matrix_rank_fraction(space, degree):
    """Independent oracle: dense RREF rank of the whole symmetrizer."""
    from fractions import Fraction

    L = space.scalar_order
    size = space.dim**degree
    cols = []
    for key in range(size):
        total = {}
        for perm in itertools.permutations(range(degree)):
            vec = {key: CyclotomicNumber.one(L)}
            for pos in sm.reduced_word(perm):
                new = {}
                w = space.dim ** (degree - pos - 1)
                for kk, c in vec.items():
                    pair = (kk // w) % (space.dim**2)
                    t = space.braid_targets[pair]
                    e = space.braid_exps[pair]
                    nk = kk + (t - pair) * w
                    new[nk] = c * CyclotomicNumber.zeta_power(L, e)
                vec = new
            for kk, c in vec.items():
                total[kk] = total.get(kk, CyclotomicNumber.zero(L)) + c
        cols.append(total)
    # spread cyclotomic coordinates into rational rows
    from fknichols._numtheory import euler_phi

    phi = euler_phi(L)
    rows = []
    for coord in range(size):
        for component in range(phi):
            rows.append(
                [Fraction(col.get(coord, CyclotomicNumber.zero(L)).coeffs[component]) for col in cols]
            )
    _, pivots = rref_fraction(rows)
    return len(pivots)


def test_blockwise_rank_equals_full_matrix_rank(b2_space):
    calc = sm.NicholsCalculator(b2_space)
    for d in (2, 3):
        assert calc.graded_dim(d) == _full_matrix_rank_fraction(b2_space, d)


def test_quadratic_relations_s2(yd_cache):
    space = sm.space_from_yd(yd_cache(1, 1, 2))
    rels = sm.quadratic_relations(space)
    assert len(rels) == 1  # all of V ox V; E = k + V
    calc = sm.QuadraticCalculator(space)
    assert [calc.graded_dim(d) for d in range(4)] == [1, 1, 0, 0]


def _negated_by_psi(space, rel) -> bool:
    """Psi(rel) == -rel, applied term by term through braid_pair."""
    L = space.scalar_order
    dim = space.dim
    image: dict = {}
    for key, c in rel.items():
        a, b, e = space.braid_pair(*divmod(key, dim))
        target = a * dim + b
        image[target] = image.get(target, CyclotomicNumber.zero(L)) + c * CyclotomicNumber.zeta_power(L, e)
    image = {k: v for k, v in image.items() if not v.is_zero}
    return image == {k: -c for k, c in rel.items()}


def test_quadratic_relations_dimensions(b2_space, yd_cache):
    assert len(sm.quadratic_relations(b2_space)) == 16 - 8
    d5 = sm.space_from_yd(yd_cache(5, 5, 2))
    assert len(sm.quadratic_relations(d5)) == 25 - 16
    spaces = []
    for n in range(2, 13):
        spaces.append(diag_space(n))
        spaces += [diag_space(n, pair) for pair in itertools.combinations(range(1, n), 2)]
    for m, p, n in [(1, 1, 3), (2, 1, 2), (3, 1, 2), (3, 3, 3), (4, 2, 2), (5, 5, 2), (6, 3, 2)]:
        spaces.append(sm.space_from_yd(yd_cache(m, p, n)))
    for space in spaces:
        rels = sm.quadratic_relations(space)
        # dim R = dim V^2 - rank(Id + Psi), the degree-2 symmetrizer
        assert len(rels) == space.dim**2 - sm.direct_graded_dim(space, 2), space.name
        assert all(_negated_by_psi(space, rel) for rel in rels), space.name
        ech = ExactEchelon(space.scalar_order)
        assert all(ech.insert(*echelon_vector(rel.items())) for rel in rels), space.name


def test_b2_quadratic_series(b2_space):
    calc = sm.QuadraticCalculator(b2_space)
    assert [calc.graded_dim(d) for d in range(6)] == [1, 4, 8, 12, 16, 20]


def test_dihedral_quadratic_series(yd_cache):
    d5 = sm.space_from_yd(yd_cache(5, 5, 2))
    calc = sm.QuadraticCalculator(d5)
    assert [calc.graded_dim(d) for d in range(5)] == [1, 5, 16, 45, 121]
    d7 = sm.space_from_yd(yd_cache(7, 7, 2))
    calc = sm.QuadraticCalculator(d7)
    assert [calc.graded_dim(d) for d in range(4)] == [1, 7, 36, 175]


def _ideal_rank_fraction(space, degree):
    """Independent oracle for the quadratic ideal: dense RREF of the span of
    all V^i ox R ox V^(d-2-i)."""
    from fractions import Fraction
    from fknichols._numtheory import euler_phi

    L = space.scalar_order
    phi = euler_phi(L)
    dim = space.dim
    rels = sm.quadratic_relations(space)
    cols = []
    for i in range(degree - 1):
        left = dim**i
        right = dim ** (degree - 2 - i)
        for rel in rels:
            for lo in range(left):
                for hi in range(right):
                    col = {}
                    for key, c in rel.items():
                        packed = (lo * dim**2 + key) * right + hi
                        col[packed] = c
                    cols.append(col)
    rows = []
    for coord in range(dim**degree):
        for component in range(phi):
            rows.append(
                [
                    Fraction(
                        col.get(coord, CyclotomicNumber.zero(L)).coeffs[component]
                    )
                    for col in cols
                ]
            )
    _, pivots = rref_fraction(rows)
    return len(pivots)


def test_c4_compare_diverges_at_three_with_oracle():
    space = diag_space(4)
    cmp = sm.hilbert_compare(space, 3)
    assert cmp.nichols.per_degree == (1, 3, 7, 14)
    assert cmp.quadratic.per_degree == (1, 3, 7, 16)
    assert cmp.divergence_degree == 3
    # independent dense oracle for the degree-3 ideal rank
    assert 27 - _ideal_rank_fraction(space, 3) == 16


def test_b2_compare_diverges_at_four(b2_space):
    cmp = sm.hilbert_compare(b2_space, 4)
    assert cmp.nichols.per_degree == (1, 4, 8, 12, 14)
    assert cmp.quadratic.per_degree == (1, 4, 8, 12, 16)
    assert cmp.divergence_degree == 4
    assert 16 - _ideal_rank_fraction(b2_space, 2) == 8
    assert 64 - _ideal_rank_fraction(b2_space, 3) == 12
    assert 256 - _ideal_rank_fraction(b2_space, 4) == 16


def test_s2_compare_never_diverges(yd_cache):
    space = sm.space_from_yd(yd_cache(1, 1, 2))
    cmp = sm.hilbert_compare(space, 5)
    assert cmp.divergence_degree is None


def test_nichols_bounded_by_quadratic(b2_space, yd_cache):
    for space, maxd in [
        (b2_space, 5),
        (diag_space(4), 4),
        (sm.space_from_yd(yd_cache(5, 5, 2)), 3),
    ]:
        cmp = sm.hilbert_compare(space, maxd)
        for d in range(maxd + 1):
            assert cmp.nichols.per_degree[d] <= cmp.quadratic.per_degree[d]
        assert cmp.nichols.per_degree[:3] == cmp.quadratic.per_degree[:3]


# (group (m, p, n) or cyclic (n, subset), max degree, divergence degree)
COMPARE_INPUTS = [
    ((3, 1, 2), 4, 3),
    ((5, (1, 2)), 5, 3),
    ((2, 1, 2), 5, 4),
    ((4, 4, 2), 5, 4),
    ((5, 5, 2), 5, 4),
    ((8, (1, 4)), 6, 5),
    ((10, (1, 5)), 7, 6),
    ((1, 1, 3), 5, None),
    ((3, 3, 2), 5, None),
    ((2, 2, 3), 5, None),
    ((1, 1, 4), 6, None),
]


def _compare_space(source, yd_cache):
    if len(source) == 3:
        return sm.space_from_yd(yd_cache(*source))
    return diag_space(*source)


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize("source, max_degree, divergence", COMPARE_INPUTS, ids=str)
def test_compare_series_equal_the_standalone_series(
    yd_cache, source, max_degree, divergence, mode
):
    """The cover of ``hilbert_compare`` adopts the Nichols levels up to the
    divergence and runs its own step from there; both series must equal
    those computed alone."""
    space = _compare_space(source, yd_cache)
    cmp = sm.hilbert_compare(space, max_degree, mode)
    assert cmp.divergence_degree == divergence
    assert cmp.nichols == sm.nichols_hilbert(space, max_degree, mode)
    assert cmp.quadratic == sm.quadratic_hilbert(space, max_degree, mode)


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize(
    "group, max_degree, adopted",
    [((3, 3, 3), 4, 4), ((2, 1, 2), 5, 3)],
    ids=["G333", "G212"],
)
def test_compare_cover_adopts_the_nichols_levels_while_they_agree(
    yd_cache, monkeypatch, group, max_degree, adopted, mode
):
    made = []
    init = sm._Calculator.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(sm._Calculator, "__init__", record)
    sm.hilbert_compare(sm.space_from_yd(yd_cache(*group)), max_degree, mode)
    nichols, cover = made
    shared = [d for d in range(1, max_degree + 1) if cover._levels[d] is nichols._levels[d]]
    assert shared == list(range(1, adopted + 1))
    assert (cover._quotient is nichols) == (adopted == max_degree)


@pytest.mark.parametrize(
    "source, max_degree", [((3, 3, 3), 4), ((8, (1, 4)), 8)], ids=["G333", "C8"]
)
def test_levels_keep_their_blocks_in_repr_order(yd_cache, monkeypatch, source, max_degree):
    """``_previous_level`` numbers a level's basis in the order of its dict,
    which must be the repr order of its blocks, on both routes and for the
    levels the cover adopts."""
    made = []
    init = sm._Calculator.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(sm._Calculator, "__init__", record)
    sm.hilbert_compare(_compare_space(source, yd_cache), max_degree)
    assert len(made) == 2
    for calc in made:
        assert len(calc._levels) == max_degree + 1
        for level in calc._levels:
            assert list(level) == sorted(level, key=repr)


def test_compare_raises_the_standalone_budget_errors():
    """The cover of C5 (1,2) exceeds a budget of 7 at degree 5 (10
    candidates), the Nichols series only at degree 6 (8 candidates); the
    compare must raise the Nichols error, as when the series ran one after
    the other, and the cover's only when the Nichols series raises none."""
    space = diag_space(5, (1, 2))

    def error(series, mode, budget):
        try:
            series(space, 8, mode, block_budget=budget)
        except sm.ResourceBudgetError as err:
            return err.required, err.budget
        return None

    assert error(sm.hilbert_compare, "exact", 7) == (8, 7)
    for mode in ("exact", "modular"):
        for budget in range(1, 14):
            expected = error(sm.nichols_hilbert, mode, budget) or error(
                sm.quadratic_hilbert, mode, budget
            )
            assert error(sm.hilbert_compare, mode, budget) == expected, (mode, budget)


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize("source, max_degree, divergence", COMPARE_INPUTS, ids=str)
def test_rank_only_top_changes_no_series_and_no_lower_level(
    yd_cache, source, max_degree, divergence, mode
):
    """``_hilbert`` and ``hilbert_compare`` build their top level rank-only,
    in the group degrees that represent their conjugacy class (points 8 and
    9 of the module docstring): every series must equal that of a
    calculator with no top, and every level below the top must hold the
    same basis vectors, degrees and ``_mul`` rows; the top level holds the
    plain top level's basis vectors of the representative degrees, and no
    rows."""
    space = _compare_space(source, yd_cache)
    weight = space.degree_table.weight
    series = []
    for cls in (sm.NicholsCalculator, sm.QuadraticCalculator):
        topped, plain = cls(space, mode), cls(space, mode)
        topped.top = max_degree
        for d in range(max_degree + 1):
            assert topped.multidegree_dims(d) == plain.multidegree_dims(d)
            if d < max_degree:
                assert topped._levels == plain._levels
                assert topped._degrees == plain._degrees
                assert topped._mul == plain._mul
        degrees = iter(plain._degrees[max_degree])
        representatives = {}
        for block, vectors in plain._levels[max_degree].items():
            kept = [vec for vec in vectors if weight(next(degrees))]
            if kept:
                representatives[block] = kept
        assert topped._levels[max_degree] == representatives
        assert topped._mul is None
        series.append(sm._series([plain.multidegree_dims(d) for d in range(max_degree + 1)]))
    nichols, quadratic = series
    assert sm.nichols_hilbert(space, max_degree, mode) == nichols
    assert sm.quadratic_hilbert(space, max_degree, mode) == quadratic
    cmp = sm.hilbert_compare(space, max_degree, mode)
    assert (cmp.nichols, cmp.quadratic) == (nichols, quadratic)


def _group_elements(params):
    """Every element theta^nu sigma of G(m,p,n), from its definition."""
    m, p, n = params.m, params.p, params.n
    for sigma in itertools.permutations(range(n)):
        for nu in itertools.product(range(m), repeat=n):
            if sum(nu) % p == 0:
                yield rg.GroupElement(m, nu, sigma)


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize(
    "group, max_degree",
    [
        ((3, 3, 3), 4),
        ((1, 1, 4), 6),
        ((3, 1, 2), 5),
        ((2, 1, 2), 5),
        ((4, 2, 2), 4),
        ((5, 5, 2), 4),
    ],
    ids=str,
)
def test_top_level_dimensions_are_class_functions(yd_cache, group, max_degree, mode):
    """Conjugation by h in G maps the degree-g part of each block onto its
    degree-h g h^-1 part (point 9 of the module docstring).  So in the top
    level of a calculator with no top, the basis elements of one block and
    degree must be as many as those of each conjugate degree, over the
    whole group; and the class-weighted series of ``nichols_hilbert``,
    ``quadratic_hilbert`` and ``hilbert_compare`` must equal the plain ones."""
    space = sm.space_from_yd(yd_cache(*group))
    elements = list(_group_elements(rg.GroupParams(*group)))
    series = []
    for cls, hilbert in (
        (sm.NicholsCalculator, sm.nichols_hilbert),
        (sm.QuadraticCalculator, sm.quadratic_hilbert),
    ):
        plain = cls(space, mode)
        plain_series = sm._series([plain.multidegree_dims(d) for d in range(max_degree + 1)])
        counts = collections.Counter()
        degrees = iter(plain._degrees[max_degree])
        for block, vectors in plain._levels[max_degree].items():
            for _ in vectors:
                counts[block, space.degree_table.elements[next(degrees)]] += 1
        for (block, g), n in counts.items():
            for h in elements:
                assert counts[block, h * g * h.inverse()] == n, (cls.__name__, block, g, h)
        assert any(h * g * h.inverse() != g for _, g in counts for h in elements)
        assert hilbert(space, max_degree, mode) == plain_series
        series.append(plain_series)
    cmp = sm.hilbert_compare(space, max_degree, mode)
    assert [cmp.nichols, cmp.quadratic] == series


def test_braided_space_checks_its_group_degrees(yd_cache):
    """The class split needs Psi(e_a ox e_b) = g_a . e_b ox e_a with
    g_a . e_b of degree g_a g_b g_a^-1 in the summand of e_b: the degrees
    of ``space_from_yd`` pass, and degrees moved to other basis vectors do
    not.  Without degrees every vector has the one trivial degree."""
    module = yd_cache(3, 3, 3)
    space = sm.space_from_yd(module)
    assert space.degrees == tuple(s.to_element(module.params) for s in module.basis)
    args = (space.dim, space.scalar_order, space.braid_targets, space.braid_exps, space.grading)
    with pytest.raises(ValueError, match="Yetter-Drinfeld"):
        sm.BraidedSpace(*args, degrees=space.degrees[1:] + space.degrees[:1])
    with pytest.raises(ValueError, match="every basis vector"):
        sm.BraidedSpace(*args, degrees=space.degrees[1:])
    plain = sm.BraidedSpace(*args)
    assert len(set(plain.degrees)) == 1
    assert plain.degree_table.times(0) == [0] * space.dim
    assert plain.degree_table.weight(0) == 1


def _candidate_counts(space, data: sm.HilbertData):
    """The number of candidates y a of each block, in full, degree by degree
    and in repr order, counted from the dimensions of the level below."""
    for d in range(1, data.max_degree + 1):
        sizes = collections.Counter()
        for block, dim in data.per_multidegree.items():
            if len(block) == d - 1:
                for label in space.grading:
                    sizes[tuple(sorted(block + (label,)))] += dim
        for block in sorted(sizes, key=repr):
            yield sizes[block]


def _budget_error(space, data: sm.HilbertData, budget: int):
    """The (required, budget) of the ResourceBudgetError that a series with
    the dimensions of ``data`` raises under an effective block budget: the
    first block with more candidates than the budget."""
    return next(((n, budget) for n in _candidate_counts(space, data) if n > budget), None)


@pytest.mark.parametrize("group, max_degree", [((2, 1, 2), 6), ((3, 3, 3), 4)], ids=str)
def test_budget_errors_count_the_whole_block_on_yd_inputs(yd_cache, group, max_degree):
    """The top level eliminates only the representative degrees of a block
    but checks the budget on all its candidates, so each budget error of
    the compare and of the standalone series is the one that the full
    candidate counts give (``_budget_error``), at budgets on both sides of
    every count; the compare raises the Nichols error first.  A modular
    budget is doubled."""
    space = sm.space_from_yd(yd_cache(*group))

    def error(series, mode, budget):
        try:
            series(space, max_degree, mode, block_budget=budget)
        except sm.ResourceBudgetError as err:
            return err.required, err.budget
        return None

    for mode, scale in (("exact", 1), ("modular", 2)):
        nichols = sm.nichols_hilbert(space, max_degree, mode, block_budget=None)
        cover = sm.quadratic_hilbert(space, max_degree, mode, block_budget=None)
        counts = {n for data in (nichols, cover) for n in _candidate_counts(space, data)}
        budgets = {b for n in counts for b in ((n - 1) // scale, (n + scale - 1) // scale)}
        for budget in sorted(budgets - {0}):
            expected_nichols = _budget_error(space, nichols, scale * budget)
            expected_cover = _budget_error(space, cover, scale * budget)
            assert error(sm.nichols_hilbert, mode, budget) == expected_nichols, (mode, budget)
            assert error(sm.quadratic_hilbert, mode, budget) == expected_cover, (mode, budget)
            expected = expected_nichols or expected_cover
            assert error(sm.hilbert_compare, mode, budget) == expected, (mode, budget)


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_a_degree_above_the_top_raises(mode):
    """The top level keeps no ``_mul`` rows, so a calculator refuses a
    degree above its top instead of building on rows it never made."""
    space = diag_space(5, (1, 2))
    for cls in (sm.NicholsCalculator, sm.QuadraticCalculator):
        calc = cls(space, mode)
        calc.top = 3
        assert calc.graded_dim(3) == cls(space, mode).graded_dim(3)
        with pytest.raises(ValueError, match="degree 4 is above the top degree 3"):
            calc.graded_dim(4)


@pytest.mark.parametrize(
    "source, max_degree",
    [
        (dg.DiagonalBraiding(2, ((0,),)), 5),
        (dg.DiagonalBraiding(2, ((0, 0), (1, 0))), 4),
        ((5, (1, 2)), 6),
        ((8, (1, 4)), 6),
        ((2, 1, 2), 5),
        ((3, 3, 2), 4),
    ],
    ids=str,
)
def test_modular_dimensions_bound_the_exact_ones(yd_cache, source, max_degree):
    """Modular mode maps Z[zeta_L] onto F_q and takes ranks there, and a rank
    cannot rise under that map.  So each Nichols dimension (the rank of
    S_d) is at most the exact one, and each quadratic-cover dimension
    (dim T^d minus the rank of the ideal in degree d) at least the exact
    one.  The Nichols bound is strict for the one-dimensional braiding with
    q_11 = 1, DiagonalBraiding(2, ((0,),)): q = 3, and S_3 = 3! = 0 mod 3,
    so modular mode gives dim B^3 = 0 where the exact dimension is 1."""
    if isinstance(source, dg.DiagonalBraiding):
        space = sm.space_from_diagonal(source)
    else:
        space = _compare_space(source, yd_cache)
    exact = sm.hilbert_compare(space, max_degree)
    modular = sm.hilbert_compare(space, max_degree, "modular")
    for d in range(max_degree + 1):
        assert modular.nichols.per_degree[d] <= exact.nichols.per_degree[d], d
        assert modular.quadratic.per_degree[d] >= exact.quadratic.per_degree[d], d
    if source == dg.DiagonalBraiding(2, ((0,),)):
        assert exact.nichols.per_degree == (1, 1, 1, 1, 1, 1)
        assert modular.nichols.per_degree == (1, 1, 1, 0, 0, 0)


def test_modular_mode_runs_at_scalar_order_one():
    """q_11 = 1 as DiagonalBraiding(1, ((0,),)): the scalars lie in Z, so
    the modular image of zeta_1 is 1.  Over a large prime the series is the
    exact one; over the default q = 3, S_3 = 3! = 0 mod 3 gives the lower
    bound 0 at degree 3."""
    space = sm.space_from_diagonal(dg.DiagonalBraiding(1, ((0,),)))
    assert find_modular_spec(1) == ModularSpec(3, 1, 1)
    exact = sm.nichols_hilbert(space, 3).per_degree
    assert exact == (1, 1, 1, 1)
    assert sm.nichols_hilbert(space, 3, "modular", _large_prime_spec(1)).per_degree == exact
    assert sm.nichols_hilbert(space, 3, "modular").per_degree == (1, 1, 1, 0)


def test_modular_mode_matches_exact(b2_space):
    for d in range(5):
        assert sm.nichols_graded_dim(b2_space, d, mode="modular") == (
            sm.nichols_graded_dim(b2_space, d)
        )
    space = diag_space(4)
    spec = find_modular_spec(4, index=1)
    for d in range(5):
        assert sm.nichols_graded_dim(space, d, mode="modular", spec=spec) == (
            sm.nichols_graded_dim(space, d)
        )
    calc = sm.QuadraticCalculator(b2_space, mode="modular")
    assert [calc.graded_dim(d) for d in range(5)] == [1, 4, 8, 12, 16]


def test_modular_spec_of_wrong_order_is_rejected():
    # a spec for q = 29 (order 7) must not be swapped silently for order 4
    space = diag_space(4)
    spec = find_modular_spec(7)
    assert spec.order != space.scalar_order
    with pytest.raises(BadModularSpecError):
        sm.nichols_graded_dim(space, 2, mode="modular", spec=spec)
    with pytest.raises(BadModularSpecError):
        sm.QuadraticCalculator(space, mode="modular", spec=spec)


def test_budget_error():
    space = diag_space(4)
    with pytest.raises(sm.ResourceBudgetError) as err:
        sm.nichols_graded_dim(space, 6, block_budget=10)
    assert err.value.required > 10
    # modular mode doubles the cap: both level steps of C4 have 5 candidates
    # (basis element of the level below, letter) at degree 3 in the
    # multidegree (1, 2, 3)
    with pytest.raises(sm.ResourceBudgetError) as err:
        sm.nichols_graded_dim(space, 3, block_budget=4)
    assert (err.value.required, err.value.budget) == (5, 4)
    assert sm.nichols_graded_dim(space, 3, mode="modular", block_budget=4) == 14
    with pytest.raises(sm.ResourceBudgetError) as err:
        sm.QuadraticCalculator(space, block_budget=4).graded_dim(3)
    assert (err.value.required, err.value.budget) == (5, 4)
    assert sm.QuadraticCalculator(space, mode="modular", block_budget=4).graded_dim(3) == 16
    small = diag_space(2)
    assert sm.nichols_graded_dim(small, 2, block_budget=1) == 0  # blocks of size 1


def test_g442_multigraded_matches_b2_under_bijection(b2_space, yd_cache):
    src_mod = yd_cache(2, 1, 2)
    dst_mod = yd_cache(4, 4, 2)
    dst_space = sm.space_from_yd(dst_mod)
    hb = sm.nichols_hilbert(b2_space, 4)
    hi = sm.nichols_hilbert(dst_space, 4)
    label_map = {"V0": "Veven", "V1": "Vodd"}
    translated = {
        tuple(sorted(label_map[l] for l in md)): v
        for md, v in hb.per_multidegree.items()
    }
    assert translated == hi.per_multidegree
    assert hb.per_degree == hi.per_degree


def test_hilbert_json_round_trip(b2_space):
    import json

    data = sm.nichols_hilbert(b2_space, 3)
    text = json.dumps(sm.hilbert_to_json(data), sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text
