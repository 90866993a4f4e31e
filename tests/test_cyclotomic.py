import cmath
import heapq
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import echelon_vector
from fknichols import _kernels_py, backend, cyclotomic
from fknichols._kernels_py import _cyc_mul, combine_exact, combine_mod
from fknichols._linalg import ExactEchelon, ModularEchelon
from fknichols._numtheory import euler_phi, units
from fknichols.cyclotomic import (
    BadModularSpecError,
    ConductorMismatchError,
    CyclotomicNumber,
    ModularSpec,
    RootOfUnity,
    cyclotomic_polynomial,
    embed,
    find_modular_spec,
    root_mul,
)


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


@pytest.mark.parametrize("n", list(range(1, 25)))
def test_cyclotomic_polynomial_against_sympy(n):
    x = sympy.symbols("x")
    expected = tuple(
        int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    )
    assert cyclotomic_polynomial(n) == expected


def test_phi12_by_independent_division():
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 with a local oracle
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def divide(num, den):
        num = list(num)
        out = [0] * (len(num) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            c = num[len(den) - 1 + k] // den[-1]
            out[k] = c
            for j, d in enumerate(den):
                num[j + k] -= c * d
        assert not any(num[: len(den) - 1])
        return out

    denom = [1]
    for d in (1, 2, 3, 4, 6):
        denom = mul(denom, list(cyclotomic_polynomial(d)))
    numerator = [-1] + [0] * 11 + [1]
    assert tuple(divide(numerator, denom)) == cyclotomic_polynomial(12)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_mul_examples():
    assert root_mul(RootOfUnity(4, 1), RootOfUnity(4, 3)) == RootOfUnity(4, 0)
    out = root_mul(RootOfUnity(2, 1), RootOfUnity(3, 1))
    assert (out.order, out.exponent) == (6, 5)
    # numeric verification: (-1) * zeta_3 = zeta_6^5
    expected = cmath.exp(2j * cmath.pi * 5 / 6)
    assert abs(out.to_complex() - expected) < 1e-12
    sq = root_mul(RootOfUnity(6, 2), RootOfUnity(6, 2))
    assert (sq.order, sq.exponent) == (6, 4)


def test_root_of_unity_invariants(rng):
    for _ in range(200):
        n1, n2 = rng.randrange(1, 13), rng.randrange(1, 13)
        a = RootOfUnity(n1, rng.randrange(2 * n1))
        b = RootOfUnity(n2, rng.randrange(2 * n2))
        assert 0 <= a.exponent < a.order
        prod = root_mul(a, b)
        # order of the product divides lcm of the orders
        from math import lcm

        assert lcm(a.order, b.order) % prod.multiplicative_order() == 0
        assert abs(prod.to_complex() - a.to_complex() * b.to_complex()) < 1e-9
        assert (a * a.inverse()).is_one


def test_embed_examples():
    minus_one = embed(RootOfUnity(2, 1), 4)
    assert minus_one == CyclotomicNumber(4, (-1, 0))
    zeta = embed(RootOfUnity(4, 1), 4)
    assert zeta == CyclotomicNumber(4, (0, 1))
    z3 = embed(RootOfUnity(3, 1), 3)
    assert z3 * z3 == CyclotomicNumber(3, (-1, -1))  # zeta^2 = -1 - zeta


def test_embed_conductor_mismatch():
    with pytest.raises(ConductorMismatchError):
        embed(RootOfUnity(3, 1), 4)


def test_embed_multiplicative(rng):
    for _ in range(100):
        conductor = rng.choice([4, 6, 8, 12, 24])
        d1 = rng.choice([d for d in range(1, conductor + 1) if conductor % d == 0])
        d2 = rng.choice([d for d in range(1, conductor + 1) if conductor % d == 0])
        a = RootOfUnity(d1, rng.randrange(d1))
        b = RootOfUnity(d2, rng.randrange(d2))
        assert embed(root_mul(a, b), conductor) == embed(a, conductor) * embed(
            b, conductor
        )


def _random_cyc(conductor, rand):
    from fknichols._numtheory import euler_phi, units

    return CyclotomicNumber(
        conductor,
        [rand.randrange(-5, 6) for _ in range(euler_phi(conductor))],
    )


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24])
def test_field_axioms(conductor):
    rand = random.Random(conductor)
    for _ in range(12):
        a, b, c = (_random_cyc(conductor, rand) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


@pytest.mark.parametrize("coeff", [Fraction(1, 2), 0.5, Fraction(1), "1"], ids=repr)
def test_non_integer_coefficients_are_refused(coeff):
    with pytest.raises(TypeError):
        CyclotomicNumber(4, (coeff, 0))


def test_mixed_arithmetic_accepts_int_only():
    x = CyclotomicNumber(4, (1, 2))
    assert x + 1 == 1 + x == CyclotomicNumber(4, (2, 2))
    assert x - 1 == CyclotomicNumber(4, (0, 2))
    assert 1 - x == CyclotomicNumber(4, (0, -2))
    assert x * 3 == 3 * x == CyclotomicNumber(4, (3, 6))
    assert CyclotomicNumber(4, (5, 0)) == 5
    for other in (Fraction(1, 2), 0.5):
        assert x.__add__(other) is NotImplemented
        assert x.__mul__(other) is NotImplemented
        assert x.__eq__(other) is NotImplemented
        for op in (
            lambda: x + other,
            lambda: other + x,
            lambda: x - other,
            lambda: other - x,
            lambda: x * other,
            lambda: other * x,
        ):
            with pytest.raises(TypeError):
                op()


@pytest.mark.parametrize("n", list(range(1, 25)))
def test_cyclotomic_polynomial_vanishes_at_zeta(n):
    zeta = CyclotomicNumber.zeta_power(n, 1)
    total = CyclotomicNumber.zero(n)
    power = CyclotomicNumber.one(n)
    for c in cyclotomic_polynomial(n):
        total = total + power * c
        power = power * zeta
    assert total.is_zero


def _exact_rank(mat):
    """Rank of a dense CyclotomicNumber matrix, column by column."""
    ech = ExactEchelon(mat[0][0].conductor)
    for j in range(len(mat[0])):
        ech.insert(*echelon_vector((i, row[j]) for i, row in enumerate(mat)))
    return ech.rank


def _modular_rank(mat, spec):
    """Rank of the image of a dense CyclotomicNumber matrix mod spec.prime."""
    ech = ModularEchelon(spec.prime)
    for j in range(len(mat[0])):
        column = [(i, spec.reduce(row[j])) for i, row in enumerate(mat)]
        ech.insert([i for i, r in column if r], [r for _, r in column if r])
    return ech.rank


def test_rank_trivial_cases():
    zero = [[CyclotomicNumber.zero(4) for _ in range(3)] for _ in range(2)]
    assert _exact_rank(zero) == 0
    eye = [
        [CyclotomicNumber.from_rational(5, 1 if i == j else 0) for j in range(5)]
        for i in range(5)
    ]
    assert _exact_rank(eye) == 5
    assert _modular_rank(eye, find_modular_spec(5)) == 5


def test_rank_degree2_symmetrizer_of_c2():
    # 1 + q with q = -1: the 1x1 matrix [0]; dim B(C_2) = 1 + 1 + 0
    entry = CyclotomicNumber.one(2) + embed(RootOfUnity(2, 1), 2)
    assert entry.is_zero
    assert _exact_rank([[entry]]) == 0


def test_rank_modular_matches_exact(rng):
    for trial in range(50):
        conductor = rng.choice([4, 5, 6, 7, 8, 12])
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[_random_cyc(conductor, rng) for _ in range(cols)] for _ in range(rows)]
        exact = _exact_rank(mat)
        agreeing = 0
        for index in range(3):
            modular = _modular_rank(mat, find_modular_spec(conductor, index=index))
            assert modular <= exact
            if modular == exact:
                agreeing += 1
        assert agreeing >= 1


def test_modular_spec_validation():
    with pytest.raises(BadModularSpecError):
        ModularSpec(10, 4, 2)  # 10 not prime
    with pytest.raises(BadModularSpecError):
        ModularSpec(7, 4, 2)  # 7 != 1 mod 4
    spec = find_modular_spec(8)
    assert (spec.prime - 1) % 8 == 0
    assert pow(spec.zeta_image, 8, spec.prime) == 1
    assert pow(spec.zeta_image, 4, spec.prime) != 1


NORM_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)


def _small_tuples(conductor, allow_zero=False):
    phi = euler_phi(conductor)
    tuples = st.tuples(*[st.integers(-4, 4)] * phi)
    return tuples if allow_zero else tuples.filter(any)


@st.composite
def nonzero_elements(draw):
    conductor = draw(st.sampled_from(NORM_CONDUCTORS))
    return conductor, draw(_small_tuples(conductor))


@settings(max_examples=200, deadline=None)
@given(nonzero_elements())
def test_norm_cofactor_gives_the_norm(case):
    conductor, a = case
    product = CyclotomicNumber(conductor, a) * CyclotomicNumber(
        conductor, cyclotomic.zeta_ring(conductor).norm_cofactor(a)
    )
    norm = product.coeffs[0]
    assert not any(product.coeffs[1:])
    assert norm != 0
    if conductor >= 3:
        # Q(zeta) is totally imaginary: N(a) is a product of |sigma(a)|^2
        assert norm > 0
    x = sympy.symbols("x")
    poly = sum(c * x**j for j, c in enumerate(a))
    assert norm == sympy.resultant(sympy.cyclotomic_poly(conductor, x), poly, x)


@pytest.mark.parametrize("n", range(1, 31))
def test_power_table_matches_long_division(n):
    # the ring's table, built by the multiply-by-x step, against x^k mod
    # Phi_n by long division (n = 1 and 2 have phi = 1)
    expected = tuple(_oracles.zeta_power(n, k) for k in range(n))
    assert cyclotomic.zeta_ring(n).powers == expected


def _signed_roots(conductor):
    """The 2 * conductor signed roots of unity +-zeta^k as tuples."""
    powers = [_oracles.zeta_power(conductor, k) for k in range(conductor)]
    return powers + [tuple(-x for x in z) for z in powers]


def _random_elements(rand, phi, count):
    """Tuples with zeros, negative and large entries, and the zero tuple."""
    pool = (0, 0, 0, 1, -1, 2, -7, 10**20 + 3, -(10**12))
    return [(0,) * phi] + [tuple(rand.choice(pool) for _ in range(phi)) for _ in range(count)]


def _oracle_norm_cofactor(a, conductor):
    """prod sigma_k(a), k in (Z/conductor)^x other than 1, by the oracle's
    convolution; sigma_k(a) = sum_j a_j zeta^(jk) is a sum of power tuples."""
    phi = len(a)
    red = _oracles.reduction_rows(conductor)
    out = _oracles.zeta_power(conductor, 0)
    for k in units(conductor):
        if k != 1:
            conj = [0] * phi
            for j, aj in enumerate(a):
                for i, z in enumerate(_oracles.zeta_power(conductor, j * k)):
                    conj[i] += aj * z
            out = _oracles._cyc_mul(out, tuple(conj), phi, red)
    return out


@pytest.mark.parametrize("conductor", range(1, 31))
def test_products_match_the_convolution_oracle(conductor):
    # the product kernel, CyclotomicNumber products and norm_cofactor
    # against the convolution they replaced, for every signed root of unity
    # and random factors, each matrix built once and then read from the table
    rand = random.Random(conductor)
    phi = euler_phi(conductor)
    red = _oracles.reduction_rows(conductor)
    ring = cyclotomic.zeta_ring(conductor)
    entries = _random_elements(rand, phi, 12)
    factors = _signed_roots(conductor) + _random_elements(rand, phi, 12)
    for m in factors:
        expected = [_oracles._cyc_mul(m, c, phi, red) for c in entries]
        assert _cyc_mul(m, entries, ring) == expected, m
        assert _cyc_mul(m, entries, ring) == expected, m
        x = CyclotomicNumber(conductor, m)
        for c, product in zip(entries, expected):
            assert (x * CyclotomicNumber(conductor, c)).coeffs == product
    for a in factors:
        if any(a):
            cof = ring.norm_cofactor(a)
            assert cof == _oracle_norm_cofactor(a, conductor), a
            norm = _oracles._cyc_mul(a, cof, phi, red)
            assert norm[0] != 0 and not any(norm[1:]), a
    assert len(ring._matrices) <= _kernels_py._MATRICES


def test_matrices_stay_in_one_bounded_table(monkeypatch):
    # every factor, signed roots of unity included, keeps its matrix in one
    # table of at most _MATRICES, emptied when full; a matrix served from
    # it, or built again after the table was emptied, gives the same products
    monkeypatch.setattr(_kernels_py, "_MATRICES", 3)
    conductor, phi = 8, 4
    ring = cyclotomic.ZetaRing(conductor, cyclotomic.cyclotomic_polynomial(conductor))
    red = _oracles.reduction_rows(conductor)
    entries = _random_elements(random.Random(0), phi, 6)
    factors = _signed_roots(conductor)[::3] + [(k, 1, 0, -2) for k in range(2, 9)]
    for m in factors + factors:
        expected = [_oracles._cyc_mul(m, c, phi, red) for c in entries]
        assert _cyc_mul(m, entries, ring) == expected, m
        assert 1 <= len(ring._matrices) <= 3
        assert ring.matrix(m) is ring._matrices[m]


def _regular_representation(x):
    """The phi x phi rational matrix of multiplication by x on the power basis."""
    phi = len(x.coeffs)
    cols = [(x * CyclotomicNumber.zeta_power(x.conductor, j)).coeffs for j in range(phi)]
    return [[cols[j][i] for j in range(phi)] for i in range(phi)]


@st.composite
def low_rank_matrices(draw, conductors=NORM_CONDUCTORS, size=4):
    """A product of random (rows x inner) and (inner x cols) matrices over
    Z[zeta] with small entries and at most ``size`` rows, inner and columns,
    so ranks below full occur and leads are rarely rational."""
    conductor = draw(st.sampled_from(conductors))
    rows, inner, cols = (draw(st.integers(1, size)) for _ in range(3))

    def matrix(r, c):
        return [
            [CyclotomicNumber(conductor, draw(_small_tuples(conductor, True))) for _ in range(c)]
            for _ in range(r)
        ]

    left, right = matrix(rows, inner), matrix(inner, cols)
    return [
        [sum((left[i][k] * right[k][j] for k in range(inner)), CyclotomicNumber.zero(conductor))
         for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices())
def test_exact_rank_matches_fraction_oracle(mat):
    # over Q the regular representation of a Q(zeta) matrix of rank r has
    # rank r * phi
    phi = len(mat[0][0].coeffs)
    blocks = [[_regular_representation(x) for x in row] for row in mat]
    flat = [
        [entry for block in block_row for entry in block[i]]
        for block_row in blocks
        for i in range(phi)
    ]
    q_rank = len(_oracles.rref_fraction(flat)[1])
    assert q_rank % phi == 0
    assert _exact_rank(mat) == q_rank // phi


KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)


def _kernel_args(conductor, amul, a, bmul, b):
    return amul, *a, bmul, *b, cyclotomic.zeta_ring(conductor)


def _step(kernel, amul, a, bmul, b, context):
    """Apply an in-place kernel to A = (aidx, aco) as the echelon holds it,
    a dict and a heap of its keys; (idx, co) sorted, its return value, and
    the heap."""
    acc, heap = dict(zip(*a)), list(a[0])
    result = kernel(amul, acc, heap, bmul, *b, context)
    assert all(k in heap for k in acc)
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
    idx = sorted(acc)
    return idx, [acc[k] for k in idx], result


def _exact_divisor(amul, bmul):
    """The d of ``combine_exact``: amul when it is a rational integer that
    divides bmul, else 1."""
    a = amul[0]
    return a if not any(amul[1:]) and not any(x % a for x in bmul) else 1


def _check_exact_step(conductor, amul, a, bmul, b):
    """The step leaves (amul*A - bmul*B) / d, d as in ``_exact_divisor``,
    and reports d < 0."""
    args = _kernel_args(conductor, amul, a, bmul, b)
    idx, co, negated = _step(combine_exact, amul, a, bmul, b, args[-1])
    d = _exact_divisor(amul, bmul)
    assert negated == (d < 0)
    assert all(any(c) for c in co)
    assert (idx, [tuple(d * x for x in c) for c in co]) == _oracles.merge_exact(*args), args


def _sparse_pair(draw, nonzero):
    """Sparse vectors A, B over the keys 0..15 with entries drawn from
    ``nonzero``; B copies some of A's entries, so that entries cancel."""

    def keys():
        return sorted(draw(st.sets(st.integers(0, 15), max_size=10)))

    aidx, bidx = keys(), keys()
    aco = [draw(nonzero) for _ in aidx]
    a_at = dict(zip(aidx, aco))
    bco = [a_at[k] if k in a_at and draw(st.booleans()) else draw(nonzero) for k in bidx]
    return (aidx, aco), (bidx, bco)


@st.composite
def combine_cases(draw):
    """Zero-free sparse vectors A, B over Z[zeta] (``_sparse_pair``) and
    nonzero multipliers: 1, -1, other rational integers or any nonzero
    element.  bmul sometimes equals amul, so entries cancel."""
    conductor = draw(st.sampled_from(KERNEL_CONDUCTORS))
    phi = euler_phi(conductor)
    nonzero = _small_tuples(conductor)

    def multiplier():
        n = draw(st.sampled_from([1, -1, 2, -3, 7, None]))
        return draw(nonzero) if n is None else (n,) + (0,) * (phi - 1)

    a, b = _sparse_pair(draw, nonzero)
    amul = multiplier()
    bmul = amul if draw(st.booleans()) else multiplier()
    if draw(st.booleans()) and not any(amul[1:]):
        # a multiple of a rational amul, so that the step divides
        bmul = tuple(amul[0] * x for x in draw(nonzero))
    return conductor, amul, a, bmul, b


@settings(max_examples=400, deadline=None)
@given(combine_cases())
def test_combine_exact_matches_the_reference_kernel(case):
    _check_exact_step(*case)


EDGE_VECTORS = [
    (([], []), ([], [])),
    (([], []), ([0, 3], [(2,), (-1,)])),
    (([1, 4], [(3,), (5,)]), ([], [])),
    (([0, 2], [(1,), (4,)]), ([1, 5, 6], [(2,), (-2,), (7,)])),
    (([4, 5], [(1,), (4,)]), ([0, 1], [(2,), (-3,)])),
]


@pytest.mark.parametrize("conductor", KERNEL_CONDUCTORS)
def test_combine_exact_on_empty_and_disjoint_vectors(conductor):
    phi = euler_phi(conductor)

    def pad(co):
        return [c + (0,) * (phi - 1) for c in co]

    def mul(n, default):
        return default[:phi] if n is None else (n,) + (0,) * (phi - 1)

    for a, b in EDGE_VECTORS:
        a, b = (a[0], pad(a[1])), (b[0], pad(b[1]))
        for amul, bmul in [(1, 1), (-1, 6), (2, -1), (None, None)]:
            amul, bmul = mul(amul, (1, 2, 0, -1)), mul(bmul, (3, -1, 3, 1))
            _check_exact_step(conductor, amul, a, bmul, b)


@st.composite
def mod_combine_cases(draw):
    """``combine_cases`` over F_p: residues in [1, p), multipliers 1 or any
    nonzero residue."""
    p = draw(st.sampled_from([2, 3, 7, 101]))
    nonzero = st.integers(1, p - 1)
    a, b = _sparse_pair(draw, nonzero)
    amul = draw(st.sampled_from([1, None])) or draw(nonzero)
    bmul = amul if draw(st.booleans()) else draw(nonzero)
    return p, amul, a, bmul, b


@settings(max_examples=300, deadline=None)
@given(mod_combine_cases())
def test_combine_mod_matches_the_reference_kernel(case):
    p, amul, a, bmul, b = case
    idx, co, _ = _step(combine_mod, amul, a, bmul, b, p)
    assert (idx, co) == _oracles.combine_mod(amul, *a, bmul, *b, p)


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices(KERNEL_CONDUCTORS, size=6))
def test_echelon_is_the_same_under_the_reference_kernel(mat):
    conductor = mat[0][0].conductor
    new = ExactEchelon(conductor)
    old = _oracles.ReferenceEchelon("exact", cyclotomic.zeta_ring(conductor))
    for j in range(len(mat[0])):
        vector = echelon_vector((i, row[j]) for i, row in enumerate(mat))
        assert new.insert(*vector) == old.insert(*vector)
    assert sorted(new.pivots) == old.leads
    assert [new.pivots[lead] for lead in old.leads] == old.vectors


@st.composite
def echelon_scripts(draw):
    """A mode, its context, a number of key columns and a list of sparse
    vectors over them, each to be inserted or reduced with a tag.  A vector
    is random or a combination of two earlier ones, so reduces meet several
    pivots and cancel entries."""
    mode = draw(st.sampled_from(["exact", "modular"]))
    if mode == "exact":
        conductor = draw(st.sampled_from(KERNEL_CONDUCTORS))
        context = cyclotomic.zeta_ring(conductor)
        phi, red = context.phi, _oracles.reduction_rows(conductor)
        scalars = _small_tuples(conductor)

        def combine(x, y, cx, cy):
            return tuple(
                u + v
                for u, v in zip(_oracles._cyc_mul(cx, x, phi, red), _oracles._cyc_mul(cy, y, phi, red))
            )

        nonzero = any
    else:
        context = draw(st.sampled_from([2, 3, 7, 101]))
        scalars = st.integers(1, context - 1)

        def combine(x, y, cx, cy):
            return (cx * x + cy * y) % context

        nonzero = bool
    ncols = draw(st.integers(1, 10))
    vectors = []
    for _ in range(draw(st.integers(1, 14))):
        if len(vectors) >= 2 and draw(st.booleans()):
            (xi, xc), (yi, yc) = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            cx, cy = draw(scalars), draw(scalars)
            x, y = dict(zip(xi, xc)), dict(zip(yi, yc))
            zero = (0,) * phi if mode == "exact" else 0
            entries = {k: combine(x.get(k, zero), y.get(k, zero), cx, cy) for k in set(x) | set(y)}
            idx = sorted(k for k, c in entries.items() if nonzero(c))
            co = [entries[k] for k in idx]
        else:
            idx = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
            co = [draw(scalars) for _ in idx]
        vectors.append((idx, co))
    tagged = [draw(st.booleans()) for _ in vectors]
    return mode, context, ncols, list(zip(vectors, tagged))


@settings(max_examples=300, deadline=None)
@given(echelon_scripts())
def test_one_pass_reduce_matches_the_reference_echelon(script):
    """Inserts, and reduces tagged with a fresh column past the keys that
    are appended when their residual's lead is a key, as the symmetrizer
    does: the same leads and ranks, exact pivots and residuals identical,
    modular residuals and pivots equal up to a nonzero scalar."""
    mode, context, ncols, steps = script
    if mode == "exact":
        new, one = ExactEchelon(context.conductor), (1,) + (0,) * (context.phi - 1)
    else:
        new, one = ModularEchelon(context), 1
    old = _oracles.ReferenceEchelon(mode, context)

    def same(a, b):
        (aidx, aco), (bidx, bco) = a, b
        assert aidx == bidx
        if mode == "exact" or not aco:
            assert aco == bco
        else:
            scale = aco[0] * pow(bco[0], -1, context) % context
            assert aco == [c * scale % context for c in bco]

    for k, ((idx, co), tagged) in enumerate(steps):
        if tagged:
            vector = (idx + [ncols + k], co + [one])
            residual, old_residual = new.reduce(*vector), old.reduce(*vector)
            same(residual, old_residual)
            if residual[0][0] < ncols:
                new.append(*residual)
                old.append(*old_residual)
        else:
            assert new.insert(idx, co) == old.insert(idx, co)
        assert new.rank == old.rank
        assert sorted(new.pivots) == old.leads
        for lead, vector in zip(old.leads, old.vectors):
            same(new.pivots[lead], vector)


STEP_CASES = pytest.mark.parametrize(
    "kernel, echelon, vector",
    [
        ("combine_exact", lambda: ExactEchelon(5), ([1, 3], [(1, 2, 0, 0), (0, 0, 1, 0)])),
        ("combine_mod", lambda: ModularEchelon(11), ([1, 3], [4, 7])),
    ],
    ids=["exact", "modular"],
)


def _faulty_step_raises(kernel, echelon, vector, fault):
    """Insert the vector twice, the second time through a kernel that takes
    the right step and then ``fault(acc, heap, bmul, pidx)``: reduce must
    raise ArithmeticError after that one call."""
    right = getattr(backend, kernel)
    calls = 0

    def faulty(amul, acc, heap, bmul, pidx, pco, context):
        nonlocal calls
        calls += 1
        if calls == 100:
            raise RuntimeError("reduce repeated a faulty step")
        right(amul, acc, heap, bmul, pidx, pco, context)
        fault(acc, heap, bmul, pidx)

    ech = echelon()
    assert ech.insert(*vector)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend, kernel, faulty)
        with pytest.raises(ArithmeticError):
            ech.insert(*vector)
    assert calls == 1


@STEP_CASES
def test_a_step_that_keeps_the_lead_raises(kernel, echelon, vector):
    # a kernel that writes the lead back never cancels it; without the
    # progress check reduce would return it as the residual's lead
    def keep_lead(acc, heap, bmul, pidx):
        acc[pidx[0]] = bmul

    _faulty_step_raises(kernel, echelon, vector, keep_lead)


@STEP_CASES
def test_a_step_that_writes_below_the_lead_raises(kernel, echelon, vector):
    # a key below the lead would be met after the lead it should precede
    def write_below(acc, heap, bmul, pidx):
        acc[0] = bmul
        heapq.heappush(heap, 0)

    _faulty_step_raises(kernel, echelon, vector, write_below)
