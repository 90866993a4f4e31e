import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_group_element, random_reflection
from _oracles import CONJ_RELATIONS, LAMBDA_CASES, sample_conj, sample_lambda, theta

from fknichols import diagonal as dg
from fknichols import reflection_groups as rg
from fknichols import symmetrizer as sm
from fknichols.cyclotomic import CyclotomicNumber, RootOfUnity


def all_params(max_m=8, max_n=4):
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p:
                continue
            for n in range(1, max_n + 1):
                yield rg.GroupParams(m, p, n)


def test_reflection_counts_match_formula():
    for params in all_params():
        refs = rg.enumerate_reflections(params)
        assert len(refs) == rg.expected_reflection_count(params), params
        assert len(set(r.to_element(params) for r in refs)) == len(refs)


def test_reflection_census_orders():
    # n phi(d) reflections of order d for each divisor d > 1 of m/p,
    # plus the order-two transposition family
    params = rg.GroupParams(8, 2, 3)
    census = rg.reflection_census(params)
    from fknichols._numtheory import euler_phi

    expected = {2: 8 * 3 * 2 // 2}
    for d in (2, 4):
        expected[d] = expected.get(d, 0) + 3 * euler_phi(d)
    assert census == expected


def test_named_reflections_g212():
    refs = rg.enumerate_reflections(rg.GroupParams(2, 1, 2))
    assert [repr(r) for r in refs] == ["t^0(12)", "t^1(12)", "s_1^1", "s_2^1"]


def test_group_order_by_enumeration():
    for m, p, n in [(2, 1, 2), (2, 2, 2), (3, 3, 2), (4, 2, 2), (2, 2, 3), (3, 1, 2)]:
        params = rg.GroupParams(m, p, n)
        count = 0
        for nu in itertools.product(range(m), repeat=n):
            if sum(nu) % p:
                continue
            count += math.factorial(n)
        assert count == params.group_order()


def test_group_axioms_random(rng):
    for m, p, n in [(4, 2, 3), (6, 3, 2), (5, 5, 3), (8, 4, 4)]:
        params = rg.GroupParams(m, p, n)
        e = params.identity()
        for _ in range(30):
            g = random_group_element(params, rng)
            h = random_group_element(params, rng)
            k = random_group_element(params, rng)
            assert (g * h) * k == g * (h * k)
            assert g * e == g and e * g == g
            assert g * g.inverse() == e and g.inverse() * g == e


def test_reflection_elements_have_right_order(rng):
    for _ in range(50):
        params = rg.GroupParams(
            rng.choice([2, 3, 4, 6, 8]), 1, rng.randrange(1, 4)
        )
        s = random_reflection(params, rng)
        el = s.to_element(params)
        power = el
        order = 1
        while not power.is_identity:
            power = power * el
            order += 1
        assert order == s.order(params.m)


def test_classify_element_round_trip(rng):
    for _ in range(100):
        params = rg.GroupParams(rng.choice([2, 4, 6]), 2, rng.randrange(2, 5))
        s = random_reflection(params, rng)
        assert rg.classify_element(s.to_element(params)) == s


@pytest.mark.parametrize("name", CONJ_RELATIONS)
def test_conjugation_relations(name, rng):
    for _ in range(60):
        params, g, s, expected = sample_conj(name, rng)
        result = rg.conjugate_reflection(params, g.to_element(params), s)
        assert result == expected, (name, params, g, s)


@pytest.mark.parametrize("name", LAMBDA_CASES)
def test_lambda_table(name, rng):
    for _ in range(60):
        params, g, s, expected = sample_lambda(name, rng)
        value = rg.lambda_scalar(params, g.to_element(params), s)
        assert value == expected, (name, params, g, s, value, expected)


def test_lambda_cocycle_law(rng):
    for m, p, n in [(2, 1, 2), (4, 2, 2), (6, 3, 3), (3, 3, 3)]:
        params = rg.GroupParams(m, p, n)
        for _ in range(40):
            g = random_group_element(params, rng)
            h = random_group_element(params, rng)
            s = random_reflection(params, rng)
            hsh = rg.conjugate_reflection(params, h, s)
            left = rg.lambda_scalar(params, g * h, s)
            right = rg.lambda_scalar(params, g, hsh) * rg.lambda_scalar(params, h, s)
            assert left == right


def test_yd_braiding_matches_coroot_action():
    # every entry of the closed-form braiding against group products and
    # the coroot action
    groups = list(all_params(max_m=6, max_n=3))
    groups.append(rg.GroupParams(4, 1, 5))
    for params in groups:
        module = rg.yd_module(params)
        assert module.basis == tuple(rg.enumerate_reflections(params))
        L = params.scalar_order
        for a, s in enumerate(module.basis):
            g = s.to_element(params)
            for b, t in enumerate(module.basis):
                target = module.basis[module.braid_targets[a][b]]
                assert target == rg.conjugate_reflection(params, g, t), (params, s, t)
                lam = rg.lambda_scalar(params, g, t)
                assert module.braid_exponents[a][b] == lam.rescale(L).exponent, (
                    params, s, t
                )


@st.composite
def small_groups(draw):
    """G(m,p,n) with m <= 6, p | m and n <= 3, and at least one reflection."""
    m = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.sampled_from([p for p in range(1, m + 1) if m % p == 0]))
    n = draw(st.integers(min_value=1, max_value=3))
    params = rg.GroupParams(m, p, n)
    assume(rg.expected_reflection_count(params) > 0)
    return params


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_yd_space_satisfies_yang_baxter(params):
    module = rg.yd_module(params)
    assert sm.yang_baxter_holds(sm.space_from_yd(module))
    assert len(rg.decompose_yd(module)) == rg.expected_summand_count(params)


def test_root_coroot_reproduces_reflection_action(rng):
    for _ in range(60):
        params = rg.GroupParams(rng.choice([2, 3, 4, 6]), 1, rng.randrange(2, 4))
        s = random_reflection(params, rng)
        pair = rg.root_coroot(params, s)
        L = params.scalar_order
        el = s.to_element(params)
        root = dict(pair.root)
        coroot = dict(pair.coroot)
        for i in range(1, params.n + 1):
            # s x_i directly
            exp, target = el.apply_index(i)
            direct = {target: CyclotomicNumber.zeta_power(L, (L // params.m) * exp)}
            # x_i - (coroot, x_i) root
            formula = {i: CyclotomicNumber.one(L)}
            pairing = coroot.get(i)
            if pairing is not None:
                for idx, c in root.items():
                    formula[idx] = formula.get(idx, CyclotomicNumber.zero(L)) - pairing * c
            formula = {k: v for k, v in formula.items() if not v.is_zero}
            assert direct == formula, (params, s, i)


def test_root_coroot_examples():
    params = rg.GroupParams(4, 2, 2)
    pair = rg.root_coroot(params, rg.Reflection.diagonal(1, 2))
    assert dict(pair.coroot) == {1: CyclotomicNumber.one(4)}
    assert dict(pair.root) == {1: CyclotomicNumber.from_rational(4, 2)}  # 1 - theta^2 = 2
    pair = rg.root_coroot(params, rg.Reflection.transposition(1, 2, 0))
    one = CyclotomicNumber.one(4)
    assert dict(pair.coroot) == {1: one, 2: -one}
    assert dict(pair.root) == {1: one, 2: -one}


def test_dim_formula_all_small_groups():
    for params in all_params():
        assert len(rg.enumerate_reflections(params)) == rg.expected_reflection_count(
            params
        )


def test_summand_count_matches_rank_formula(yd_cache):
    for params in all_params(max_m=6, max_n=3):
        if rg.expected_reflection_count(params) == 0:
            continue
        module = yd_cache(params.m, params.p, params.n)
        summands = rg.decompose_yd(module)
        assert len(summands) == rg.expected_summand_count(params), params
        assert sum(s.dim for s in summands) == module.dim
        supports = [set(s.indices) for s in summands]
        assert set().union(*supports) == set(range(module.dim))


def test_summand_count_of_rank_one_groups():
    # G(m,p,1) is cyclic: no transpositions, one diagonal family per k
    for m in range(2, 9):
        for p in range(1, m):
            if m % p == 0:
                params = rg.GroupParams(m, p, 1)
                module = rg.yd_module(params)
                assert len(rg.decompose_yd(module)) == m // p - 1, params
                assert rg.expected_summand_count(params) == m // p - 1, params


def test_decompose_g422_supports(yd_cache):
    module = yd_cache(4, 2, 2)
    summands = {s.label: s for s in rg.decompose_yd(module)}
    assert set(summands) == {"Veven", "Vodd", "V2"}
    assert {repr(r) for r in summands["Veven"].reflections} == {"t^0(12)", "t^2(12)"}
    assert {repr(r) for r in summands["Vodd"].reflections} == {"t^1(12)", "t^3(12)"}
    assert {repr(r) for r in summands["V2"].reflections} == {"s_1^2", "s_2^2"}
    assert all(s.dim == 2 for s in summands.values())


def test_decompose_structure_n3(yd_cache):
    from fknichols._numtheory import divisors, euler_phi

    for m, p in [(4, 2), (6, 2), (6, 3)]:
        params = rg.GroupParams(m, p, 3)
        summands = rg.decompose_yd(yd_cache(m, p, 3))
        big = [s for s in summands if s.label == "V0"]
        assert len(big) == 1 and big[0].dim == m * 3 * 2 // 2
        small = [s for s in summands if s.label != "V0"]
        expected = sum(
            euler_phi(d) for d in divisors(m // p) if d > 1
        )
        assert len(small) == expected
        assert all(s.dim == 3 for s in small)


def test_decompose_symmetric_group(yd_cache):
    summands = rg.decompose_yd(yd_cache(1, 1, 4))
    assert len(summands) == 1 and summands[0].dim == 6


def test_adjoint_link_cases(yd_cache):
    m222 = yd_cache(2, 2, 2)
    s = {x.label: x for x in rg.decompose_yd(m222)}
    assert not rg.adjoint_link(m222, s["Vodd"], s["Veven"])
    assert not rg.adjoint_link(m222, s["Veven"], s["Vodd"])
    m442 = yd_cache(4, 4, 2)
    s = {x.label: x for x in rg.decompose_yd(m442)}
    assert rg.adjoint_link(m442, s["Vodd"], s["Veven"])
    m212 = yd_cache(2, 1, 2)
    s = {x.label: x for x in rg.decompose_yd(m212)}
    assert rg.adjoint_link(m212, s["V1"], s["V0"])


def test_braid_indecomposable_iff_not_g222(yd_cache):
    for m in range(1, 7):
        for p in [p for p in range(1, m + 1) if m % p == 0]:
            for n in (2, 3):
                params = rg.GroupParams(m, p, n)
                if rg.expected_reflection_count(params) == 0:
                    continue
                module = yd_cache(m, p, n)
                if len(rg.decompose_yd(module)) < 2:
                    assert rg.is_braid_indecomposable(module)
                    continue
                expected = (m, p, n) != (2, 2, 2)
                assert rg.is_braid_indecomposable(module) == expected, (m, p, n)


def test_yang_baxter_on_named_groups(yd_cache):
    for m, p, n in [(2, 1, 2), (3, 3, 2), (4, 2, 2), (2, 2, 3)]:
        space = sm.space_from_yd(yd_cache(m, p, n))
        assert sm.yang_baxter_holds(space), (m, p, n)


def test_rank_one_bridge_matches_cyclic_braiding(yd_cache):
    for m in range(2, 9):
        for q in (1, 2):
            module = yd_cache(m * q, q, 1)
            exponents = rg.cyclic_braiding_exponents(module)
            assert exponents == dg.cyclic_braiding(m, range(1, m)).exponents, (m, q)


def test_empty_module_flagged():
    module = rg.yd_module(rg.GroupParams(1, 1, 1))
    assert module.empty and module.dim == 0


def test_b2_dihedral_bijection(yd_cache):
    b2p, i24p, anchors = rg.b2_dihedral_anchors()
    src = yd_cache(*([b2p.m, b2p.p, b2p.n]))
    dst = yd_cache(*([i24p.m, i24p.p, i24p.n]))
    mapping = rg.extend_orbit_bijection(src, dst, anchors)
    assert len(mapping) == 4
    # the forced completion follows the group isomorphism B2 ~ Dih4
    assert mapping[src.basis.index(rg.Reflection.transposition(1, 2, 1))] == (
        dst.basis.index(rg.Reflection.transposition(1, 2, 2))
    )
    # scalars match only after a diagonal rescaling (documented); the twist exists
    twist = rg.bijection_braiding_twist(src, dst, mapping)
    assert twist is not None
    assert twist[0].is_one
    assert not rg.bijection_carries_braiding(src, dst, mapping)
    # and the braiding is carried exactly once the twist is applied: check
    # lambda_src(a,b) * c_target == lambda_dst(...) * c_b for all pairs
    for a in range(src.dim):
        for b in range(src.dim):
            t, _, e = src.braid(a, b)
            t2, _, e2 = dst.braid(mapping[a], mapping[b])
            assert mapping[t] == t2
            left = RootOfUnity(src.scalar_order, e) * twist[t]
            right = RootOfUnity(dst.scalar_order, e2) * twist[b]
            assert left == right


def test_group_info_json(yd_cache):
    info = rg.group_info_json(rg.GroupParams(4, 2, 2))
    assert info["order"] == 16 and info["reflections"] == 6
    data = rg.decompose_json(yd_cache(4, 2, 2))
    assert data["braidIndecomposable"] is True
    assert [s["dim"] for s in data["summands"]] == [2, 2, 2]
