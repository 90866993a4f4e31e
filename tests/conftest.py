import random

import pytest

from fknichols import cyclic_fk, reflection_groups


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def sweep200():
    """Shared full sweep to n = 200 (criteria 1 and 2, invariants)."""
    return cyclic_fk.sweep_groupoid_existence(200, jobs=2)


@pytest.fixture(scope="session")
def yd_cache():
    """Session cache of YD modules, shared by the tests that reuse a group."""
    cache = {}

    def get(m, p, n):
        key = (m, p, n)
        if key not in cache:
            cache[key] = reflection_groups.yd_module(
                reflection_groups.GroupParams(m, p, n)
            )
        return cache[key]

    return get


def random_group_element(params, rand):
    """Uniform-ish random element of G(m,p,n) for property tests."""
    while True:
        nu = [rand.randrange(params.m) for _ in range(params.n)]
        if sum(nu) % params.p == 0:
            perm = list(range(params.n))
            rand.shuffle(perm)
            return reflection_groups.GroupElement(params.m, tuple(nu), tuple(perm))


def random_reflection(params, rand):
    refs = reflection_groups.enumerate_reflections(params)
    return rand.choice(refs)


def echelon_vector(entries):
    """(idx, co) for ``ExactEchelon.insert`` from (position, CyclotomicNumber)
    pairs: the nonzero entries as integer power-basis tuples."""
    entries = [(i, x) for i, x in entries if not x.is_zero]
    return [i for i, _ in entries], [x.coeffs for _, x in entries]
