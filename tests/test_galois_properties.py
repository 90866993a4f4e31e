"""Property tests for the invariants the subsystem survey relies on.

The survey explores one member of each class and runs the root closure once
per class.  That is only sound if Galois relabelling I -> kI (k a unit mod n)
keeps the exploration, the positive roots and the PBW dimension, and if
Weyl-linked subsets share finiteness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fknichols import cyclic_fk as cf
from fknichols import diagonal as dg
from fknichols._numtheory import units

MAX_ROOTS = 400
MAX_OBJECTS = 5_000


@st.composite
def relabelled_subsets(draw):
    """(n, subset, k): an ordered subset of 1..n-1 of rank 2 or 3, and a unit."""
    n = draw(st.integers(min_value=3, max_value=30))
    rank = draw(st.integers(min_value=2, max_value=min(3, n - 1)))
    subset = tuple(
        draw(st.lists(st.integers(1, n - 1), min_size=rank, max_size=rank, unique=True))
    )
    k = draw(st.sampled_from(units(n)))
    return n, subset, k


def _outcome(fn, *args):
    """The value of fn, or the name of the error it raises."""
    try:
        return fn(*args)
    except (dg.RootSystemUndefinedError, dg.UndefinedDimensionError) as exc:
        return type(exc).__name__


def _root_count(braiding):
    roots = dg.enumerate_positive_roots(braiding, MAX_ROOTS)
    return roots if roots is dg.BOUND_EXCEEDED else len(roots)


def _pbw(braiding):
    return dg.pbw_dimension(braiding, MAX_ROOTS)


def _finite(n, subset):
    exploration = dg.explore_groupoid(dg.cyclic_braiding(n, subset), MAX_OBJECTS)
    return cf._classify_subset(exploration, MAX_ROOTS)[0]


@settings(max_examples=150, deadline=None)
@given(relabelled_subsets())
def test_galois_relabelling_preserves_exploration_roots_and_dimension(case):
    n, subset, k = case
    image = tuple(k * a % n for a in subset)
    # the ordered image and the sorted one, which is how the survey lists it
    for relabelled in (image, tuple(sorted(image))):
        a = dg.cyclic_braiding(n, subset)
        b = dg.cyclic_braiding(n, relabelled)
        ea = dg.explore_groupoid(a, MAX_OBJECTS)
        eb = dg.explore_groupoid(b, MAX_OBJECTS)
        assert (ea.status == dg.EXISTS) == (eb.status == dg.EXISTS)
        if ea.status == dg.EXISTS:
            assert len(ea.objects) == len(eb.objects)
        assert _outcome(_root_count, a) == _outcome(_root_count, b)
        assert _outcome(_pbw, a) == _outcome(_pbw, b)
    # relabelling in place maps every exploration step onto its image
    ea = dg.explore_groupoid(dg.cyclic_braiding(n, subset), MAX_OBJECTS)
    eb = dg.explore_groupoid(dg.cyclic_braiding(n, image), MAX_OBJECTS)
    assert (ea.status, len(ea.objects), ea.morphism_count, ea.witness) == (
        eb.status,
        len(eb.objects),
        eb.morphism_count,
        eb.witness,
    )
    assert eb.transitions == ea.transitions
    assert [labels for labels, _ in eb.objects] == [
        tuple(k * v % n for v in labels) for labels, _ in ea.objects
    ]


@settings(max_examples=150, deadline=None)
@given(relabelled_subsets())
def test_weyl_linked_subsets_share_finiteness(case):
    n, subset, _ = case
    subset = tuple(sorted(subset))
    exploration = dg.explore_groupoid(dg.cyclic_braiding(n, subset), MAX_OBJECTS)
    finite = cf._classify_subset(exploration, MAX_ROOTS)[0]
    linked = cf._linked_subsets(n, exploration.objects)
    if (subset[0] + subset[1]) % n or len(subset) > 2:
        assert subset in linked  # the start object is the subset's own
    for other in linked:
        assert _finite(n, other) == finite
