"""Independent oracles for the tests.

* Closed forms for the G(m,p,n) conjugation relations and the lambda table,
  used to cross-check the computed conjugation and cocycle.  Each sampler
  draws a random valid instance and returns what the closed form predicts;
  the tests compare against conjugate_reflection / lambda_scalar.
* A rank-2 root-chain oracle for the cyclic braidings, in integer arithmetic
  on exponents mod n, used to cross-check the subsystem survey.
* A plain root closure of an explored groupoid, with no bound per object
  and its own reflection formula, used to test the rank-3 root-count bound
  of ``diagonal._root_closure``.
* The subsystem survey of one n over all subsets of 1..n-1, as it ran
  before it was assembled from the primitive classes of the divisors of n,
  ``survey_per_n``; the tests compare ``enumerate_finite_subsystems`` with
  it record by record.
* The first failing prefix of the sweep's heuristic words s_j s_i s_p on
  the full cyclic braiding, found by reflecting whole diagrams, used to
  cross-check the sweep heuristic; its failure test ``_failing_vertex`` also
  checks the package's ``failure_vertex`` kernel and the sweep's witnesses.
* Cartan type by its definition, with each Cartan entry found by search,
  used to cross-check ``diagonal.is_cartan_type``.
* The Z[zeta] product as a convolution reduced mod the cyclotomic
  polynomial, ``_cyc_mul``, the package's product before it went through
  the matrix of a fixed factor.  The tests compare ``_kernels_py._cyc_mul``,
  ``CyclotomicNumber`` products and ``ZetaRing.norm_cofactor`` against it.
  Its reduction rows and the powers of zeta come from ``zeta_power``, a long
  division by the cyclotomic polynomial, not from the package's table.
* The sparse combination kernels as they were before the echelon reduced
  in one pass, ``merge_exact`` (and ``combine_exact``, the same with its
  content stripped) and ``combine_mod``: each merges amul*A - bmul*B into
  new lists, and in exact mode every entry goes through the convolution
  ``_cyc_mul`` and is tested for zero.  The tests compare the in-place
  steps ``combine_exact`` and ``combine_mod`` of ``_kernels_py`` against
  them.
* ``ReferenceEchelon``, the echelon whose reduce rebuilt the vector at
  every pivot met, over those kernels.  The tests compare ``_linalg``'s
  echelons against it in both modes, reduce by reduce.
* Dense reduced row echelon form over Q, the oracle for the echelon ranks
  of ``_linalg`` and for the symmetrizer's ranks.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import gcd, prod

from fknichols import cyclic_fk as cf
from fknichols import diagonal as dg
from fknichols._kernels_py import _content
from fknichols._numtheory import euler_phi, units
from fknichols.cyclotomic import RootOfUnity, cyclotomic_polynomial
from fknichols.reflection_groups import GroupParams, Reflection


def theta(params: GroupParams, e: int, sign: int = 1) -> RootOfUnity:
    """(+-) theta^e as a root of unity at order L = lcm(2, m)."""
    L = params.scalar_order
    exp = (L // params.m) * e + (L // 2 if sign < 0 else 0)
    return RootOfUnity(L, exp)


def _params(rand, min_n=2, need_diag=False):
    while True:
        m = rand.choice([2, 3, 4, 5, 6, 8])
        ps = [p for p in range(1, m + 1) if m % p == 0]
        if need_diag:
            ps = [p for p in ps if m // p >= 2]
        if not ps:
            continue
        p = rand.choice(ps)
        n = rand.randrange(min_n, 6)
        return GroupParams(m, p, n)


def _diag_exp(params, rand) -> int:
    """Nonzero multiple of p mod m."""
    choices = list(range(params.p, params.m, params.p))
    return rand.choice(choices)


def _distinct(rand, n, count):
    import random as _r

    vals = rand.sample(range(1, n + 1), count)
    return vals


def _t(i, j, k):
    return Reflection.transposition(i, j, k)


def _s(i, k):
    return Reflection.diagonal(i, k)


def sample_conj(name: str, rand):
    """(params, conjugator, target, expected) for the named relation."""
    if name == "conj1":
        params = _params(rand, need_diag=True)
        i, j = rand.randrange(1, params.n + 1), rand.randrange(1, params.n + 1)
        l, k = _diag_exp(params, rand), _diag_exp(params, rand)
        return params, _s(i, l), _s(j, k), _s(j, k)
    if name == "conj2":
        params = _params(rand, min_n=3, need_diag=True)
        t, i, j = _distinct(rand, params.n, 3)
        i, j = sorted((i, j))
        l, k = _diag_exp(params, rand), rand.randrange(params.m)
        return params, _s(t, l), _t(i, j, k), _t(i, j, k)
    if name in ("conj3", "conj4"):
        params = _params(rand, need_diag=True)
        i, j = sorted(_distinct(rand, params.n, 2))
        l, k = _diag_exp(params, rand), rand.randrange(params.m)
        conj = _s(i, l) if name == "conj3" else _s(j, l)
        shift = -l if name == "conj3" else l
        return params, conj, _t(i, j, k), _t(i, j, (k + shift) % params.m)
    if name == "conj5":
        params = _params(rand)
        i, j = sorted(_distinct(rand, params.n, 2))
        k, l = rand.randrange(params.m), rand.randrange(params.m)
        return params, _t(i, j, k), _t(i, j, l), _t(i, j, (2 * k - l) % params.m)
    if name == "conj6":
        params = _params(rand, min_n=4)
        i, j, a, b = _distinct(rand, params.n, 4)
        i, j = sorted((i, j))
        a, b = sorted((a, b))
        k, l = rand.randrange(params.m), rand.randrange(params.m)
        return params, _t(i, j, k), _t(a, b, l), _t(a, b, l)
    if name in ("conj7", "conj8", "conj9", "conj10", "conj11", "conj12"):
        params = _params(rand, min_n=3)
        x, y, z = sorted(_distinct(rand, params.n, 3))
        k, l = rand.randrange(params.m), rand.randrange(params.m)
        m = params.m
        if name == "conj7":  # i<j<t: t^k(ij) t^l(it) -> t^(l-k)(jt)
            i, j, t = x, y, z
            return params, _t(i, j, k), _t(i, t, l), _t(j, t, (l - k) % m)
        if name == "conj8":  # i<t<j: t^k(ij) t^l(it) -> t^(k-l)(tj)
            i, t, j = x, y, z
            return params, _t(i, j, k), _t(i, t, l), _t(t, j, (k - l) % m)
        if name == "conj9":  # t<i<j: t^k(ij) t^l(ti) -> t^(k+l)(tj)
            t, i, j = x, y, z
            return params, _t(i, j, k), _t(t, i, l), _t(t, j, (k + l) % m)
        if name == "conj10":  # i<t<j: t^k(ij) t^l(tj) -> t^(k-l)(it)
            i, t, j = x, y, z
            return params, _t(i, j, k), _t(t, j, l), _t(i, t, (k - l) % m)
        if name == "conj11":  # t<i<j: t^k(ij) t^l(tj) -> t^(l-k)(ti)
            t, i, j = x, y, z
            return params, _t(i, j, k), _t(t, j, l), _t(t, i, (l - k) % m)
        # conj12: i<j<t: t^k(ij) t^l(jt) -> t^(k+l)(it)
        i, j, t = x, y, z
        return params, _t(i, j, k), _t(j, t, l), _t(i, t, (k + l) % m)
    if name == "conj13":
        params = _params(rand, min_n=3, need_diag=True)
        t, i, j = _distinct(rand, params.n, 3)
        i, j = sorted((i, j))
        k, l = rand.randrange(params.m), _diag_exp(params, rand)
        return params, _t(i, j, k), _s(t, l), _s(t, l)
    if name in ("conj14", "conj15"):
        params = _params(rand, need_diag=True)
        i, j = sorted(_distinct(rand, params.n, 2))
        k, l = rand.randrange(params.m), _diag_exp(params, rand)
        src, dst = (i, j) if name == "conj14" else (j, i)
        return params, _t(i, j, k), _s(src, l), _s(dst, l)
    raise KeyError(name)


CONJ_RELATIONS = tuple(f"conj{i}" for i in range(1, 16))


def sample_lambda(name: str, rand):
    """(params, conjugating reflection, target reflection, expected scalar)."""
    if name in ("lam1a", "lam1b"):
        params = _params(rand, need_diag=True, min_n=2 if name == "lam1a" else 2)
        l, k = _diag_exp(params, rand), _diag_exp(params, rand)
        if name == "lam1a":
            i = rand.randrange(1, params.n + 1)
            return params, _s(i, l), _s(i, k), theta(params, -l)
        if params.n < 2:
            raise ValueError
        i, j = _distinct(rand, params.n, 2)
        return params, _s(i, l), _s(j, k), theta(params, 0)
    if name in ("lam2a", "lam2b", "lam2c"):
        min_n = 3 if name == "lam2b" else 2
        params = _params(rand, min_n=min_n, need_diag=True)
        if name == "lam2b":
            t, i, j = _distinct(rand, params.n, 3)
            i, j = sorted((i, j))
        else:
            i, j = sorted(_distinct(rand, params.n, 2))
            t = i if name == "lam2a" else j
        l, k = _diag_exp(params, rand), rand.randrange(params.m)
        expected = theta(params, -l) if name == "lam2a" else theta(params, 0)
        return params, _s(t, l), _t(i, j, k), expected
    if name in ("lam3a", "lam3b", "lam3c"):
        min_n = 3 if name == "lam3a" else 2
        params = _params(rand, min_n=min_n, need_diag=True)
        if name == "lam3a":
            t, i, j = _distinct(rand, params.n, 3)
            i, j = sorted((i, j))
        else:
            i, j = sorted(_distinct(rand, params.n, 2))
            t = i if name == "lam3b" else j
        k, l = rand.randrange(params.m), _diag_exp(params, rand)
        expected = {
            "lam3a": theta(params, 0),
            "lam3b": theta(params, -k),
            "lam3c": theta(params, k),
        }[name]
        return params, _t(i, j, k), _s(t, l), expected
    if name in ("lam4a", "lam4b", "lam5", "lam6a", "lam6b", "lam7"):
        params = _params(rand, min_n=3)
        x, y, z = sorted(_distinct(rand, params.n, 3))
        k, l = rand.randrange(params.m), rand.randrange(params.m)
        if name == "lam4a":  # j < t
            i, j, t = x, y, z
            return params, _t(i, j, k), _t(i, t, l), theta(params, -k)
        if name == "lam4b":  # j > t
            i, t, j = x, y, z
            return params, _t(i, j, k), _t(i, t, l), theta(params, -l, sign=-1)
        if name == "lam5":
            t, i, j = x, y, z
            return params, _t(i, j, k), _t(t, i, l), theta(params, 0)
        if name == "lam6a":  # i < t
            i, t, j = x, y, z
            return params, _t(i, j, k), _t(t, j, l), theta(params, k - l, sign=-1)
        if name == "lam6b":  # i > t
            t, i, j = x, y, z
            return params, _t(i, j, k), _t(t, j, l), theta(params, 0)
        i, j, t = x, y, z  # lam7
        return params, _t(i, j, k), _t(j, t, l), theta(params, k)
    if name == "lam8":
        params = _params(rand)
        i, j = sorted(_distinct(rand, params.n, 2))
        k, l = rand.randrange(params.m), rand.randrange(params.m)
        return params, _t(i, j, k), _t(i, j, l), theta(params, k - l, sign=-1)
    if name == "lam9":
        params = _params(rand, min_n=4)
        i, j, a, b = _distinct(rand, params.n, 4)
        i, j = sorted((i, j))
        a, b = sorted((a, b))
        k, l = rand.randrange(params.m), rand.randrange(params.m)
        return params, _t(i, j, k), _t(a, b, l), theta(params, 0)
    raise KeyError(name)


LAMBDA_CASES = (
    "lam1a",
    "lam1b",
    "lam2a",
    "lam2b",
    "lam2c",
    "lam3a",
    "lam3b",
    "lam3c",
    "lam4a",
    "lam4b",
    "lam5",
    "lam6a",
    "lam6b",
    "lam7",
    "lam8",
    "lam9",
)


# ---------------------------------------------------------------------------
# Rank-2 root chains of cyclic braidings.  Only integers mod n are used here,
# nothing from fknichols: q = zeta_n^e is represented by its exponent e.


def _cartan_m(n: int, q: int, r: int) -> int | None:
    """Least m >= 0 with q^m r = 1 or (m+1)_q = 0 (so a_ij = -m), or None
    when there is none.  (m+1)_q = 0 exactly when q != 1 and q^(m+1) = 1."""
    for m in range(n):
        if (m * q + r) % n == 0 or (q % n and (m + 1) * q % n == 0):
            return m
    return None


def _reflect_rank2(n: int, obj, w, i: int):
    """Reflect the object (q11, q12 q21, q22) at vertex i (0 or 1) and
    compose w (the images of alpha_1, alpha_2) with s_i on the right;
    None when the Cartan entry is undefined."""
    x, r, z = obj
    q, p = (x, z) if i == 0 else (z, x)
    m = _cartan_m(n, q, r)
    if m is None:
        return None
    p = (p + m * r + m * m * q) % n  # q'_jj = q_jj r^m q_ii^(m^2)
    r = (-r - 2 * m * q) % n  # r' = r^-1 q_ii^(-2m)
    (u1, u2), (v1, v2) = w[i], w[1 - i]
    wi, wj = (-u1, -u2), (v1 + m * u1, v2 + m * u2)
    return ((q, r, p), (wi, wj)) if i == 0 else ((p, r, q), (wj, wi))


def rank2_root_system(n: int, a: int, b: int, max_roots: int = 64):
    """(positive roots, dimension) of the cyclic braiding q_jk = zeta_n^(I[j])
    on the labels I = (a, b), or None when its root system is infinite.

    The start object is (q11, q12 q21, q22) = (a, a+b, b).  The chain applies
    s1, s2, s1, ... and composes their 2x2 maps; its k-th root is
    s1 s2 ... (k-1 factors) applied to alpha_1 or alpha_2, alternately
    (Cuntz-Heckenberger, Weyl groupoids of rank two and continued fractions,
    Algebra Number Theory 3, 2009).  The root system is finite exactly when
    the chain reaches alpha_2 with every root on the way non-negative; the
    N roots so found are the positive roots.  As a consistency check the
    chain is then run on to 2N reflections, which must bring back the start
    object and the identity map.  max_roots only stops infinite chains.

    The root beta has label zeta^((a b1 + b b2)(b1 + b2)); the dimension is
    the product of the orders of the labels of the positive roots.
    """
    start = (a % n, (a + b) % n, b % n)
    identity = ((1, 0), (0, 1))
    obj, w, roots, done = start, identity, [], False
    k = 0
    while not done or k < 2 * len(roots):
        i = k % 2
        if not done:
            if min(w[i]) < 0 or k == max_roots:
                return None
            roots.append(w[i])
            done = w[i] == (0, 1)
        step = _reflect_rank2(n, obj, w, i)
        if step is None:
            return None
        obj, w = step
        k += 1
    if (obj, w) != (start, identity):
        return None
    dimension = 1
    for b1, b2 in roots:
        dimension *= n // gcd(n, (a * b1 + b * b2) * (b1 + b2))
    return tuple(roots), dimension


# ---------------------------------------------------------------------------
# Root closure of an explored groupoid.  Only the exploration's transition
# table and m-rows are read; the reflection formula is written out here.


def root_closure(exploration, max_roots: int):
    """Roots at the start object of an existing groupoid, or None once more
    than max_roots roots are found over all objects.

    The Cartan matrix at an object has a_ii = 2 and a_ij = -m_ij for j != i,
    with m_ij read from the m-row at vertex i.  The reflection at vertex i
    sends alpha at that object to alpha - (sum_j a_ij alpha_j) e_i at the
    object across vertex i.  Every object starts with its simple roots, and
    reflections are applied until no object gains a root.
    """
    moves = exploration.transitions
    r = len(moves[0])
    cartans = [
        [[2 if j == i else -m[j] for j in range(r)] for i, m in enumerate(rows)]
        for rows in exploration.mrows
    ]
    found = [set() for _ in moves]
    stack = []
    for s in range(len(moves)):
        for i in range(r):
            simple = tuple(int(k == i) for k in range(r))
            found[s].add(simple)
            stack.append((s, simple))
    count = len(stack)
    while stack:
        s, alpha = stack.pop()
        for i in range(r):
            image = list(alpha)
            image[i] -= sum(a * x for a, x in zip(cartans[s][i], alpha))
            image = tuple(image)
            target = moves[s][i]
            if image not in found[target]:
                count += 1
                if count > max_roots:
                    return None
                found[target].add(image)
                stack.append((target, image))
    return found[0]


# ---------------------------------------------------------------------------
# The subsystem survey of one n, as it ran before it was assembled from the
# primitive classes of the divisors of n: every subset of 1..n-1, whatever
# its gcd with n, is grouped, explored and closed at n itself.


def survey_per_n(n: int, max_rank: int, include_infinite: bool = False):
    """The records of ``enumerate_finite_subsystems(n, max_rank,
    include_infinite)``, computed by one union-find over all subsets of
    1..n-1 and nothing kept between calls."""
    unit_list = units(n)
    parent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    orbits: dict[tuple[int, ...], frozenset] = {}

    def group(subset) -> frozenset:
        galois = orbits.get(subset)
        if galois is None:
            galois = frozenset(
                tuple(sorted(k * a % n for a in subset)) for k in unit_list
            )
            root = min(galois)
            for image in galois:
                orbits[image] = galois
                parent[image] = root
        return galois

    info: dict[tuple[int, ...], tuple[bool, frozenset | None]] = {}
    settled: set[tuple[int, ...]] = set()
    finite: set[tuple[int, ...]] = set()

    def class_finite(subset) -> bool:
        return info.get(find(subset), (False, None))[0]

    def pair_ok(a: int, b: int) -> bool:
        return (a + b) % n == 0 or (a, b) in finite

    build = (lambda a, b: True) if include_infinite else pair_ok
    for rank in range(2, max_rank + 1):
        for subset in cf._candidate_subsets(n, rank, build):
            if rank > 3 and not (
                include_infinite or finite.issuperset(combinations(subset, 3))
            ):
                continue
            galois = group(subset)
            if subset in settled:
                continue
            if rank > 2 and not all(
                pair_ok(a, b) for a, b in combinations(subset, 2)
            ):
                info[subset] = (False, None)
                continue
            exploration = dg.explore_groupoid(
                dg.cyclic_braiding(n, subset), cf.SURVEY_MAX_OBJECTS
            )
            linked = cf._linked_subsets(n, exploration.objects)
            for other in linked:
                group(other)
                union(subset, other)
            if exploration.status == dg.EXISTS:
                settled |= linked
            if find(subset) == subset:
                info[subset] = cf._classify_subset(exploration, cf.SURVEY_MAX_ROOTS)
            if not include_infinite and not class_finite(subset):
                settled |= galois
                for other in linked:
                    settled |= orbits[other]
        if rank < max_rank:
            finite |= {s for s in parent if len(s) == rank and class_finite(s)}

    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for subset in parent:
        classes.setdefault(find(subset), []).append(subset)

    records = []
    for rep in sorted(classes):
        members = tuple(sorted(classes[rep]))
        is_finite, roots = info.get(rep, (False, None))
        if not is_finite and not include_infinite:
            continue
        braiding = dg.cyclic_braiding(n, rep)
        dimension = None
        root_count = None
        if is_finite:
            root_count = len(roots)
            orders = dg.root_orders(braiding, roots)
            dimension = prod(order for _, order in orders)
        g = gcd(n, *rep)
        first_appears = n // g
        notes: list[str] = []
        ref_key = (first_appears, tuple(a // g for a in rep))
        if is_finite and ref_key in cf.REFERENCE_DIMENSIONS:
            factorization, ref_value = cf.REFERENCE_DIMENSIONS[ref_key]
            if factorization is not None:
                implied = cf._eval_factorization(factorization)
                if implied != ref_value:
                    notes.append(
                        f"reference factorization {factorization} evaluates to "
                        f"{implied}, inconsistent with the tabulated value {ref_value}"
                    )
            if dimension != ref_value:
                notes.append(
                    f"computed dimension {dimension} differs from the tabulated "
                    f"value {ref_value}"
                )
        records.append(
            cf.SubsystemRecord(
                n=n,
                representative=rep,
                members=members,
                diagram=braiding.diagram(),
                cartan_type=dg.is_cartan_type(braiding),
                finite=is_finite,
                positive_root_count=root_count,
                dimension=dimension,
                first_appears=first_appears,
                notes=tuple(notes),
            )
        )
    return records


# ---------------------------------------------------------------------------
# The sweep heuristic on the full cyclic braiding of C_n, by whole diagrams.
# Integers mod n only, nothing from fknichols: an object is (d, e) with d[v]
# the exponent of q_vv and e[v][w] that of q_vw q_wv (0 on the diagonal).


def reflect_full(n: int, obj, i: int):
    """The object s_i(obj), or None when a Cartan entry at i is undefined.

    With s_i(alpha_k) = u_k alpha_k + t_k alpha_i, where (u, t) = (1, m_ik)
    for k != i and (0, -1) for k = i, the new label of k is the quadratic form
    Q(x) = sum d_k x_k^2 + sum_{k<l} e_kl x_k x_l at s_i(alpha_k), and the
    new edge between k and l is the polar form Q(x+y) - Q(x) - Q(y) at
    their images.
    """
    d, e = obj
    r = len(d)
    m = [0 if k == i else _cartan_m(n, d[i], e[i][k]) for k in range(r)]
    if None in m:
        return None
    u = [0 if k == i else 1 for k in range(r)]
    t = [-1 if k == i else m[k] for k in range(r)]
    di, ei = d[i], e[i]
    labels = [
        (u[k] * u[k] * d[k] + t[k] * t[k] * di + u[k] * t[k] * ei[k]) % n
        for k in range(r)
    ]
    edges = [
        [
            0
            if k == l
            else (
                u[k] * u[l] * e[k][l]
                + u[k] * t[l] * ei[k]
                + t[k] * u[l] * ei[l]
                + 2 * t[k] * t[l] * di
            )
            % n
            for l in range(r)
        ]
        for k in range(r)
    ]
    return labels, edges


def _failing_vertex(n: int, obj) -> int | None:
    """Lowest vertex (1-based) with label 1 and an incident edge."""
    d, e = obj
    for v in range(len(d)):
        if d[v] % n == 0 and any(x % n for x in e[v]):
            return v + 1
    return None


def diagram_of(n: int, b):
    """The object (d, e) of the braiding q_vw = zeta_n^(b[v][w])."""
    r = len(b)
    d = [b[v][v] % n for v in range(r)]
    e = [[0 if v == w else (b[v][w] + b[w][v]) % n for w in range(r)] for v in range(r)]
    return d, e


def is_cartan_type(n: int, b) -> bool:
    """Whether the braiding q_vw = zeta_n^(b[v][w]) is of Cartan type, by the
    definition: q_ii != 1 at every vertex i and, for each j != i, some m in
    0 .. ord(q_ii) - 1 solves q_ii^m q_ij q_ji = 1."""
    d, e = diagram_of(n, b)
    for i, di in enumerate(d):
        if di == 0:
            return False
        order = n // gcd(n, di)
        for j in range(len(d)):
            if j != i and not any((m * di + e[i][j]) % n == 0 for m in range(order)):
                return False
    return True


def heuristic_witness(n: int, cap: int):
    """(witness, lowest failing vertex) of the first word s_j s_i s_p that
    fails, among the first cap words, or None.  p is the smallest prime
    factor of n and the words come in windows: for hi = 2, 3, ..., the pairs
    (i, j) = (lo, hi) and (hi, lo) for lo = 1, ..., hi - 1.  Each word is
    applied letter by letter to the full cyclic braiding (labels v, edges
    v + w); the witness is the prefix after which a vertex fails, or the
    prefix before a letter whose reflection is undefined.
    """
    p = next(k for k in range(2, n + 1) if n % k == 0)
    start = (
        list(range(1, n)),
        [[0 if v == w else (v + w) % n for w in range(1, n)] for v in range(1, n)],
    )
    words = (
        (p, i, j)
        for hi in range(2, n)
        for lo in range(1, hi)
        for i, j in ((lo, hi), (hi, lo))
    )
    after = {}  # objects after the prefixes (p) and (p, i), shared by words
    for word in islice(words, cap):
        obj = start
        for k in range(1, 4):
            prefix = word[:k]
            new = after.get(prefix) or reflect_full(n, obj, word[k - 1] - 1)
            if new is None:
                return word[: k - 1], _failing_vertex(n, obj)
            bad = _failing_vertex(n, new)
            if bad is not None:
                return prefix, bad
            if k < 3:
                after[prefix] = new
            obj = new
    return None


def _cyc_mul(a, b, phi, red):
    """Product of two coefficient tuples mod the cyclotomic polynomial."""
    if phi == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        v = conv[k]
        if v:
            rk = red[k - phi]
            for m in range(phi):
                if rk[m]:
                    out[m] += v * rk[m]
    return tuple(out)


@lru_cache(maxsize=None)
def zeta_power(n: int, k: int) -> tuple[int, ...]:
    """x^k mod Phi_n on the power basis, by long division by the monic
    ``cyclotomic_polynomial(n)`` (checked against sympy); k is first
    reduced mod n, since Phi_n divides x^n - 1."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    k %= n
    rem = [0] * max(k + 1, phi)
    rem[k] = 1
    for top in range(len(rem) - 1, phi - 1, -1):
        c = rem[top]
        if c:
            for j, p in enumerate(poly):
                rem[top - phi + j] -= c * p
    return tuple(rem[:phi])


def reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Reduction of x^k mod Phi_n for k = phi..2*phi-2, the ``red`` of
    ``_cyc_mul``."""
    phi = euler_phi(n)
    return tuple(zeta_power(n, k) for k in range(phi, 2 * phi - 1))


def merge_exact(amul, aidx, aco, bmul, bidx, bco, ring):
    """Sparse combination amul*A - bmul*B over Z[zeta], merged into new
    lists, every entry through the convolution ``_cyc_mul``.

    ``ring`` is the conductor's ``ZetaRing``; only its phi and conductor
    are read.
    Returns (idx, co) with zero entries dropped.
    """
    phi, red = ring.phi, reduction_rows(ring.conductor)
    na, nb = len(aidx), len(bidx)
    ia = ib = 0
    idx_out = []
    co_out = []
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and aidx[ia] < bidx[ib]):
            c = _cyc_mul(amul, aco[ia], phi, red)
            pos = aidx[ia]
            ia += 1
        elif ia >= na or bidx[ib] < aidx[ia]:
            t = _cyc_mul(bmul, bco[ib], phi, red)
            c = tuple(-x for x in t)
            pos = bidx[ib]
            ib += 1
        else:
            ca = _cyc_mul(amul, aco[ia], phi, red)
            cb = _cyc_mul(bmul, bco[ib], phi, red)
            c = tuple(x - y for x, y in zip(ca, cb))
            pos = aidx[ia]
            ia += 1
            ib += 1
        if any(c):
            idx_out.append(pos)
            co_out.append(c)
    return idx_out, co_out


def combine_exact(amul, aidx, aco, bmul, bidx, bco, ring):
    """``merge_exact`` divided by the integer content of its result: the
    step of ``ReferenceEchelon`` in exact mode."""
    idx, co = merge_exact(amul, aidx, aco, bmul, bidx, bco, ring)
    g = _content(co)
    if g > 1:
        co = [tuple(x // g for x in c) for c in co]
    return idx, co


def combine_mod(amul, aidx, aco, bmul, bidx, bco, p):
    """Sparse combination amul*A - bmul*B over F_p, merged into new lists:
    the modular twin of ``combine_exact``."""
    na, nb = len(aidx), len(bidx)
    ia = ib = 0
    idx_out = []
    co_out = []
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and aidx[ia] < bidx[ib]):
            c = amul * aco[ia] % p
            pos = aidx[ia]
            ia += 1
        elif ia >= na or bidx[ib] < aidx[ia]:
            c = -bmul * bco[ib] % p
            pos = bidx[ib]
            ib += 1
        else:
            c = (amul * aco[ia] - bmul * bco[ib]) % p
            pos = aidx[ia]
            ia += 1
            ib += 1
        if c:
            idx_out.append(pos)
            co_out.append(c)
    return idx_out, co_out


class ReferenceEchelon:
    """The echelon as it reduced before its one-pass reduce: pivots kept
    sorted by lead, and each pivot p met rebuilds the whole vector v as the
    merge lead(p) v - lead(v) p (``combine_exact``, content-stripped at
    every step, or ``combine_mod``).  ``mode`` is "exact", with the
    conductor's ``ZetaRing`` as context, or "modular", with the prime.
    Exact pivots are stored as ``ExactEchelon`` documents, c(a) v over its
    integer content, with the products taken by the convolution; modular
    pivots as reduce left them."""

    def __init__(self, mode: str, context):
        self.mode = mode
        self.context = context
        self.leads: list[int] = []
        self.vectors: list = []

    @property
    def rank(self) -> int:
        return len(self.leads)

    def insert(self, idx, co) -> bool:
        idx, co = self.reduce(idx, co)
        if idx:
            self.append(idx, co)
        return bool(idx)

    def reduce(self, idx, co):
        kernel = combine_exact if self.mode == "exact" else combine_mod
        leads = self.leads
        while idx:
            pos = bisect_left(leads, idx[0])
            if pos == len(leads) or leads[pos] != idx[0]:
                break
            pidx, pco = self.vectors[pos]
            idx, co = kernel(pco[0], idx, co, co[0], pidx, pco, self.context)
        return idx, co

    def append(self, idx, co) -> None:
        if self.mode == "exact" and any(co[0][1:]):
            ring = self.context
            phi, red = ring.phi, reduction_rows(ring.conductor)
            cofactor = ring.norm_cofactor(co[0])
            co = [_cyc_mul(cofactor, c, phi, red) for c in co]
            g = _content(co)
            if g > 1:
                co = [tuple(x // g for x in c) for c in co]
        pos = bisect_left(self.leads, idx[0])
        self.leads.insert(pos, idx[0])
        self.vectors.insert(pos, (idx, co))


def rref_fraction(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1, 1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots
