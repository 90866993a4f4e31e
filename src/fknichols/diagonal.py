"""Diagonal braidings: Weyl-groupoid reflections and exploration, Cartan
matrices, root enumeration, and PBW data.

Vertices are numbered 1..rank in the public API, matching the reflection
words s_1, s_2, ... used throughout.  A braiding stores the exponent matrix
b with q_ij = zeta_N^(b_ij); everything the groupoid needs reduces to
integer arithmetic mod N.  The generalized Dynkin diagram of a braiding,
vertex labels q_ii and edge labels q_ij q_ji, is the object of its Weyl
groupoid.  Its one form is ``DiagonalBraiding.diagram()``, the tuples
(labels, rows) of type ``Diagram`` that the kernels of ``backend`` read:
the exploration keys its objects by them and reports them as they are, and
``diagram_to_json`` writes them.  ``cartan_matrix`` gives the Cartan matrix
as a tuple of rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import prod
from operator import mul

from fknichols import backend
from fknichols.cyclotomic import RootOfUnity

EXISTS = "exists"
FAILS_AT = "failsAt"
BOUND_EXCEEDED_STATUS = "boundExceeded"
#: Most positive roots of a finite Weyl groupoid of rank 3 (``_root_closure``)
RANK3_MAX_POSITIVE_ROOTS = 37
#: Default object bound of a groupoid exploration (``explore_groupoid``)
MAX_OBJECTS = 100_000
#: Default bound on a root closure (``positive_roots``)
MAX_ROOTS = 10_000

#: A generalized Dynkin diagram (labels, rows) mod the order: the exponents
#: of the vertex labels q_ii, and the symmetric rows of the exponents of the
#: edge labels q_ij q_ji, 0 on the diagonal and 0 where there is no edge.
Diagram = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


class DomainError(ValueError):
    """Invalid construction data (e.g. subset element outside 1..n-1)."""


class RootSystemUndefinedError(ValueError):
    """Root enumeration hit an undefined reflection."""


class UndefinedDimensionError(ValueError):
    """A finite root system carries a root labelled 1."""


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Returned by enumerate_positive_roots when closure does not terminate.
BOUND_EXCEEDED = _Sentinel("BoundExceeded")
#: Returned by pbw_dimension for braidings with unbounded root growth.
INFINITE = _Sentinel("Infinite")


@dataclass(frozen=True)
class DiagonalBraiding:
    """q_ij = zeta_order^exponents[i][j] on a rank-r diagonal basis."""

    order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("order must be positive")
        n = self.order
        rows = tuple(tuple(x % n for x in row) for row in self.exponents)
        if any(len(row) != len(rows) for row in rows):
            raise DomainError("exponent matrix must be square")
        object.__setattr__(self, "exponents", rows)

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def q(self, i: int, j: int) -> RootOfUnity:
        """Braiding scalar q_ij (1-based vertices)."""
        return RootOfUnity(self.order, self.exponents[i - 1][j - 1])

    def bilinear(self, alpha, beta) -> int:
        """Exponent of the bilinear extension B(alpha, beta) mod order."""
        b = self.exponents
        total = 0
        for j, aj in enumerate(alpha):
            if aj:
                row = b[j]
                for k, bk in enumerate(beta):
                    if bk:
                        total += aj * bk * row[k]
        return total % self.order

    def diagram(self) -> Diagram:
        """(labels, rows): the exponents of the vertex labels q_ii, and the
        symmetric rows of the exponents of q_ij q_ji mod order, with 0 on
        the diagonal.  Twist-equivalent braidings have the same diagram."""
        n, b = self.order, self.exponents
        r = range(self.rank)
        labels = tuple([b[i][i] for i in r])
        rows = tuple([tuple([(b[i][j] + b[j][i]) % n if i != j else 0 for j in r]) for i in r])
        return labels, rows


def cyclic_braiding(n: int, subset) -> DiagonalBraiding:
    """The braiding q_jk = zeta_n^(I[j]) on the ordered subset I of 1..n-1."""
    if n < 2:
        raise DomainError("n must be at least 2")
    labels = list(subset)
    if not labels:
        raise DomainError("subset must be nonempty")
    for a in labels:
        if not 1 <= a <= n - 1:
            raise DomainError(f"subset element {a} outside 1..{n - 1}")
    if len(set(labels)) != len(labels):
        raise DomainError("subset elements must be distinct")
    rows = tuple(tuple(a for _ in labels) for a in labels)
    return DiagonalBraiding(n, rows)


def full_cyclic_braiding(n: int) -> DiagonalBraiding:
    return cyclic_braiding(n, range(1, n))


def cartan_matrix(braiding: DiagonalBraiding) -> tuple[tuple[int | None, ...], ...]:
    """Rows of the Cartan matrix: a_ii = 2, a_ij = -m_ij, and None where
    a_ij is undefined (q_ii = 1 with q_ij q_ji != 1)."""
    labels, rows = braiding.diagram()
    return tuple(
        tuple(
            2 if j == i else None if m == backend.UNDEFINED else -m
            for j, m in enumerate(backend.cartan_mrow(labels, rows, braiding.order, i))
        )
        for i in range(braiding.rank)
    )


def is_cartan_type(braiding: DiagonalBraiding) -> bool:
    """Cartan type: q_ii != 1 everywhere, and for each off-diagonal entry
    q_ii^(-a_ij) q_ij q_ji = 1 with 0 <= -a_ij < ord(q_ii).

    Where q_ii != 1, ``cartan_mrow`` returns each m_ij = -a_ij as a residue
    mod ord(q_ii): never undefined and always below the order.  So two tests
    remain: q_ii != 1, and m_ij d_i + e_ij = 0 mod n, which fails exactly
    where no m solves the equation.
    """
    n = braiding.order
    labels, rows = braiding.diagram()
    for i, d in enumerate(labels):
        if d == 0:
            return False
        m = backend.cartan_mrow(labels, rows, n, i)
        for j, e in enumerate(rows[i]):
            if j != i and (m[j] * d + e) % n:
                return False
    return True


@dataclass(frozen=True)
class ReflectionFailure:
    """Reflection at ``vertex`` undefined: q at vertex is 1 while the edge to
    ``blocking`` carries the recorded label."""

    vertex: int
    blocking: int
    edge_label: RootOfUnity


def reflect(braiding: DiagonalBraiding, i: int):
    """Weyl-groupoid reflection at vertex i (1-based).

    Returns the reflected DiagonalBraiding, or a ReflectionFailure naming
    the undefined Cartan entry (the groupoid-nonexistence signal).
    """
    labels, rows = braiding.diagram()
    m = backend.cartan_mrow(labels, rows, braiding.order, i - 1)
    if backend.UNDEFINED in m:
        j = m.index(backend.UNDEFINED)
        return ReflectionFailure(
            vertex=i,
            blocking=j + 1,
            edge_label=RootOfUnity(braiding.order, rows[i - 1][j]),
        )
    new = backend.reflect_exponent_matrix(
        [list(r) for r in braiding.exponents], braiding.order, i - 1, m
    )
    return DiagonalBraiding(braiding.order, tuple(tuple(r) for r in new))


def replay_witness(braiding: DiagonalBraiding, word) -> DiagonalBraiding:
    """Apply the reflections of a witness word in order; returns the final
    braiding (raising if some intermediate reflection is undefined)."""
    current = braiding
    for v in word:
        nxt = reflect(current, v)
        if isinstance(nxt, ReflectionFailure):
            raise RootSystemUndefinedError(
                f"reflection s_{v} undefined while replaying witness"
            )
        current = nxt
    return current


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of a groupoid BFS over diagrams.

    ``objects`` holds the diagrams in the order found, the start first.
    ``transitions[s][i]`` is the index in ``objects`` of the object that the
    reflection at vertex i + 1 sends object s to, and ``mrows[s][i]`` is
    the Cartan m-row of object s at that vertex.  Both are recorded for the
    expanded objects, a prefix of ``objects``: all of them when the status
    is EXISTS.
    """

    status: str
    objects: tuple[Diagram, ...]
    morphism_count: int
    witness: tuple[int, ...] | None = None
    failing_vertex: int | None = None
    transitions: tuple[tuple[int, ...], ...] = ()
    mrows: tuple[tuple[tuple[int, ...], ...], ...] = ()


def explore_groupoid(
    braiding: DiagonalBraiding, max_objects: int = MAX_OBJECTS
) -> ExplorationResult:
    """BFS over generalized Dynkin diagrams under reflection, keyed by the
    diagrams themselves (``DiagonalBraiding.diagram()``).

    Status EXISTS when the closure is finite with every reflection defined;
    FAILS_AT with a minimal-length witness word (BFS order, lowest vertex
    first) reaching an object carrying label 1 at a non-isolated vertex;
    BOUND_EXCEEDED_STATUS when more than max_objects distinct objects show
    up.  An isolated vertex labelled 1 is benign: the reflection there is
    the identity.  The morphism count is the number of reflections that move
    an object, over every object found that has no failing vertex, expanded
    or not.
    """
    if max_objects < 1:
        raise DomainError("max_objects must be at least 1")
    n = braiding.order
    r = braiding.rank
    start = braiding.diagram()

    # objects in discovery order; the BFS queue is this list's unexpanded tail
    order_seen: list[Diagram] = [start]
    index: dict[Diagram, int] = {start: 0}
    parent_of: list[tuple[int, int] | None] = [None]  # (object index, vertex)
    transitions: list[tuple[int, ...]] = []
    mrows: list[tuple[tuple[int, ...], ...]] = []
    status, witness, failing = EXISTS, None, None
    morphisms = 0

    # once the run stops, the same loop goes on over the objects found but
    # never expanded, and only counts the morphisms out of them
    for s, state in enumerate(order_seen):
        labels, rows = state
        bad = backend.failure_vertex(labels, rows, n)
        if bad is not None:
            if status == EXISTS:
                status, failing, witness, t = FAILS_AT, bad + 1, (), s
                while parent_of[t] is not None:  # back along the BFS tree
                    t, v = parent_of[t]
                    witness = (v, *witness)
            continue
        row, mrow = [], []
        for i in range(r):
            m = backend.cartan_mrow(labels, rows, n, i)
            new_state = backend.reflect_diagram(labels, rows, n, i, m)
            morphisms += new_state != state
            if status != EXISTS:
                continue
            target = index.get(new_state)
            if target is None:
                if len(order_seen) >= max_objects:
                    status = BOUND_EXCEEDED_STATUS
                    continue
                target = index[new_state] = len(order_seen)
                order_seen.append(new_state)
                parent_of.append((s, i + 1))
            row.append(target)
            mrow.append(tuple(m))
        if status == EXISTS:
            transitions.append(tuple(row))
            mrows.append(tuple(mrow))
    return ExplorationResult(
        status, tuple(order_seen), morphisms, witness, failing,
        tuple(transitions), tuple(mrows),
    )


def _root_closure(exploration: ExplorationResult, max_roots: int):
    """Fixpoint propagation of simple roots across an explored groupoid.

    Reuses the exploration's transition table and m-rows.  Returns (roots
    at the start object, True), or (None, False) when the exploration or the
    root count exceeds its bound.  Raises RootSystemUndefinedError if the
    exploration failed.

    At rank 3 it also returns (None, False) once one object holds more than
    2 * 37 roots, which proves the root system infinite.  The theorem: a
    finite Weyl groupoid of rank three has at most 37 positive roots
    (Cuntz-Heckenberger, *Finite Weyl groupoids of rank three*, Trans. Amer.
    Math. Soc. 364 (2012)).  The argument: the roots that the closure puts
    at an object are real roots there, and in a finite system the real
    roots at each object are Delta_+ and -Delta_+, so no object of a finite
    system ever holds more than 74.  The total max_roots test stays, at
    every rank.
    """
    if exploration.status == FAILS_AT:
        raise RootSystemUndefinedError(
            f"groupoid undefined: witness {list(exploration.witness)} reaches "
            f"label 1 at vertex {exploration.failing_vertex}"
        )
    if exploration.status == BOUND_EXCEEDED_STATUS:
        return None, False
    objects = exploration.objects
    r = len(objects[0][0])
    per_object = 2 * RANK3_MAX_POSITIVE_ROOTS if r == 3 else max_roots
    # (vertex, m-row, target) of every reflection out of each object
    steps = [
        tuple(zip(range(r), m, move))
        for m, move in zip(exploration.mrows, exploration.transitions)
    ]

    simples = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    roots: list[set[tuple[int, ...]]] = [set(simples) for _ in objects]
    work = deque((s, alpha) for s in range(len(objects)) for alpha in simples)
    total = len(objects) * r
    while work:
        s, alpha = work.popleft()
        for i, m, target in steps[s]:
            image = alpha[:i] + (alpha[i] + sum(map(mul, m, alpha)),) + alpha[i + 1 :]
            known = roots[target]
            if image not in known:
                known.add(image)
                total += 1
                if total > max_roots or len(known) > per_object:
                    return None, False
                work.append((target, image))
    return roots[0], True


_IDENTITY2 = ((1, 0), (0, 1))


def _mul2(x, y):
    """Product of two 2x2 integer matrices given as row tuples."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def rank2_loop(exploration: ExplorationResult):
    """(steps, M) of the loop s_1, s_2, s_1, ... at the start object of an
    existing rank-2 groupoid.

    The walk follows ``exploration.transitions`` from object 0 and stops the
    first time it is back at object 0 after an even number of steps.  M is
    the product of the reflection matrices R = I + e_i m^T met on the way,
    the latest on the left, with m the m-row at vertex i of the object the
    step starts from (``exploration.mrows``): the convention of
    ``_root_closure``.  M
    maps the coordinates at object 0 to themselves.

    The walk ends: each reflection is an involution on objects, so the
    double step s_2 s_1 is a permutation of the finite set of objects, and
    object 0 lies on one of its cycles.
    """
    moves = exploration.transitions
    rows = [list(row) for row in _IDENTITY2]
    s, steps = 0, 0
    while True:
        i = steps % 2
        m = exploration.mrows[s][i]
        # R M differs from M in row i only, which gains m^T M
        rows[i] = [rows[i][k] + m[0] * rows[0][k] + m[1] * rows[1][k] for k in range(2)]
        s = moves[s][i]
        steps += 1
        if s == 0 and steps % 2 == 0:
            break
    return steps, (tuple(rows[0]), tuple(rows[1]))


def rank2_is_infinite(exploration: ExplorationResult) -> bool:
    """Whether an existing rank-2 groupoid has an infinite root system: true
    exactly when the matrix M of ``rank2_loop`` has M^12 != I.

    Proof (Cuntz-Heckenberger, *Weyl groupoids of rank two and continued
    fractions*, Algebra Number Theory 3 (2009); *Finite Weyl groupoids*,
    J. reine angew. Math. 702 (2015)):

    * Finite implies M^12 = I.  In a finite Weyl groupoid Hom(0, 0) is
      finite, so M has finite order.  A finite-order element of GL_2(Z) has
      order 1, 2, 3, 4 or 6, so M^12 = I.
    * M^12 = I implies finite.  The m-row at vertex i is the same at an
      object and at its image under s_i, so R^2 = I and every morphism into
      object 0 is an alternating word.  The walks s_1, s_2, ... and
      s_2, s_1, ... from object 0 are periodic with loop matrices M and
      M^-1, so when M has finite order there are finitely many such words,
      and the real roots that ``_root_closure`` builds are finite in number.
    * If M has infinite order, some simple root has an infinite orbit
      M^k alpha_j at object 0, so the closure exceeds any bound.

    So deciding by the loop gives the closure's answer for every max_roots
    whenever the root system is infinite.
    """
    loop = rank2_loop(exploration)[1]
    m2 = _mul2(loop, loop)
    m4 = _mul2(m2, m2)
    return _mul2(_mul2(m4, m4), m4) != _IDENTITY2


def positive_roots(exploration: ExplorationResult, max_roots: int = MAX_ROOTS):
    """Positive roots at the exploration's start object, or BOUND_EXCEEDED.

    At rank 2, when the groupoid exists, an infinite root system is proven
    infinite by one loop (``rank2_is_infinite``) and BOUND_EXCEEDED is
    returned without a closure; a finite one is still closed, and still
    gives BOUND_EXCEEDED when it has more than max_roots roots.  At rank
    3 the closure also stops once one object holds more than 2 * 37 roots,
    more than any finite system of rank 3 has (``_root_closure``); that
    BOUND_EXCEEDED is a proof of infinity.  Otherwise, and at every rank
    >= 4, BOUND_EXCEEDED means only that the closure exceeded max_roots.

    Raises RootSystemUndefinedError when the groupoid fails to exist, and
    DomainError when max_roots < 1.
    """
    if max_roots < 1:
        raise DomainError("max_roots must be at least 1")
    if (
        exploration.status == EXISTS
        and len(exploration.objects[0][0]) == 2
        and rank2_is_infinite(exploration)
    ):
        return BOUND_EXCEEDED
    base_roots, ok = _root_closure(exploration, max_roots)
    if not ok:
        return BOUND_EXCEEDED
    return frozenset(
        alpha
        for alpha in base_roots
        if any(a > 0 for a in alpha) and all(a >= 0 for a in alpha)
    )


def enumerate_positive_roots(braiding: DiagonalBraiding, max_roots: int = MAX_ROOTS):
    """Positive roots of the arithmetic root system, or BOUND_EXCEEDED.

    Raises RootSystemUndefinedError when the groupoid fails to exist.
    """
    return positive_roots(explore_groupoid(braiding), max_roots)


def root_label(braiding: DiagonalBraiding, alpha) -> RootOfUnity:
    """q_alpha = zeta^B(alpha, alpha)."""
    if len(alpha) != braiding.rank:
        raise DomainError("root vector length does not match rank")
    return RootOfUnity(braiding.order, braiding.bilinear(alpha, alpha))


def root_orders(braiding: DiagonalBraiding, roots) -> list[tuple[tuple[int, ...], int]]:
    """(alpha, ord(q_alpha)) for each root, in sorted order.

    Raises UndefinedDimensionError if a root has label 1: the PBW factor of
    such a root, and with it the dimension and the series, is undefined.
    """
    out = []
    for alpha in sorted(roots):
        label = root_label(braiding, alpha)
        if label.is_one:
            raise UndefinedDimensionError(
                f"positive root {alpha} has label 1; dimension undefined"
            )
        out.append((alpha, label.multiplicative_order()))
    return out


def pbw_dimension(braiding: DiagonalBraiding, max_roots: int = MAX_ROOTS):
    """Product of ord(q_alpha) over positive roots; INFINITE when the root
    system is infinite or the root closure exceeds its bounds.

    At rank 2, when the groupoid exists, an infinite root system is proven
    infinite by one loop (``positive_roots``), whatever the bounds.  At rank
    3, INFINITE reached by more than 2 * 37 roots at one object is a proof
    too: a finite rank-3 system has at most 37 positive roots
    (``_root_closure``).  Otherwise, and at rank >= 4, INFINITE
    means only that a bound was exceeded.  At any rank, a bound below the
    true root count gives INFINITE for a finite system.

    Raises UndefinedDimensionError if a positive root has label 1, and
    RootSystemUndefinedError when the groupoid does not exist.
    """
    roots = enumerate_positive_roots(braiding, max_roots)
    if roots is BOUND_EXCEEDED:
        return INFINITE
    return prod(order for _, order in root_orders(braiding, roots))


def pbw_hilbert_series(
    braiding: DiagonalBraiding, max_degree: int, max_roots: int = MAX_ROOTS
) -> list[int]:
    """Coefficients (degrees 0..max_degree) of prod over positive roots of
    (1 + t^ht + ... + t^((N_alpha - 1) ht)), ht = coordinate sum."""
    roots = enumerate_positive_roots(braiding, max_roots)
    if roots is BOUND_EXCEEDED:
        raise RootSystemUndefinedError("root system is not finite")
    series = [0] * (max_degree + 1)
    series[0] = 1
    for alpha, order in root_orders(braiding, roots):
        height = sum(alpha)
        new = [0] * (max_degree + 1)
        for k in range(order):
            shift = k * height
            if shift > max_degree:
                break
            for d in range(max_degree + 1 - shift):
                if series[d]:
                    new[d + shift] += series[d]
        series = new
    return series


def pbw_top_degree(braiding: DiagonalBraiding) -> int:
    """Top degree of the PBW Hilbert series (finite case).

    Raises UndefinedDimensionError if a positive root has label 1.
    """
    roots = enumerate_positive_roots(braiding)
    if roots is BOUND_EXCEEDED:
        raise RootSystemUndefinedError("root system is not finite")
    return sum((order - 1) * sum(alpha) for alpha, order in root_orders(braiding, roots))


# ---------------------------------------------------------------------------
# JSON serialization (documented schema keys)

def diagram_to_json(order: int, diagram: Diagram) -> dict:
    """Vertex exponents, and [i, j, exponent] for each edge i < j (1-based)
    whose label q_ij q_ji is not 1."""
    labels, rows = diagram
    pairs = combinations(range(len(labels)), 2)
    return {
        "order": order,
        "vertices": list(labels),
        "edges": [[i + 1, j + 1, rows[i][j]] for i, j in pairs if rows[i][j]],
    }


def exploration_to_json(order: int, result: ExplorationResult) -> dict:
    return {
        "status": result.status,
        "witness": list(result.witness) if result.witness is not None else None,
        "failingVertex": result.failing_vertex,
        "morphismCount": result.morphism_count,
        "objects": [diagram_to_json(order, o) for o in result.objects],
    }
