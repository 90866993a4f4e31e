"""Exact and modular echelon bases for sparse vectors.

Vectors are inserted one at a time and reduced against the pivots found
so far: ``insert`` is ``reduce`` and then, for a nonzero residual,
``append``; a caller that reads the residual of a dependent vector calls
the two itself.  Both modes run one skeleton, ``_Echelon``, whose reduce is
one pass: the vector goes into a dict accumulator, a heap of its keys
gives the next lead, and for each pivot p met at the lead the mode's
kernel subtracts p in place, the fraction-free step lead(p) v - lead(v) p,
touching only p's entries whenever lead(p) divides lead(v).  Exact vectors
carry integer cyclotomic coefficients; a residual leaves without its
content, and is the same as when every step stripped it (the proof is in
``ExactEchelon``).  Modular vectors carry residues, and pivots are stored
monic, so every step touches only the pivot's entries; each residual is a
nonzero multiple of the one unnormalised pivots give, which changes no
lead, rank or pivot position, and a ``_mul`` row, the residual over its
own coefficient, is the same.  Every rank in the package goes through
them; nothing divides in Q(zeta).  The tests check them against dense
elimination over Q, ``rref_fraction`` in ``tests/_oracles.py``, and
against the reduce that rebuilt the vector at every pivot,
``ReferenceEchelon`` there.
"""

from __future__ import annotations

from heapq import heappop

from fknichols import backend, cyclotomic
from fknichols._kernels_py import _content, _cyc_mul


class _Echelon:
    """The pivots, ``rank``, ``insert``, ``append`` and ``reduce`` of both
    modes.  A subclass names its kernel in ``backend`` (looked up on every
    ``reduce``, so a patched kernel is seen), passes the context the kernel
    takes, and may store a pivot in another form (``_pivot``) and finish a
    residual (``_residual``).  ``pivots`` maps each pivot's lead to its
    (idx, co)."""

    kernel_name: str

    def __init__(self, context):
        self.context = context
        self.pivots: dict[int, tuple] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, idx: list[int], co: list) -> bool:
        """Reduce (idx, co) against the basis; add as pivot if independent."""
        idx, co = self.reduce(idx, co)
        if idx:
            self.append(idx, co)
        return bool(idx)

    def reduce(self, idx: list[int], co: list):
        """Reduce (idx, co) until its lead is no pivot's lead; the result is
        empty exactly when the vector lies in the span of the basis.

        One pass: the vector goes into a dict accumulator, and a heap of its
        keys gives the next lead (a sorted list is already a heap; a key
        dropped from the dict stays in the heap and is skipped when
        popped).  For the pivot p at the lead, the kernel replaces v by
        lead(p) v - lead(v) p in place, or by that over lead(p) when it can
        divide, and returns True when that divisor was negative; the
        residual is finished by ``_residual``.  The step must cancel the
        lead, and p has no key below it: a step that leaves an entry at or
        below the lead raises ArithmeticError instead of looping.  A
        vector whose lead is no pivot's is returned as it came."""
        pivots = self.pivots
        if not idx or idx[0] not in pivots:
            return idx, co
        kernel = getattr(backend, self.kernel_name)
        context = self.context
        acc = dict(zip(idx, co))
        heap = list(idx)
        negated = False
        lead = heappop(heap)
        pivot = pivots[lead]
        while pivot is not None:
            pidx, pco = pivot
            if kernel(pco[0], acc, heap, acc[lead], pidx, pco, context):
                negated = not negated
            if lead in acc or (heap and heap[0] < lead):
                raise ArithmeticError(
                    f"{self.kernel_name} left an entry at or below the lead {lead}"
                )
            while heap:
                lead = heappop(heap)
                if lead in acc:
                    break
            else:
                return [], []
            pivot = pivots.get(lead)
        idx = sorted(acc)
        return idx, self._residual(list(map(acc.__getitem__, idx)), negated)

    def append(self, idx: list[int], co: list) -> None:
        """Add a nonzero output of ``reduce`` as a pivot."""
        self.pivots[idx[0]] = (idx, self._pivot(co))

    def _pivot(self, co: list) -> list:
        return co

    def _residual(self, co: list, negated: bool) -> list:
        return co


class ExactEchelon(_Echelon):
    """Echelon basis over the ring of integers Z[zeta] of Q(zeta), zeta a
    primitive ``conductor``-th root of unity, for sparse vectors.

    Its context is the conductor's ``ZetaRing``, through which every
    product in Z[zeta] goes; the ring is its only state besides the pivots.

    Every new pivot gets a rational-integer lead.  When a reduced vector v
    with lead a becomes a pivot, it is stored as c(a) v / g, where
    c(a) = prod sigma_k(a) over k in (Z/conductor)^x, k != 1
    (``ZetaRing.norm_cofactor``) and g is the integer content of c(a) v.
    Its lead is then N(a) / g, a nonzero rational integer.  Proof that this
    changes no rank and no pivot position:

    * a != 0 and each sigma_k is a field automorphism, so c(a) is a nonzero
      element of Z[zeta] (sigma_k maps Z[zeta] to itself), and c(a) / g is a
      nonzero scalar of Q(zeta).  Q(zeta) has no zero divisors, so the
      stored vector has the support of v, hence the lead position of v, and
      spans the same Q(zeta)-line.
    * A reduction step replaces the incoming vector w by pco[0] w - w[0] p
      for the pivot p.  Replacing p by lambda p with lambda != 0 multiplies
      that result by lambda, so by induction every intermediate vector is a
      nonzero multiple of the one met without the normalisation: the same
      supports, the same reduction steps, the same pivots and rank.  A
      calculator that builds its next level linearly from the stored
      vectors meets, in turn, nonzero multiples of the same generators.

    Without it the coefficients grow with every level: each level is built
    from the last one's pivots and multiplied by further Z[zeta] leads
    (for C8 (1,4) to degree 12 they reached 25,648 bits).  With it a
    reduction step multiplies the incoming vector by a pivot's integer
    lead, or divides the incoming lead by it (below), so it touches the
    vector's own entries only in the rare step where the pivot's lead
    neither is 1 nor divides the incoming lead; only the incoming lead,
    which multiplies the pivot, may be non-rational, and then its matrix
    multiplies every entry of the pivot (``_cyc_mul``).  That lead is
    nearly always +-zeta^k, whose matrix the ring keeps; c(a) is then
    +-zeta^-k too.  Nothing is done when phi = 1 or the lead is already
    rational.

    A vector that meets at least one pivot leaves ``reduce`` divided by its
    integer content, once, at the end (``_residual``), and the residual is
    the same as when every step stripped the content of its result, as the
    reduce did when it rebuilt the vector at each pivot.  Proof: let
    v_0 = w_0 be the input, v_(i+1) = (a_i v_i - v_i[0] p_i) / g_i the
    stripped steps, with a_i = p_i[0] a nonzero rational integer and
    g_i > 0 the content, and w_(i+1) = (a_i w_i - w_i[0] p_i) / d_i the
    one-pass steps, where d_i = a_i when a_i divides w_i[0] in Z[zeta]
    (coefficient by coefficient; then the step is w_i - (w_i[0] / a_i) p_i
    and touches only p_i's entries) and d_i = 1 otherwise.  If
    w_i = lambda_i v_i with lambda_i a nonzero rational, then
    w_i[0] = lambda_i v_i[0] and w_(i+1) = (lambda_i g_i / d_i) v_(i+1):
    the same supports, so the same pivots met, and lambda_(i+1) has the
    sign of lambda_i times that of d_i.  ``combine_exact`` reports a step
    with d_i < 0, so the sign of the last lambda is known.  The last
    stripped vector has content 1, so the residual divided by its content
    times that sign is the positive multiple of it with content 1: the
    two are equal.  Between steps the integers grow by at most the factors
    the stripping would have removed.
    """

    kernel_name = "combine_exact"

    def __init__(self, conductor: int):
        super().__init__(cyclotomic.zeta_ring(conductor))

    def _pivot(self, co: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """c(co[0]) co without its integer content (see the class docstring)."""
        if not any(co[0][1:]):
            return co
        ring = self.context
        co = _cyc_mul(ring.norm_cofactor(co[0]), co, ring)
        g = _content(co)
        if g > 1:
            co = [tuple(x // g for x in c) for c in co]
        return co

    def _residual(self, co: list[tuple[int, ...]], negated: bool) -> list[tuple[int, ...]]:
        """co over its integer content, negated if a step divided by a
        negative lead (see the class docstring)."""
        g = _content(co)
        if negated:
            g = -g
        if g != 1:
            co = [tuple(x // g for x in c) for c in co]
        return co


class ModularEchelon(_Echelon):
    """Echelon basis over F_p for sparse vectors of residues in [1, p); its
    context is p.

    A pivot is stored monic: ``append`` multiplies it by the inverse of its
    lead, one ``pow`` per pivot, so a reduction step is v - v[0] p and
    touches only the pivot's entries.  Each residual is then a nonzero
    multiple of the one the unnormalised pivots give (the argument of
    ``ExactEchelon``'s first proof, over a field): the same supports, leads,
    pivots and rank.  A caller that needs an exact residual divides it by
    one of its coefficients, as ``_ModularScalars.solve`` does by ``own``.
    """

    kernel_name = "combine_mod"

    def _pivot(self, co: list[int]) -> list[int]:
        """co over its lead, so the stored lead is 1."""
        if co[0] == 1:
            return co
        p = self.context
        inv = pow(co[0], -1, p)
        return [c * inv % p for c in co]
