"""Exact and modular echelon bases for sparse vectors.

The echelon classes implement incremental rank computation: vectors are
inserted one at a time and reduced against the pivots found so far.
``insert`` is ``reduce`` and then, for a nonzero residual, ``append``; a
caller that reads the residual of a dependent vector calls the two
itself.  Exact vectors carry integer cyclotomic coefficients
(fraction-free elimination with content stripping), modular vectors
single residues.  Every rank in the package goes through them; nothing in
the package divides in Q(zeta).  The tests check them against dense
elimination over Q, ``rref_fraction`` in ``tests/_oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left

from fknichols import backend, cyclotomic
from fknichols._kernels_py import _content, _cyc_mul


class ExactEchelon:
    """Echelon basis over the ring of integers Z[zeta] of Q(zeta), zeta a
    primitive ``conductor``-th root of unity, for sparse vectors.

    ``ring`` is the conductor's ``ZetaRing``, through which every product
    in Z[zeta] goes.

    Every new pivot gets a rational-integer lead.  When a reduced vector v
    with lead a becomes a pivot, it is stored as c(a) v / g, where
    c(a) = prod sigma_k(a) over k in (Z/conductor)^x, k != 1
    (``cyclotomic.norm_cofactor``) and g is the integer content of c(a) v.
    Its lead is then N(a) / g, a nonzero rational integer.  Proof that this
    changes no rank and no pivot position:

    * a != 0 and each sigma_k is a field automorphism, so c(a) is a nonzero
      element of Z[zeta] (sigma_k maps Z[zeta] to itself), and c(a) / g is a
      nonzero scalar of Q(zeta).  Q(zeta) has no zero divisors, so the
      stored vector has the support of v, hence the lead position of v, and
      spans the same Q(zeta)-line.
    * A reduction step returns the content-stripped pco[0] w - w[0] p for
      the incoming vector w and the pivot p.  Replacing p by lambda p with
      lambda != 0 multiplies that result by lambda, so by induction every
      intermediate vector is a nonzero multiple of the one met without the
      normalisation: the same supports, the same reduction steps, the same
      pivots and rank.  A calculator that builds its next level linearly
      from the stored vectors meets, in turn, nonzero multiples of the same
      generators.

    Without it the coefficients grow with every level: each level is built
    from the last one's pivots and multiplied by further Z[zeta] leads
    (for C8 (1,4) to degree 12 they reached 25,648 bits).  With it a
    reduction step multiplies the incoming vector by a pivot's integer
    lead, which ``combine_exact`` does with one integer product per
    coordinate, or not at all when the lead is 1; only the incoming lead,
    which multiplies the pivot, may be non-rational, and then its matrix
    multiplies every entry of the pivot (``_cyc_mul``).  That lead is
    nearly always +-zeta^k, whose matrix the ring keeps; c(a) is then
    +-zeta^-k too.  Nothing is done when phi = 1 or the lead is already
    rational.
    """

    def __init__(self, conductor: int):
        self.conductor = conductor
        self.ring = cyclotomic.zeta_ring(conductor)
        self.leads: list[int] = []
        self.vectors: list[tuple[list[int], list[tuple[int, ...]]]] = []

    @property
    def rank(self) -> int:
        return len(self.leads)

    def insert(self, idx: list[int], co: list[tuple[int, ...]]) -> bool:
        """Reduce (idx, co) against the basis; add as pivot if independent."""
        idx, co = self.reduce(idx, co)
        if idx:
            self.append(idx, co)
        return bool(idx)

    def reduce(self, idx: list[int], co: list[tuple[int, ...]]):
        """Reduce (idx, co) until its lead is no pivot's lead; the result is
        empty exactly when the vector lies in the span of the basis.  Every
        step multiplies the vector by a pivot's rational-integer lead and
        divides it by an integer content."""
        leads = self.leads
        while idx:
            pos = bisect_left(leads, idx[0])
            if pos == len(leads) or leads[pos] != idx[0]:
                break
            pidx, pco = self.vectors[pos]
            idx, co = backend.combine_exact(
                pco[0], idx, co, co[0], pidx, pco, self.ring
            )
        return idx, co

    def append(self, idx: list[int], co: list[tuple[int, ...]]) -> None:
        """Add a nonzero output of ``reduce`` as a pivot, scaled to a
        rational-integer lead."""
        pos = bisect_left(self.leads, idx[0])
        self.leads.insert(pos, idx[0])
        self.vectors.insert(pos, (idx, self._integer_lead(co)))

    def _integer_lead(self, co: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """c(co[0]) co without its integer content (see the class docstring)."""
        if not any(co[0][1:]):
            return co
        cof = cyclotomic.norm_cofactor(co[0], self.conductor)
        co = _cyc_mul(cof, co, self.ring)
        g = _content(co)
        if g > 1:
            co = [tuple(x // g for x in c) for c in co]
        return co


class ModularEchelon:
    """Echelon basis over F_p for sparse integer vectors."""

    def __init__(self, p: int):
        self.p = p
        self.leads: list[int] = []
        self.vectors: list[tuple[list[int], list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self.leads)

    def insert(self, idx: list[int], co: list[int]) -> bool:
        idx, co = self.reduce(idx, co)
        if idx:
            self.append(idx, co)
        return bool(idx)

    def reduce(self, idx: list[int], co: list[int]):
        """As ``ExactEchelon.reduce``; a step subtracts a multiple of a pivot
        and never rescales the vector."""
        p = self.p
        leads = self.leads
        while idx:
            pos = bisect_left(leads, idx[0])
            if pos == len(leads) or leads[pos] != idx[0]:
                break
            pidx, pco = self.vectors[pos]
            factor = co[0] * pow(pco[0], -1, p) % p
            idx, co = backend.combine_mod(1, idx, co, factor, pidx, pco, p)
        return idx, co

    def append(self, idx: list[int], co: list[int]) -> None:
        """Add a nonzero output of ``reduce`` as a pivot."""
        pos = bisect_left(self.leads, idx[0])
        self.leads.insert(pos, idx[0])
        self.vectors.insert(pos, (idx, co))
