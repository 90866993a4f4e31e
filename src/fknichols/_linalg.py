"""Exact and modular echelon bases for sparse vectors.

Vectors are inserted one at a time and reduced against the pivots found
so far: ``insert`` is ``reduce`` and then, for a nonzero residual,
``append``; a caller that reads the residual of a dependent vector calls
the two itself.  Both modes run one skeleton, ``_Echelon``, whose step is
the fraction-free lead(p) v - lead(v) p for the pivot p that shares v's
lead.  Exact vectors carry integer cyclotomic coefficients (content
stripped), modular vectors residues.  So a modular step scales v by the
pivot's nonzero lead instead of dividing by it: each residual is a
nonzero multiple of the divided one, which changes no lead, rank or pivot,
and a ``_mul`` row, the residual over its own coefficient, is the same.
Every rank in the package goes through them; nothing divides in Q(zeta).
The tests check them against dense elimination over Q, ``rref_fraction``
in ``tests/_oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left

from fknichols import backend, cyclotomic
from fknichols._kernels_py import _content, _cyc_mul


class _Echelon:
    """The pivot list, ``rank``, ``insert``, ``append`` and ``reduce`` of
    both modes.  A subclass names its kernel in ``backend`` (looked up on
    every ``reduce``, so a patched kernel is seen), passes the context the
    kernel takes, and may store a pivot in another form (``_pivot``).
    Pivots are kept sorted by lead, with their (idx, co)."""

    kernel_name: str

    def __init__(self, context):
        self.context = context
        self.leads: list[int] = []
        self.vectors: list = []

    @property
    def rank(self) -> int:
        return len(self.leads)

    def insert(self, idx: list[int], co: list) -> bool:
        """Reduce (idx, co) against the basis; add as pivot if independent."""
        idx, co = self.reduce(idx, co)
        if idx:
            self.append(idx, co)
        return bool(idx)

    def reduce(self, idx: list[int], co: list):
        """Reduce (idx, co) until its lead is no pivot's lead; the result is
        empty exactly when the vector lies in the span of the basis.  Each
        step replaces v by lead(p) v - lead(v) p for the pivot p with v's
        lead, which must move the lead past it: a step that does not raises
        ArithmeticError instead of looping."""
        kernel = getattr(backend, self.kernel_name)
        context = self.context
        leads = self.leads
        while idx:
            lead = idx[0]
            pos = bisect_left(leads, lead)
            if pos == len(leads) or leads[pos] != lead:
                break
            pidx, pco = self.vectors[pos]
            idx, co = kernel(pco[0], idx, co, co[0], pidx, pco, context)
            if idx and idx[0] <= lead:
                raise ArithmeticError(
                    f"{self.kernel_name} left the lead at {idx[0]}, not past {lead}"
                )
        return idx, co

    def append(self, idx: list[int], co: list) -> None:
        """Add a nonzero output of ``reduce`` as a pivot."""
        pos = bisect_left(self.leads, idx[0])
        self.leads.insert(pos, idx[0])
        self.vectors.insert(pos, (idx, self._pivot(co)))

    def _pivot(self, co: list) -> list:
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


class ModularEchelon(_Echelon):
    """Echelon basis over F_p for sparse integer vectors; its context is p,
    and a pivot is stored as ``reduce`` left it."""

    kernel_name = "combine_mod"
