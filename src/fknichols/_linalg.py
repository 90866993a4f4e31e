"""Exact and modular echelon bases for sparse vectors, plus small dense
rational elimination.

The echelon classes implement incremental rank computation: vectors are
inserted one at a time and reduced against the pivots found so far.  Exact
vectors carry integer cyclotomic coefficients (fraction-free elimination
with content stripping), modular vectors single residues.  Every rank in
the package goes through them.

``rref_fraction`` and ``solve_fraction`` are dense elimination over Q; they
invert a CyclotomicNumber and serve as test oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from fknichols import backend


class ExactEchelon:
    """Echelon basis over the ring of integers of Q(zeta), sparse vectors.

    phi is the coefficient length, red the reduction table for powers
    x**phi .. x**(2*phi-2) of the generator.
    """

    def __init__(self, phi: int, red: tuple[tuple[int, ...], ...]):
        self.phi = phi
        self.red = red
        self.leads: list[int] = []
        self.vectors: list[tuple[list[int], list[tuple[int, ...]]]] = []

    @property
    def rank(self) -> int:
        return len(self.leads)

    def insert(self, idx: list[int], co: list[tuple[int, ...]]) -> bool:
        """Reduce (idx, co) against the basis; add as pivot if independent."""
        while idx:
            lead = idx[0]
            pos = bisect_left(self.leads, lead)
            if pos == len(self.leads) or self.leads[pos] != lead:
                self.leads.insert(pos, lead)
                self.vectors.insert(pos, (idx, co))
                return True
            pidx, pco = self.vectors[pos]
            idx, co = backend.combine_exact(
                pco[0], idx, co, co[0], pidx, pco, self.phi, self.red
            )
        return False


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
        p = self.p
        while idx:
            lead = idx[0]
            pos = bisect_left(self.leads, lead)
            if pos == len(self.leads) or self.leads[pos] != lead:
                self.leads.insert(pos, lead)
                self.vectors.insert(pos, (idx, co))
                return True
            pidx, pco = self.vectors[pos]
            factor = co[0] * pow(pco[0], -1, p) % p
            idx, co = backend.combine_mod(1, idx, co, factor, pidx, pco, p)
        return False

    def insert_dict(self, vec: dict[int, int]) -> bool:
        items = sorted((k, c % self.p) for k, c in vec.items())
        idx = [k for k, c in items if c]
        co = [c for _, c in items if c]
        if not idx:
            return False
        return self.insert(idx, co)


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


def solve_fraction(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = rhs over Q; None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = rref_fraction(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = rref[r][ncols]
    return sol
