"""Graded dimensions of Nichols algebras and their quadratic covers.

B(V) = T(V) / ker S, where S_d, the sum over S_d of the braid lifts, is the
quantum symmetrizer of degree d; so B^d = T^d / ker S_d, and [x] denotes
the class of x.  Psi preserves the multidegree (the sorted summand labels),
so every rank is computed block by block, one block per multidegree.

The Nichols route works in quotient coordinates: the skew-derivation
description of B(V) (Milinski-Schneider and Grana, both in Contemp. Math.
267, 2000).  Write c_i for Psi at positions i, i+1 and

    T'_d = Id + c_(d-1) + c_(d-1) c_(d-2) + ... + c_(d-1) ... c_1,
    T_d  = Id + c_(d-1) + c_(d-2) c_(d-1) + ... + c_1 ... c_(d-1).

Every permutation in S_d is uniquely a product s t, with lengths adding,
of an s in S_(d-1) and a t = s_(d-1) ... s_i (i = d gives the identity),
and likewise a product t' s' with t' = s_i ... s_(d-1) and s' in S_(d-1).
The braid lifts of these t and t' are the terms of T'_d and T_d, so
Matsumoto's theorem gives

    S_d = (S_(d-1) ox Id) T'_d = T_d (S_(d-1) ox Id).

1. Right multiplication is well defined.  If S_(d-1) x = 0 then
   S_d (x ox a) = T_d (S_(d-1) x ox a) = 0, so ker S_(d-1) ox V lies in
   ker S_d, and mul([x] ox a) = [x ox a] is a map B^(d-1) ox V -> B^d.
2. Let phi_d = ([.] ox Id) T'_d : T^d -> B^(d-1) ox V.  Then ker phi_d =
   ker S_d over any field.  The map iota: B^(d-1) -> T^(d-1),
   [x] -> S_(d-1) x, is well defined and injective, and
   S_(d-1) = iota [.]; so S_d = (iota ox Id) phi_d, and iota ox Id is
   injective.  Hence phi_d induces an injection of B^d into
   B^(d-1) ox V, dim B^d = rank phi_d, and B^d is spanned by the [w a]
   with w in a basis of B^(d-1) and a in V.
3. The recursion.  phi_1(a) = 1 ox a, and for d >= 2

       phi_d(x a) = [x] ox a + (mul ox Id)(Id ox Psi)(phi_(d-1)(x) ox a).

   Indeed T'_d = Id + c_(d-1) (T'_(d-1) ox Id).  Write T'_(d-1) x as a
   sum of y_j ox b_j with y_j in T^(d-2); c_(d-1) acts on b_j ox a
   alone, and [.] ox Id takes y_j ox Psi(b_j ox a) to
   (mul ox Id)([y_j] ox Psi(b_j ox a)) by 1, while the [y_j] ox b_j sum
   to phi_(d-1)(x).  By 1 and 2 both sides depend on x only through
   [x], so x may be any element of B^(d-1).

Level d therefore needs only phi_(d-1) of a basis of B^(d-1) and mul on
B^(d-2) ox V: each vector has at most dim * dim B^(d-1) coordinates, where
the image of S_d in T^d needs the blocks of V^(ox d).  The ranks are those
of S_d over the same field, so exact mode (Z[zeta], fraction-free) and
modular mode (F_p) share the one step of ``_Calculator``.  The direct
sum-over-permutations route, ``direct_graded_dim``, is kept as an
independent oracle.  Psi acts on V^(ox d) through one sparse operator,
``_apply_psi_sparse``, which that oracle and ``yang_baxter_holds`` apply;
the Nichols step needs Psi on V ox V only and reads the braiding tables.
Coefficients are integer tuples in Z[zeta_L] or residues mod a prime.

The quadratic cover A = T(V)/(R), R = ker(Psi + Id) on V ox V, runs the
same step, with [x] the class of x in A.  Its ideal I has I_0 = I_1 = 0
and I_d = I_(d-1) ox V + T^(d-2) ox R for d >= 2: the terms
T^i ox R ox T^j with j >= 1 lie in I_(d-1) ox V.

4. Right multiplication is well defined: I_(d-1) ox V lies in I_d, so
   mul([x] ox a) = [x a] is a map A^(d-1) ox V -> A^d, and it is onto.
5. Its kernel is the image of A^(d-2) ox R.  As A^(d-1) ox V =
   T^d / (I_(d-1) ox V), A^d = (A^(d-1) ox V) / image(T^(d-2) ox R).
   That image factors through A^(d-2) ox R, because I_(d-2) ox R lies in
   I_(d-2) ox V ox V, inside I_(d-1) ox V; and by 4 the image of y ox r,
   r = sum r_ab a ox b, is sum r_ab mul([y] ox a) ox b.

So level d first eliminates these seeds, for y in a basis of A^(d-2) and
r in a basis of R, and then the candidates [y_b a], each as its unit
vector: a candidate is dependent on the earlier ones exactly when its unit
vector lies in the span of the seeds and of their unit vectors.  R needs no
elimination: it is read off the cycles of the monomial braiding on V ox V
(see ``quadratic_relations``).  Both routes run on one skeleton,
``_Calculator``: one level step, one list of levels, one degree check and
one Hilbert loop; each route supplies only the vector of a candidate and
the seeds.

``hilbert_compare`` runs both calculators in lockstep, and the cover reuses
the Nichols levels while the two series agree.  B(V) is a quotient of A:
S_2 = Id + Psi kills R, and ker S is an ideal, so (R) lies in ker S, over
Q(zeta) and over F_p alike.

6. The surjection.  A -> B(V) is onto and keeps the multidegree.  Suppose
   A^(d-1) = B^(d-1) and A^(d-2) = B^(d-2), with the Nichols bases and mul
   (the cover has adopted both levels).  Then by 5, block by block,
   A^d = (B^(d-1) ox V) / span(seeds), and the seeds, being zero in A,
   lie in the kernel K of mul: B^(d-1) ox V -> B^d.  mul is onto (2), so
   dim K = candidates - dim B^d.  Hence dim A^d = dim B^d in a block
   exactly when the seeds of that block span K, and then A^d = B^d as
   quotients of B^(d-1) ox V: the Nichols basis of B^d and its mul rows
   serve A^d as they are.
7. The early stop and the hand-over.  A block's seeds span a subspace of K,
   so once their rank reaches dim K every further seed of that block is
   dependent, and the block takes no more.  If every block reaches dim K,
   the cover adopts level d of B(V) and eliminates no candidate.  If one
   falls short, A^d != B^d; each full block's echelon already spans the
   image of all its seeds, so the cover's own candidate phase runs on the
   echelons as they are, and from level d on it runs alone.
8. The rank-only top.  No level reads the mul rows into the highest level
   a caller asks for, so that level reduces each candidate's vector
   without its tag column (see ``_Calculator._extend``), and a candidate
   is a basis element exactly when its residual is nonempty.  The pivots
   and ranks are those of the tagged reduction.  The tag columns sort
   after every key column, so while a vector has a key column its lead is
   one, and a step lead(p) v - lead(v) p, acting column by column, has the
   key part lead(p) v_key - lead(v) p_key.  By induction every untagged
   vector, residual or stored pivot, is a nonzero multiple of the key part
   of the tagged one: a step multiplies the two multiples; exact content
   stripping divides by integer contents, which may differ (the tagged
   content also divides the tag entries), so the multiple changes by a
   nonzero rational; and the ``_pivot`` normalisation multiplies by
   c(a) / g, where c(t a) = t^(phi - 1) c(a) for rational t (each sigma_k
   fixes Q), again a nonzero rational multiple, and the test for a
   rational lead gives the same answer.  So each step meets the same
   pivot, the key supports agree throughout, and the tagged residual's
   lead is a tag column, the candidate dependent, exactly when the
   untagged residual is empty.  The seeds carry no tag either way.
9. Conjugacy classes at the top.  Let V be a Yetter-Drinfeld module over a
   group G with a basis of homogeneous vectors, as ``space_from_yd`` builds
   Y_G: r_s has degree s, G acts by h . r_t = lambda(h, t) r_(h t h^-1)
   with lambda(h, t) a root of unity, and Psi(r_s ox r_t) = s . r_t ox r_s
   = lambda(s, t) r_(s t s^-1) ox r_s.  A word r_(s_1) ... r_(s_d) has the
   degree s_1 ... s_d.
   a. Psi keeps the degree: it turns s t into (s t s^-1) s = s t.  So do
      every c_i, S_d, T_d and T'_d, and R = ker(Psi + Id) is spanned by
      Psi-cycle vectors of one degree each (``quadratic_relations``).  So
      ker S_d, I_d, B^d and A^d split by degree, and phi_d and mul keep it:
      the vector of a candidate y_b a of degree g = deg(y_b) deg(a) lies
      in the pairs (b', a') of degree g, and the seed of y_c ox r has the
      degree deg(y_c) deg(r).
   b. h^(ox d) commutes with Psi, S_d and R, for h in G.  V is a G-module,
      so h . (s . r_t) = (h s h^-1) . (h . r_t), and h . r_s is a multiple
      of r_(h s h^-1); hence (h ox h) Psi(r_s ox r_t) =
      (h s h^-1) . (h . r_t) ox h . r_s = Psi(h . r_s ox h . r_t).  So
      h^(ox d) commutes with every c_i, S_d, T_d and T'_d, and maps R, I_d
      and ker S_d onto themselves: it induces automorphisms of B^d and A^d
      that carry the degree-g part onto the degree-h g h^-1 part.  In
      modular mode the same identities hold mod p, since every matrix here
      has entries in Z[zeta] and zeta -> z is a ring map, and the modular
      relations are the exact R reduced mod p, so their span is h-stable
      too.  The matrix of h^(ox d) is monomial with roots of unity as
      entries, whose images are powers of z, units mod p; so it stays
      invertible, and the argument holds for the ranks over F_p.
   c. Conjugation keeps the multidegree: r_(h t h^-1) lies in the
      conjugation orbit of r_t, its summand, so h^(ox d) maps each block
      onto itself.  By b and c, in each block the dimension of the
      degree-g part of B^d, and of A^d, is a class function of g.  The
      letters' degrees, the reflections, generate G, so the class of g is
      its orbit under conjugation by them (``_Degrees.weight``).
      ``BraidedSpace`` checks, for the degrees it is given, that each
      Psi(e_a ox e_b) is g_a . e_b ox e_a with g_a . e_b of degree
      g_a g_b g_a^-1 and in the summand of e_b.
   d. The representative-only echelon.  By a, every candidate and seed is
      homogeneous, and vectors of different degrees have disjoint
      supports.  A reduction step subtracts from a residual the pivot whose
      lead is the residual's lead; so by induction every residual and
      every stored pivot is homogeneous, and a residual of degree g meets
      only pivots of degree g.  Hence a degree-g vector reduces the same
      whether or not vectors of other degrees entered the echelon: the
      echelon fed only the seeds and candidates of the representative
      degrees finds exactly the full echelon's pivots of those degrees,
      and the block's dimension is the sum, over representatives g, of
      rank_g |class(g)|.  In the cover of ``hilbert_compare``, a block's
      room at the top is the sum of its representative degrees' room, each
      at least the rank of its own seeds, so the block is full exactly when
      each of them is, and then by b every degree of the block is (point
      7).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from math import gcd, lcm
from operator import add

from fknichols import _linalg
from fknichols._kernels_py import _content, _cyc_mul, _scaled
from fknichols.cyclotomic import (
    BadModularSpecError,
    CyclotomicNumber,
    ModularSpec,
    find_modular_spec,
    zeta_ring,
)
from fknichols.reflection_groups import GroupElement, decompose_yd

DEFAULT_BLOCK_BUDGET = 20_000


class ResourceBudgetError(RuntimeError):
    """A block exceeds the configured size budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"block of size {required} exceeds the budget {budget}; "
            "raise block_budget to proceed"
        )
        self.required = required
        self.budget = budget


# the one element of the trivial group G(1,1,0): the group degree of every
# basis vector of a space with no group grading
_TRIVIAL = GroupElement(1, (), ())


class BraidedSpace:
    """A braided vector space with monomial braiding and summand grading.

    braid_targets/braid_exps encode Psi(e_a ox e_b) = zeta_L^e e_a' ox e_b'
    on packed pair indices a*dim+b.  grading assigns a summand label to each
    basis vector; the sorted labels of a basis tensor are its block.

    degrees assigns each basis vector a group degree, an element of a group
    (with ``*``, ``inverse`` and equality), for a Yetter-Drinfeld module
    over that group: Psi(e_a ox e_b) must be g_a . e_b ox e_a, with
    g_a . e_b a multiple of a basis vector of degree g_a g_b g_a^-1 and of
    the same summand label (point 9 of the module docstring).  Without
    degrees every basis vector has the trivial degree.  ``degree_table``
    interns the degrees for every calculator on this space.
    """

    def __init__(
        self,
        dim: int,
        scalar_order: int,
        braid_targets,
        braid_exps,
        grading,
        name: str = "",
        degrees=None,
    ):
        self.dim = dim
        self.scalar_order = scalar_order
        self.braid_targets = tuple(braid_targets)
        self.braid_exps = tuple(e % scalar_order for e in braid_exps)
        self.grading = tuple(grading)
        self.name = name
        if len(self.braid_targets) != dim * dim or len(self.braid_exps) != dim * dim:
            raise ValueError("braiding tables must have dim^2 entries")
        if len(self.grading) != dim:
            raise ValueError("grading must label every basis vector")
        if sorted(self.braid_targets) != sorted(range(dim * dim)):
            raise ValueError("braiding must permute the pair basis")
        if degrees is None:
            self.degrees = (_TRIVIAL,) * dim
        else:
            self.degrees = tuple(degrees)
            self._check_degrees()
        self.degree_table = _Degrees(self.degrees)

    def _check_degrees(self):
        degrees = self.degrees
        if len(degrees) != self.dim:
            raise ValueError("degrees must give every basis vector a degree")
        for a, g in enumerate(degrees):
            inverse = g.inverse()
            for b, h in enumerate(degrees):
                c, d, _ = self.braid_pair(a, b)
                if d != a or degrees[c] != g * h * inverse or self.grading[c] != self.grading[b]:
                    raise ValueError(
                        "the braiding is not that of a Yetter-Drinfeld module "
                        f"graded by these degrees at the pair ({a}, {b})"
                    )

    def braid_pair(self, a: int, b: int) -> tuple[int, int, int]:
        """Psi(e_a ox e_b) = zeta^e e_c ox e_d: returns (c, d, e)."""
        t = self.braid_targets[a * self.dim + b]
        return t // self.dim, t % self.dim, self.braid_exps[a * self.dim + b]


class _Degrees:
    """The group degrees of a space's tensors, interned as ints.

    A word in the basis vectors has the product of their degrees, in order.
    ``elements[i]`` is degree i; 0 is the identity, the degree of the unit.
    ``times(i)`` lists the ids of elements[i] * g_a over the letters a, and
    ``weight(i)`` is the size of the conjugacy class of degree i if i is
    the class's representative, its member with the least id, and 0
    otherwise.  The class is the orbit under conjugation by the letters'
    degrees, which for a reflection group are its generating reflections.
    Both are memoized; the table belongs to the space, so that the
    calculators of ``hilbert_compare`` share its ids."""

    def __init__(self, letters):
        self.letters = letters
        self._inverses = [g.inverse() for g in letters]
        self.elements: list = []
        self._ids: dict = {}
        self._times: list = []
        self._weights: dict = {}
        self._intern(letters[0] * self._inverses[0] if letters else _TRIVIAL)

    def _intern(self, element) -> int:
        i = self._ids.get(element)
        if i is None:
            i = self._ids[element] = len(self.elements)
            self.elements.append(element)
            self._times.append(None)
        return i

    def times(self, i: int) -> list[int]:
        row = self._times[i]
        if row is None:
            g = self.elements[i]
            row = self._times[i] = [self._intern(g * x) for x in self.letters]
        return row

    def weight(self, i: int) -> int:
        weight = self._weights.get(i)
        if weight is None:
            orbit = {i}
            stack = [i]
            while stack:
                g = self.elements[stack.pop()]
                for x, inverse in zip(self.letters, self._inverses):
                    j = self._intern(x * g * inverse)
                    if j not in orbit:
                        orbit.add(j)
                        stack.append(j)
            first = min(orbit)
            for j in orbit:
                self._weights[j] = len(orbit) if j == first else 0
            weight = self._weights[i]
        return weight


def space_from_diagonal(braiding) -> BraidedSpace:
    """BraidedSpace of a DiagonalBraiding: Psi(e_a ox e_b) = q_ab e_b ox e_a."""
    dim = braiding.rank
    n = braiding.order
    targets = []
    exps = []
    for a in range(dim):
        for b in range(dim):
            targets.append(b * dim + a)
            exps.append(braiding.exponents[a][b])
    return BraidedSpace(
        dim,
        n,
        targets,
        exps,
        grading=tuple(range(1, dim + 1)),
        name=f"diagonal(order={n})",
    )


def space_from_yd(module) -> BraidedSpace:
    """BraidedSpace of a reflection-group YD module, graded by summand label,
    each r_s of group degree s."""
    dim = module.dim
    L = module.scalar_order
    labels = [None] * dim
    for summand in decompose_yd(module):
        for i in summand.indices:
            labels[i] = summand.label
    targets = []
    exps = []
    for a in range(dim):
        for b in range(dim):
            c, d, e = module.braid(a, b)
            targets.append(c * dim + d)
            exps.append(e)
    return BraidedSpace(
        dim,
        L,
        targets,
        exps,
        grading=tuple(labels),
        name=f"YD(G({module.params.m},{module.params.p},{module.params.n}))",
        degrees=[s.to_element(module.params) for s in module.basis],
    )


# ---------------------------------------------------------------------------
# Braid lifts


def reduced_word(perm) -> list[int]:
    """A reduced word (1-based adjacent transposition positions) for perm,
    built by bubble sort; applying Psi at the listed positions in order
    realizes the braid lift of perm."""
    p = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                changed = True
    return word


def _apply_psi_sparse(space, scalars, vec: dict, pos: int, degree: int) -> dict:
    """Apply Psi at 1-based position pos to a sparse packed vector."""
    dim = space.dim
    w = dim ** (degree - pos - 1)
    pair_mod = dim * dim
    targets = space.braid_targets
    exps = space.braid_exps
    out = {}
    for key, c in vec.items():
        pair = (key // w) % pair_mod
        t = targets[pair]
        e = exps[pair]
        out[key + (t - pair) * w] = scalars.mul_zeta(c, e) if e else c
    return out


def yang_baxter_holds(space: BraidedSpace) -> bool:
    """(Psi ox Id)(Id ox Psi)(Psi ox Id) = (Id ox Psi)(Psi ox Id)(Id ox Psi)
    on every basis tensor of V ox V ox V, in Z[zeta]."""
    scalars = _ExactScalars(space.scalar_order)

    def lift(key, word):
        vec = {key: scalars.one}
        for pos in word:
            vec = _apply_psi_sparse(space, scalars, vec, pos, 3)
        return vec

    return all(lift(k, (1, 2, 1)) == lift(k, (2, 1, 2)) for k in range(space.dim**3))


# ---------------------------------------------------------------------------
# Scalar engines


class _ExactScalars:
    """Integer cyclotomic coefficients at the space's conductor."""

    def __init__(self, scalar_order: int):
        self.order = scalar_order
        self.ring = zeta_ring(scalar_order)
        self.one = tuple([1] + [0] * (self.ring.phi - 1))
        self.zeta_rows = self.ring.powers

    def mul_zeta(self, c, e: int):
        if e == 0:
            return c
        return _cyc_mul(self.zeta_rows[e], (c,), self.ring)[0]

    def vector(self, terms, dim: int, key: int | None = None) -> tuple:
        """(D, idx, co) with (1/D) sum co_k e_(idx_k), keys in decreasing
        order, equal to e_key (if a key is given) plus the sum over the
        terms (c, e, a, (D', idx', co')) of c zeta^e (1/D') sum_j co'_j
        e_(idx'_j dim + a), that is c zeta^e [y a'] ox a for a row of
        ``_mul``.  D is the least common multiple of the rows' denominators,
        divided by its gcd with the content of the vector.

        One pass over the terms.  c zeta^e is one product by the matrix
        of zeta^e (``mul_zeta``); it then multiplies its whole row
        at once (``_scaled``), and an empty row (y a' = 0) or a row whose
        one coefficient is 1 (every pivot row) costs no product.  Sums are
        tested for zero once, at the end."""
        ring = self.ring
        one = self.one
        den = lcm(*[row[0] for *_, row in terms])
        vec = {} if key is None else {key: (den,) + one[1:]}
        get = vec.get
        for c, e, a, (rden, ridx, rco) in terms:
            if not ridx:
                continue
            c = self.mul_zeta(c, e)
            if rden != den:
                n = den // rden
                c = tuple([n * x for x in c])
            row = (c,) if len(rco) == 1 and rco[0] == one else _scaled(c, rco, ring)
            for j, t in zip(ridx, row):
                k = j * dim + a
                s = get(k)
                vec[k] = t if s is None else tuple(map(add, s, t))
        idx = sorted(vec, reverse=True)
        co = [vec[k] for k in idx]
        if (0,) * len(one) in co:
            idx = [k for k, c in zip(idx, co) if any(c)]
            co = [c for c in co if any(c)]
        den, co = self.lowest_terms(den, co)
        return den, idx, co

    @staticmethod
    def nonzero(c) -> bool:
        return any(c)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def new_echelon(self):
        return _linalg.ExactEchelon(self.order)

    @staticmethod
    def lowest_terms(den: int, co):
        """The vector co / den as (D, co') with D a divisor of den."""
        g = gcd(den, _content(co)) if den > 1 else 1
        if g > 1:
            co = [tuple(x // g for x in c) for c in co]
        return den // g, co

    @staticmethod
    def solve(den: int, own, idx, co):
        """x = -(sum co_k y_k) / (own den) as a row (D, idx, co) of integer
        coefficients over the positive integer D.  ``own`` is a rational
        integer: the echelon only multiplies it by pivot leads, which are,
        and divides the residual by an integer content."""
        d = own[0] * den
        if d > 0:
            co = [tuple(-x for x in c) for c in co]
        d, co = _ExactScalars.lowest_terms(abs(d), co)
        return d, idx, co

    @staticmethod
    def from_cyclotomic(v: CyclotomicNumber):
        return v.coeffs


class _ModularScalars:
    """Residues mod spec.prime with zeta mapped to spec.zeta_image."""

    def __init__(self, scalar_order: int, spec: ModularSpec):
        if spec.order != scalar_order:
            raise BadModularSpecError(
                f"spec order {spec.order} does not match scalar order {scalar_order}"
            )
        self.order = scalar_order
        self.spec = spec
        self.p = spec.prime
        self.one = 1
        self.zeta_rows = spec.zeta_powers()

    def mul_zeta(self, c, e: int):
        if e == 0:
            return c
        return c * self.zeta_rows[e] % self.p

    def vector(self, terms, dim: int, key: int | None = None) -> tuple:
        """As ``_ExactScalars.vector``, with D = 1 (every row has
        denominator 1).  The products are added as plain integers, and
        each key is reduced mod p once, at the end."""
        zeta = self.zeta_rows
        vec = {} if key is None else {key: 1}
        get = vec.get
        for c, e, a, (_, ridx, rco) in terms:
            if e:
                c *= zeta[e]
            for j, r in zip(ridx, rco):
                k = j * dim + a
                vec[k] = get(k, 0) + c * r
        p = self.p
        idx = sorted(vec, reverse=True)
        co = [vec[k] % p for k in idx]
        if 0 in co:
            idx = [k for k, x in zip(idx, co) if x]
            co = [x for x in co if x]
        return 1, idx, co

    def nonzero(self, c) -> bool:
        return c % self.p != 0

    def add(self, a, b):
        return (a + b) % self.p

    def new_echelon(self):
        return _linalg.ModularEchelon(self.p)

    def solve(self, den: int, own, idx, co):
        """As ``_ExactScalars.solve``; every row has denominator 1.  The
        echelon stores its pivots monic, so a residual is a nonzero multiple
        of the one unnormalised pivots would give; own carries that scalar
        too, and dividing by own removes it: the row is the same."""
        inv = pow(own * den, -1, self.p)
        return 1, idx, [-c * inv % self.p for c in co]

    def from_cyclotomic(self, v: CyclotomicNumber):
        return self.spec.reduce(v)


def _make_scalars(space: BraidedSpace, mode: str, spec: ModularSpec | None):
    if mode == "exact":
        return _ExactScalars(space.scalar_order)
    if mode == "modular":
        return _ModularScalars(space.scalar_order, spec or find_modular_spec(space.scalar_order))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Block bookkeeping


def _block_of_key(space: BraidedSpace, key: int, degree: int):
    """The multidegree (sorted summand labels) of a packed tensor index.

    Psi also preserves the group degree of a YD module, but an echelon
    reduction meets only the pivot with the vector's own lead, so vectors
    of different group degrees never combine: that split changes no rank,
    and a block is not split by it.  Only the rank-only top level uses the
    group degrees, to eliminate one degree per conjugacy class (point 9).
    """
    dim = space.dim
    return tuple(sorted(space.grading[key // dim**k % dim] for k in range(degree)))


# ---------------------------------------------------------------------------
# The calculator skeleton and the Nichols route


class _Calculator:
    """The level step, level list and degree check shared by the Nichols
    and quadratic calculators (see the module docstring for the proofs).

    Level d holds a basis y of A^d, the degree-d part of B(V) or of the
    quadratic cover, each y an integer multiple of the class of a word.
    ``self._levels[d][block]`` lists, for the basis elements of that block,
    their vectors (idx, co) over the pairs (b, a) of A^(d-1) ox V, packed
    as b * dim + a, where b numbers the basis of A^(d-1) in the order of
    ``_previous_level``.  Level 0 holds the unit as the placeholder
    ([0], [1]).  ``self._mul`` is the right multiplication into the last
    level: ``self._mul[b * dim + a]`` is the row (D, idx, co) with
    [y_b a] = (1/D) sum co_k y_(idx_k), D a positive integer (1 in modular
    mode).  A route supplies only the vector of a candidate (``_image``)
    and the vectors that stand for zero (``_seeds``), and the scalar engine
    assembles each vector in one pass (``vector``); ``_level`` is the one
    place that checks a degree.  ``self._quotient`` is None, or, in the
    cover of ``hilbert_compare``, the Nichols calculator whose levels this
    one has adopted so far (points 6 and 7).

    ``self._degrees[d]`` lists the group degree of each basis element of
    level d, as an id of the space's ``degree_table``, in the order of
    ``_previous_level``, and ``self._dims[d]`` maps each block of level d to
    its dimension, which ``multidegree_dims`` reads.

    ``self.top`` is None, or the highest degree the caller will ask for
    (``_hilbert`` and ``hilbert_compare`` set it to ``max_degree``).  That
    level is computed rank-only (point 8), and only in the degrees that
    represent their conjugacy class (point 9): it keeps the basis vectors
    of those degrees, as without a top, but no right-multiplication rows,
    so ``self._mul`` is None once it is built, and asking for a degree
    above the top raises ValueError rather than build a level on rows that
    were never made.

    ``block_budget`` bounds the candidates (basis element of the level
    below, letter) of one multidegree, doubled in modular mode, where
    elimination is cheaper; a larger block raises ResourceBudgetError, and
    None means no bound.
    """

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        self.space = space
        self.scalars = _make_scalars(space, mode, spec)
        if block_budget is not None and mode == "modular":
            block_budget *= 2
        self.block_budget = block_budget
        self._levels: list[dict] = [{(): [([0], [self.scalars.one])]}]
        self._degrees: list[list[int]] = [[0]]
        self._dims: list[dict] = [{(): 1}]
        self._mul: list = []
        self._quotient: _Calculator | None = None
        self.top: int | None = None

    def _level(self, degree: int) -> dict:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.top is not None and degree > self.top:
            raise ValueError(
                f"degree {degree} is above the top degree {self.top} of this "
                "calculator, whose top level keeps no multiplication rows"
            )
        while len(self._levels) <= degree:
            self._extend()
        return self._levels[degree]

    def multidegree_dims(self, degree: int) -> dict:
        """The dimension of each multidegree at this degree."""
        self._level(degree)
        return dict(self._dims[degree])

    def graded_dim(self, degree: int) -> int:
        return sum(self.multidegree_dims(degree).values())

    def _previous_level(self, back: int = 1):
        """The blocks of the level ``back`` below the next one, with their
        vectors, in the order that numbers its basis.  Every level dict is
        in repr order of its blocks: ``_extend`` fills it while it walks
        its blocks sorted by repr, an adopted level is a Nichols level
        built the same way, and level 0 has one block."""
        return self._levels[-back].items()

    def _check_budget(self, required: int):
        if self.block_budget is not None and required > self.block_budget:
            raise ResourceBudgetError(required, self.block_budget)

    def _extend(self):
        """Append level d: eliminate the candidates y_b a block by block.

        The seeds enter the echelons of their blocks first.  While the
        levels so far are those of ``_quotient`` and it holds level d, a
        block takes seeds only until their rank reaches the kernel of
        A^(d-1) ox V -> B^d, and if every block reaches it, level d is
        adopted and no candidate is eliminated (point 7).  Candidate
        y_b a then enters its block's echelon as the vector (D v, 1 at its
        tag column), where (D, v) is its ``_image``; it stands for the
        element D y_b a of A^d.  The keys of A^(d-1) ox V go to the columns
        0 .. tag - 1 in decreasing order: eliminating from the largest pair
        down meets far less fill-in (G(3,3,3) to degree 6 runs about four
        times faster than with increasing columns).  The tag column,
        tag + the index the candidate takes if it is a pivot, sorts after
        them.  Modulo the span of the seeds, every stored vector is the
        image of the combination of basis elements that its tag columns
        name, and reduction keeps that; the image is injective modulo that
        span, so a residual whose lead is a tag column stands for zero: the
        candidate is dependent, with own D y_b a + sum co_k y_k = 0, where
        own is its coefficient at its own tag, the last column.  In exact
        mode own is a rational integer (a reduction step multiplies it by a
        pivot lead, which ``ExactEchelon`` keeps a rational integer, or
        leaves it, and the residual is divided by its integer content), so
        the row of y_b a has an integer denominator and nothing divides in
        Q(zeta).  A pivot's basis element is D y_b a itself.

        At ``self.top`` the candidates enter without their tag columns and
        a candidate is a pivot exactly when ``insert`` keeps its residual
        (point 8): the level gets the same basis vectors, but no row is
        solved and ``self._mul`` becomes None.  There, after the budget
        check of each whole block, only the candidates and seeds whose group
        degree represents its conjugacy class enter (point 9), and a block's
        dimension is the sum of its pivots' class sizes.
        """
        scalars = self.scalars
        dim = self.space.dim
        grading = self.space.grading
        table = self.space.degree_table
        weight = table.weight
        rank_only = len(self._levels) == self.top
        previous = self._previous_level()
        basis = [vec for _, vectors in previous for vec in vectors]
        # degree[b * dim + a]: the group degree of y_b a
        degree = [g for h in self._degrees[-1] for g in table.times(h)]
        candidates: dict = {}
        key = 0
        for block, vectors in previous:
            for _ in vectors:
                for a in range(dim):
                    candidates.setdefault(tuple(sorted(block + (grading[a],))), []).append(key)
                    key += 1
        blocks = sorted(candidates, key=repr)
        for block in blocks:
            self._check_budget(len(candidates[block]))
        if rank_only:
            candidates = {
                block: [k for k in keys if weight(degree[k])] for block, keys in candidates.items()
            }
        tag = dim * len(basis)
        # room[block]: the dimension of the kernel the seeds have yet to
        # span (at the top, in the representative degrees)
        quotient = self._quotient
        room = None
        if quotient is not None and len(quotient._levels) == len(self._levels) + 1:
            target = quotient._levels[-1]
            room = {
                block: len(keys) - len(target.get(block, ()))
                for block, keys in candidates.items()
            }
        echelons: dict = {}
        for block, g, terms in self._seeds():
            if (rank_only and not weight(g)) or (room is not None and not room.get(block)):
                continue
            _, idx, co = scalars.vector(terms, dim)
            if block not in echelons:
                echelons[block] = scalars.new_echelon()
            if echelons[block].insert([tag - 1 - k for k in idx], co) and room is not None:
                room[block] -= 1
        if room is not None and not any(room.values()):
            self._levels.append(target)
            self._degrees.append(quotient._degrees[-1])
            self._dims.append(quotient._dims[-1])
            self._mul = quotient._mul
            return
        self._quotient = None
        mul = None if rank_only else [None] * tag
        level = {}
        degrees = []
        dims = {}
        count = 0
        for block in blocks:
            echelon = echelons.pop(block, None) or scalars.new_echelon()
            found = []
            for key in candidates[block]:
                den, idx, co = self._image(key, basis)
                cols = [tag - 1 - k for k in idx]
                if rank_only:
                    if echelon.insert(cols, co):
                        found.append((idx, co))
                        degrees.append(degree[key])
                    continue
                cols.append(tag + count)
                ridx, rco = echelon.reduce(cols, co + [scalars.one])
                if ridx[0] < tag:
                    echelon.append(ridx, rco)
                    found.append((idx, co))
                    degrees.append(degree[key])
                    mul[key] = (den, [count], [scalars.one])
                    count += 1
                else:
                    mul[key] = scalars.solve(den, rco[-1], [k - tag for k in ridx[:-1]], rco[:-1])
            if found:
                level[block] = found
                dims[block] = sum(map(weight, degrees[-len(found) :])) if rank_only else len(found)
        self._mul = mul
        self._levels.append(level)
        self._degrees.append(degrees)
        self._dims.append(dims)


class NicholsCalculator(_Calculator):
    """Graded dimensions of B(V), level by level in quotient coordinates:
    the vector of y_b a is phi_d(y_b a), and there are no seeds, since
    phi_d is injective on B^d."""

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        super().__init__(space, mode, spec, block_budget)
        # _steps[a][a1] = (a2 - a1, a3, e) for Psi(e_a1 ox e_a) = zeta^e e_a2 ox e_a3
        self._steps = [[] for _ in range(space.dim)]
        for a, steps in enumerate(self._steps):
            for a1 in range(space.dim):
                a2, a3, e = space.braid_pair(a1, a)
                steps.append((a2 - a1, a3, e))

    def _image(self, key: int, basis) -> tuple:
        """phi_d(y_b a) as a ``vector``, for key = b * dim + a, by the
        recursion phi_d(x a) = x ox a + (mul ox Id)(Id ox Psi)(phi_(d-1)(x) ox a):
        an entry c at the pair (b1, a1) of phi_(d-1)(y_b) is the term
        c zeta^e [y_b1 a2] ox a3, whose row of ``_mul`` is b1 dim + a2, and
        is left out when that row is empty (y_b1 a2 = 0)."""
        dim = self.space.dim
        b, a = divmod(key, dim)
        terms = []
        if len(self._levels) > 1:
            steps = self._steps[a]
            mul = self._mul
            for k, c in zip(*basis[b]):
                shift, a3, e = steps[k % dim]
                row = mul[k + shift]
                if row[1]:
                    terms.append((c, e, a3, row))
        return self.scalars.vector(terms, dim, key)

    def _seeds(self):
        return ()


def nichols_graded_dim(
    space: BraidedSpace,
    degree: int,
    mode: str = "exact",
    spec: ModularSpec | None = None,
    block_budget: int | None = DEFAULT_BLOCK_BUDGET,
) -> int:
    """dim B(V)_degree = rank of the degree-d quantum symmetrizer."""
    return NicholsCalculator(space, mode, spec, block_budget).graded_dim(degree)


def direct_graded_dim(
    space: BraidedSpace,
    degree: int,
    mode: str = "exact",
    spec: ModularSpec | None = None,
) -> int:
    """Oracle route: assemble S_d as the explicit sum of the |S_d| braid
    lifts applied to every basis tensor, and take the rank blockwise."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return 1
    space_dim = space.dim
    scalars = _make_scalars(space, mode, spec)
    words = [reduced_word(p) for p in _permutations(range(degree))]
    echelons: dict = {}
    for key in range(space_dim**degree):
        total: dict = {}
        for word in words:
            vec = {key: scalars.one}
            for pos in word:
                vec = _apply_psi_sparse(space, scalars, vec, pos, degree)
            for k, c in vec.items():
                total[k] = scalars.add(total[k], c) if k in total else c
        total = {k: c for k, c in total.items() if scalars.nonzero(c)}
        if not total:
            continue
        block = _block_of_key(space, next(iter(total)), degree)
        if block not in echelons:
            echelons[block] = scalars.new_echelon()
        items = sorted(total.items())
        echelons[block].insert([k for k, _ in items], [c for _, c in items])
    return sum(e.rank for e in echelons.values())


# ---------------------------------------------------------------------------
# Quadratic cover


def quadratic_relations(space: BraidedSpace) -> list[dict[int, CyclotomicNumber]]:
    """Basis of R = ker(Psi + Id) on V ox V, as sparse packed vectors.

    Psi is monomial on the packed pairs a*dim+b, so V ox V splits into
    Psi-cycles v_0 -> v_1 -> ... -> v_(l-1) -> v_0 with Psi(v_k) =
    zeta^(e_k) v_(k+1).  On the span of one cycle Psi^l = zeta^s with
    s = e_0 + ... + e_(l-1), so the characteristic polynomial of Psi there
    is x^l - zeta^s: its l roots are distinct, and -1 is one of them, with
    multiplicity one, exactly when (-1)^l zeta^s = 1.  Solving Psi(x) = -x
    for x = sum c_k v_k gives c_(k+1) = -zeta^(e_k) c_k, so in that case
    the kernel on the cycle is spanned by

        sum_k (-1)^k zeta^(e_0 + ... + e_(k-1)) v_k,

    and otherwise it is zero.  Each basis vector starts its cycle at the
    largest packed key, where its coefficient is 1, and the vectors are
    ordered by (repr of the multidegree of that key, the key).  This is the
    reduced-echelon nullspace basis of Psi + Id, block by block: the
    kernel vector of a cycle has full support, so any l - 1 of the cycle's
    columns are independent and its largest key is the free column.
    Every coefficient is +-zeta^k, with integer coordinates.
    """
    L = space.scalar_order
    targets = space.braid_targets
    exps = space.braid_exps
    seen = [False] * len(targets)
    found = []
    for top in range(len(targets) - 1, -1, -1):
        if seen[top]:
            continue
        terms = []
        key, total = top, 0
        while not seen[key]:
            seen[key] = True
            c = CyclotomicNumber.zeta_power(L, total)
            terms.append((key, -c if len(terms) % 2 else c))
            total += exps[key]
            key = targets[key]
        # (-1)^l zeta_L^s = zeta_(2L)^(l L + 2 s) is 1
        if (len(terms) * L + 2 * total) % (2 * L) == 0:
            found.append((repr(_block_of_key(space, top, 2)), top, dict(sorted(terms))))
    found.sort(key=lambda f: f[:2])
    return [rel for _, _, rel in found]


class QuadraticCalculator(_Calculator):
    """Graded dimensions of the quadratic cover T(V)/(ker(Psi + Id)) by the
    same level step: the vector of y_b a is its unit vector, and the seeds
    span the image of A^(d-2) ox R in A^(d-1) ox V."""

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        super().__init__(space, mode, spec, block_budget)
        convert = self.scalars.from_cyclotomic
        # (block, (s, t), terms): r has the degree g_s g_t of its first key s ox t
        self._relations = [
            (
                _block_of_key(space, next(iter(rel)), 2),
                divmod(next(iter(rel)), space.dim),
                [(*divmod(k, space.dim), convert(v)) for k, v in rel.items()],
            )
            for rel in quadratic_relations(space)
        ]

    def _image(self, key: int, basis) -> tuple:
        return 1, [key], [self.scalars.one]

    def _seeds(self):
        """(block, group degree, terms) of sum r_ab [y_c a] ox b, as the
        terms of a ``vector``, for y_c in the basis of level d - 2 and r in
        R."""
        if len(self._levels) < 2:
            return
        dim = self.space.dim
        times = self.space.degree_table.times
        degrees = self._degrees[-2]
        c = 0
        for block, vectors in self._previous_level(2):
            for _ in vectors:
                for rel_block, (s, t), rel in self._relations:
                    terms = [(r, 0, b, self._mul[c * dim + a]) for a, b, r in rel]
                    yield tuple(sorted(block + rel_block)), times(times(degrees[c])[s])[t], terms
                c += 1


# ---------------------------------------------------------------------------
# Hilbert data


@dataclass(frozen=True)
class HilbertData:
    """Per-degree and per-multidegree dimensions through max_degree."""

    max_degree: int
    per_degree: tuple[int, ...]
    per_multidegree: dict


def _series(levels: list[dict]) -> HilbertData:
    """HilbertData of the ``multidegree_dims`` of degrees 0 .. len - 1."""
    per_multi: dict = {}
    for dims in levels:
        per_multi.update(dims)
    return HilbertData(len(levels) - 1, tuple(sum(dims.values()) for dims in levels), per_multi)


def _hilbert(calc: _Calculator, max_degree: int) -> HilbertData:
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    calc.top = max_degree
    return _series([calc.multidegree_dims(d) for d in range(max_degree + 1)])


def nichols_hilbert(
    space: BraidedSpace,
    max_degree: int,
    mode: str = "exact",
    spec: ModularSpec | None = None,
    block_budget: int | None = DEFAULT_BLOCK_BUDGET,
) -> HilbertData:
    return _hilbert(NicholsCalculator(space, mode, spec, block_budget), max_degree)


def quadratic_hilbert(
    space: BraidedSpace,
    max_degree: int,
    mode: str = "exact",
    spec: ModularSpec | None = None,
    block_budget: int | None = DEFAULT_BLOCK_BUDGET,
) -> HilbertData:
    return _hilbert(QuadraticCalculator(space, mode, spec, block_budget), max_degree)


@dataclass(frozen=True)
class HilbertComparison:
    nichols: HilbertData
    quadratic: HilbertData
    divergence_degree: int | None


def hilbert_compare(
    space: BraidedSpace,
    max_degree: int,
    mode: str = "exact",
    spec: ModularSpec | None = None,
    block_budget: int | None = DEFAULT_BLOCK_BUDGET,
) -> HilbertComparison:
    """Both graded series through max_degree and the first degree where the
    quadratic cover strictly exceeds the Nichols algebra (None if none).

    The two calculators run in lockstep, one degree at a time, and the
    cover adopts each Nichols level while the two agree (points 6 and 7 of
    the module docstring); its own step takes over from the first level
    that differs; both compute level max_degree rank-only (point 8).  The
    series are those of ``nichols_hilbert`` and ``quadratic_hilbert``, and
    so are the errors: a ResourceBudgetError of the Nichols series is
    raised at once, and one of the cover is held until the Nichols series
    has reached max_degree, then raised.

    Modular mode bounds the exact series from both sides:

        modular B^d <= exact B^d <= exact A^d <= modular A^d.

    The middle inequality is the surjection A -> B(V) (point 6 of the
    module docstring).  For the outer two, let pi: Z[zeta] -> F_p be the
    ring map zeta -> z of the ``ModularSpec``.  dim B^d is the rank of S_d
    over any field (point 2), and S_d is a matrix over Z[zeta], whose image
    under pi is the S_d of modular mode.  A minor that is zero in Z[zeta]
    is zero mod p, so rank pi(S_d) <= rank S_d.  dim A^d is dim T^d minus
    dim I_d, and I_d is spanned by the x ox r ox y, for words x and y and r
    in the basis of ``quadratic_relations``, whose coefficients lie in
    Z[zeta]; modular mode uses those relations mapped by pi, so its I_d is
    spanned by the images of the same vectors, of dimension at most the
    exact one.  So where the two modular series agree at degree d, all
    four numbers are equal, and both exact dimensions are known."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    nichols = NicholsCalculator(space, mode, spec, block_budget)
    cover = QuadraticCalculator(space, mode, spec, block_budget)
    cover._quotient = nichols
    nichols.top = cover.top = max_degree
    nich_levels: list[dict] = []
    quad_levels: list[dict] = []
    held = None
    for d in range(max_degree + 1):
        nich_levels.append(nichols.multidegree_dims(d))
        if held is None:
            try:
                quad_levels.append(cover.multidegree_dims(d))
            except ResourceBudgetError as err:
                held = err
    if held is not None:
        raise held
    nich = _series(nich_levels)
    quad = _series(quad_levels)
    divergence = None
    for d in range(max_degree + 1):
        if nich.per_degree[d] != quad.per_degree[d]:
            divergence = d
            break
    return HilbertComparison(nich, quad, divergence)


def hilbert_to_json(data: HilbertData) -> dict:
    return {
        "maxDegree": data.max_degree,
        "perDegree": list(data.per_degree),
        "perMultidegree": [
            {"multidegree": [str(x) for x in md], "dim": v}
            for md, v in sorted(data.per_multidegree.items(), key=lambda kv: (len(kv[0]), repr(kv[0])))
        ],
    }


def comparison_to_json(cmp: HilbertComparison) -> dict:
    return {
        "nichols": hilbert_to_json(cmp.nichols),
        "quadratic": hilbert_to_json(cmp.quadratic),
        "divergenceDegree": cmp.divergence_degree,
    }
