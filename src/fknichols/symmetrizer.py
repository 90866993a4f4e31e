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
modular mode (F_p) share the one step of ``NicholsCalculator``.  The
direct sum-over-permutations route, ``direct_graded_dim``, is kept as an
independent oracle.  Psi acts on V^(ox d) through one sparse operator,
``_apply_psi_sparse``, which that oracle and ``yang_baxter_holds`` apply;
the Nichols step needs Psi on V ox V only and reads the braiding tables.
Coefficients are integer tuples in Z[zeta_L] or residues mod a prime.

The quadratic cover T(V)/(ker(Psi + Id)) works in T^d: its ideal has
I_0 = I_1 = 0, I_2 = R and I_d = V ox I_(d-1) + R ox V^(d-2), accumulated
per block.  The relation space R needs no elimination: it is read off the
cycles of the monomial braiding on V ox V (see ``quadratic_relations``).
Both routes run on one skeleton, ``_Calculator``: a list of levels, one
degree check, and one Hilbert loop; each route supplies only its level
step and its rule for turning the ranks of a level into dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from math import factorial, gcd, lcm

from fknichols import _linalg
from fknichols._kernels_py import _content, _cyc_mul
from fknichols._numtheory import euler_phi
from fknichols.cyclotomic import (
    BadModularSpecError,
    CyclotomicNumber,
    ModularSpec,
    find_modular_spec,
    integer_zeta_power,
    reduction_rows,
)

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


class BraidedSpace:
    """A braided vector space with monomial braiding and summand grading.

    braid_targets/braid_exps encode Psi(e_a ox e_b) = zeta_L^e e_a' ox e_b'
    on packed pair indices a*dim+b.  grading assigns a summand label to each
    basis vector; the sorted labels of a basis tensor are its block.
    """

    def __init__(
        self,
        dim: int,
        scalar_order: int,
        braid_targets,
        braid_exps,
        grading,
        name: str = "",
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

    def braid_pair(self, a: int, b: int) -> tuple[int, int, int]:
        """Psi(e_a ox e_b) = zeta^e e_c ox e_d: returns (c, d, e)."""
        t = self.braid_targets[a * self.dim + b]
        return t // self.dim, t % self.dim, self.braid_exps[a * self.dim + b]


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
    """BraidedSpace of a reflection-group YD module, graded by summand label."""
    from fknichols.reflection_groups import decompose_yd

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
        self.phi = euler_phi(scalar_order)
        self.red = reduction_rows(scalar_order)
        self.one = tuple([1] + [0] * (self.phi - 1))
        self.zeta_rows = [integer_zeta_power(scalar_order, e) for e in range(scalar_order)]

    def mul_zeta(self, c, e: int):
        if e == 0:
            return c
        return _cyc_mul(c, self.zeta_rows[e], self.phi, self.red)

    def times(self, a, b):
        return a if b == self.one else _cyc_mul(a, b, self.phi, self.red)

    @staticmethod
    def scale(c, n: int):
        return tuple(n * x for x in c)

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
        integer: the echelon only multiplies by pivot leads, which are."""
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

    def times(self, a, b):
        return a * b % self.p

    def scale(self, c, n: int):
        return c * n % self.p

    def nonzero(self, c) -> bool:
        return c % self.p != 0

    def add(self, a, b):
        return (a + b) % self.p

    def new_echelon(self):
        return _linalg.ModularEchelon(self.p)

    @staticmethod
    def lowest_terms(den: int, co):
        return den, co

    def solve(self, den: int, own, idx, co):
        """As ``_ExactScalars.solve``; every row has denominator 1."""
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
    of different group degrees never combine: that split changes no rank.
    """
    dim = space.dim
    return tuple(sorted(space.grading[key // dim**k % dim] for k in range(degree)))


def _multidegree_size(space: BraidedSpace, multideg) -> int:
    """Number of basis tensors whose sorted label tuple equals multideg."""
    counts: dict = {}
    for label in multideg:
        counts[label] = counts.get(label, 0) + 1
    class_size: dict = {}
    for label in space.grading:
        class_size[label] = class_size.get(label, 0) + 1
    total = factorial(len(multideg))
    for label, c in counts.items():
        total //= factorial(c)
        total *= class_size[label] ** c
    return total


def _all_multidegrees(space: BraidedSpace, degree: int):
    from itertools import combinations_with_replacement

    labels = sorted(set(space.grading))
    return [tuple(c) for c in combinations_with_replacement(labels, degree)]


# ---------------------------------------------------------------------------
# The calculator skeleton and the Nichols route


class _Calculator:
    """Level list and degree check shared by the Nichols and quadratic
    calculators.

    ``self._levels[d]`` maps each block (multidegree) to the list of
    vectors found there at degree d, one per dimension of the block's
    Nichols component (Nichols route) or of the ideal (quadratic route).  A
    route appends level d = len(self._levels) in ``_extend`` and turns the
    ranks of ``_ranks(d)`` into dimensions in ``multidegree_dims``;
    ``_level`` is the one place that checks a degree.

    ``block_budget`` bounds the vectors one block of a level step may
    eliminate: candidates of the Nichols step, basis tensors of the
    quadratic step.  A larger block raises ResourceBudgetError, and None
    means no bound.  In modular mode the budget is doubled, because
    elimination over a prime field is cheaper than over Z[zeta]: the same
    budget admits blocks twice as large there.
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
        self._levels: list[dict] = []

    def _level(self, degree: int) -> dict:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        while len(self._levels) <= degree:
            self._extend()
        return self._levels[degree]

    def _ranks(self, degree: int) -> dict:
        """Number of vectors per multidegree at this degree."""
        return {multideg: len(vectors) for multideg, vectors in self._level(degree).items()}

    def graded_dim(self, degree: int) -> int:
        return sum(self.multidegree_dims(degree).values())

    def _previous_level(self):
        """The blocks of the last level with their vectors, in repr order."""
        return sorted(self._levels[-1].items(), key=lambda kv: repr(kv[0]))

    def _check_budget(self, required: int):
        if self.block_budget is not None and required > self.block_budget:
            raise ResourceBudgetError(required, self.block_budget)


class NicholsCalculator(_Calculator):
    """Graded dimensions of B(V), level by level in quotient coordinates
    (see the module docstring for the proofs).

    Level d holds a basis y of B^d, each y an integer multiple of the class
    of a word.  ``self._levels[d][block]`` lists phi_d(y) for the basis
    elements of that block, with the calculator's coefficients, over the
    pairs (b, a) of B^(d-1) ox V, packed as b * dim + a, where b numbers the basis of
    B^(d-1) in the order of ``_previous_level``.  Level 0 holds the unit
    as the placeholder ([0], [1]), since phi_0 is not defined.
    ``self._mul`` is the right multiplication into the last level:
    ``self._mul[b * dim + a]`` is the row (D, idx, co) with
    [y_b a] = (1/D) sum co_k y_(idx_k), D a positive integer (1 in modular
    mode).

    Level d is eliminated from the candidates y_b a, b in B^(d-1) and a in
    V, grouped by multidegree; the block budget bounds the candidates of
    one multidegree, and is as in ``_Calculator`` otherwise.
    """

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        super().__init__(space, mode, spec, block_budget)
        self._levels.append({(): [([0], [self.scalars.one])]})
        self._mul: list = []

    def _extend(self):
        """Append level d: eliminate phi_d of the candidates block by block.

        Candidate y_b a enters its block's echelon as the vector
        (D phi_d(y_b a), 1 at its tag column), which stands for the element
        D y_b a of B^d.  The keys of B^(d-1) ox V go to the columns
        0 .. tag - 1 in decreasing order: eliminating from the largest pair
        down meets far less fill-in (G(3,3,3) to degree 6 runs about four
        times faster than with increasing columns).  The tag column,
        tag + the index the candidate takes if it is a pivot, sorts after
        them.  Every stored vector is phi_d of the combination of basis
        elements that its tag columns name, and reduction keeps that, so a
        residual whose lead is a tag column is phi_d of zero: the candidate
        is dependent, with own D y_b a + sum co_k y_k = 0, where own is its
        coefficient at its own tag, the last column.  In exact mode own is
        a rational integer (each reduction step multiplies by a pivot lead,
        which ``ExactEchelon`` keeps a rational integer, and divides by an
        integer content), so the row of y_b a has an integer denominator
        and nothing divides in Q(zeta).  A pivot's basis element is
        D y_b a itself.
        """
        scalars = self.scalars
        dim = self.space.dim
        grading = self.space.grading
        previous = self._previous_level()
        basis = [vec for _, vectors in previous for vec in vectors]
        candidates: dict = {}
        key = 0
        for block, vectors in previous:
            for _ in vectors:
                for a in range(dim):
                    candidates.setdefault(tuple(sorted(block + (grading[a],))), []).append(key)
                    key += 1
        tag = dim * len(basis)
        mul = [None] * tag
        level = {}
        count = 0
        for block in sorted(candidates, key=repr):
            self._check_budget(len(candidates[block]))
            echelon = scalars.new_echelon()
            found = []
            for key in candidates[block]:
                den, idx, co = self._phi(key, basis)
                cols = [tag - 1 - k for k in idx] + [tag + count]
                ridx, rco = echelon.reduce(cols, co + [scalars.one])
                if ridx[0] < tag:
                    echelon.append(ridx, rco)
                    found.append((idx, co))
                    mul[key] = (den, [count], [scalars.one])
                    count += 1
                else:
                    mul[key] = scalars.solve(den, rco[-1], [k - tag for k in ridx[:-1]], rco[:-1])
            if found:
                level[block] = found
        self._mul = mul
        self._levels.append(level)

    def _phi(self, key: int, basis) -> tuple:
        """(D, idx, co) with phi_d(y_b a) = (1/D) sum co_k e_(idx_k), keys
        in decreasing order, for key = b * dim + a, by the recursion
        phi_d(x a) = x ox a + (mul ox Id)(Id ox Psi)(phi_(d-1)(x) ox a).
        D is the least common multiple of the rows' denominators, divided
        by its gcd with the content of the vector."""
        scalars = self.scalars
        dim = self.space.dim
        targets = self.space.braid_targets
        exps = self.space.braid_exps
        b, a = divmod(key, dim)
        terms = []
        den = 1
        if len(self._levels) > 1:
            for k, c in zip(*basis[b]):
                b1, a1 = divmod(k, dim)
                pair = a1 * dim + a
                a2, a3 = divmod(targets[pair], dim)
                row = self._mul[b1 * dim + a2]
                den = lcm(den, row[0])
                terms.append((scalars.mul_zeta(c, exps[pair]), a3, row))
        vec = {key: scalars.scale(scalars.one, den)}
        for c, a3, (rden, ridx, rco) in terms:
            if rden != den:
                c = scalars.scale(c, den // rden)
            for j, r in zip(ridx, rco):
                t = scalars.times(c, r)
                k = j * dim + a3
                vec[k] = scalars.add(vec[k], t) if k in vec else t
        items = sorted(((k, c) for k, c in vec.items() if scalars.nonzero(c)), reverse=True)
        den, co = scalars.lowest_terms(den, [c for _, c in items])
        return den, [k for k, _ in items], co

    def multidegree_dims(self, degree: int) -> dict:
        return self._ranks(degree)


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
    """Graded dimensions of T(V)/(ker(Psi + Id)) via the ideal's column
    spaces, accumulated per block: I_0 = I_1 = 0, I_2 = R and
    I_d = V ox I_(d-1) + R ox V^(ox d-2).  The dimension in a multidegree
    is its number of basis tensors minus the ideal's rank there.

    The block budget is as in ``_Calculator``.
    """

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        super().__init__(space, mode, spec, block_budget)
        convert = self.scalars.from_cyclotomic
        self._relations = [
            [(k, convert(v)) for k, v in rel.items()] for rel in quadratic_relations(space)
        ]
        self._size_cache: dict = {}

    def _extend(self):
        d = len(self._levels)
        dim = self.space.dim
        echelons: dict = {}
        if d == 2:
            for rel in self._relations:
                self._insert(echelons, rel, 2)
        elif d > 2:
            shift = dim ** (d - 1)
            for _, vectors in self._previous_level():
                for idx, co in vectors:
                    for i in range(dim):
                        base = i * shift
                        self._insert(echelons, [(base + k, c) for k, c in zip(idx, co)], d)
            tail = dim ** (d - 2)
            for rel in self._relations:
                for u in range(tail):
                    self._insert(echelons, [(k * tail + u, c) for k, c in rel], d)
        self._levels.append({block: list(ech.vectors) for block, ech in echelons.items()})

    def _size(self, multideg) -> int:
        if multideg not in self._size_cache:
            self._size_cache[multideg] = _multidegree_size(self.space, multideg)
        return self._size_cache[multideg]

    def _insert(self, echelons, vec_items, degree):
        """Insert a vector, given as sorted (key, coefficient) pairs, into
        the echelon of its block; every key of it lies in that block."""
        if not vec_items:
            return
        block = _block_of_key(self.space, vec_items[0][0], degree)
        self._check_budget(self._size(block))
        if block not in echelons:
            echelons[block] = self.scalars.new_echelon()
        echelons[block].insert([k for k, _ in vec_items], [c for _, c in vec_items])

    def multidegree_dims(self, degree: int) -> dict:
        ranks = self._ranks(degree)
        out = {}
        for multideg in _all_multidegrees(self.space, degree):
            dim = self._size(multideg) - ranks.get(multideg, 0)
            if dim:
                out[multideg] = dim
        return out


# ---------------------------------------------------------------------------
# Hilbert data


@dataclass(frozen=True)
class HilbertData:
    """Per-degree and per-multidegree dimensions through max_degree."""

    max_degree: int
    per_degree: tuple[int, ...]
    per_multidegree: dict


def _hilbert(calc: _Calculator, max_degree: int) -> HilbertData:
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    per_degree = []
    per_multi: dict = {}
    for d in range(max_degree + 1):
        dims = calc.multidegree_dims(d)
        per_degree.append(sum(dims.values()))
        per_multi.update(dims)
    return HilbertData(max_degree, tuple(per_degree), per_multi)


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
    quadratic cover strictly exceeds the Nichols algebra (None if none)."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    nich = nichols_hilbert(space, max_degree, mode, spec, block_budget)
    quad = quadratic_hilbert(space, max_degree, mode, spec, block_budget)
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
