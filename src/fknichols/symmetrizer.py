"""Graded dimensions of Nichols algebras and their quadratic covers.

The degree-d component of the Nichols algebra is the image of the quantum
symmetrizer S_d = sum over S_d of braid lifts; its rank is computed
blockwise (the symmetrizer preserves the multidegree by summand label and,
for group braidings, the total group degree).  The production route builds
the column space level by level through the coset factorization
S_d = T_d (S_(d-1) ox Id) with T_d = sum of the d staircase lifts; the
direct sum-over-permutations route is kept as an independent oracle.

The quadratic cover T(V)/(ker(Psi + Id)) is handled the same way: the
degree-d ideal is V ox I_(d-1) + R ox V^(d-2), accumulated per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from math import factorial

from fknichols import _linalg
from fknichols._kernels_py import _cyc_mul
from fknichols._numtheory import euler_phi
from fknichols.cyclotomic import (
    BadModularSpecError,
    CyclotomicNumber,
    ModularSpec,
    RootOfUnity,
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


@dataclass(frozen=True)
class MonomialMatrix:
    """Monomial operator: e_i -> zeta_order^exps[i] e_targets[i]."""

    dimension: int
    targets: tuple[int, ...]
    exps: tuple[int, ...]
    scalar_order: int

    @staticmethod
    def identity(dimension: int, scalar_order: int) -> "MonomialMatrix":
        return MonomialMatrix(
            dimension, tuple(range(dimension)), (0,) * dimension, scalar_order
        )

    def compose(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """self after other."""
        if self.dimension != other.dimension or self.scalar_order != other.scalar_order:
            raise ValueError("mismatched monomial matrices")
        targets = tuple(self.targets[t] for t in other.targets)
        exps = tuple(
            (other.exps[i] + self.exps[other.targets[i]]) % self.scalar_order
            for i in range(self.dimension)
        )
        return MonomialMatrix(self.dimension, targets, exps, self.scalar_order)

    def scalar(self, i: int) -> RootOfUnity:
        return RootOfUnity(self.scalar_order, self.exps[i])


class BraidedSpace:
    """A braided vector space with monomial braiding and summand grading.

    braid_targets/braid_exps encode Psi(e_a ox e_b) = zeta_L^e e_a' ox e_b'
    on packed pair indices a*dim+b.  grading assigns a summand label to each
    basis vector; group_degree (optional) assigns a hashable group element,
    multiplicative via group_mul, refining the block decomposition.
    """

    def __init__(
        self,
        dim: int,
        scalar_order: int,
        braid_targets,
        braid_exps,
        grading,
        group_degree=None,
        group_mul=None,
        group_unit=None,
        name: str = "",
    ):
        self.dim = dim
        self.scalar_order = scalar_order
        self.braid_targets = tuple(braid_targets)
        self.braid_exps = tuple(e % scalar_order for e in braid_exps)
        self.grading = tuple(grading)
        self.group_degree = tuple(group_degree) if group_degree is not None else None
        self.group_mul = group_mul
        self.group_unit = group_unit
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
    """BraidedSpace of a reflection-group YD module; grading by summand
    label, group degree by the underlying reflection elements."""
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
    elements = tuple(s.to_element(module.params) for s in module.basis)
    return BraidedSpace(
        dim,
        L,
        targets,
        exps,
        grading=tuple(labels),
        group_degree=elements,
        group_mul=lambda a, b: a * b,
        group_unit=module.params.identity(),
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


def braid_lift(space: BraidedSpace, degree: int, perm) -> MonomialMatrix:
    """The lift of perm in S_degree to V^(ox degree) along a reduced word.

    Independent of the chosen reduced word (Matsumoto, given Yang-Baxter).
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if sorted(perm) != list(range(degree)):
        raise ValueError("perm must be a permutation of 0..degree-1")
    dim = space.dim
    size = dim**degree
    out = MonomialMatrix.identity(size, space.scalar_order)
    for pos in reduced_word(perm):
        out = _psi_matrix(space, degree, pos).compose(out)
    return out


def _psi_matrix(space: BraidedSpace, degree: int, pos: int) -> MonomialMatrix:
    """Psi acting on tensor positions pos, pos+1 (1-based pos)."""
    dim = space.dim
    size = dim**degree
    w = dim ** (degree - pos - 1)
    targets = []
    exps = []
    for key in range(size):
        pair = (key // w) % (dim * dim)
        a, b = divmod(pair, dim)
        c, d, e = space.braid_pair(a, b)
        targets.append(key + ((c * dim + d) - pair) * w)
        exps.append(e)
    return MonomialMatrix(size, tuple(targets), tuple(exps), space.scalar_order)


def yang_baxter_holds(space: BraidedSpace) -> bool:
    """(Psi ox Id)(Id ox Psi)(Psi ox Id) = (Id ox Psi)(Psi ox Id)(Id ox Psi)
    on all basis triples."""
    p1 = _psi_matrix(space, 3, 1)
    p2 = _psi_matrix(space, 3, 2)
    return p1.compose(p2).compose(p1) == p2.compose(p1).compose(p2)


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

    @staticmethod
    def nonzero(c) -> bool:
        return any(c)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def new_echelon(self):
        return _linalg.ExactEchelon(self.phi, self.red)


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
        zp = [1]
        for _ in range(scalar_order - 1):
            zp.append(zp[-1] * spec.zeta_image % self.p)
        self.zeta_rows = zp

    def mul_zeta(self, c, e: int):
        if e == 0:
            return c
        return c * self.zeta_rows[e] % self.p

    def nonzero(self, c) -> bool:
        return c % self.p != 0

    def add(self, a, b):
        return (a + b) % self.p

    def new_echelon(self):
        return _linalg.ModularEchelon(self.p)


def _make_scalars(space: BraidedSpace, mode: str, spec: ModularSpec | None):
    if mode == "exact":
        return _ExactScalars(space.scalar_order)
    if mode == "modular":
        return _ModularScalars(space.scalar_order, spec or find_modular_spec(space.scalar_order))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Block bookkeeping


def _block_of_key(space: BraidedSpace, key: int, degree: int):
    """(multidegree, group degree) of a packed tensor index."""
    dim = space.dim
    digits = []
    for _ in range(degree):
        digits.append(key % dim)
        key //= dim
    digits.reverse()
    multideg = tuple(sorted(space.grading[i] for i in digits))
    if space.group_degree is None:
        return multideg, None
    g = space.group_unit
    for i in digits:
        g = space.group_mul(g, space.group_degree[i])
    return multideg, g


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


# ---------------------------------------------------------------------------
# Nichols graded dimensions


class _Calculator:
    """State and steps shared by the Nichols and quadratic calculators.

    ``block_budget`` bounds the number of basis tensors in one block (one
    multidegree); a larger block raises ResourceBudgetError, and None means
    no bound.  In modular mode the budget is doubled, because elimination
    over a prime field is cheaper than over Z[zeta]: the same budget admits
    blocks twice as large there.
    """

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        self.space = space
        self.mode = mode
        self.scalars = _make_scalars(space, mode, spec)
        if block_budget is not None and mode == "modular":
            block_budget *= 2
        self.block_budget = block_budget
        self._size_cache: dict = {}

    def _check_budget(self, multideg):
        if self.block_budget is None:
            return
        if multideg not in self._size_cache:
            self._size_cache[multideg] = _multidegree_size(self.space, multideg)
        size = self._size_cache[multideg]
        if size > self.block_budget:
            raise ResourceBudgetError(size, self.block_budget)

    def _insert(self, echelons, vec_items, degree):
        """Insert a vector, given as sorted (key, coefficient) pairs, into
        the echelon of its block; every key of it lies in that block."""
        if not vec_items:
            return
        block = _block_of_key(self.space, vec_items[0][0], degree)
        self._check_budget(block[0])
        if block not in echelons:
            echelons[block] = self.scalars.new_echelon()
        echelons[block].insert([k for k, _ in vec_items], [c for _, c in vec_items])


def _level_of(echelons) -> dict:
    """The echelon basis of each block, as one calculator level."""
    return {block: list(ech.vectors) for block, ech in echelons.items()}


class NicholsCalculator(_Calculator):
    """Level-by-level column spaces of the quantum symmetrizers of a space.

    Level d stores, per block, an echelon basis of the image of S_d.  The
    block budget is as in ``_Calculator``.
    """

    def __init__(
        self,
        space: BraidedSpace,
        mode: str = "exact",
        spec: ModularSpec | None = None,
        block_budget: int | None = DEFAULT_BLOCK_BUDGET,
    ):
        super().__init__(space, mode, spec, block_budget)
        root_block = ((), space.group_unit if space.group_degree is not None else None)
        level0 = {root_block: [([0], [self.scalars.one])]}
        self._levels: list[dict] = [level0]

    def _extend(self):
        space = self.space
        scalars = self.scalars
        d = len(self._levels)
        dim = space.dim
        prev = self._levels[-1]
        echelons: dict = {}
        for (multideg, gdeg), vectors in sorted(
            prev.items(), key=lambda kv: repr(kv[0])
        ):
            for idx, co in vectors:
                for i in range(dim):
                    u = {k * dim + i: c for k, c in zip(idx, co)}
                    total = dict(u)
                    acc = u
                    for pos in range(d - 1, 0, -1):
                        acc = _apply_psi_sparse(space, scalars, acc, pos, d)
                        for k, c in acc.items():
                            if k in total:
                                total[k] = scalars.add(total[k], c)
                            else:
                                total[k] = c
                    items = sorted((k, c) for k, c in total.items() if scalars.nonzero(c))
                    self._insert(echelons, items, d)
        self._levels.append(_level_of(echelons))

    def _ensure(self, degree: int):
        while len(self._levels) <= degree:
            self._extend()

    def graded_dim(self, degree: int) -> int:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self._ensure(degree)
        return sum(len(v) for v in self._levels[degree].values())

    def multidegree_dims(self, degree: int) -> dict:
        self._ensure(degree)
        out: dict = {}
        for (multideg, _), vectors in self._levels[degree].items():
            out[multideg] = out.get(multideg, 0) + len(vectors)
        return out


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


def _psi_plus_id_block_matrices(space: BraidedSpace):
    """Blocks of (Psi + Id) on V ox V as dense CyclotomicNumber matrices.

    Returns a list of (keys, rows) with keys the packed pair indices of the
    block and rows the matrix of Psi + Id restricted to it.
    """
    L = space.scalar_order
    dim = space.dim
    blocks: dict = {}
    for key in range(dim * dim):
        block = _block_of_key(space, key, 2)
        blocks.setdefault(block, []).append(key)
    out = []
    for block in sorted(blocks, key=repr):
        keys = blocks[block]
        pos = {k: r for r, k in enumerate(keys)}
        size = len(keys)
        rows = [
            [CyclotomicNumber.zero(L) for _ in range(size)] for _ in range(size)
        ]
        for c, key in enumerate(keys):
            rows[c][c] += 1
            pair = key
            t = space.braid_targets[pair]
            e = space.braid_exps[pair]
            rows[pos[t]][c] += CyclotomicNumber.zeta_power(L, e)
        out.append((keys, rows))
    return out


def quadratic_relations(space: BraidedSpace) -> list[dict[int, CyclotomicNumber]]:
    """Basis of ker(Psi + Id) on V ox V, as sparse packed vectors."""
    out = []
    for keys, rows in _psi_plus_id_block_matrices(space):
        for vec in _nullspace_cyclotomic(rows):
            out.append(
                {keys[i]: v for i, v in enumerate(vec) if not v.is_zero}
            )
    return out


def _nullspace_cyclotomic(rows):
    """Right nullspace basis over Q(zeta) by field RREF."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    conductor = rows[0][0].conductor
    for fc in free:
        vec = [CyclotomicNumber.zero(conductor) for _ in range(ncols)]
        vec[fc] += 1
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def _integerize_sparse(vec: dict[int, CyclotomicNumber]):
    from math import lcm as _lcm

    den = 1
    for v in vec.values():
        for c in v.coeffs:
            den = _lcm(den, c.denominator)
    items = sorted(vec.items())
    idx = [k for k, _ in items]
    co = [tuple(int(c * den) for c in v.coeffs) for _, v in items]
    return idx, co


class QuadraticCalculator(_Calculator):
    """Graded dimensions of T(V)/(ker(Psi + Id)) via the ideal's column
    spaces, accumulated per block: I_d = V ox I_(d-1) + R ox V^(ox d-2).

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
        self._relations = quadratic_relations(space)
        self._levels: dict[int, dict] = {}

    def _relation_vector(self, rel: dict[int, CyclotomicNumber]):
        if self.mode == "exact":
            idx, co = _integerize_sparse(rel)
            return list(zip(idx, co))
        spec = self.scalars.spec
        return sorted((k, spec.reduce(v)) for k, v in rel.items())

    def _level(self, degree: int) -> dict:
        if degree in self._levels:
            return self._levels[degree]
        space = self.space
        dim = space.dim
        echelons: dict = {}
        if degree == 2:
            for rel in self._relations:
                self._insert(echelons, self._relation_vector(rel), 2)
        else:
            prev = self._level(degree - 1)
            shift = dim ** (degree - 1)
            for (multideg, gdeg), vectors in sorted(
                prev.items(), key=lambda kv: repr(kv[0])
            ):
                for idx, co in vectors:
                    for i in range(dim):
                        base = i * shift
                        items = [(base + k, c) for k, c in zip(idx, co)]
                        self._insert(echelons, items, degree)
            rel_vectors = [self._relation_vector(r) for r in self._relations]
            tail = dim ** (degree - 2)
            for rel in rel_vectors:
                for u in range(tail):
                    items = [(k * tail + u, c) for k, c in rel]
                    self._insert(echelons, items, degree)
        level = _level_of(echelons)
        self._levels[degree] = level
        return level

    def graded_dim(self, degree: int) -> int:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if degree == 0:
            return 1
        if degree == 1:
            return self.space.dim
        level = self._level(degree)
        ideal_rank = sum(len(v) for v in level.values())
        return self.space.dim**degree - ideal_rank

    def multidegree_dims(self, degree: int) -> dict:
        if degree == 0:
            return {(): 1}
        if degree == 1:
            out: dict = {}
            for label in self.space.grading:
                out[(label,)] = out.get((label,), 0) + 1
            return out
        level = self._level(degree)
        rank_by_md: dict = {}
        for (multideg, _), vectors in level.items():
            rank_by_md[multideg] = rank_by_md.get(multideg, 0) + len(vectors)
        out = {}
        for multideg in _all_multidegrees(self.space, degree):
            size = _multidegree_size(self.space, multideg)
            if size == 0:
                continue
            dim = size - rank_by_md.get(multideg, 0)
            if dim:
                out[multideg] = dim
        return out


def quadratic_graded_dim(
    space: BraidedSpace,
    degree: int,
    mode: str = "exact",
    spec: ModularSpec | None = None,
    block_budget: int | None = DEFAULT_BLOCK_BUDGET,
) -> int:
    return QuadraticCalculator(space, mode, spec, block_budget).graded_dim(degree)


# ---------------------------------------------------------------------------
# Hilbert data


@dataclass(frozen=True)
class HilbertData:
    """Per-degree and per-multidegree dimensions through max_degree."""

    max_degree: int
    per_degree: tuple[int, ...]
    per_multidegree: dict

    def coefficient(self, degree: int) -> int:
        return self.per_degree[degree]


def _hilbert(calc: _Calculator, max_degree: int) -> HilbertData:
    per_degree = []
    per_multi: dict = {}
    for d in range(max_degree + 1):
        per_degree.append(calc.graded_dim(d))
        per_multi.update(calc.multidegree_dims(d))
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
