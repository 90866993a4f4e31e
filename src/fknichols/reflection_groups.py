"""The groups G(m,p,n): elements, reflections, roots and coroots, the lambda
cocycle, Yetter-Drinfeld modules of reflections, orbit decomposition, and
braid-indecomposability.

An element theta^nu sigma sends x_i to theta^(nu_i) x_(sigma(i)), where
theta is a fixed primitive m-th root of unity and the exponent sum is 0 mod
p.  The YD braiding reads the lambda scalar from closed forms in integer
exponents (derived in ``yd_module``); the coroot action (dual action
convention (g.f)(x) = f(g^-1 x)), through ``conjugate_reflection`` and
``lambda_scalar``, acts as the test oracle.  Scalars live at order
L = lcm(2, m) so that signs are honest roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from fknichols.cyclotomic import CyclotomicNumber, RootOfUnity


class GroupDomainError(ValueError):
    """Invalid G(m,p,n) data (p not dividing m, bad exponents, ...)."""


@dataclass(frozen=True)
class GroupParams:
    m: int
    p: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.p < 1:
            raise GroupDomainError("m, p, n must be positive")
        if self.m % self.p:
            raise GroupDomainError(f"p={self.p} does not divide m={self.m}")

    @property
    def scalar_order(self) -> int:
        return lcm(2, self.m)

    def group_order(self) -> int:
        import math

        return self.m**self.n * math.factorial(self.n) // self.p

    def element(self, nu, sigma) -> "GroupElement":
        el = GroupElement(self.m, tuple(x % self.m for x in nu), tuple(sigma))
        if sum(el.nu) % self.p:
            raise GroupDomainError("exponent sum is not 0 mod p")
        return el

    def identity(self) -> "GroupElement":
        return GroupElement(self.m, (0,) * self.n, tuple(range(self.n)))


@dataclass(frozen=True)
class GroupElement:
    """theta^nu sigma; sigma is stored 0-indexed (sigma[i] = image of i)."""

    m: int
    nu: tuple[int, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(x % self.m for x in self.nu))
        if sorted(self.sigma) != list(range(len(self.nu))):
            raise GroupDomainError("sigma is not a permutation")

    @property
    def n(self) -> int:
        return len(self.nu)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.m != other.m or self.n != other.n:
            raise GroupDomainError("mismatched group elements")
        nu = tuple(
            (other.nu[i] + self.nu[other.sigma[i]]) % self.m for i in range(self.n)
        )
        sigma = tuple(self.sigma[other.sigma[i]] for i in range(self.n))
        return GroupElement(self.m, nu, sigma)

    def inverse(self) -> "GroupElement":
        inv = [0] * self.n
        for i, s in enumerate(self.sigma):
            inv[s] = i
        nu = tuple(-self.nu[inv[j]] % self.m for j in range(self.n))
        return GroupElement(self.m, nu, tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(x == 0 for x in self.nu) and all(
            s == i for i, s in enumerate(self.sigma)
        )

    def apply_index(self, i: int) -> tuple[int, int]:
        """Image of x_i (1-based): returns (exponent, target index)."""
        return self.nu[i - 1], self.sigma[i - 1] + 1


@dataclass(frozen=True)
class Reflection:
    """Diagonal s_i^k (kind="diag", j unused) or order-two theta^k(ij)
    (kind="transp", i < j); indices are 1-based, k reduced mod m."""

    kind: str
    i: int
    j: int
    k: int

    @staticmethod
    def diagonal(i: int, k: int) -> "Reflection":
        return Reflection("diag", i, 0, k)

    @staticmethod
    def transposition(i: int, j: int, k: int) -> "Reflection":
        if i > j:
            raise GroupDomainError("transposition indices must satisfy i < j")
        return Reflection("transp", i, j, k)

    def to_element(self, params: GroupParams) -> GroupElement:
        m, n = params.m, params.n
        nu = [0] * n
        sigma = list(range(n))
        if self.kind == "diag":
            nu[self.i - 1] = self.k % m
        else:
            nu[self.i - 1] = self.k % m
            nu[self.j - 1] = -self.k % m
            sigma[self.i - 1], sigma[self.j - 1] = sigma[self.j - 1], sigma[self.i - 1]
        return GroupElement(m, tuple(nu), tuple(sigma))

    def order(self, m: int) -> int:
        if self.kind == "transp":
            return 2
        from math import gcd

        return m // gcd(m, self.k % m)

    def __repr__(self):
        if self.kind == "diag":
            return f"s_{self.i}^{self.k}"
        return f"t^{self.k}({self.i}{self.j})"


def classify_element(el: GroupElement) -> Reflection | None:
    """Recognize a group element as a reflection, if it is one."""
    n = el.n
    moved = [i for i in range(n) if el.sigma[i] != i]
    if not moved:
        hot = [i for i in range(n) if el.nu[i] % el.m]
        if len(hot) == 1:
            return Reflection.diagonal(hot[0] + 1, el.nu[hot[0]] % el.m)
        return None
    if len(moved) == 2:
        a, b = moved
        if el.sigma[a] != b or el.sigma[b] != a:
            return None
        if any(el.nu[i] % el.m for i in range(n) if i not in moved):
            return None
        if (el.nu[a] + el.nu[b]) % el.m:
            return None
        return Reflection.transposition(a + 1, b + 1, el.nu[a] % el.m)
    return None


def enumerate_reflections(params: GroupParams) -> list[Reflection]:
    """All reflections: order-two theta^k(ij) first (by i, j, k), then the
    diagonal s_i^k grouped by exponent k (multiples of p)."""
    m, p, n = params.m, params.p, params.n
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(m):
                out.append(Reflection.transposition(i, j, k))
    for k in range(p, m, p):
        for i in range(1, n + 1):
            out.append(Reflection.diagonal(i, k))
    return out


def reflection_census(params: GroupParams) -> dict[int, int]:
    """Count of reflections by multiplicative order."""
    census: dict[int, int] = {}
    for s in enumerate_reflections(params):
        d = s.order(params.m)
        census[d] = census.get(d, 0) + 1
    return census


def expected_reflection_count(params: GroupParams) -> int:
    """n (m (n-1)/2 + m/p - 1), evaluated integrally as
    m n (n-1)/2 + n (m/p - 1)."""
    m, p, n = params.m, params.p, params.n
    return m * n * (n - 1) // 2 + n * (m // p - 1)


def conjugate_reflection(
    params: GroupParams, g: GroupElement, s: Reflection
) -> Reflection:
    """g s g^-1, re-recognized as a reflection."""
    el = g * s.to_element(params) * g.inverse()
    out = classify_element(el)
    if out is None:
        raise AssertionError(f"conjugate of {s} is not a reflection (bug)")
    return out


# ---------------------------------------------------------------------------
# Roots, coroots and the lambda cocycle


@dataclass(frozen=True)
class RootCorootPair:
    """Sparse vectors: root in the x basis, coroot in the dual y basis.

    Both map 1-based indices to CyclotomicNumber coefficients at the
    group's scalar conductor L = lcm(2, m).
    """

    root: tuple[tuple[int, "CyclotomicNumber"], ...]
    coroot: tuple[tuple[int, "CyclotomicNumber"], ...]


def _theta_power(params: GroupParams, k: int) -> CyclotomicNumber:
    L = params.scalar_order
    return CyclotomicNumber.zeta_power(L, (L // params.m) * k)


def root_coroot(params: GroupParams, s: Reflection) -> RootCorootPair:
    """The fixed choice: for s_i^k the pair (y_i, (1-theta^k) x_i); for
    theta^k(ij) the pair (y_i - theta^(-k) y_j, x_i - theta^k x_j)."""
    L = params.scalar_order
    one = CyclotomicNumber.one(L)
    if s.kind == "diag":
        coroot = ((s.i, one),)
        root = ((s.i, one - _theta_power(params, s.k)),)
    else:
        coroot = ((s.i, one), (s.j, -_theta_power(params, -s.k)))
        root = ((s.i, one), (s.j, -_theta_power(params, s.k)))
    return RootCorootPair(root, coroot)


def _dual_action(params: GroupParams, g: GroupElement, covector):
    """g acting on a sparse dual vector by (g.f)(x) = f(g^-1 x):
    y_i -> theta^(-nu_i) y_(sigma(i))."""
    out: dict[int, CyclotomicNumber] = {}
    for i, c in covector:
        coeff = c * _theta_power(params, -g.nu[i - 1])
        target = g.sigma[i - 1] + 1
        out[target] = out.get(target, CyclotomicNumber.zero(params.scalar_order)) + coeff
    return tuple(sorted((i, c) for i, c in out.items() if not c.is_zero))


def _zeta_exponent(params: GroupParams, value: CyclotomicNumber) -> int:
    """The e with value = zeta_L^e."""
    L = params.scalar_order
    for e in range(L):
        if value == CyclotomicNumber.zeta_power(L, e):
            return e
    raise AssertionError(f"coroot entry {value!r} is not a root of unity (bug)")


def lambda_scalar(params: GroupParams, g: GroupElement, s: Reflection) -> RootOfUnity:
    """The cocycle scalar in g . coroot(s) = lambda(g, s) coroot(g s g^-1).

    Every coroot entry and its image is +-theta^k, a power of zeta_L, so
    lambda is read off the exponents of the leading entries, with no
    division, and checked on every entry."""
    target = conjugate_reflection(params, g, s)
    moved = _dual_action(params, g, root_coroot(params, s).coroot)
    expected = root_coroot(params, target).coroot
    if [i for i, _ in moved] != [i for i, _ in expected]:
        raise AssertionError("coroot image has wrong support (bug)")
    L = params.scalar_order
    e = _zeta_exponent(params, moved[0][1]) - _zeta_exponent(params, expected[0][1])
    ratio = CyclotomicNumber.zeta_power(L, e)
    for (_, a), (_, b) in zip(moved, expected):
        if a != b * ratio:
            raise AssertionError("coroot image is not proportional (bug)")
    return RootOfUnity(L, e)


# ---------------------------------------------------------------------------
# Yetter-Drinfeld module and braiding


@dataclass(frozen=True)
class YDSummand:
    """A conjugation orbit of reflections; label V0 / Vk / Vodd / Veven."""

    label: str
    indices: tuple[int, ...]
    reflections: tuple[Reflection, ...]

    @property
    def dim(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class YDModule:
    """Basis r_s indexed by reflections with the monomial braiding
    Psi(r_s ox r_t) = lambda(s, t) r_(s t s^-1) ox r_s."""

    params: GroupParams
    basis: tuple[Reflection, ...]
    braid_targets: tuple[tuple[int, ...], ...]
    braid_exponents: tuple[tuple[int, ...], ...]  # lambda as zeta_L exponents

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def empty(self) -> bool:
        return not self.basis

    @property
    def scalar_order(self) -> int:
        return self.params.scalar_order

    def braid(self, a: int, b: int) -> tuple[int, int, int]:
        """Psi(r_a ox r_b) = zeta_L^e r_c ox r_a: returns (c, a, e)."""
        return self.braid_targets[a][b], a, self.braid_exponents[a][b]


def yd_module(params: GroupParams) -> YDModule:
    """Build Y_G with its braiding, reading g t g^-1 and lambda(g, t) off the
    data (nu, sigma) of g = theta^nu sigma in integer exponents mod L.

    With theta = zeta_L^(L/m) and -1 = zeta_L^(L/2), every lambda is a power
    of zeta_L.  The dual action sends y_i to theta^(-nu_i) y_(sigma(i)), and
    lambda(g, t) is defined by g . coroot(t) = lambda coroot(g t g^-1), with
    the coroots of ``root_coroot``:

    * t = s_i^k has coroot y_i, and g . y_i = theta^(-nu_i) y_(sigma(i)), a
      multiple of y_(sigma(i)), the coroot of g t g^-1 = s_(sigma(i))^k.  So
      lambda = theta^(-nu_i).
    * t = theta^k(ij) with i < j has coroot y_i - theta^(-k) y_j, and
      g . (y_i - theta^(-k) y_j) = theta^(-nu_i) y_(sigma(i))
      - theta^(-k-nu_j) y_(sigma(j)).  Put k' = k + nu_j - nu_i mod m.

      - If sigma(i) < sigma(j), factor out theta^(-nu_i): what is left is
        y_(sigma(i)) - theta^(-k') y_(sigma(j)), the coroot of
        theta^(k')(sigma(i) sigma(j)).  So lambda = theta^(-nu_i).
      - Otherwise the lower index is sigma(j); factor out -theta^(-k-nu_j):
        what is left is y_(sigma(j)) - theta^(k') y_(sigma(i)), the coroot of
        theta^(-k')(sigma(j) sigma(i)).  So lambda = -theta^(-k-nu_j).

    ``conjugate_reflection`` and ``lambda_scalar`` compute the same entries
    from group products and the coroot action; the tests use them as the
    oracle.
    """
    m, L = params.m, params.scalar_order
    step, half = L // m, L // 2
    basis = tuple(enumerate_reflections(params))
    # (i, j, k) with 1-based i, j, and j = 0 for a diagonal reflection
    index = {(s.i, s.j, s.k): b for b, s in enumerate(basis)}
    targets = []
    exponents = []
    for s in basis:
        g = s.to_element(params)
        nu, sigma = g.nu, g.sigma
        trow = []
        erow = []
        for t in basis:
            i = t.i - 1
            if t.kind == "diag":
                trow.append(index[(sigma[i] + 1, 0, t.k)])
                erow.append(-step * nu[i] % L)
                continue
            j = t.j - 1
            k_conj = (t.k + nu[j] - nu[i]) % m
            if sigma[i] < sigma[j]:
                trow.append(index[(sigma[i] + 1, sigma[j] + 1, k_conj)])
                erow.append(-step * nu[i] % L)
            else:
                trow.append(index[(sigma[j] + 1, sigma[i] + 1, -k_conj % m)])
                erow.append((half - step * (t.k + nu[j])) % L)
        targets.append(tuple(trow))
        exponents.append(tuple(erow))
    return YDModule(params, basis, tuple(targets), tuple(exponents))


def decompose_yd(module: YDModule) -> list[YDSummand]:
    """Conjugation orbits of the basis, labelled per the rank analysis:
    V0 for the full set of order-two reflections, Veven/Vodd when that set
    splits by exponent parity, Vk for the diagonal family s_*^k."""
    basis = module.basis
    parent = list(range(len(basis)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a in range(len(basis)):
        for b in range(len(basis)):
            union(b, module.braid_targets[a][b])
    orbits: dict[int, list[int]] = {}
    for i in range(len(basis)):
        orbits.setdefault(find(i), []).append(i)

    transp_orbits = [
        o for o in orbits.values() if basis[o[0]].kind == "transp"
    ]
    out = []
    for o in sorted(orbits.values()):
        members = tuple(basis[i] for i in o)
        first = members[0]
        if first.kind == "diag":
            label = f"V{first.k}"
        elif len(transp_orbits) == 1:
            label = "V0"
        else:
            label = "Veven" if first.k % 2 == 0 else "Vodd"
        out.append(YDSummand(label, tuple(o), members))
    return out


def expected_summand_count(params: GroupParams) -> int:
    """Rank formula: m/p, plus 1 when n = 2 with p even; m/p - 1 when n = 1,
    where there are no transpositions and only the m/p - 1 diagonal
    families s_1^k remain."""
    base = params.m // params.p
    if params.n == 1:
        return base - 1
    if params.n == 2 and params.p % 2 == 0:
        return base + 1
    return base


def adjoint_link(module: YDModule, a: YDSummand, b: YDSummand) -> bool:
    """True iff (Id - Psi^2) is nonzero on some basis tensor of a ox b."""
    for ia in a.indices:
        for ib in b.indices:
            c, _, e1 = module.braid(ia, ib)
            d, _, e2 = module.braid(c, ia)
            # Psi^2 (r_ia ox r_ib) = z^(e1+e2) r_d ox r_c
            if (d, c) != (ia, ib):
                return True
            if (e1 + e2) % module.scalar_order:
                return True
    return False


def is_braid_indecomposable(module: YDModule) -> bool:
    """Connectivity of the summand graph with adjoint_link edges."""
    summands = decompose_yd(module)
    if len(summands) <= 1:
        return True
    linked = [[False] * len(summands) for _ in summands]
    for x in range(len(summands)):
        for y in range(len(summands)):
            if x != y and adjoint_link(module, summands[x], summands[y]):
                linked[x][y] = linked[y][x] = True
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in range(len(summands)):
            if linked[x][y] and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(summands)


# ---------------------------------------------------------------------------
# Bridges and bijections


def cyclic_braiding_exponents(module: YDModule) -> tuple[tuple[int, ...], ...] | None:
    """For a rank-one group G(m*q, q, 1): the braiding written as a diagonal
    exponent matrix over Z/(order of the reflection group of the quotient).

    Returns exponent rows over Z/m with the convention xi = theta^(-q), or
    None if the module is not of this shape.
    """
    params = module.params
    if params.n != 1:
        return None
    m = params.m // params.p
    L = module.scalar_order
    rows = []
    for a in range(module.dim):
        row = []
        for b in range(module.dim):
            if module.braid_targets[a][b] != b:
                return None
            lam = RootOfUnity(L, module.braid_exponents[a][b])
            # express lambda as xi^e with xi = theta^(-p) of order m
            xi = RootOfUnity(L, -(L // params.m) * params.p)
            for e in range(m):
                if xi**e == lam:
                    row.append(e)
                    break
            else:
                return None
        rows.append(tuple(row))
    return tuple(rows)


def extend_orbit_bijection(
    src: YDModule, dst: YDModule, anchors: dict[Reflection, Reflection]
) -> dict[int, int]:
    """Extend anchor assignments over conjugacy orbits.

    Each anchored source orbit is paired with its image's orbit; remaining
    elements are matched when the completion is forced (at most one
    unassigned element on each side per orbit).
    """
    src_summands = decompose_yd(src)
    dst_summands = decompose_yd(dst)
    dst_index = {s: i for i, s in enumerate(dst.basis)}
    src_orbit_of = {}
    for q, summand in enumerate(src_summands):
        for i in summand.indices:
            src_orbit_of[i] = q
    dst_orbit_of = {}
    for q, summand in enumerate(dst_summands):
        for i in summand.indices:
            dst_orbit_of[i] = q

    mapping: dict[int, int] = {}
    orbit_pairs: dict[int, int] = {}
    for s, t in anchors.items():
        si = src.basis.index(s)
        ti = dst_index[t]
        mapping[si] = ti
        orbit_pairs[src_orbit_of[si]] = dst_orbit_of[ti]
    for sq, dq in orbit_pairs.items():
        src_left = [i for i in src_summands[sq].indices if i not in mapping]
        dst_used = set(mapping.values())
        dst_left = [i for i in dst_summands[dq].indices if i not in dst_used]
        if len(src_left) != len(dst_left):
            raise GroupDomainError("orbit sizes do not match")
        if len(src_left) > 1:
            raise GroupDomainError("orbit completion is not forced")
        for i, j in zip(src_left, dst_left):
            mapping[i] = j
    if len(mapping) != src.dim:
        raise GroupDomainError("anchors do not cover all orbits")
    return mapping


def bijection_carries_braiding(
    src: YDModule, dst: YDModule, mapping: dict[int, int]
) -> bool:
    """Entry-by-entry: the mapped braiding of src equals the braiding of dst
    (targets correspond, scalars equal as roots of unity)."""
    for a in range(src.dim):
        for b in range(src.dim):
            c, _, e = src.braid(a, b)
            c2, _, e2 = dst.braid(mapping[a], mapping[b])
            if mapping[c] != c2:
                return False
            if RootOfUnity(src.scalar_order, e) != RootOfUnity(dst.scalar_order, e2):
                return False
    return True


def bijection_braiding_twist(
    src: YDModule, dst: YDModule, mapping: dict[int, int]
) -> dict[int, RootOfUnity] | None:
    """Diagonal rescaling making the mapped braidings equal, if one exists.

    Scaling r_b by c_b turns the source braiding scalar lambda(a, b) into
    lambda(a, b) c_(a b a^-1) / c_b on the mapped side, so the bijection is
    an isomorphism of braided vector spaces iff the constraint system
    lambda_src(a, b) c_t = lambda_dst(.) c_b (t the braid target) is
    solvable.  Targets must already correspond under the mapping.
    """
    L = lcm(src.scalar_order, dst.scalar_order)
    one = RootOfUnity(L, 0)
    scale: dict[int, RootOfUnity] = {}
    for seed in range(src.dim):
        if seed in scale:
            continue
        scale[seed] = one
        frontier = [seed]
        while frontier:
            nxt = []
            for b in list(scale):
                for a in range(src.dim):
                    t, _, e = src.braid(a, b)
                    t2, _, e2 = dst.braid(mapping[a], mapping[b])
                    if mapping[t] != t2:
                        return None
                    # c_t = lambda_dst / lambda_src * c_b
                    ratio = RootOfUnity(dst.scalar_order, e2) * RootOfUnity(
                        src.scalar_order, -e
                    )
                    value = ratio * scale[b]
                    if t in scale:
                        if scale[t] != value:
                            return None
                    else:
                        scale[t] = value
                        nxt.append(t)
            frontier = nxt
    return scale


def b2_dihedral_anchors() -> tuple[GroupParams, GroupParams, dict[Reflection, Reflection]]:
    """The explicit identification of Y_{G(2,1,2)} with Y_{G(4,4,2)}:
    (12) maps to (12) and s_1^1 to theta(12)."""
    b2 = GroupParams(2, 1, 2)
    i24 = GroupParams(4, 4, 2)
    anchors = {
        Reflection.transposition(1, 2, 0): Reflection.transposition(1, 2, 0),
        Reflection.diagonal(1, 1): Reflection.transposition(1, 2, 1),
    }
    return b2, i24, anchors


# ---------------------------------------------------------------------------
# JSON serialization


def group_info_json(params: GroupParams) -> dict:
    return {
        "m": params.m,
        "p": params.p,
        "n": params.n,
        "order": params.group_order(),
        "reflections": expected_reflection_count(params),
        "censusByOrder": {str(d): c for d, c in sorted(reflection_census(params).items())},
    }


def decompose_json(module: YDModule) -> dict:
    summands = decompose_yd(module)
    return {
        "m": module.params.m,
        "p": module.params.p,
        "n": module.params.n,
        "dim": module.dim,
        "summands": [
            {
                "label": s.label,
                "dim": s.dim,
                "support": [repr(r) for r in s.reflections],
            }
            for s in summands
        ],
        "braidIndecomposable": is_braid_indecomposable(module) if module.dim else None,
    }
