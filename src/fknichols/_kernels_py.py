"""The integer kernels of the groupoid and symmetrizer engines.

This is their only implementation; the engines call them through
``fknichols.backend`` (see there for why).

Conventions:

* Braiding exponent data is integer arithmetic mod N.  A generalized
  Dynkin diagram has one form, (labels, rows): ``labels[j]`` is the
  exponent of q_jj and ``rows[j][k]`` that of q_jk q_kj, symmetric with 0
  on the diagonal, both reduced mod N.
* A "Cartan m-row" for vertex ``i`` stores ``m[j] = -a_ij >= 0`` for
  ``j != i``, ``m[i] = -2`` (so the reflection formula is uniform in j),
  and ``m[j] = -1`` marks an undefined entry.
* Exact sparse vectors over the ring Z[zeta] are pairs ``(idx, co)`` where
  ``idx`` is a strictly increasing list of ints and ``co`` a parallel list
  of coefficient tuples of length phi (the degree of the cyclotomic ring).
  ``ring`` is the ``ZetaRing`` of the conductor: it owns the power table
  of zeta and the conjugation matrices, and every product in Z[zeta] goes
  through it (``_cyc_mul``).
* The echelon's reduce holds the vector it reduces as an accumulator, a
  dict from keys to nonzero coefficients (tuples, or residues mod p), with
  a heap of its keys; ``combine_exact`` and ``combine_mod`` subtract one
  pivot from it in place.
"""

from __future__ import annotations

from heapq import heappush
from math import gcd
from operator import add, neg

UNDEFINED = -1
DIAGONAL_M = -2


def cartan_mrow(labels, rows, n_mod, i):
    """Cartan m-row at vertex i of the diagram (labels, rows).  Reads
    ``rows[i]`` once and no other row.

    With d = labels[i] != 0 and g = gcd(n_mod, d), q_ii has order n_g =
    n_mod / g, and m_ij for an edge e != 0 is the least m >= 0 with
    m d = -e (mod n_mod), which exists iff g | e, and n_g - 1 otherwise.
    """
    r = len(labels)
    row = [0] * r
    row[i] = DIAGONAL_M
    d = labels[i] % n_mod
    g = gcd(n_mod, d)
    n_g = n_mod // g
    inv = None
    for j, e in enumerate(rows[i]):
        e %= n_mod
        if e == 0 or j == i:
            continue
        if d == 0:
            row[j] = UNDEFINED
        elif e % g:
            row[j] = n_g - 1
        else:
            if inv is None:
                inv = pow(d // g, -1, n_g)
            # a residue mod n_g, so never above the order bound n_g - 1
            row[j] = (n_mod - e) // g * inv % n_g
    return row


def reflect_exponent_matrix(b, n_mod, i, mrow):
    """Reflected exponent matrix b'_jk = B(s_i e_j, s_i e_k) mod n_mod."""
    r = len(b)
    bii = b[i][i]
    out = []
    for j in range(r):
        mj = mrow[j]
        bji = b[j][i]
        row_j = b[j]
        row_i = b[i]
        new_row = [0] * r
        for k in range(r):
            new_row[k] = (
                row_j[k] + mrow[k] * bji + mj * row_i[k] + mj * mrow[k] * bii
            ) % n_mod
        out.append(new_row)
    return out


def reflected_labels(labels, rows, n_mod, i, mrow):
    """Vertex labels after reflecting at vertex i: d'_j = d_j + m_j e_ij +
    m_j^2 d_i, and d'_i = d_i.  Reads row i only."""
    di = labels[i] % n_mod
    out = [
        (d + mj * e + mj * mj * di) % n_mod for d, e, mj in zip(labels, rows[i], mrow)
    ]
    out[i] = labels[i]
    return out


def reflected_row(labels, rows, n_mod, i, mrow, v):
    """Row v of the diagram reflected at vertex i, in O(r): reads
    ``labels[i]`` and rows i and v only.  The one copy of the edge
    reflection formula."""
    di = labels[i] % n_mod
    erow = rows[i]
    if v == i:
        row = [(-e - 2 * mk * di) % n_mod for e, mk in zip(erow, mrow)]
    else:
        mv = mrow[v]
        eiv = erow[v]
        c = eiv + 2 * mv * di
        # e'_vk = e_vk + m_v e_ik + m_k (e_iv + 2 m_v d_i) for k != i, v
        row = [(a + mv * b + mk * c) % n_mod for a, b, mk in zip(rows[v], erow, mrow)]
        row[i] = (-eiv - 2 * mv * di) % n_mod
    row[v] = 0
    return row


def reflect_diagram(labels, rows, n_mod, i, mrow):
    """The diagram reflected at vertex i, as the tuples (labels, rows) that
    key the groupoid exploration: ``reflected_labels`` and every
    ``reflected_row``."""
    new_rows = []
    for v in range(len(labels)):
        new_rows.append(tuple(reflected_row(labels, rows, n_mod, i, mrow, v)))
    return tuple(reflected_labels(labels, rows, n_mod, i, mrow)), tuple(new_rows)


class ReflectedRows(dict):
    """The rows of the diagram (labels, rows) reflected at vertex i, each
    computed by ``reflected_row`` when first read, for callers that test a
    reflected diagram from a few of its rows.  One instance serves one
    reflection, so no row outlives it."""

    __slots__ = ("_args",)

    def __init__(self, labels, rows, n_mod, i, mrow):
        self._args = (labels, rows, n_mod, i, mrow)

    def __missing__(self, v):
        row = self[v] = reflected_row(*self._args, v)
        return row


def failure_vertex(labels, rows, n_mod):
    """Lowest vertex (0-based) with label 1 and an incident edge, or None:
    the vertex where the diagram's Weyl groupoid fails.  Reads row v only
    for a vertex v labelled 1, so a ``ReflectedRows`` is tested in O(r)
    unless such a vertex appears."""
    for v, label in enumerate(labels):
        if label % n_mod == 0 and any(rows[v]):
            return v
    return None


def exposed_vertex(labels, rows, n_mod, j, mrow):
    """``failure_vertex`` of the diagram reflected at j, whose rows are
    computed on demand (``ReflectedRows``).  The reflection at j must be
    defined (``mrow`` has no UNDEFINED)."""
    return failure_vertex(
        reflected_labels(labels, rows, n_mod, j, mrow),
        ReflectedRows(labels, rows, n_mod, j, mrow),
        n_mod,
    )


def scan_bad_reflection(labels, rows, n_mod):
    """First (j, v) such that reflecting at j gives vertex v label 1 while v
    keeps an incident edge, scanning all j at once; None if no single
    reflection exposes a failure.

    Each j costs one m-row and one ``exposed_vertex`` call, so the whole
    scan is quadratic instead of cubic.
    """
    for j in range(len(labels)):
        if labels[j] % n_mod == 0:
            # undefined (visible at the current state) or the identity
            continue
        v = exposed_vertex(labels, rows, n_mod, j, cartan_mrow(labels, rows, n_mod, j))
        if v is not None:
            return j, v
    return None


def matrix_from_columns(cols):
    """The matrix with these columns as the product kernel reads it: one
    flat tuple, column by column."""
    return tuple([x for col in cols for x in col])


def _times_x(c, top):
    """c x on the power basis: the shift of c, whose overflow coefficient
    at x^phi is replaced by that multiple of ``top``, the tuple of x^phi."""
    carry = c[-1]
    c = (0, *c[:-1])
    if carry:
        c = tuple([x + carry * t for x, t in zip(c, top)])
    return c


_PRODUCT_KERNELS: dict = {}
# most matrices of factors other than signed roots of unity a ZetaRing keeps
_MATRICES = 1024


def _product_kernel(phi):
    """kernel(matrix, co): the list of the products matrix * c for the
    tuples c in co, as unrolled code for this phi, compiled on first use.
    The matrix entries are unpacked once per call into locals; each
    product adds c_j times column j for the nonzero coordinates c_j only,
    so an entry costs phi tests and phi products per nonzero coordinate
    (the power-basis tuples of roots of unity have one to a few).  A plain
    loop, not a comprehension, keeps the entries locals: a comprehension
    makes phi^2 closure cells, which compile far slower."""
    kernel = _PRODUCT_KERNELS.get(phi)
    if kernel is None:
        r = range(phi)
        lines = [
            "def kernel(m, co):",
            "    " + "".join(f"m{i}_{j}, " for j in r for i in r) + "= m",
            "    out = []",
            "    append = out.append",
            "    for " + "".join(f"c{j}, " for j in r) + "in co:",
            "        " + " = ".join(f"r{i}" for i in r) + " = 0",
        ]
        for j in r:
            lines.append(f"        if c{j}:")
            lines += [f"            r{i} += m{i}_{j} * c{j}" for i in r]
        lines += ["        append((" + "".join(f"r{i}, " for i in r) + "))", "    return out\n"]
        namespace: dict = {}
        exec("\n".join(lines), namespace)
        kernel = _PRODUCT_KERNELS[phi] = namespace["kernel"]
    return kernel


class ZetaRing:
    """Z[zeta] at one conductor n, from ``poly``, the coefficients of Phi_n:
    the one owner of its tables.  ``powers`` holds zeta^k for k = 0 .. n-1
    and ``matrix(m)``, the matrix of c -> m c, has the columns m x^k, both
    built by the one step ``_times_x``; ``kernel`` applies a matrix to a
    list of tuples.  The matrices of the signed roots of unity +-zeta^k,
    the factors of almost every product, are kept once built (at most 2n,
    and never shared with another conductor of the same phi), and the
    conjugations of ``norm_cofactor`` on its first call.  The matrices of
    other factors, the leads of exact reduction steps, go to a table of at
    most ``_MATRICES`` of them, emptied when full: they are few and repeat
    (the two exact jobs of the benchmark ask for 4,933 matrices and build
    678).
    """

    __slots__ = ("conductor", "phi", "top", "powers", "kernel", "_roots", "_units",
                 "_others", "_conjugations")

    def __init__(self, conductor, poly):
        self.conductor = conductor
        self.phi = phi = len(poly) - 1
        self.top = tuple([-c for c in poly[:phi]])
        powers = [(1,) + (0,) * (phi - 1)]
        while len(powers) < conductor:
            powers.append(_times_x(powers[-1], self.top))
        self.powers = tuple(powers)
        self.kernel = self._first_product
        self._roots = frozenset(powers) | frozenset(tuple([-x for x in z]) for z in powers)
        self._units: dict = {}
        self._others: dict = {}
        self._conjugations = None

    def _first_product(self, m, co):
        """Compile the kernel, phi^2 lines, at the first product: a reader of
        ``powers`` alone (modular mode) never needs it."""
        self.kernel = _product_kernel(self.phi)
        return self.kernel(m, co)

    def matrix(self, m):
        """The matrix of c -> m c, kept in ``_units`` when m is a signed root
        of unity and in the bounded ``_others`` otherwise."""
        mat = self._units.get(m) or self._others.get(m)
        if mat is None:
            cols = [m]
            for _ in range(self.phi - 1):
                cols.append(_times_x(cols[-1], self.top))
            mat = matrix_from_columns(cols)
            if m in self._roots:
                self._units[m] = mat
            else:
                if len(self._others) >= _MATRICES:
                    self._others.clear()
                self._others[m] = mat
        return mat

    def norm_cofactor(self, a):
        """c(a) = prod of sigma_k(a) over k in (Z/n)^x, k != 1, where
        sigma_k(zeta) = zeta^k; a is a power-basis tuple.  a c(a) is the
        field norm N(a), a rational integer, nonzero when a is.  The matrix
        of sigma_k has the columns sigma_k(zeta^j) = zeta^(jk)."""
        n, powers = self.conductor, self.powers
        if self._conjugations is None:
            self._conjugations = [
                matrix_from_columns([powers[j * k % n] for j in range(self.phi)])
                for k in range(2, n)
                if gcd(k, n) == 1
            ]
        out = powers[0]
        for sigma in self._conjugations:
            out = _cyc_mul(self.kernel(sigma, (a,))[0], (out,), self)[0]
        return out


def _cyc_mul(m, co, ring):
    """The products m c in Z[zeta] for the coefficient tuples c in ``co``,
    through the matrix of the fixed factor m: the one product of the
    package."""
    return ring.kernel(ring.matrix(m), co)


def _content(co_list):
    g = 0
    for co in co_list:
        for x in co:
            if x:
                g = gcd(g, x)
                if g == 1:
                    return 1
    return g


def _scaled(m, co, ring):
    """The entries of ``co`` multiplied by the nonzero element m of Z[zeta]:
    ``co`` itself when m = 1, one integer product per coordinate when m is
    another rational integer, and the matrix of m (``_cyc_mul``) only for a
    non-rational m."""
    if any(m[1:]):
        return _cyc_mul(m, co, ring)
    n = m[0]
    if n == 1:
        return co
    return [tuple([n * x for x in c]) for c in co]


def combine_exact(amul, acc, heap, bmul, pidx, pco, ring):
    """One step of the echelon's reduce over Z[zeta], in place: acc becomes
    amul*acc - bmul*P for the pivot P = (pidx, pco), or that divided by
    amul when amul is a rational integer a that divides bmul, that is, acc
    becomes acc - (bmul/a)*P.  Returns True when it divided by a < 0.

    ``acc`` maps keys to coefficient tuples, none of them zero, and ``heap``
    is a heap that holds every key of acc (and may hold stale ones); P must
    be zero-free and amul, bmul nonzero.  The echelon's pivot leads are
    rational integers, nearly always 1 or -1, and divide bmul nearly always,
    so acc is seldom scaled; when it is, amul multiplies every entry
    (``_scaled``).  -bmul (or -bmul/a) scales the pivot's entries, and only
    those are touched: a key of P that acc lacks is added and pushed on
    ``heap``, and one held by both is summed and dropped when it becomes
    zero.  Z[zeta] is a domain, so no other entry can vanish.  No content
    is stripped; ``ExactEchelon`` strips it once, from the residual.
    """
    a = amul[0]
    negated = False
    if a != 1 or any(amul[1:]):
        if any(amul[1:]) or any(x % a for x in bmul):
            acc.update(zip(list(acc), _scaled(amul, list(acc.values()), ring)))
        else:
            bmul = tuple([x // a for x in bmul])
            negated = a < 0
    get = acc.get
    for k, c in zip(pidx, _scaled(tuple(map(neg, bmul)), pco, ring)):
        s = get(k)
        if s is None:
            acc[k] = c
            heappush(heap, k)
        else:
            c = tuple(map(add, s, c))
            if any(c):
                acc[k] = c
            else:
                del acc[k]
    return negated


def combine_mod(amul, acc, heap, bmul, pidx, pco, p):
    """One step of the echelon's reduce over the prime field F_p, in place:
    acc <- amul*acc - bmul*P, with acc, heap and P as in ``combine_exact``
    and entries residues in [1, p).  ``ModularEchelon`` keeps its pivots
    monic, so amul = 1 and only the pivot's entries are touched."""
    if amul != 1:
        acc.update(zip(list(acc), [amul * c % p for c in acc.values()]))
    nb = p - bmul
    get = acc.get
    for k, c in zip(pidx, pco):
        s = get(k)
        if s is None:
            acc[k] = nb * c % p
            heappush(heap, k)
        else:
            c = (s + nb * c) % p
            if c:
                acc[k] = c
            else:
                del acc[k]
