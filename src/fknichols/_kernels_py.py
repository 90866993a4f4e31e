"""The integer kernels of the groupoid and symmetrizer engines.

This is their only implementation; the engines call them through
``fknichols.backend`` (see there for why).

Conventions:

* Braiding exponent data is integer arithmetic mod N.  A "Cartan m-row" for
  vertex ``i`` stores ``m[j] = -a_ij >= 0`` for ``j != i``, ``m[i] = -2``
  (so the reflection formula is uniform in j), and ``m[j] = -1`` marks an
  undefined entry.
* Exact sparse vectors over the ring Z[zeta] are pairs ``(idx, co)`` where
  ``idx`` is a strictly increasing list of ints and ``co`` a parallel list
  of coefficient tuples of length phi (the degree of the cyclotomic ring).
  ``red`` is the reduction table: ``red[k]`` gives the coefficient tuple of
  ``x**(phi+k)`` reduced mod the cyclotomic polynomial.
"""

from __future__ import annotations

from math import gcd

UNDEFINED = -1
DIAGONAL_M = -2


def cartan_mrow(diag, edge, n_mod, i):
    """Cartan m-row at vertex i from diagram exponent data.

    ``diag[j]`` is the exponent of q_jj, ``edge[j][k]`` the exponent of
    q_jk q_kj (symmetric, 0 on the diagonal), both mod ``n_mod``.  Reads
    ``edge[i]`` once and no other row.

    With d = diag[i] != 0 and g = gcd(n_mod, d), q_ii has order n_g =
    n_mod / g, and m_ij for an edge e != 0 is the least m >= 0 with
    m d = -e (mod n_mod), which exists iff g | e, and n_g - 1 otherwise.
    """
    r = len(diag)
    row = [0] * r
    row[i] = DIAGONAL_M
    d = diag[i] % n_mod
    g = gcd(n_mod, d)
    n_g = n_mod // g
    inv = None
    for j, e in enumerate(edge[i]):
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


def reflected_labels(diag, edge, n_mod, i, mrow):
    """Vertex labels after reflecting at vertex i: d'_j = d_j + m_j e_ij +
    m_j^2 d_i, and d'_i = d_i.  Reads row i of ``edge`` only."""
    di = diag[i] % n_mod
    out = [
        (d + mj * e + mj * mj * di) % n_mod for d, e, mj in zip(diag, edge[i], mrow)
    ]
    out[i] = diag[i]
    return out


def reflect_diagram(diag, edge, n_mod, i, mrow):
    """Reflected (diag, edge) diagram data at vertex i."""
    r = len(diag)
    di = diag[i] % n_mod
    new_diag = reflected_labels(diag, edge, n_mod, i, mrow)
    new_edge = [[0] * r for _ in range(r)]
    for j in range(r):
        for k in range(j + 1, r):
            if j == i or k == i:
                t = j + k - i
                val = (-edge[i][t] - 2 * mrow[t] * di) % n_mod
            else:
                val = (
                    edge[j][k]
                    + mrow[j] * edge[i][k]
                    + mrow[k] * edge[i][j]
                    + 2 * mrow[j] * mrow[k] * di
                ) % n_mod
            new_edge[j][k] = val
            new_edge[k][j] = val
    return new_diag, new_edge


def reflected_row(diag, edge, n_mod, i, mrow, v):
    """Row v of the edge matrix of ``reflect_diagram(diag, edge, n_mod, i,
    mrow)``, in O(r): reads ``diag[i]`` and rows i and v of ``edge`` only.

    ``reflect_diagram`` fills the symmetric matrix one entry pair at a time,
    which is cheaper when every row is wanted; this is for callers that test
    a reflected diagram from a few of its rows.
    """
    di = diag[i] % n_mod
    erow = edge[i]
    if v == i:
        row = [(-e - 2 * mk * di) % n_mod for e, mk in zip(erow, mrow)]
    else:
        mv = mrow[v]
        eiv = erow[v]
        c = eiv + 2 * mv * di
        # e'_vk = e_vk + m_v e_ik + m_k (e_iv + 2 m_v d_i) for k != i, v
        row = [(a + mv * b + mk * c) % n_mod for a, b, mk in zip(edge[v], erow, mrow)]
        row[i] = (-eiv - 2 * mv * di) % n_mod
    row[v] = 0
    return row


def exposed_vertex(diag, edge, n_mod, j, mrow):
    """Lowest vertex that reflecting at j leaves with label 1 and an incident
    edge: ``_state_failure_vertex`` of the reflected diagram, 0-based, or
    None.  The reflection at j must be defined (``mrow`` has no UNDEFINED).

    Reads row j of ``edge``, and row v only for a vertex v whose new label
    is 1, so a diagram whose rows are computed on demand is tested in O(r)
    unless such a vertex appears.
    """
    labels = reflected_labels(diag, edge, n_mod, j, mrow)
    for v, label in enumerate(labels):
        if label % n_mod == 0 and any(reflected_row(diag, edge, n_mod, j, mrow, v)):
            return v
    return None


def scan_bad_reflection(diag, edge, n_mod):
    """First (j, v) such that reflecting at j gives vertex v label 1 while v
    keeps an incident edge, scanning all j at once; None if no single
    reflection exposes a failure.

    Each j costs one m-row and one ``exposed_vertex`` call, so the whole
    scan is quadratic instead of cubic.
    """
    for j in range(len(diag)):
        if diag[j] % n_mod == 0:
            # undefined (visible at the current state) or the identity
            continue
        v = exposed_vertex(diag, edge, n_mod, j, cartan_mrow(diag, edge, n_mod, j))
        if v is not None:
            return j, v
    return None


def _cyc_mul(a, b, phi, red):
    """Product of two coefficient tuples mod the cyclotomic polynomial."""
    if phi == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        v = conv[k]
        if v:
            rk = red[k - phi]
            for m in range(phi):
                if rk[m]:
                    out[m] += v * rk[m]
    return tuple(out)


def _content(co_list):
    g = 0
    for co in co_list:
        for x in co:
            if x:
                g = gcd(g, x)
                if g == 1:
                    return 1
    return g


def combine_exact(amul, aidx, aco, bmul, bidx, bco, phi, red):
    """Sparse combination amul*A - bmul*B over Z[zeta], content-stripped.

    Returns (idx, co) with zero entries dropped.
    """
    na, nb = len(aidx), len(bidx)
    ia = ib = 0
    idx_out = []
    co_out = []
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and aidx[ia] < bidx[ib]):
            c = _cyc_mul(amul, aco[ia], phi, red)
            pos = aidx[ia]
            ia += 1
        elif ia >= na or bidx[ib] < aidx[ia]:
            t = _cyc_mul(bmul, bco[ib], phi, red)
            c = tuple(-x for x in t)
            pos = bidx[ib]
            ib += 1
        else:
            ca = _cyc_mul(amul, aco[ia], phi, red)
            cb = _cyc_mul(bmul, bco[ib], phi, red)
            c = tuple(x - y for x, y in zip(ca, cb))
            pos = aidx[ia]
            ia += 1
            ib += 1
        if any(c):
            idx_out.append(pos)
            co_out.append(c)
    g = _content(co_out)
    if g > 1:
        co_out = [tuple(x // g for x in c) for c in co_out]
    return idx_out, co_out


def combine_mod(amul, aidx, aco, bmul, bidx, bco, p):
    """Sparse combination amul*A - bmul*B over the prime field F_p."""
    na, nb = len(aidx), len(bidx)
    ia = ib = 0
    idx_out = []
    co_out = []
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and aidx[ia] < bidx[ib]):
            c = amul * aco[ia] % p
            pos = aidx[ia]
            ia += 1
        elif ia >= na or bidx[ib] < aidx[ia]:
            c = -bmul * bco[ib] % p
            pos = bidx[ib]
            ib += 1
        else:
            c = (amul * aco[ia] - bmul * bco[ib]) % p
            pos = aidx[ia]
            ia += 1
            ib += 1
        if c:
            idx_out.append(pos)
            co_out.append(c)
    return idx_out, co_out
