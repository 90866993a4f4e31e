"""Cyclic-group Fomin-Kirillov pipelines: the groupoid-existence sweep, the
counterexample families, and the finite-subsystem survey.

The sweep classifies each n by whether the Weyl groupoid of the full cyclic
braiding exists, by one route per n.  A prime is decided by proof: its
braiding is of Cartan type (``check_single``).  A failing divisor r | n
settles n by inheritance unless verification mode forces direct
recomputation.  Other composites first try the heuristic words s_j s_i s_p
(p the smallest prime factor), up to a cap, on the start diagram in the
kernels' (labels, rows) form: vertex i has label i and edge i + j mod n.
The start object is reflected in full once, to s_p(start); each word is
then decided from O(r) entries of s_i s_p(start) instead of from whole
rank-r diagrams: its labels, its row j and the m-row at j give the labels
after s_j, and a further row is computed (``backend.ReflectedRows``) only
for a vertex that the word leaves with label 1.  When the capped
words find no failure, the whole three-reflection word family is scanned at
high rank, and a breadth-first exploration of the groupoid is the complete
fallback.  A checkpoint records the sweep parameters in its first line and
resumes only a sweep made with the same ones.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice
from math import gcd, prod

from fknichols import backend, diagonal
from fknichols._numtheory import (
    divisors,
    is_prime,
    prime_factors,
    smallest_prime_factor,
    units,
)
from fknichols.diagonal import (
    BOUND_EXCEEDED,
    BOUND_EXCEEDED_STATUS,
    EXISTS,
    FAILS_AT,
    DiagonalBraiding,
    cyclic_braiding,
    full_cyclic_braiding,
)

#: Heuristic words tried before the word-family scan or the BFS fallback.
HEURISTIC_CAP = 200
#: Object cap of the BFS fallback (scaled down above ``_BFS_SAFE_RANK``).
MAX_OBJECTS = 100_000
#: Bound on the root closure of each survey class.
SURVEY_MAX_ROOTS = 400
#: Object cap of each survey groupoid exploration.
SURVEY_MAX_OBJECTS = 50_000
# above this rank the complete BFS fallback stops being realistic; the
# heuristic word family is exhausted first and the BFS object cap is scaled
_BFS_SAFE_RANK = 24


@dataclass(frozen=True)
class SweepEntry:
    n: int
    status: str
    witness: tuple[int, ...] | None = None
    failing_vertex: int | None = None
    witness_order: int | None = None
    witness_subset: tuple[int, ...] | None = None
    inherited_from: int | None = None
    heuristic_used: bool = False
    object_count: int | None = None

    def witness_braiding(self) -> DiagonalBraiding | None:
        if self.witness_order is None:
            return None
        return cyclic_braiding(self.witness_order, self.witness_subset)


@dataclass(frozen=True)
class SweepReport:
    max_n: int
    entries: dict[int, SweepEntry]

    def exists_set(self) -> set[int]:
        return {n for n, e in self.entries.items() if e.status == EXISTS}

    def matches_prime_or_four(self) -> bool:
        expected = {n for n in range(2, self.max_n + 1) if is_prime(n) or n == 4}
        return self.exists_set() == expected


def _heuristic_pairs(r: int):
    """(i, j) pairs in a growing window: both indices increase from (1, 2)."""
    for hi in range(2, r + 1):
        for lo in range(1, hi):
            yield lo, hi
            yield hi, lo


def _start_diagram(n: int) -> diagonal.Diagram:
    """(labels, rows) of the full cyclic braiding of C_n in integers mod n:
    vertex i has label i and edge (i + j) mod n to vertex j.  This is
    ``full_cyclic_braiding(n).diagram()``, without the exponent matrix.
    Row i is the run i + 1, ..., i + n - 1 of residues mod n, sliced from
    two periods, with 0 in place of 2i at its own vertex."""
    cycle = tuple(range(n)) * 2
    labels = range(1, n)
    rows = tuple([cycle[a + 1 : 2 * a] + (0,) + cycle[2 * a + 1 : a + n] for a in labels])
    return tuple(labels), rows


def _first_reflection(n: int):
    """(p, labels, rows, failing vertex or None) of s_p(start), for p the
    smallest prime factor of a composite n and start the diagram of
    ``_start_diagram``; the vertex is 0-based, as the kernels give it.

    s_p is always defined: only a label 0 makes a Cartan entry undefined,
    and every label 1..n-1 is nonzero mod n.
    """
    p = smallest_prime_factor(n)
    labels, rows = _start_diagram(n)
    m = backend.cartan_mrow(labels, rows, n, p - 1)
    labels, rows = backend.reflect_diagram(labels, rows, n, p - 1, m)
    return p, labels, rows, backend.failure_vertex(labels, rows, n)


def _heuristic_search(n: int, first, cap: int):
    """Try the first cap words s_j s_i s_p, in ``_heuristic_pairs`` order, on
    the full cyclic braiding of a composite n, from first = s_p(start).

    Returns (witness, failing_vertex) or None.  The witness is the shortest
    prefix of the word that reaches an object with label 1 at a connected
    vertex, and the failing vertex is the lowest such vertex.

    Only the start object is reflected in full, once, to S0 = s_p(start)
    (``_first_reflection``).  A word is then read off a few rows: the prefix
    s_i is tested by ``exposed_vertex`` on S0, and S1 = s_i S0 is never
    built.  Its labels take O(r), its row j and the m-row at j another O(r),
    and the last reflection s_j is tested by ``exposed_vertex`` on those,
    which reads a further row of S1 only for a vertex whose new label is 1.
    A diagram without a failing vertex has a defined reflection at every
    vertex, so no m-row of S0 or S1 is undefined.
    """
    p, labels, rows, bad = first
    if bad is not None:
        return (p,), bad + 1
    # (m-row at i of S0, labels of S1) per prefix s_i s_p; the first cap
    # words use only O(sqrt(cap)) distinct i
    prefix: dict[int, tuple] = {}
    for i, j in islice(_heuristic_pairs(n - 1), cap):
        i0, j0 = i - 1, j - 1
        if i not in prefix:
            m_i = backend.cartan_mrow(labels, rows, n, i0)
            bad = backend.exposed_vertex(labels, rows, n, i0, m_i)
            if bad is not None:
                return (p, i), bad + 1
            prefix[i] = m_i, backend.reflected_labels(labels, rows, n, i0, m_i)
        m_i, labels1 = prefix[i]
        rows1 = backend.ReflectedRows(labels, rows, n, i0, m_i)
        m_j = backend.cartan_mrow(labels1, rows1, n, j0)
        bad = backend.exposed_vertex(labels1, rows1, n, j0, m_j)
        if bad is not None:
            return (p, i, j), bad + 1
    return None


def _scan_word_family(n: int, first):
    """Exhaust all words s_j s_i s_p at once via the single-reflection scan,
    from first = s_p(start), which the heuristic search found not failing.

    For each prefix state (after s_p, then after s_i s_p for every i) the
    kernel checks all candidate last reflections together, so covering the
    whole word family costs one reflection per i instead of one per word.
    Returns (witness, failing_vertex) or None; ties go to the shortest
    witness and then the lowest reflection index.
    """
    p, labels1, rows1, _ = first
    hit = backend.scan_bad_reflection(labels1, rows1, n)
    if hit is not None:
        j, v = hit
        return (p, j + 1), v + 1
    for i in range(1, n):
        m = backend.cartan_mrow(labels1, rows1, n, i - 1)
        labels2, rows2 = backend.reflect_diagram(labels1, rows1, n, i - 1, m)
        hit = backend.scan_bad_reflection(labels2, rows2, n)
        if hit is not None:
            j, v = hit
            return (p, i, j + 1), v + 1
    return None


def check_single(n: int) -> SweepEntry:
    """Direct groupoid-existence check for one n (no divisor inheritance).

    A prime n is decided by proof, with no braiding built.  At the start
    object vertex i has label q_ii = zeta^i, a unit power, so ord(q_ii) = n,
    and edge q_ij q_ji = zeta^(i+j).  So ``cartan_mrow`` gives
    m_ij = -(i + j) * i^-1 mod n: it solves q_ii^m q_ij q_ji = 1 and is
    below n = ord(q_ii).  The braiding is therefore of Cartan type, and a
    braiding of Cartan type has a Weyl groupoid (Heckenberger, Invent. Math.
    164 (2006)).  The tests replay this with ``diagonal.is_cartan_type``.

    A composite n reflects the start object once, to s_p(start), then tries
    the heuristic words, the whole word family (above rank
    ``_BFS_SAFE_RANK``), and the BFS.
    """
    if n < 2:
        raise diagonal.DomainError("n must be at least 2")
    if is_prime(n):
        return SweepEntry(n, EXISTS)
    first = _first_reflection(n)
    hit = _heuristic_search(n, first, HEURISTIC_CAP)
    if hit is None and n - 1 > _BFS_SAFE_RANK:
        # a full BFS at this rank is hopeless; exhaust the whole
        # three-reflection word family first (still deterministic)
        hit = _scan_word_family(n, first)
    if hit is not None:
        word, vertex = hit
        return SweepEntry(
            n,
            FAILS_AT,
            witness=tuple(word),
            failing_vertex=vertex,
            witness_order=n,
            witness_subset=tuple(range(1, n)),
            heuristic_used=True,
        )

    rank = n - 1
    max_objects = MAX_OBJECTS
    if rank > _BFS_SAFE_RANK:
        # keep the fallback exploration memory-bounded: each object stores
        # O(rank^2) exponents, so scale the object cap down with the rank
        max_objects = min(max_objects, max(500, 4_000_000 // (rank * rank)))
    result = diagonal.explore_groupoid(full_cyclic_braiding(n), max_objects)
    return SweepEntry(
        n,
        result.status,
        witness=result.witness,
        failing_vertex=result.failing_vertex,
        witness_order=n if result.status == FAILS_AT else None,
        witness_subset=tuple(range(1, n)) if result.status == FAILS_AT else None,
        object_count=len(result.objects) if result.status == EXISTS else None,
    )


class CheckpointMismatchError(ValueError):
    """A sweep checkpoint written with other sweep parameters, with no
    header recording them, or with a line that is not a sweep entry."""


#: Version of the checkpoint layout, recorded in its header line.
CHECKPOINT_SCHEMA = 1


def _checkpoint_header(verify: bool) -> dict:
    """The header line of a checkpoint: every parameter an entry depends on,
    the sweep constants included, so a checkpoint made under other values
    is refused."""
    return {
        "sweepCheckpoint": CHECKPOINT_SCHEMA,
        "verify": verify,
        "heuristicFirst": True,  # the heuristic words run before the BFS
        "heuristicCap": HEURISTIC_CAP,
        "maxObjects": MAX_OBJECTS,
    }


def _json_line(d: dict) -> str:
    return json.dumps(d, sort_keys=True) + "\n"


def _json_object(line: str) -> dict | None:
    """The JSON object on a line, or None if the line holds anything else."""
    try:
        d = json.loads(line)
    except json.JSONDecodeError:
        return None
    return d if isinstance(d, dict) else None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_checkpoint(path, header: dict) -> dict[int, SweepEntry]:
    """Entries of a sweep checkpoint: a header line, then one JSON line per n.

    A missing or empty file is started with ``header``.  A file whose first
    line is another header, or no header, raises CheckpointMismatchError:
    its entries may have been computed with other parameters (an entry
    inherited from a divisor, say, where ``verify`` recomputes it).

    Every line is written whole, ending in a newline, so text after the last
    newline is a write cut off mid-line: it is dropped from the file, and
    its n is recomputed; if it was the header, the sweep starts afresh.  Any
    other line that is not a JSON object with an integer ``n``, a status of
    exists, failsAt or boundExceeded, and fields of the types that
    ``entry_to_json`` writes raises CheckpointMismatchError, naming the file
    and the line number.  An entry of that form is trusted as it stands: a
    false but well-formed entry is reported as the answer for its n.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    complete = data.rfind(b"\n") + 1
    text = data[:complete].decode("utf-8", errors="replace")
    lines = [(k, line) for k, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_line(header))
        return {}
    found = _json_object(lines[0][1])
    if found is None or "sweepCheckpoint" not in found:
        raise CheckpointMismatchError(
            f"checkpoint {path} has no header line recording its sweep parameters"
        )
    if found != header:
        raise CheckpointMismatchError(
            f"checkpoint {path} was written with {_json_line(found).strip()}, "
            f"not {_json_line(header).strip()}"
        )
    entries: dict[int, SweepEntry] = {}
    for number, line in lines[1:]:
        entry = _entry_from_json(_json_object(line))
        if entry is None:
            raise CheckpointMismatchError(
                f"checkpoint {path} line {number} is not a sweep entry: "
                f"{line.strip()}"
            )
        entries[entry.n] = entry
    if complete < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(complete)
    return entries


def _append_checkpoint(path, entry: SweepEntry) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_json_line(entry_to_json(entry)))


def sweep_groupoid_existence(
    max_n: int, jobs: int = 1, verify: bool = False, checkpoint=None
) -> SweepReport:
    """Groupoid existence for every 2 <= n <= max_n.

    verify=True disables divisor inheritance (every composite is checked
    directly).  The result is independent of the worker count: jobs must
    be at least 1, and at most ``os.cpu_count()`` worker processes start.  A
    checkpoint resumes only a sweep made with the same verify and the same
    sweep constants (``_load_checkpoint``).
    """
    if max_n < 2:
        raise diagonal.DomainError("max_n must be at least 2")
    if jobs < 1:
        raise diagonal.DomainError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    entries: dict[int, SweepEntry] = {}
    done: dict[int, SweepEntry] = {}
    if checkpoint:
        done = _load_checkpoint(checkpoint, _checkpoint_header(verify))

    def record(entry: SweepEntry, fresh: bool) -> None:
        entries[entry.n] = entry
        if checkpoint and fresh:
            _append_checkpoint(checkpoint, entry)

    pool = None
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a run with one
        # worker never needs
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    pending: deque = deque()  # (n, future) in ascending n order

    def flush(upto: int | None = None) -> None:
        while pending and (upto is None or pending[0][0] <= upto):
            record(pending.popleft()[1].result(), fresh=True)

    try:
        for n in range(2, max_n + 1):
            if n in done:
                record(done[n], fresh=False)
                continue
            if is_prime(n):
                # decided by proof, at no cost; never pooled
                record(check_single(n), fresh=True)
                continue
            if not verify:
                dividing = [d for d in divisors(n) if 2 <= d < n]
                # divisor statuses must be settled before deciding
                unmet = [d for d in dividing if d not in entries]
                if unmet:
                    flush(max(unmet))
                failed = [
                    d
                    for d in dividing
                    if d in entries and entries[d].status == FAILS_AT
                ]
                if failed:
                    r = min(failed)
                    base = entries[r]
                    record(
                        SweepEntry(
                            n,
                            FAILS_AT,
                            witness=base.witness,
                            failing_vertex=base.failing_vertex,
                            witness_order=base.witness_order,
                            witness_subset=base.witness_subset,
                            inherited_from=r,
                        ),
                        fresh=True,
                    )
                    continue
            if pool is None:
                record(check_single(n), fresh=True)
            else:
                pending.append((n, pool.submit(check_single, n)))
        flush()
    finally:
        if pool is not None:
            pool.shutdown()
    return SweepReport(max_n, entries)


def counterexample_family(n: int) -> list[tuple[int, int]]:
    """All (p, r) with p prime, r >= 2, p*r | n and p | 2r - 1."""
    if n < 2:
        raise diagonal.DomainError("n must be at least 2")
    out = []
    for r in divisors(n):
        if r < 2:
            continue
        for p in prime_factors(n // r):
            if (2 * r - 1) % p == 0:
                out.append((p, r))
    return sorted(out)


# ---------------------------------------------------------------------------
# Finite subsystems


#: Reference dimensions for the first-appearance finite subsystem classes,
#: keyed by (first n, lexicographically smallest member).  Each value is
#: (factorization string or None, tabulated value).  Records whose computed
#: dimension disagrees with the tabulated value, or whose tabulated
#: factorization is inconsistent with it, carry an annotation.
REFERENCE_DIMENSIONS: dict[tuple[int, tuple[int, ...]], tuple[str | None, int]] = {
    (4, (1, 2)): ("2^2*4", 16),
    (4, (1, 2, 3)): (None, 256),
    (5, (1, 2)): ("5^4", 625),
    (6, (1, 3)): ("2^2*3*6", 72),
    (6, (1, 4)): ("2*3^2*6", 108),
    (6, (2, 3)): ("2^2*3^3", 36),
    (7, (1, 3)): ("7^6", 117649),
    (8, (1, 4)): ("2*4^2*8", 256),
    (10, (1, 5)): ("2^4*5^2*10^2", 40000),
}


def _eval_factorization(s: str) -> int:
    total = 1
    for part in s.split("*"):
        if "^" in part:
            b, e = part.split("^")
            total *= int(b) ** int(e)
        else:
            total *= int(part)
    return total


@dataclass(frozen=True)
class SubsystemRecord:
    """One equivalence class of connected sub-braidings of B_{C_n}."""

    n: int
    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    diagram: diagonal.Diagram
    cartan_type: bool
    finite: bool
    positive_root_count: int | None
    dimension: int | None
    first_appears: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def rank(self) -> int:
        return len(self.representative)


def _classify_subset(exploration, max_roots):
    """(finite, positive roots or None) of an explored subset; the root
    closure reuses the exploration and runs only when the groupoid exists."""
    if exploration.status != EXISTS:
        return False, None
    roots = diagonal.positive_roots(exploration, max_roots)
    if roots is BOUND_EXCEEDED:
        return False, None
    return True, roots


def _linked_subsets(n, objects):
    """Subsets whose diagram, up to the order of its vertices, is among the
    groupoid objects.

    The diagram of a subset I is (I, rows of the pair sums of I mod n), so
    an object (labels, rows) is one, with its vertices in some order,
    exactly when its labels are nonzero and distinct, each entry rows[i][j]
    off the diagonal is the pair sum labels[i] + labels[j] mod n and, at
    rank 2, the edge rows[0][1] is nonzero (the pair is connected).  The
    subset is the sorted label tuple: a vertex-permuted diagram has the
    same root system up to a permutation of coordinates.
    """
    out = set()
    for v, rows in objects:
        r = len(v)
        if 0 in v or len(set(v)) < r or (r == 2 and not rows[0][1]):
            continue
        pairs = combinations(range(r), 2)
        if all(rows[i][j] == (v[i] + v[j]) % n for i, j in pairs):
            out.add(tuple(sorted(v)))
    return out


def _candidate_subsets(n, rank, pair_ok):
    """Subsets of 1..n-1 of the given rank, in lexicographic order, all of
    whose pairs satisfy pair_ok, or all of them when pair_ok is None; rank 2
    keeps the connected pairs only."""
    if rank == 2:
        for a in range(1, n):
            for b in range(a + 1, n):
                if (a + b) % n:
                    yield (a, b)
        return
    if pair_ok is None:
        yield from combinations(range(1, n), rank)
        return

    def extend(prefix, allowed, size):
        if size == 0:
            yield prefix
            return
        for pos, a in enumerate(allowed):
            rest = [b for b in allowed[pos + 1 :] if pair_ok(a, b)]
            yield from extend(prefix + (a,), rest, size - 1)

    yield from extend((), list(range(1, n)), rank)


def _primitive_classes(d: int, max_rank: int, include_infinite: bool):
    """The classes of the subsets S of 1..d-1 with gcd(d, S) = 1, as
    (representative, members, finite, positive roots or None) tuples sorted
    by representative; without include_infinite, the finite classes only.

    This is the survey of ``enumerate_finite_subsystems`` restricted to one
    gcd (its fact 6).  The subsets of larger gcd are the scaled classes of
    the proper divisors of d: they seed the pruning set of fact 5, so its
    pair and triple tests see every finite subset of C_d.  A finite class is
    recorded where its exploration finds it (fact 3); only include_infinite
    walks the union-find, to add the others (fact 4).
    """
    unit_list = units(d)
    parent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def group(subset) -> set[tuple[int, ...]]:
        """Unite the Galois orbit of subset under its minimum, unless it is
        grouped already; returns the subsets it newly grouped."""
        if subset in parent:
            return set()
        galois = {tuple(sorted(k * a % d for a in subset)) for k in unit_list}
        parent.update(dict.fromkeys(galois, min(galois)))
        return galois

    # the roots of the classes whose groupoid exists (fact 4)
    exists: set[tuple[int, ...]] = set()
    # the subsets of the finite classes found so far, of every gcd
    finite: set[tuple[int, ...]] = {
        tuple(d // e * a for a in member)
        for e in divisors(d)[1:-1]
        for _, members, _, _ in _finite_classes(e, max_rank)
        for member in members
    }

    def pair_ok(a: int, b: int) -> bool:
        return (a + b) % d == 0 or (a, b) in finite

    out = []
    for rank in range(2, max_rank + 1):
        for subset in _candidate_subsets(
            d, rank, None if include_infinite else pair_ok
        ):
            if gcd(d, *subset) > 1:
                continue  # a scaled class of a proper divisor of d
            if rank > 3 and not (
                include_infinite or finite.issuperset(combinations(subset, 3))
            ):
                continue
            if subset in parent and (not include_infinite or find(subset) in exists):
                continue  # its class is decided (fact 4)
            grouped = group(subset)
            if rank > 2 and not all(
                pair_ok(a, b) for a, b in combinations(subset, 2)
            ):
                continue  # an infinite connected pair (fact 5)
            exploration = diagonal.explore_groupoid(
                cyclic_braiding(d, subset), SURVEY_MAX_OBJECTS
            )
            for other in _linked_subsets(d, exploration.objects):
                grouped |= group(other)
                union(subset, other)
            root = find(subset)
            if exploration.status == EXISTS:
                exists.add(root)
            # a class not first explored at its minimum is infinite (fact 4)
            if root != subset:
                continue
            is_finite, roots = _classify_subset(exploration, SURVEY_MAX_ROOTS)
            if is_finite:
                finite |= grouped  # its whole class, new here (fact 3)
                out.append((subset, tuple(sorted(grouped)), True, roots))

    if include_infinite:
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for subset in parent:
            classes.setdefault(find(subset), []).append(subset)
        out += [
            (rep, tuple(sorted(members)), False, None)
            for rep, members in classes.items()
            if rep not in finite
        ]
    return tuple(sorted(out, key=lambda c: c[0]))


@lru_cache(maxsize=None)
def _finite_classes(d: int, max_rank: int):
    """The finite primitive classes of C_d, kept for the life of the process."""
    return _primitive_classes(d, max_rank, False)


def enumerate_finite_subsystems(
    n: int,
    max_rank: int,
    include_infinite: bool = False,
) -> list[SubsystemRecord]:
    """Connected sub-braidings of B_{C_n} with finite root systems, grouped
    into equivalence classes.

    Two subsets are equivalent when related by relabelling the primitive
    root (I -> k*I for a unit k mod n, covering the mirror k = -1) or by a
    Weyl-groupoid reflection (one subset's diagram appears among the
    groupoid objects of the other).  Rank-1 subsets are omitted: every
    vertex trivially gives one.  A class is finite when the groupoid of its
    smallest member exists and its root closure stays within
    ``SURVEY_MAX_ROOTS`` (and, at rank 3, within the 2 * 37 roots per object
    that no finite system exceeds, ``diagonal._root_closure``).

    The survey classifies classes rather than subsets, using six facts:

    1. Connectivity is arithmetic.  The edge exponent between labels a and b
       is a + b mod n, so a pair is disconnected exactly when a + b = 0, and
       every subset of rank >= 3 is connected: a split whose cross pairs
       all sum to 0 would force two labels to be equal.
    2. Galois unions are done per orbit: the unit orbit {sorted(k*I)} is
       computed when the survey first reaches a member, and united at once.
    3. Weyl linkage needs no lookup table: a groupoid object is the
       diagram of a subset, up to the order of its vertices, exactly when
       its labels are nonzero and distinct and its edges are their pair
       sums in the object's own order; the subset is the sorted label tuple
       (``_linked_subsets``), since a vertex-permuted diagram has the same
       root system up to the order of coordinates.  If the groupoid of S
       exists and T is linked to S, the groupoid of T has the same objects
       up to vertex order, so linked(T) = linked(S), and linked(kT) =
       k * linked(S) for a unit k: the class of S is exactly the Galois
       orbits of linked(S).  So a finite class is recorded, members and
       all, at the exploration that finds it.
    4. A subset whose class is decided is not explored.  A class is decided
       once an exploration finds its groupoid (fact 3) or, without
       ``include_infinite``, gives it any verdict: finiteness is constant on
       a class (a Galois image has an isomorphic groupoid, and Weyl-linked
       subsets lie in one groupoid component), and only finite classes are
       reported.  Without it, a subset is grouped only once it passes the
       test of fact 5, so it lies in an explored class.  Under
       ``include_infinite`` a failing groupoid decides nothing: a
       breadth-first search stops at its first failure, so two starts in one
       class can each find only part of it, and a union-find joins what they
       find; only there is it walked, for the classes that no exploration
       found finite.  Subsets go by ascending rank, then in lexicographic
       order, so a finite class is first explored at its minimum, whose
       record the report shows and on which alone the root closure runs.
    5. A subset with an infinite sub-braiding never joins a finite class:
       a sub-braiding of a finite one is finite.  Each finite class, the
       Galois orbits of linked(S), joins a pruning set when its exploration
       finds it.  Without ``include_infinite``, a rank-3 subset is built only
       when each of its connected pairs is in that set, and a subset of
       rank >= 4 only when each of its triples is; every triple is connected
       by fact 1.  Under ``include_infinite`` every subset is built, and one
       with an infinite connected pair is never explored.
    6. Classes never mix gcds, and each class of gcd g is g times a
       primitive class of C_{n/g}.  A unit k mod n acts on gJ as the image
       of k acts on J mod n/g, and the units mod n map onto the units mod
       n/g; the groupoid objects of gJ are g times those of J, because
       zeta_n^(g*a) = zeta_{n/g}^a.  So the survey of n is assembled from
       the primitive classes (gcd(d, S) = 1) of each divisor d >= 2 of n,
       scaled by n/d (``_primitive_classes``), and each braiding is
       explored once per process however many multiples of its order are
       surveyed: the finite primitive classes are cached by (d, max_rank).
       Nothing of an ``include_infinite`` survey is kept across calls: its
       classes hold every subset of 1..d-1 up to max_rank, and keeping
       them grows the process's memory with no gain in time.
    """
    if n < 2:
        raise diagonal.DomainError("n must be at least 2")
    if max_rank < 1:
        raise diagonal.DomainError("max_rank must be at least 1")

    records = []
    for d in divisors(n)[1:]:
        g = n // d
        if include_infinite:
            primitive = _primitive_classes(d, max_rank, True)
        else:
            primitive = _finite_classes(d, max_rank)
        for base, members, finite, roots in primitive:
            rep = tuple(g * a for a in base)
            braiding = cyclic_braiding(n, rep)
            dimension = None
            root_count = None
            if finite:
                root_count = len(roots)
                orders = diagonal.root_orders(braiding, roots)
                dimension = prod(order for _, order in orders)
            notes: list[str] = []
            if finite and (d, base) in REFERENCE_DIMENSIONS:
                factorization, ref_value = REFERENCE_DIMENSIONS[(d, base)]
                if factorization is not None:
                    implied = _eval_factorization(factorization)
                    if implied != ref_value:
                        notes.append(
                            f"reference factorization {factorization} evaluates to "
                            f"{implied}, inconsistent with the tabulated value {ref_value}"
                        )
                if dimension != ref_value:
                    notes.append(
                        f"computed dimension {dimension} differs from the tabulated "
                        f"value {ref_value}"
                    )
            records.append(
                SubsystemRecord(
                    n=n,
                    representative=rep,
                    members=tuple(tuple(g * a for a in m) for m in members),
                    diagram=braiding.diagram(),
                    cartan_type=diagonal.is_cartan_type(braiding),
                    finite=finite,
                    positive_root_count=root_count,
                    dimension=dimension,
                    first_appears=d,
                    notes=tuple(notes),
                )
            )
    records.sort(key=lambda r: r.representative)
    return records


# ---------------------------------------------------------------------------
# JSON serialization


#: The optional fields of a sweep entry's JSON line, as (JSON key,
#: ``SweepEntry`` field, list or int); a missing one reads as None.
_ENTRY_FIELDS = (
    ("witness", "witness", list),
    ("failingVertex", "failing_vertex", int),
    ("witnessOrder", "witness_order", int),
    ("witnessSubset", "witness_subset", list),
    ("inheritedFrom", "inherited_from", int),
    ("objects", "object_count", int),
)


def entry_to_json(entry: SweepEntry) -> dict:
    d = {"n": entry.n, "status": entry.status, "heuristicUsed": entry.heuristic_used}
    for key, name, kind in _ENTRY_FIELDS:
        value = getattr(entry, name)
        d[key] = list(value) if kind is list and value is not None else value
    return d


def _entry_from_json(d: dict | None) -> SweepEntry | None:
    """The sweep entry of an ``entry_to_json`` line, or None unless d has
    its fields, each of its type (a missing heuristicUsed reads as False)."""
    if (
        d is None
        or not _is_int(d.get("n"))
        or d.get("status") not in (EXISTS, FAILS_AT, BOUND_EXCEEDED_STATUS)
        or not isinstance(d.get("heuristicUsed", False), bool)
    ):
        return None
    fields = {"heuristic_used": d.get("heuristicUsed", False)}
    for key, name, kind in _ENTRY_FIELDS:
        value = d.get(key)
        if kind is list and isinstance(value, list) and all(map(_is_int, value)):
            value = tuple(value)
        elif value is not None and (kind is list or not _is_int(value)):
            return None
        fields[name] = value
    return SweepEntry(d["n"], d["status"], **fields)


def report_to_json(report: SweepReport) -> dict:
    return {
        "maxN": report.max_n,
        "entries": [entry_to_json(report.entries[n]) for n in sorted(report.entries)],
        "conjectureHolds": report.matches_prime_or_four(),
    }


def record_to_json(record: SubsystemRecord) -> dict:
    return {
        "n": record.n,
        "representative": list(record.representative),
        "members": [list(m) for m in record.members],
        "diagram": diagonal.diagram_to_json(record.n, record.diagram),
        "cartanType": record.cartan_type,
        "finite": record.finite,
        "positiveRoots": record.positive_root_count,
        "dimension": record.dimension,
        "firstAppears": record.first_appears,
        "notes": list(record.notes),
    }
