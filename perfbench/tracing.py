"""Spans and counters around the public entry points of each fknichols layer.

The tracer replaces module and class attributes with timing wrappers from
outside the program; no file of the package changes.  Each span records its
name, the job that caused it, its parent span, start and end; spans stay in
memory and are written out when the batch ends.  Kernel calls are leaves:
they are aggregated per parent span instead of being recorded one by one.

A span's self time is its duration minus the time its child spans and leaf
calls cover.  Layers:

* kernels: ``backend`` (bound to ``_kernels_py``) and ``symmetrizer._cyc_mul``,
  which is bound at import and so bypasses ``backend``;
* engines: groupoid BFS, root closure, echelon insertion, symmetrizer levels
  and the quadratic relations;
* pipelines: sweep, survey, Hilbert series and YD assembly;
* cli: ``cli.main``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("kernels", "engines", "pipelines", "cli")

# (module, class or None, attribute): the kernels, recorded as leaves
_LEAVES = (
    ("backend", None, "cartan_mrow"),
    ("backend", None, "reflect_diagram"),
    ("backend", None, "reflect_exponent_matrix"),
    ("backend", None, "scan_bad_reflection"),
    ("backend", None, "combine_exact"),
    ("backend", None, "combine_mod"),
    ("symmetrizer", None, "_cyc_mul"),
)
# (module, class or None, attribute, layer)
_SPANS = (
    ("diagonal", None, "explore_groupoid", "engines"),
    ("diagonal", None, "_root_closure", "engines"),
    ("_linalg", "ExactEchelon", "insert", "engines"),
    ("_linalg", "ModularEchelon", "insert", "engines"),
    ("symmetrizer", "NicholsCalculator", "_extend", "engines"),
    ("symmetrizer", "QuadraticCalculator", "_level", "engines"),
    ("symmetrizer", None, "quadratic_relations", "engines"),
    ("cyclic_fk", None, "sweep_groupoid_existence", "pipelines"),
    ("cyclic_fk", None, "check_single", "pipelines"),
    ("cyclic_fk", None, "_scan_word_family", "pipelines"),
    ("cyclic_fk", None, "_append_checkpoint", "pipelines"),
    ("cyclic_fk", None, "_load_checkpoint", "pipelines"),
    ("cyclic_fk", None, "enumerate_finite_subsystems", "pipelines"),
    ("reflection_groups", None, "yd_module", "pipelines"),
    ("reflection_groups", None, "decompose_json", "pipelines"),
    ("symmetrizer", None, "space_from_yd", "pipelines"),
    ("symmetrizer", None, "hilbert_compare", "pipelines"),
    ("symmetrizer", None, "nichols_hilbert", "pipelines"),
    ("symmetrizer", None, "quadratic_hilbert", "pipelines"),
    ("cli", None, "main", "cli"),
)
# counted, not timed: their time stays with the enclosing span
_COUNTED = (
    ("cyclic_fk", None, "_classify_subset"),
    ("reflection_groups", None, "lambda_scalar"),
)


def _name(module: str, cls: str | None, attr: str) -> str:
    """Metric name of a wrapped function; a name may not start with "_"."""
    return ".".join(p for p in (module.lstrip("_"), cls, attr) if p)


class Tracer:
    """Span and counter store for one process; ``install`` patches fknichols."""

    def __init__(self):
        # [name, job, parent index, start, end, covered-by-children seconds]
        self.spans: list[list] = []
        # (leaf name, parent span index) -> [calls, seconds]
        self.leaves: dict[tuple[str, int], list] = {}
        self.counts: dict[str, float] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self.job: str | None = None
        self._stack: list[int] = []
        self._scan_hit = False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, self.job, parent, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = clock()
                if parent >= 0:
                    spans[parent][5] += record[4] - record[3]
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, leaves, clock = self.spans, self._stack, self.leaves, time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            parent = stack[-1] if stack else -1
            agg = leaves.get((name, parent))
            if agg is None:
                leaves[(name, parent)] = [1, elapsed]
            else:
                agg[0] += 1
                agg[1] += elapsed
            if parent >= 0:
                spans[parent][5] += elapsed
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read from results ----------------------------------------

    def _on_explore(self, args, result):
        self.counts["diagonal.explore_groupoid.objects"] += len(result.objects)

    def _on_closure(self, args, result):
        roots, ok = result
        if ok:
            self.counts["diagonal._root_closure.roots"] += len(roots)

    def _on_exact_insert(self, args, result):
        self.counts["linalg.ExactEchelon.insert.pivots"] += bool(result)
        bits = max(
            (abs(c).bit_length() for coeffs in args[2] for c in coeffs), default=0
        )
        key = "linalg.ExactEchelon.max_coeff_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _on_modular_insert(self, args, result):
        self.counts["linalg.ModularEchelon.insert.pivots"] += bool(result)

    def _on_extend(self, args, result):
        level = args[0]._levels[-1]
        block = max((len(v) for v in level.values()), default=0)
        key = "symmetrizer.nichols.max_block"
        self.counts[key] = max(self.counts[key], block)

    def _on_scan(self, args, result):
        self._scan_hit = result is not None

    def _on_check_single(self, args, entry):
        from fknichols._numtheory import is_prime

        if is_prime(args[0]):
            route = "prime"
        elif entry.heuristic_used:
            route = "scan" if self._scan_hit else "heuristic"
        else:
            route = "bfs"
        self._scan_hit = False
        self.counts[f"cyclic_fk.route.{route}"] += 1

    def _on_append(self, args, result):
        if args[1].inherited_from is not None:
            self.counts["cyclic_fk.route.inherited"] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        hooks = {
            "diagonal.explore_groupoid": self._on_explore,
            "diagonal._root_closure": self._on_closure,
            "linalg.ExactEchelon.insert": self._on_exact_insert,
            "linalg.ModularEchelon.insert": self._on_modular_insert,
            "symmetrizer.NicholsCalculator._extend": self._on_extend,
            "cyclic_fk._scan_word_family": self._on_scan,
            "cyclic_fk.check_single": self._on_check_single,
            "cyclic_fk._append_checkpoint": self._on_append,
        }

        def patch(module, cls, attr, make):
            owner = importlib.import_module(f"fknichols.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, make(getattr(owner, attr)))

        for module, cls, attr in _LEAVES:
            name = _name(module, cls, attr)
            self.layer_of[name] = "kernels"
            patch(module, cls, attr, lambda fn, name=name: self._leaf(name, fn))
        for module, cls, attr, layer in _SPANS:
            name = _name(module, cls, attr)
            self.layer_of[name] = layer
            patch(
                module, cls, attr,
                lambda fn, name=name: self._span(name, fn, hooks.get(name)),
            )
        for module, cls, attr in _COUNTED:
            name = _name(module, cls, attr)
            patch(module, cls, attr, lambda fn, name=name: self._counted(name, fn))

    # -- results -------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-name and per-layer calls, time and self time, plus counters.

        ``unattributed_s`` is the part of the batch's wall time that no
        top-level span covers: the benchmark's own loop between jobs.
        """
        by_name: dict[str, dict] = {}

        def entry(name):
            return by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

        top_level = 0.0
        for name, _job, parent, start, end, covered in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["s"] += end - start
            e["self_s"] += end - start - covered
            if parent < 0:
                top_level += end - start
        parent_name = {}
        for (name, parent), (calls, seconds) in self.leaves.items():
            e = entry(name)
            e["calls"] += calls
            e["s"] += seconds
            e["self_s"] += seconds
            if parent >= 0:
                key = (name, self.spans[parent][0])
                parent_name[key] = parent_name.get(key, 0) + calls
        layers = {layer: 0.0 for layer in LAYERS}
        for name, e in by_name.items():
            layers[self.layer_of[name]] += e["self_s"]
        counts = dict(self.counts)
        reflections = parent_name.get(("backend.reflect_diagram", "diagonal.explore_groupoid"), 0)
        counts["diagonal.explore_groupoid.distinct_ratio"] = (
            counts.get("diagonal.explore_groupoid.objects", 0) / reflections
            if reflections else 0.0
        )
        for kind in ("ExactEchelon", "ModularEchelon"):
            calls = by_name.get(f"linalg.{kind}.insert", {}).get("calls", 0)
            pivots = counts.pop(f"linalg.{kind}.insert.pivots", 0)
            counts[f"linalg.{kind}.insert.pivot_ratio"] = pivots / calls if calls else 0.0
        return {
            "by_name": by_name,
            "layers": layers,
            "counts": counts,
            "unattributed_s": wall_s - top_level,
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        """One JSON line per span, then one per (leaf, parent span) aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, job, parent, start, end, covered) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "job": job, "parent": parent,
                    "start": start, "end": end, "self_s": end - start - covered,
                }) + "\n")
            for (name, parent), (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({
                    "leaf": name, "parent": parent, "calls": calls, "s": seconds,
                }) + "\n")
