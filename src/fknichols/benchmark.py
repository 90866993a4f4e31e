"""Benchmark the compiled kernels against the pure-Python twins.

Run as ``python -m fknichols.benchmark``.  Three workloads exercise the hot
paths: the mod-n reflection sweep, the exact cyclotomic echelon behind the
graded-dimension computations, and the modular echelon fast path.
"""

from __future__ import annotations

import argparse
import time

from fknichols import _kernels_py, backend


def _workload_sweep() -> None:
    from fknichols import cyclic_fk

    for n in (77, 91, 119, 133, 143, 161, 187):
        cyclic_fk.check_single(n)


def _workload_exact() -> None:
    from fknichols import reflection_groups, symmetrizer

    module = reflection_groups.yd_module(reflection_groups.GroupParams(2, 1, 2))
    space = symmetrizer.space_from_yd(module)
    symmetrizer.NicholsCalculator(space).graded_dim(8)
    d5 = reflection_groups.yd_module(reflection_groups.GroupParams(5, 5, 2))
    d5space = symmetrizer.space_from_yd(d5)
    symmetrizer.QuadraticCalculator(d5space).graded_dim(4)


def _workload_modular() -> None:
    from fknichols import reflection_groups, symmetrizer

    module = reflection_groups.yd_module(reflection_groups.GroupParams(5, 5, 2))
    space = symmetrizer.space_from_yd(module)
    calc = symmetrizer.QuadraticCalculator(space, mode="modular")
    calc.graded_dim(4)
    d7 = reflection_groups.yd_module(reflection_groups.GroupParams(7, 7, 2))
    d7space = symmetrizer.space_from_yd(d7)
    symmetrizer.NicholsCalculator(d7space, mode="modular").graded_dim(3)


WORKLOADS = [
    ("groupoid sweep kernels", _workload_sweep),
    ("exact cyclotomic echelon", _workload_exact),
    ("modular echelon", _workload_modular),
]

_KERNEL_NAMES = (
    "cartan_mrow",
    "reflect_exponent_matrix",
    "reflect_diagram",
    "scan_bad_reflection",
    "combine_exact",
    "combine_mod",
)


def _with_backend(module, fn, repeat: int) -> float:
    saved = {name: getattr(backend, name) for name in _KERNEL_NAMES}
    try:
        for name in _KERNEL_NAMES:
            setattr(backend, name, getattr(module, name))
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        for name, value in saved.items():
            setattr(backend, name, value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m fknichols.benchmark")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    try:
        from fknichols import _kernels as compiled
    except ImportError:
        compiled = None

    print(f"active backend at import: {backend.BACKEND}")
    header = f"{'workload':<28} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, fn in WORKLOADS:
        pure = _with_backend(_kernels_py, fn, args.repeat)
        if compiled is not None:
            fast = _with_backend(compiled, fn, args.repeat)
            ratio = pure / fast if fast > 0 else float("inf")
            print(f"{name:<28} {pure:>10.4f} {fast:>13.4f} {ratio:>7.2f}x")
        else:
            print(f"{name:<28} {pure:>10.4f} {'n/a':>13} {'n/a':>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
