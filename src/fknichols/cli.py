"""Command-line front end.

Subcommands: groupoid check|sweep, subsystems, group info, yd decompose,
nichols hilbert, fk hilbert, hilbert compare, pbw dim.  Output formats:
json (schemaVersion-tagged, stable byte-for-byte), table, csv.  Exit codes:
0 success, 1 domain error, 2 resource-budget error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from fknichols import cyclic_fk, diagonal, reflection_groups, symmetrizer
from fknichols.cyclotomic import BadModularSpecError, ConductorMismatchError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _subset(n: int, text: str | None) -> tuple[int, ...]:
    """The --subset of a cyclic source in the order given, or 1..n-1."""
    if not text:
        return tuple(range(1, n))
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise diagonal.DomainError(f"bad subset {text!r}")


def _space_from_args(args) -> symmetrizer.BraidedSpace:
    if args.group:
        m, p, n = args.group
        module = reflection_groups.yd_module(reflection_groups.GroupParams(m, p, n))
        if module.empty:
            raise reflection_groups.GroupDomainError(
                "the reflection set is empty; no braided space"
            )
        return symmetrizer.space_from_yd(module)
    braiding = diagonal.cyclic_braiding(args.cyclic, _subset(args.cyclic, args.subset))
    return symmetrizer.space_from_diagonal(braiding)


def _max_degree(args, least: int = 0) -> int:
    """The --max-degree of a Hilbert command, which must be at least least."""
    if args.max_degree < least:
        raise diagonal.DomainError(
            f"--max-degree must be at least {least}, got {args.max_degree}"
        )
    return args.max_degree


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _mode(args) -> str:
    return "modular" if args.modular else "exact"


# ---------------------------------------------------------------------------
# Command handlers: each returns (payload, table_lines, csv_rows)


def _cmd_groupoid_check(args):
    subset = _subset(args.n, args.subset)
    braiding = diagonal.cyclic_braiding(args.n, subset)
    result = diagonal.explore_groupoid(braiding, args.max_objects)
    payload = {
        "command": "groupoid check",
        "n": args.n,
        "subset": sorted(subset),
        **diagonal.exploration_to_json(args.n, result),
    }
    lines = [
        f"n = {args.n}  subset = {sorted(subset)}",
        f"status: {result.status}",
        f"objects: {len(result.objects)}   morphisms: {result.morphism_count}",
    ]
    if result.status == diagonal.FAILS_AT:
        lines.append(
            f"witness: {list(result.witness)} fails at vertex {result.failing_vertex}"
        )
    csv_rows = [["n", "status", "objects", "morphisms", "witness"]]
    csv_rows.append(
        [
            args.n,
            result.status,
            len(result.objects),
            result.morphism_count,
            " ".join(map(str, result.witness or ())),
        ]
    )
    return payload, lines, csv_rows


def _cmd_groupoid_sweep(args):
    report = cyclic_fk.sweep_groupoid_existence(
        args.max,
        jobs=args.jobs,
        verify=args.verify,
        checkpoint=args.checkpoint,
    )
    payload = {"command": "groupoid sweep", **cyclic_fk.report_to_json(report)}
    lines = [f"{'n':>5}  {'status':<14} {'heuristic':<10} {'inherited':<10} witness"]
    for n in sorted(report.entries):
        e = report.entries[n]
        lines.append(
            f"{n:>5}  {e.status:<14} {str(e.heuristic_used):<10} "
            f"{str(e.inherited_from or ''):<10} {' '.join(map(str, e.witness or ()))}"
        )
    lines.append(f"conjecture (exists iff prime or 4): {report.matches_prime_or_four()}")
    csv_rows = [["n", "status", "heuristicUsed", "inheritedFrom", "witness"]]
    for n in sorted(report.entries):
        e = report.entries[n]
        csv_rows.append(
            [
                n,
                e.status,
                e.heuristic_used,
                e.inherited_from or "",
                " ".join(map(str, e.witness or ())),
            ]
        )
    exit_code = EXIT_OK
    if args.expect_conjecture and not report.matches_prime_or_four():
        exit_code = EXIT_DOMAIN
    return payload, lines, csv_rows, exit_code


def _cmd_subsystems(args):
    records = cyclic_fk.enumerate_finite_subsystems(
        args.n, args.max_rank, include_infinite=args.include_infinite
    )
    payload = {
        "command": "subsystems",
        "n": args.n,
        "maxRank": args.max_rank,
        "records": [cyclic_fk.record_to_json(r) for r in records],
    }
    lines = [
        f"{'subset':<16} {'rank':>4} {'finite':<7} {'roots':>5} {'dimension':>10} "
        f"{'first':>5}  notes"
    ]
    for r in records:
        lines.append(
            f"{str(list(r.representative)):<16} {r.rank:>4} {str(r.finite):<7} "
            f"{str(r.positive_root_count or ''):>5} {str(r.dimension or ''):>10} "
            f"{r.first_appears:>5}  {'; '.join(r.notes)}"
        )
    csv_rows = [["representative", "rank", "finite", "roots", "dimension", "firstAppears", "notes"]]
    for r in records:
        csv_rows.append(
            [
                " ".join(map(str, r.representative)),
                r.rank,
                r.finite,
                r.positive_root_count or "",
                r.dimension or "",
                r.first_appears,
                "; ".join(r.notes),
            ]
        )
    return payload, lines, csv_rows


def _cmd_group_info(args):
    params = reflection_groups.GroupParams(args.m, args.p, args.n)
    payload = {"command": "group info", **reflection_groups.group_info_json(params)}
    lines = [
        f"G({args.m},{args.p},{args.n}): order {payload['order']}, "
        f"{payload['reflections']} reflections",
    ]
    for d, c in payload["censusByOrder"].items():
        lines.append(f"  order {d}: {c} reflections")
    csv_rows = [["order", "count"]] + [
        [d, c] for d, c in payload["censusByOrder"].items()
    ]
    return payload, lines, csv_rows


def _cmd_yd_decompose(args):
    params = reflection_groups.GroupParams(args.m, args.p, args.n)
    module = reflection_groups.yd_module(params)
    payload = {"command": "yd decompose", **reflection_groups.decompose_json(module)}
    lines = [f"Y_G(G({args.m},{args.p},{args.n})): dim {module.dim}"]
    for s in payload["summands"]:
        lines.append(f"  {s['label']:<6} dim {s['dim']}: {', '.join(s['support'])}")
    lines.append(f"braid-indecomposable: {payload['braidIndecomposable']}")
    csv_rows = [["label", "dim", "support"]] + [
        [s["label"], s["dim"], " ".join(s["support"])] for s in payload["summands"]
    ]
    return payload, lines, csv_rows


def _hilbert_payload(command, args, data):
    return {
        "command": command,
        "source": {"group": args.group} if args.group else {
            "cyclic": args.cyclic,
            "subset": sorted(_subset(args.cyclic, args.subset)),
        },
        "mode": _mode(args),
        **symmetrizer.hilbert_to_json(data),
    }


def _hilbert_lines(data):
    lines = [f"per-degree: {list(data.per_degree)}"]
    for md, v in sorted(data.per_multidegree.items(), key=lambda kv: (len(kv[0]), repr(kv[0]))):
        lines.append(f"  {dict((str(l), list(md).count(l)) for l in md)}: {v}")
    return lines


def _hilbert_csv(data):
    rows = [["degree", "dim"]]
    rows += [[d, v] for d, v in enumerate(data.per_degree)]
    return rows


def _series_handler(command: str, series):
    """The handler of a one-series command: ``nichols hilbert`` or ``fk hilbert``."""

    def handler(args):
        max_degree = _max_degree(args)
        space = _space_from_args(args)
        data = series(space, max_degree, _mode(args), block_budget=args.budget)
        return _hilbert_payload(command, args, data), _hilbert_lines(data), _hilbert_csv(data)

    return handler


def _cmd_hilbert_compare(args):
    max_degree = _max_degree(args, least=2)
    space = _space_from_args(args)
    cmp = symmetrizer.hilbert_compare(space, max_degree, _mode(args), block_budget=args.budget)
    payload = {
        "command": "hilbert compare",
        "mode": _mode(args),
        **symmetrizer.comparison_to_json(cmp),
    }
    lines = [
        f"nichols  : {list(cmp.nichols.per_degree)}",
        f"quadratic: {list(cmp.quadratic.per_degree)}",
        f"divergence degree: {cmp.divergence_degree}",
    ]
    csv_rows = [["degree", "nichols", "quadratic"]]
    for d in range(max_degree + 1):
        csv_rows.append([d, cmp.nichols.per_degree[d], cmp.quadratic.per_degree[d]])
    return payload, lines, csv_rows


def _cmd_pbw_dim(args):
    subset = _subset(args.cyclic, args.subset)
    braiding = diagonal.cyclic_braiding(args.cyclic, subset)
    roots = diagonal.enumerate_positive_roots(braiding, max_roots=args.max_roots)
    finite = roots is not diagonal.BOUND_EXCEEDED
    dim = None
    orders = []
    if finite:
        orders = [order for _, order in diagonal.root_orders(braiding, roots)]
        dim = math.prod(orders)
    payload = {
        "command": "pbw dim",
        "cyclic": args.cyclic,
        "subset": sorted(subset),
        "finite": finite,
        "dimension": dim,
        "positiveRoots": sorted(list(r) for r in roots) if finite else None,
        "rootOrders": orders if finite else None,
    }
    lines = [f"dimension: {dim if finite else 'Infinite'}"]
    if finite:
        lines.append(f"positive roots ({len(roots)}): {sorted(roots)}")
        lines.append(f"root label orders: {orders}")
    csv_rows = [["finite", "dimension"], [finite, dim if finite else ""]]
    return payload, lines, csv_rows


# ---------------------------------------------------------------------------


def _add_hilbert_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", nargs=3, type=int, metavar=("M", "P", "N"))
    src.add_argument("--cyclic", type=int, metavar="N")
    p.add_argument("--subset", help="comma-separated subset of 1..n-1")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument(
        "--modular",
        action="store_true",
        help="take every rank over F_q, q the smallest odd prime = 1 (mod L), "
        "L the order of the braiding's scalars, instead of over Z[zeta_L].  "
        "A rank cannot rise mod q, so every Nichols dimension it reports is "
        "a lower bound for the exact one (and every quadratic-cover "
        "dimension an upper bound)",
    )
    p.add_argument(
        "--budget",
        type=_int_at_least(0),
        default=symmetrizer.DEFAULT_BLOCK_BUDGET,
        help="most candidates (basis element of the level below, letter) of "
        "one multidegree that a level step may eliminate (default "
        "%(default)s); doubled under --modular",
    )


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table", "csv"), default="json")
    common.add_argument("--output", help="write the report to this path")

    parser = _Parser(prog="fknichols")
    sub = parser.add_subparsers(dest="command", required=True)

    groupoid = sub.add_parser("groupoid")
    gsub = groupoid.add_subparsers(dest="subcommand", required=True)
    check = gsub.add_parser("check", parents=[common])
    check.add_argument("n", type=int)
    check.add_argument("--subset")
    check.add_argument("--max-objects", type=int, default=diagonal.MAX_OBJECTS)
    check.set_defaults(handler=_cmd_groupoid_check)
    sweep = gsub.add_parser("sweep", parents=[common])
    sweep.add_argument("--max", type=int, required=True)
    sweep.add_argument("--jobs", type=_int_at_least(1), default=1)
    sweep.add_argument("--verify", action="store_true")
    sweep.add_argument("--checkpoint")
    sweep.add_argument("--expect-conjecture", action="store_true")
    sweep.set_defaults(handler=_cmd_groupoid_sweep)

    subsystems = sub.add_parser("subsystems", parents=[common])
    subsystems.add_argument("n", type=int)
    subsystems.add_argument("--max-rank", type=int, default=3)
    subsystems.add_argument("--include-infinite", action="store_true")
    subsystems.set_defaults(handler=_cmd_subsystems)

    group = sub.add_parser("group")
    grsub = group.add_subparsers(dest="subcommand", required=True)
    info = grsub.add_parser("info", parents=[common])
    for name in ("m", "p", "n"):
        info.add_argument(name, type=int)
    info.set_defaults(handler=_cmd_group_info)

    yd = sub.add_parser("yd")
    ydsub = yd.add_subparsers(dest="subcommand", required=True)
    dec = ydsub.add_parser("decompose", parents=[common])
    for name in ("m", "p", "n"):
        dec.add_argument(name, type=int)
    dec.set_defaults(handler=_cmd_yd_decompose)

    nich = sub.add_parser("nichols")
    nsub = nich.add_subparsers(dest="subcommand", required=True)
    nh = nsub.add_parser("hilbert", parents=[common])
    _add_hilbert_args(nh)
    nh.set_defaults(handler=_series_handler("nichols hilbert", symmetrizer.nichols_hilbert))

    fk = sub.add_parser("fk")
    fsub = fk.add_subparsers(dest="subcommand", required=True)
    fh = fsub.add_parser("hilbert", parents=[common])
    _add_hilbert_args(fh)
    fh.set_defaults(handler=_series_handler("fk hilbert", symmetrizer.quadratic_hilbert))

    hilbert = sub.add_parser("hilbert")
    hsub = hilbert.add_subparsers(dest="subcommand", required=True)
    hc = hsub.add_parser("compare", parents=[common])
    _add_hilbert_args(hc)
    hc.set_defaults(handler=_cmd_hilbert_compare)

    pbw = sub.add_parser("pbw")
    psub = pbw.add_subparsers(dest="subcommand", required=True)
    pd = psub.add_parser("dim", parents=[common])
    pd.add_argument("--cyclic", type=int, required=True)
    pd.add_argument("--subset")
    pd.add_argument(
        "--max-roots",
        type=int,
        default=diagonal.MAX_ROOTS,
        help="bound on the root closure.  At rank 2, when the groupoid "
        "exists, an infinite root system is proven infinite by one loop, "
        "whatever the bound; at rank 3 'Infinite' reached by more than 2*37 "
        "roots at one object is a proof (a finite rank-3 system has at "
        "most 37 positive roots); at rank >= 4 'Infinite' still means only that "
        "this bound was exceeded.  A bound below the true root count gives "
        "'Infinite' for a finite system at any rank",
    )
    pd.set_defaults(handler=_cmd_pbw_dim)

    return parser


def render_json(payload: dict) -> str:
    payload = {"schemaVersion": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(rows) -> str:
    import csv as _csv
    import io

    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """``build_parser()``, built once per process; ``parse_args`` keeps no
    state."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        result = args.handler(args)
        if len(result) == 4:
            payload, lines, csv_rows, exit_code = result
        else:
            payload, lines, csv_rows = result
            exit_code = EXIT_OK
        if args.format == "json":
            text = render_json(payload)
        elif args.format == "csv":
            text = render_csv(csv_rows)
        else:
            text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except symmetrizer.ResourceBudgetError as exc:
        sys.stderr.write(f"resource budget exceeded: {exc}\n")
        return EXIT_RESOURCE
    except (
        diagonal.DomainError,
        diagonal.RootSystemUndefinedError,
        diagonal.UndefinedDimensionError,
        reflection_groups.GroupDomainError,
        ConductorMismatchError,
        BadModularSpecError,
        cyclic_fk.CheckpointMismatchError,
        OSError,  # an unusable --output or --checkpoint path
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
