"""Command-line front end: validate data files, compute rank reports,
wreath ranks, and symmetric-group rank polynomials.

Exit codes: 0 success, 1 domain failure (validation, inconsistency),
2 usage or parse error; each error class declares its own ``exit_code``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from json.encoder import encode_basestring

from . import perms, rank, symmetry, wreath
from .errors import GcrankError, ParseError
from .mtc import load_mtc, validate_mtc
from .perms import DEFAULT_GROUP_CAP


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _load_symmetry(args):
    mtc = load_mtc(args.mtc) if args.mtc else None
    mtc, generators = symmetry.load_symmetry(args.sym, mtc=mtc)
    return symmetry.build_symmetry(mtc, generators, cap=args.cap)


def _print_violations(title: str, report) -> None:
    print(f"{title}: FAIL ({len(report.violations)} violation(s))")
    for v in report.violations:
        print(f"  [{v.rule}] {v.message}")


def _violations_json(report):
    return [
        {"rule": v.rule, "indices": list(v.indices), "message": v.message}
        for v in report.violations
    ]


def cmd_validate(args) -> int:
    mtc = load_mtc(args.mtc)
    report = validate_mtc(mtc)
    ok = report.ok
    doc = {
        "mtc": {"name": mtc.name, "ok": report.ok,
                "violations": _violations_json(report)},
    }
    if not args.json:
        if report.ok:
            print(f"{mtc.name}: ok ({mtc.rank} labels)")
        else:
            _print_violations(mtc.name, report)
    if args.sym:
        _, generators = symmetry.load_symmetry(args.sym, mtc=mtc)
        doc["generators"] = {}
        for name, p in generators.items():
            gen_report = symmetry.validate_automorphism(mtc, p)
            doc["generators"][name] = {
                "ok": gen_report.ok,
                "violations": _violations_json(gen_report),
            }
            if not gen_report.ok:
                ok = False
            if not args.json:
                if gen_report.ok:
                    print(f"generator {name}: ok")
                else:
                    _print_violations(f"generator {name}", gen_report)
        if ok:
            order = perms.group_order(mtc.rank, generators.values())
            doc["group_order"] = order
            if not args.json:
                print(f"symmetry group order: {order}")
    if args.json:
        _print_json(doc)
    return 0 if ok else 1


def _render_rank_table(report: rank.RankReport, by_class: bool) -> None:
    s = report.symmetry
    # large groups are unreadable element-by-element
    if by_class or s.group.order > 50:
        first, rows = "representative", report.per_class
    else:
        first = "element"
        rows = [(i, report.class_sizes[i], rk) for i, rk in enumerate(report.per_element)]
    _print_table((first, "class size", "rank"), [
        (perms.format_cycles(s.group.elements[i], s.mtc.labels), str(size), str(rk))
        for i, size, rk in rows
    ])
    print(f"group order: {s.group.order}")
    print(f"orbit count: {report.orbit_count}")
    print(f"total rank:  {report.total_rank}")


def _print_table(header: tuple[str, ...], rows) -> None:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def cmd_rank(args) -> int:
    s = _load_symmetry(args)
    report = rank.rank_report(s)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        _render_rank_table(report, args.by_class)
    return 0


def cmd_burnside(args) -> int:
    s = _load_symmetry(args)
    report = rank.rank_report(s)
    labels = s.mtc.labels
    orbits = [[labels[i] for i in sorted(o)] for o in report.orbits]
    if args.json:
        _print_json({
            "orbits": orbits,
            "orbit_count": report.orbit_count,
            "group_order": s.group.order,
            "fixed_point_sum": str(report.total_rank),
            "burnside_total": str(report.burnside_total),
        })
    else:
        for orbit in orbits:
            print("{" + ", ".join(orbit) + "}")
        print(f"orbit count: {report.orbit_count}")
        print(f"sum of fixed points:   {report.total_rank}")
        print(f"|G| x orbit count:     {report.burnside_total}")
    return 0


def _write_wreath_json(total: int, terms, rk: int, n: int, spec: str, order: int):
    """Write, one row at a time, the bytes of ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` for the wreath document (``terms`` is never empty:
    the identity is a class, and n >= 1, so no cycle type is empty)."""
    write = sys.stdout.write
    write(f'{{\n  "rk": "{rk}",\n  "n": {n},\n  "group": {encode_basestring(spec)},'
          f'\n  "group_order": {order},\n  "total_rank": "{total}",\n  "per_class": [')
    digit = [str(i) for i in range(n + 1)].__getitem__  # a_j <= n
    # rows without a representative (all of them, or none) show their cycle type
    cycle_type = (wreath.cycle_type_formatter(n) if terms[0].representative is None
                  else None)
    names = perms.point_names(n)  # once per run, not per class
    entries = ",\n        ".join
    sep = "\n"
    for t in terms:
        a = f"[\n        {entries(map(digit, t.a))}\n      ]"
        rep = (perms.format_cycles(t.representative, names)
               if t.representative is not None else cycle_type(t.a))
        write(f'{sep}    {{\n      "cycle_type": {a},\n      "representative": '
              f'{encode_basestring(rep)},\n      "class_size": "{t.class_size}",'
              f'\n      "num_cycles": {t.num_cycles},\n      "contribution": '
              f'"{t.contribution}"\n    }}')
        sep = ",\n"
    write("\n  ]\n}\n")


@contextlib.contextmanager
def _exact_ints():
    """Lift the int->str digit limit (none before Python 3.10.7) for the
    block only: totals print in full, and input files keep the guard."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def cmd_wreath(args) -> int:
    if (args.rk is None) == (args.mtc is None):
        raise ParseError("exactly one of --rk and --mtc is required")
    if args.rk is not None:
        rk = args.rk
        if rk < 0:
            raise ParseError("--rk must be non-negative")
    else:
        rk = load_mtc(args.mtc).rank
    n = args.n
    spec = args.group.strip().lower()

    if args.closed_form:
        if spec != f"z{n}":
            raise ParseError("--closed-form applies only to --group z<n>")
        total = wreath.rank_wreath_cyclic(rk, n)
    elif spec == f"s{n}":
        total, terms = wreath.rank_wreath_symmetric(rk, n)
        order = math.factorial(n)
    else:
        group = wreath.preset_group(args.group, n, cap=args.cap)
        total, terms = wreath.rank_wreath_subgroup(rk, group)
        order = group.order
    with _exact_ints():
        if args.closed_form and args.json:
            _print_json({"rk": str(rk), "n": n, "group": spec,
                         "closed_form": True, "total_rank": str(total)})
        elif args.closed_form:
            print(f"rank of C wr Z_{n} at rk(C) = {rk}: {total}")
        elif args.json:
            _write_wreath_json(total, terms, rk, n, spec, order)
        else:
            cycle_type = wreath.cycle_type_formatter(n)
            names = perms.point_names(n)  # once per run, not per class
            rows = [
                (cycle_type(t.a),
                 perms.format_cycles(t.representative, names)
                 if t.representative is not None else "-",
                 str(t.class_size), str(t.num_cycles), str(t.contribution))
                for t in terms
            ]
            _print_table(("cycle type", "representative", "class size", "cycles",
                          "contribution"), rows)
            print(f"group order: {order}")
            print(f"total rank:  {total}")
    return 0


def cmd_poly(args) -> int:
    poly = wreath.rank_polynomial_symmetric(args.n)
    if args.json:
        _print_json({
            "n": args.n,
            "text": str(poly),
            "coefficients": [
                [k, str(poly.coefficients[k])]
                for k in range(poly.degree, 0, -1)
                if poly.coefficients[k]
            ],
        })
    else:
        print(poly)
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache  # once per process; commands are looked up per call in main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcrank",
        description="Ranks of G-crossed braided extensions of modular tensor "
                    "categories from fusion data and label permutations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, sym=False):
        p.add_argument("--mtc", help="path to an MTC data file")
        if sym:
            p.add_argument("--sym", help="path to a symmetry file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cap", type=positive_int, default=DEFAULT_GROUP_CAP,
                       help="group-size cap, at least 1 (default %(default)s)")

    p = sub.add_parser("validate", help="validate an MTC file and optional symmetry")
    p.add_argument("--mtc", required=True)
    p.add_argument("--sym")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("rank", help="per-element and total extension ranks")
    common(p, sym=True)
    p.add_argument("--by-class", action="store_true",
                   help="one row per conjugacy class")

    p = sub.add_parser("burnside", help="orbits and the two total-rank expressions")
    common(p, sym=True)

    p = sub.add_parser("wreath", help="rank of the permutation extension C wr G")
    common(p)
    p.add_argument("--rk", type=int, help="base rank rk(C)")
    p.add_argument("--n", type=int, required=True, help="degree of the action")
    p.add_argument("--group", required=True,
                   help='"s<n>", "a<n>", "z<n>", or cycle-notation generators')
    p.add_argument("--closed-form", action="store_true",
                   help="use the necklace closed form (group must be z<n>)")

    p = sub.add_parser("poly", help="rank polynomial of the symmetric group S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.subcommand}"](args)
    except (GcrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, GcrankError) else 2


if __name__ == "__main__":
    sys.exit(main())
