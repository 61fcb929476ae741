"""Command-line front end: validate data files, compute rank reports,
wreath ranks, and symmetric-group rank polynomials.

Exit codes: 0 success, 1 domain failure (validation, inconsistency),
2 usage or parse error; each error class declares its own ``exit_code``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring

from . import perms, rank, symmetry, wreath
from .errors import GcrankError, GroupTooLarge, ParseError
from .mtc import load_mtc, validate_mtc
from .perms import DEFAULT_GROUP_CAP


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _load_symmetry(args):
    mtc = load_mtc(args.mtc) if args.mtc else None
    mtc, generators = symmetry.load_symmetry(args.sym, mtc=mtc)
    return mtc.labels, symmetry.build_symmetry(mtc, generators, cap=args.cap)


def _print_report(title: str, report, ok_text: str) -> None:
    if report.ok:
        print(f"{title}: {ok_text}")
        return
    print(f"{title}: FAIL ({len(report.violations)} violation(s))")
    for v in report.violations:
        print(f"  [{v.rule}] {v.message}")


def _report_json(report) -> dict:
    return {"ok": report.ok, "violations": [v._asdict() for v in report.violations]}


def cmd_validate(args) -> int:
    mtc = load_mtc(args.mtc)
    # read --sym before any output, so that a bad file leaves stdout empty
    generators = symmetry.load_symmetry(args.sym, mtc=mtc)[1] if args.sym else {}
    report = validate_mtc(mtc)
    gen_reports = {name: symmetry.validate_automorphism(mtc, p)
                   for name, p in generators.items()}
    ok = report.ok and all(r.ok for r in gen_reports.values())
    order = perms.group_order(mtc.rank, generators.values()) if args.sym and ok else None
    if args.json:
        doc = {"mtc": {"name": mtc.name, **_report_json(report)}}
        if args.sym:
            doc["generators"] = {name: _report_json(r) for name, r in gen_reports.items()}
        if order is not None:
            doc["group_order"] = order
        _print_json(doc)
    else:
        _print_report(mtc.name, report, f"ok ({mtc.rank} labels)")
        for name, r in gen_reports.items():
            _print_report(f"generator {name}", r, "ok")
        if order is not None:
            print(f"symmetry group order: {order}")
    return 0 if ok else 1


def _print_table(header: tuple[str, ...], rows) -> None:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def cmd_rank(args) -> int:
    labels, group = _load_symmetry(args)
    report = rank.rank_report(group)
    classes = perms.conjugacy_classes(group).classes
    class_size = [0] * group.order  # by element index
    for cls in classes:
        for i in cls:
            class_size[i] = len(cls)
    if args.json:
        names = perms.point_names(group.degree)
        _print_json({
            "per_element": [
                {"element": perms.format_cycles(e, names), "class_size": size,
                 "rank": str(rk)}
                for e, size, rk in zip(group.elements, class_size, report.per_element)
            ],
            "total_rank": str(report.total_rank),
            "orbit_count": len(report.orbits),
            "group_order": group.order,
        })
        return 0
    # large groups are unreadable element-by-element
    if args.by_class or group.order > 50:
        first, rows = "representative", [cls[0] for cls in classes]
    else:
        first, rows = "element", range(group.order)
    _print_table((first, "class size", "rank"), [
        (perms.format_cycles(group.elements[i], labels), str(class_size[i]),
         str(report.per_element[i]))
        for i in rows
    ])
    print(f"group order: {group.order}")
    print(f"orbit count: {len(report.orbits)}")
    print(f"total rank:  {report.total_rank}")
    return 0


def cmd_burnside(args) -> int:
    labels, group = _load_symmetry(args)
    report = rank.rank_report(group)
    orbits = [[labels[i] for i in sorted(o)] for o in report.orbits]
    if args.json:
        _print_json({
            "orbits": orbits,
            "orbit_count": len(orbits),
            "group_order": group.order,
            "fixed_point_sum": str(report.total_rank),
            "burnside_total": str(report.burnside_total),
        })
    else:
        for orbit in orbits:
            print("{" + ", ".join(orbit) + "}")
        print(f"orbit count: {len(orbits)}")
        print(f"sum of fixed points:   {report.total_rank}")
        print(f"|G| x orbit count:     {report.burnside_total}")
    return 0


def _write_wreath_json(total: int, rows, rk: int, n: int, spec: str, order: int, names):
    """Write, one row at a time, the bytes of ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` for the wreath document.  ``rows`` are the rows of
    ``wreath.rank_wreath_*`` as returned with ``sep=wreath.SEP``, entries
    being the body of the ``cycle_type`` array, which opens on the same line
    break and indent as SEP; an S_n row (representative None) shows its text
    "1^2 3^1" instead, others their representative over ``names``.  n >= 1,
    so no entries text is empty.  Nothing in a representative needs escaping."""
    write = sys.stdout.write
    indent = wreath.SEP.lstrip(",")
    write(f'{{\n  "rk": "{rk}",\n  "n": {n},\n  "group": {encode_basestring(spec)},'
          f'\n  "group_order": {order},\n  "total_rank": "{total}",\n  "per_class": [')
    sep = "\n"
    for entries, text, rep, size, cycles, contribution in rows:
        if rep is not None:
            text = perms.format_cycles(rep, names)
        write(f'{sep}    {{\n      "cycle_type": [{indent}{entries}'
              f'\n      ],\n      "representative": "{text}",'
              f'\n      "class_size": "{size}",\n      "num_cycles": {cycles},'
              f'\n      "contribution": "{contribution}"\n    }}')
        sep = ",\n"
    write("\n  ]\n}\n")


def cmd_wreath(args) -> int:
    rk = args.rk
    if rk < 0:
        raise ParseError("--rk must be non-negative")
    n = args.n
    spec = args.group.strip().lower()
    preset = wreath.parse_preset(spec, n)
    kind = preset[0] if preset and preset[1] == n else None  # a preset on all n points
    sep = wreath.SEP if args.json else ","  # the table never shows entries: keep them short
    if args.closed_form:
        if kind != "z":
            raise ParseError("--closed-form applies only to --group z<n>")
        if n > args.cap:  # |Z_n| = n, under the same cap as a closed group
            raise GroupTooLarge(args.cap, n)
        total = wreath.rank_wreath_cyclic(rk, n)
    elif kind == "s":
        total, rows = wreath.rank_wreath_symmetric(rk, n, sep)
        order = math.factorial(n)
        names = None  # no S_n row has a representative
    else:
        group = wreath.preset_group(args.group, n, cap=args.cap)
        total, rows = wreath.rank_wreath_subgroup(rk, group, sep)
        order = group.order
        names = perms.point_names(n)  # once per run, not per class
    # lift the int->str digit limit (none before Python 3.10.7) while the
    # totals print, so they print in full; input files keep the guard
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        if args.closed_form and args.json:
            _print_json({"rk": str(rk), "n": n, "group": spec,
                         "closed_form": True, "total_rank": str(total)})
        elif args.closed_form:
            print(f"rank of C wr Z_{n} at rk(C) = {rk}: {total}")
        elif args.json:
            _write_wreath_json(total, rows, rk, n, spec, order, names)
        else:
            rows = [(text, "-" if rep is None else perms.format_cycles(rep, names),
                     str(size), str(c), str(x)) for _, text, rep, size, c, x in rows]
            _print_table(("cycle type", "representative", "class size", "cycles",
                          "contribution"), rows)
            print(f"group order: {order}")
            print(f"total rank:  {total}")
    finally:
        set_limit(limit)
    return 0


def cmd_poly(args) -> int:
    coeffs = wreath.rank_polynomial_symmetric(args.n)
    terms = [(k, coeffs[k]) for k in range(args.n, 0, -1)]  # every c(n, k) > 0 here
    text = " + ".join(("" if c == 1 else str(c)) + ("x" if k == 1 else f"x^{k}")
                      for k, c in terms)
    if args.json:
        _print_json({"n": args.n, "text": text,
                     "coefficients": [[k, str(c)] for k, c in terms]})
    else:
        print(text)
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
        if sym:
            p.add_argument("--mtc", help="path to an MTC data file")
            p.add_argument("--sym", required=True, help="path to a symmetry file")
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
    p.add_argument("--rk", type=int, required=True, help="base rank rk(C)")
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
