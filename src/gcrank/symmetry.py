"""Global symmetries: finite permutation groups acting on the simple-object
labels of a ModularData by fusion-ring automorphisms.

The validation checks necessary conditions (unit, duals, fusion, twists
preserved).  Each condition survives composition, so a group passes when
its generators do, and only the generators are checked.
``validate_automorphism`` lists every violation of a generator;
``build_symmetry`` refuses one at its first.  Whether a
permutation that passes actually lifts to a braided autoequivalence is not
decidable from this data; ranks downstream are computed for a *purported*
global symmetry.
"""

from __future__ import annotations

import os
from itertools import islice

from . import perms
from .errors import NotAnAutomorphism, ParseError, UsageError
from .mtc import ModularData, ValidationReport, Violation
from .mtc import checked, decode_json, find_label, load_mtc, mtc_from_doc, read_data_file
from .perms import DEFAULT_GROUP_CAP, FiniteGroup


def validate_automorphism(m: ModularData, g: tuple[int, ...]) -> ValidationReport:
    """Check that the permutation g, the tuple of its images (label x goes
    to ``g[x]``), preserves the unit, duals, fusion coefficients, and twists;
    reports every violation.

    Fusion is compared as one dict, N against N moved by g; only when the two
    differ are the failing entries walked, in file order, to list violations.
    A ModularData that ``load_mtc`` holds is not checked again with a g it
    passed, while it stays there."""
    return checked(m, tuple(g), _check_automorphism, g)


def _check_automorphism(m: ModularData, g: tuple[int, ...]) -> ValidationReport:
    return ValidationReport(tuple(_violations(m, g)))


def _first_violation(m: ModularData, g: tuple[int, ...]) -> ValidationReport:
    return ValidationReport(tuple(islice(_violations(m, g), 1)))


def _violations(m: ModularData, g: tuple[int, ...]):
    """Yield the Violations of g in order: the unit, each label's dual and
    twist, then the fusion entries in file order.  Lazy, so a caller that
    needs only the first stops there; a wrong degree raises before any is
    made."""
    if len(g) != m.rank:
        raise UsageError(
            f"permutation degree {len(g)} != number of labels {m.rank}"
        )
    lab = m.labels

    if g[m.unit] != m.unit:
        yield Violation(
            "unit", (m.unit,),
            f"unit maps to {lab[g[m.unit]]!r}, must be fixed",
        )

    dual, twists = m.dual, m.twists
    for x in range(m.rank):
        if g[dual[x]] != dual[g[x]]:
            yield Violation(
                "dual", (x,),
                f"dual of {lab[x]!r}: image of dual is {lab[g[dual[x]]]!r} "
                f"but dual of image is {lab[dual[g[x]]]!r}",
            )
        if twists[g[x]] != twists[x]:
            yield Violation(
                "twist", (x,),
                f"twist({lab[x]!r}) = {m.twist_text(x)} but "
                f"twist({lab[g[x]]!r}) = {m.twist_text(g[x])}",
            )

    # moved[g e] = N(e); both dicts have one key per support triple and g is a
    # bijection on triples, so they are equal exactly when g preserves N
    moved = {(g[x], g[y], g[z]): n for (x, y, z), n in m.fusion.items()}
    if moved != m.fusion:
        # changed holds each e with N(g^-1 e) = moved[e] != N(e); failing,
        # their preimages, each e with N(g e) != N(e).  Walk the entries in
        # either set in file order, reporting each entry e, then its preimage
        # under g, if it fails and was not reported before: the order of a
        # walk over every entry and its preimage
        changed = {e for e, _ in moved.items() ^ m.fusion.items()}
        ginv = perms.inverse(g)
        failing = {(ginv[x], ginv[y], ginv[z]) for x, y, z in changed}
        coefficient = m.fusion.get
        for x, y, z in filter((changed | failing).__contains__, m.fusion):
            for a, b, c in ((x, y, z), (ginv[x], ginv[y], ginv[z])):
                if (a, b, c) not in failing:
                    continue
                failing.remove((a, b, c))
                before, after = coefficient((a, b, c), 0), coefficient((g[a], g[b], g[c]), 0)
                yield Violation(
                    "fusion", (a, b, c),
                    f"N_{{{lab[a]},{lab[b]}}}^{lab[c]} = {before} but "
                    f"N_{{{lab[g[a]]},{lab[g[b]]}}}^{lab[g[c]]} = {after}",
                )


def build_symmetry(
    m: ModularData,
    generators: dict[str, tuple[int, ...]],
    cap: int = DEFAULT_GROUP_CAP,
) -> FiniteGroup:
    """Validate the generators and return the group they generate on the
    labels; its elements need no check of their own (see the module docstring).
    A failing generator is refused at its first violation, which the
    ``NotAnAutomorphism`` holds; a passing one is checked to the end, and
    shares ``validate_automorphism``'s memo."""
    for name, p in generators.items():
        report = checked(m, tuple(p), _first_violation, p)
        if not report.ok:
            raise NotAnAutomorphism(name, report)
    return perms.generate_group(m.rank, generators, cap=cap)


# -- symmetry file format --------------------------------------------------

def parse_generator(m: ModularData, spec) -> tuple[int, ...]:
    """A generator is either a list of image labels (in declaration order)
    or a cycle-notation string over labels, e.g. ``"(e m)"``."""
    positions = {label: i for i, label in enumerate(m.labels)}
    if isinstance(spec, str):
        return perms.parse_cycles(spec, m.rank, lambda label: find_label(positions, label))
    if isinstance(spec, list):
        if len(spec) != m.rank:
            raise ParseError(
                f"generator image list has {len(spec)} entries, expected {m.rank}"
            )
        images = tuple(find_label(positions, l) for l in spec)
        if len(set(images)) != len(images):
            raise ParseError(f"generator image list {spec!r} repeats a label")
        return images
    raise ParseError(f"generator must be a string or a list, got {spec!r}")


def load_symmetry(
    path: str | os.PathLike, mtc: ModularData | None = None
) -> tuple[ModularData, dict[str, tuple[int, ...]]]:
    """Read a symmetry file; returns the ModularData and named generators.

    The file's "mtc" field (a path relative to the file, or an inline MTC
    document) is used unless an explicit ModularData is supplied.
    """
    doc = decode_json(read_data_file(path))
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"), dict):
        raise ParseError('symmetry file must be an object with a "generators" object')
    if mtc is None:
        if "mtc" not in doc:
            raise ParseError('symmetry file has no "mtc" field and none was supplied')
        ref = doc["mtc"]
        if isinstance(ref, str):
            mtc = load_mtc(os.path.join(os.path.dirname(path), ref))
        elif isinstance(ref, dict):
            mtc = mtc_from_doc(ref)
        else:
            raise ParseError('"mtc" must be a path or an MTC object')
    generators = {
        name: parse_generator(mtc, spec) for name, spec in doc["generators"].items()
    }
    return mtc, generators
