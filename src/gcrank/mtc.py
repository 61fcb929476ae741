"""Fusion-ring shadow of a modular tensor category: labels, fusion
coefficients, duals, and twists, plus the JSON file format and validator.

Only the data the rank formulas consume is modeled; quantum dimensions
and S/T matrices are deliberately absent.  Non-degeneracy of the braiding
is an assumption of every downstream computation that gcrank does not
check, though it could: x is transparent exactly when t_z = t_x + t_y
(mod N) on every support triple (x, y, z).

Twists are integers over one denominator N: ``twists[x]`` is t_x with
0 <= t_x < N and theta_x = exp(2*pi*i*t_x/N), where N is
``twist_denominator``, the lcm of the reduced denominators of the file's
twists (1 when every twist is 0).  ``twist_text`` writes t_x/N in lowest
terms.

``validate_mtc`` packs each product x⊗y = sum_u N_xy^u u into the integer
sum_u N_xy^u 2^(B u), one B-bit slot per label u, with
B = (max N^2 * rank).bit_length(), interns these vectors to small ids, and
checks associativity on them: (x⊗y)⊗z is sum_w N_xy^w (w⊗z)
and x⊗(y⊗z) is sum_w N_yz^w (x⊗w).  A slot of either side adds at most rank
terms of at most max N^2 each, which is below 2^B, so no slot carries into
the next: the sides are equal as integers exactly when they are equal slot
by slot.  Whole rows of products are summed at once, laid out in byte chunks
of c = floor(rank B / 8) + 1 bytes: row w holds w⊗z in chunk z, column w holds
x⊗w in chunk x.  For each distinct vector v = sum_w N_w w, sum_w N_w row_w
holds v⊗z in chunk z for every z, and sum_w N_w column_w holds x⊗v in chunk
x: one big-integer sum per distinct vector and side.  A chunk's value is
below 2^(rank B) <= 2^(8 c), so no carry crosses a chunk either.  The left
side of a pair (x, y) is then the byte string of x⊗y's left sum, the right
side the chunks x of the right sums of the y⊗z joined in z order, and the
two are compared whole; only pairs that differ are decoded, and in them
only the slots where the XOR of the two sides is nonzero.
The unit laws and duality read the same vectors: unit⊗x and x⊗unit must
both be 2^(B x), and N_xy^unit is the unit slot of x⊗y.
Multiplicities are nonnegative; the file format admits positive ones only.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from itertools import chain
from operator import itemgetter, mul
from types import MappingProxyType

from .errors import GcrankError, ParseError


class ModularData(namedtuple(
        "ModularData", "name labels unit fusion dual twists twist_denominator")):
    """A fusion ring with duals and twists, the twists as integers over
    ``twist_denominator`` (see the module docstring).  Read-only when made
    by ``mtc_from_doc``, whose ``fusion`` is a ``MappingProxyType``, so
    ``load_mtc`` can share one object with its passing checks.  Equal by
    value; not hashable, since ``fusion`` is a mapping."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.labels)

    def twist_text(self, x: int) -> str:
        """t_x/N in lowest terms, as ``str(Fraction)`` writes it: "0" or "n/d"."""
        t = self.twists[x]
        g = math.gcd(t, self.twist_denominator)
        return f"{t // g}/{self.twist_denominator // g}" if t else "0"


def find_label(positions: dict[str, int], label) -> int:
    """``positions[label]``; ParseError for a label not in it, or not hashable."""
    try:
        return positions[label]
    except (KeyError, TypeError):
        raise ParseError(f"unknown label {label!r}") from None


class Violation(namedtuple("Violation", "rule indices message")):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "violations", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def derive_duals(
    labels: tuple[str, ...], unit: int, fusion: dict[tuple[int, int, int], int]
) -> tuple[int, ...]:
    """dual(x) is the unique y with N_{x,y}^unit = 1 (fusion holds positive N only)."""
    candidates: list[list[int]] = [[] for _ in labels]
    for x, y, z in fusion:
        if z == unit:
            candidates[x].append(y)
    duals = []
    for x, ys in enumerate(map(sorted, candidates)):
        if len(ys) != 1 or fusion[(x, ys[0], unit)] != 1:
            raise GcrankError(
                f"label {labels[x]!r} has no unique dual: "
                f"candidates {[labels[y] for y in ys]}"
            )
        duals.append(ys[0])
    return tuple(duals)


def decode_json(source: str | bytes):
    """The JSON value of a data file; undecodable input is a ParseError."""
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        return json.loads(source)
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None


def parse_mtc(source: str | bytes) -> ModularData:
    """Parse the JSON file format into a ModularData."""
    return mtc_from_doc(decode_json(source))


def mtc_from_doc(doc) -> ModularData:
    """A ModularData from a decoded MTC document.

    Duals are derived from the fusion coefficients when the document omits them.
    """
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("name", "labels", "unit", "fusion", "twists"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    if not isinstance(doc["fusion"], list):
        raise ParseError('"fusion" must be an array of [x, y, z, n] entries')
    if not isinstance(doc["twists"], dict) or not isinstance(doc.get("duals", {}), dict):
        raise ParseError('"twists" and "duals" must be objects keyed by label')

    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ParseError('"labels" must be an array of strings')
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise ParseError(f"duplicate labels: {dupes}")
    index = {l: i for i, l in enumerate(labels)}
    unit = find_label(index, doc["unit"])

    fusion = {}
    for entry in doc["fusion"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"fusion entry must be [x, y, z, n], got {entry!r}")
        x, y, z, mult = entry
        if type(mult) is not int or mult < 1:
            raise ParseError(f"fusion multiplicity must be a positive integer, got {mult!r}")
        try:
            key = index[x], index[y], index[z]
        except (KeyError, TypeError):  # name the first unknown label
            key = find_label(index, x), find_label(index, y), find_label(index, z)
        if key in fusion:
            raise ParseError(f"duplicate fusion entry for ({x}, {y}, {z})")
        fusion[key] = mult

    twists_doc = doc["twists"]
    if set(twists_doc) != set(labels):
        missing = sorted(set(labels) - set(twists_doc))
        extra = sorted(set(twists_doc) - set(labels))
        if extra:
            raise ParseError(f"twists reference unknown labels {extra}")
        raise ParseError(f"twists missing for labels {missing}")
    reduced = []  # each twist mod 1 in lowest terms, denominator > 0
    for label in labels:
        pair = twists_doc[label]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(v) is int for v in pair)):
            raise ParseError(f"twist of {label!r} must be [numerator, denominator]")
        num, den = pair
        if den == 0:
            raise ParseError(f"twist of {label!r} has denominator 0")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        reduced.append((num // g, den // g))
    denominator = math.lcm(*(den for _, den in reduced))

    if "duals" in doc:
        duals_doc = doc["duals"]
        if set(duals_doc) != set(labels):
            raise ParseError("duals must map every label")
        dual = tuple(find_label(index, duals_doc[label]) for label in labels)
    else:
        dual = derive_duals(tuple(labels), unit, fusion)

    return ModularData(
        name=str(doc["name"]),
        labels=tuple(labels),
        unit=unit,
        fusion=MappingProxyType(fusion),
        dual=dual,
        twists=tuple(num * (denominator // den) for num, den in reduced),
        twist_denominator=denominator,
    )


def read_data_file(path: str | os.PathLike) -> bytes:
    """The bytes of an MTC or symmetry file."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except ValueError as exc:  # a NUL byte in the path
        raise ParseError(f"cannot read {str(path)!r}: {exc}") from None


LOADED_FILES = 8  # parsed files load_mtc keeps, least recently used evicted first
_loaded: dict[tuple[int, int], ModularData] = {}  # by (len, hash) of the bytes
_passed: dict[int, set] = {}  # by id of a ModularData in _loaded: the checks it passed


def load_mtc(path: str | os.PathLike) -> ModularData:
    """Read and parse an MTC file, parsing identical bytes once per process.

    The file is read and its bytes hashed on every call, so an edited file
    is parsed again; bytes equal to those of one of the ``LOADED_FILES``
    files loaded most recently, from whatever path, return that file's
    shared, read-only ModularData, with its passing checks kept (see
    ``checked``), so up to that many stay in memory.  A file that fails to
    parse is not kept and raises on every call; ``parse_mtc`` and inline
    "mtc" objects of symmetry files always parse."""
    source = read_data_file(path)
    key = len(source), hash(source)
    m = _loaded.pop(key, None)
    if m is None:
        m = parse_mtc(source)
        if len(_loaded) >= LOADED_FILES:
            del _passed[id(_loaded.pop(next(iter(_loaded))))]
        _passed[id(m)] = set()
    _loaded[key] = m
    return m


def checked(m: ModularData, key, check, *args) -> ValidationReport:
    """``check(m, *args)``, unless m is held by ``load_mtc`` and passed it
    before under ``key``.  Only such an m keeps its passing keys, until it
    is evicted; a failing report is computed again on every call."""
    passed = _passed.get(id(m))
    if passed is not None and key in passed:
        return ValidationReport()
    report = check(m, *args)
    if passed is not None and report.ok:
        passed.add(key)
    return report


def _product_table(m: ModularData) -> tuple:
    """(product_id, vector_id, terms, B): the id of each x⊗y, each vector's id,
    the (slots u, values N) of each id (see the module docstring)."""
    width = (max(m.fusion.values(), default=0) ** 2 * m.rank).bit_length()
    packed = [[0] * m.rank for _ in m.labels]
    for (x, y, z), mult in m.fusion.items():
        packed[x][y] += mult << width * z
    vector_id = {v: i for i, v in enumerate(dict.fromkeys(chain.from_iterable(packed)))}
    mask = (1 << width) - 1
    terms = []
    for v in vector_id:
        slots = []
        while v > 0:  # pop the lowest nonzero slot (> 0, not != 0: stops on N < 0 too)
            z = ((v & -v).bit_length() - 1) // width
            slots.append((z, v >> width * z & mask))
            v &= ~(mask << width * z)
        terms.append(tuple(zip(*slots)) or ((), ()))
    return [list(map(vector_id.__getitem__, row)) for row in packed], vector_id, terms, width


def validate_mtc(m: ModularData) -> ValidationReport:
    """Check every fusion-ring axiom; reports all violations, not the first.
    A ModularData that ``load_mtc`` holds is not checked again once it
    passed, while it stays there."""
    return checked(m, None, _check_mtc)


def _check_mtc(m: ModularData) -> ValidationReport:
    violations: list[Violation] = []
    rng = range(m.rank)
    lab = m.labels
    unit_label = lab[m.unit]
    product_id, vector_id, terms_of, width = _product_table(m)
    mask = (1 << width) - 1
    vectors = list(vector_id)

    # unit laws: unit⊗x and x⊗unit must both be the vector 2^(B x)
    for x in rng:
        sides = [(a, b, vectors[product_id[a][b]]) for a, b in ((m.unit, x), (x, m.unit))]
        if sides[0][2] == sides[1][2] == 1 << width * x:
            continue
        for y in rng:
            want = 1 if x == y else 0
            for a, b, v in sides:
                got = v >> width * y & mask
                if got != want:
                    violations.append(Violation(
                        "unit-law", (a, b, y),
                        f"N_{{{lab[a]},{lab[b]}}}^{lab[y]} = {got}, expected {want}",
                    ))

    # associativity on packed product vectors (see the module docstring):
    # (x⊗y)⊗z is sum_w N_xy^w (w⊗z) and x⊗(y⊗z) is sum_w N_yz^w (x⊗w).  Row w
    # holds w⊗z in byte chunk z and column w holds x⊗w in chunk x, so one sum
    # per distinct vector v gives v⊗z for every z (left) or x⊗v for every x (right)
    rank = m.rank
    chunk = rank * width // 8 + 1
    cuts = [slice(k, k + chunk) for k in range(0, chunk * rank, chunk)]
    as_bytes = [v.to_bytes(chunk, "little") for v in vector_id]
    rows = [int.from_bytes(b"".join(map(as_bytes.__getitem__, row)), "little")
            for row in product_id]
    cols = [int.from_bytes(b"".join(map(as_bytes.__getitem__, col)), "little")
            for col in zip(*product_id)]
    left, right = ([sum(map(mul, ns, map(lines.__getitem__, us))).to_bytes(rank * chunk, "little")
                    for us, ns in terms_of] for lines in (rows, cols))
    # the right side of (x, y) is chunk x of right[y⊗z] for every z, gathered
    # by one itemgetter per y, joined and compared with left[x⊗y] as a whole
    gathers = [itemgetter(*row) for row in product_id]
    join = b"".join if rank > 1 else bytes  # one index: itemgetter gives the chunk, no tuple
    for x, cut in zip(rng, cuts):
        right_x = [r[cut] for r in right]
        for y, v, gather in zip(rng, product_id[x], gathers):
            if left[v] == join(gather(right_x)):
                continue
            for z, l_chunk, r_chunk in zip(rng, map(left[v].__getitem__, cuts),
                                           map(right_x.__getitem__, product_id[y])):
                if l_chunk == r_chunk:
                    continue
                l_vec = int.from_bytes(l_chunk, "little")
                r_vec = int.from_bytes(r_chunk, "little")
                diff = l_vec ^ r_vec
                while diff:  # pop the lowest slot u where the two sides differ
                    u = ((diff & -diff).bit_length() - 1) // width
                    diff &= ~(mask << width * u)
                    l = l_vec >> width * u & mask
                    r = r_vec >> width * u & mask
                    violations.append(Violation(
                        "associativity", (x, y, z, u),
                        f"(({lab[x]} {lab[y]}) {lab[z]} -> {lab[u]}) = {l} "
                        f"but ({lab[x]} ({lab[y]} {lab[z]}) -> {lab[u]}) = {r}",
                    ))

    # duality: N_xy^unit is the unit slot of x⊗y; the row of these over y
    # must be one-hot at dual(x), and y is walked only when it is not
    at_unit = [v >> width * m.unit & mask for v in vectors]
    for x in rng:
        got_row = list(map(at_unit.__getitem__, product_id[x]))
        want_row = [0] * rank
        want_row[m.dual[x]] = 1
        if got_row != want_row:
            for y, got, want in zip(rng, got_row, want_row):
                if got != want:
                    violations.append(Violation(
                        "duality", (x, y),
                        f"N_{{{lab[x]},{lab[y]}}}^{unit_label} = {got}, expected {want}",
                    ))
        if m.dual[m.dual[x]] != x:
            violations.append(Violation(
                "duality", (x,),
                f"dual is not an involution at {lab[x]!r}",
            ))
    if m.dual[m.unit] != m.unit:
        violations.append(Violation(
            "duality", (m.unit,), "dual of the unit is not the unit"))

    # twist of unit
    if m.twists[m.unit] != 0:
        violations.append(Violation(
            "unit-twist", (m.unit,),
            f"twist of the unit is {m.twist_text(m.unit)}, expected 0",
        ))

    # dual twists: theta of dual(x) is theta of x
    for x, d in enumerate(m.dual):
        if m.twists[d] != m.twists[x]:
            violations.append(Violation(
                "dual-twist", (x, d),
                f"twist({lab[x]!r}) = {m.twist_text(x)} but its dual "
                f"{lab[d]!r} has twist {m.twist_text(d)}",
            ))

    return ValidationReport(tuple(violations))
