"""Ranks of permutation extensions C wr G for G <= S_n.

Everything is driven by cycle types: an element with |a| cycles contributes
rk(C)^|a|, so totals come from conjugacy-class data and are never computed
by materializing the n-fold product category.  A materialization helper for
small n exists to cross-check the shortcut against the general engine.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import perms
from .errors import InconsistencyError, OutOfRange, ParseError, TooLarge
from .mtc import ModularData
from .perms import DEFAULT_GROUP_CAP, FiniteGroup, Permutation
from .symmetry import GlobalSymmetry, build_symmetry

PARTITION_CAP = 60
BRUTE_FORCE_CAP = 10**7


def cycle_type_formatter(n: int):
    """The text of a degree-n cycle type a, such as "1^2 3^1" (a_j > 0 only).
    The "j^k" texts come from a table built once, and a row picks its
    entries with ``itertools.compress``, without a Python-level loop over
    its n entries."""
    texts = [[f"{j}^{k}" for k in range(n // j + 1)] for j in range(1, n + 1)]
    join, pick, compress = " ".join, list.__getitem__, itertools.compress
    return lambda a: join(map(pick, compress(texts, a), compress(a, a)))


def _check_degree(n: int) -> None:
    if not 1 <= n <= PARTITION_CAP:
        raise OutOfRange(f"n must be in 1..{PARTITION_CAP}, got {n}")


def partitions(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(a, class size) for all p(n) cycle types a = (a_1, ..., a_n), a_j the
    number of j-cycles, in reverse-lexicographic order on a: a_1 from its
    largest value down, then a_2, and so on.  A branch is taken only if what
    is left is 0 or can be made of parts longer than j, so every a has
    sum_j j a_j = n; its class size is n! / prod_j j^(a_j) a_j!, exact."""
    _check_degree(n)
    fact_n = math.factorial(n)
    a = [0] * n
    types = []

    def fill(j: int, rest: int, denom: int) -> None:
        for aj in range(rest // j, -1, -1):
            left = rest - j * aj
            if 0 < left <= j:
                continue
            a[j - 1] = aj
            d = denom * j**aj * math.factorial(aj) if aj else denom
            if left:
                fill(j + 1, left, d)
            else:
                types.append((tuple(a), fact_n // d))
        a[j - 1] = 0

    fill(1, n, 1)
    return types


def cycle_type_of(p: Permutation) -> tuple[int, ...]:
    """The cycle type a of p: a_j is the number of its j-cycles."""
    a = [0] * p.degree
    for cycle in perms.cycle_decomposition(p):
        a[len(cycle) - 1] += 1
    return tuple(a)


@dataclass(frozen=True)
class RankPolynomial:
    """Big-integer polynomial in the base rank; coefficients[k] is the
    coefficient of x^k, with zero constant term."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int) -> int:
        result = 0
        for c in reversed(self.coefficients):
            result = result * x + c
        return result

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, 0, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            coeff = "" if c == 1 else f"{c}"
            power = "x" if k == 1 else f"x^{k}"
            parts.append(f"{coeff}{power}")
        if self.coefficients[0]:
            parts.append(str(self.coefficients[0]))
        return " + ".join(parts) if parts else "0"


def rank_polynomial_symmetric(n: int) -> RankPolynomial:
    """Coefficient of x^k is the number of elements of S_n with k cycles,
    the unsigned Stirling number c(n, k): c(m+1, k) = m c(m, k) + c(m, k-1)."""
    _check_degree(n)
    coeffs = [0, 1]
    for m in range(1, n):
        coeffs = [m * c + prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return RankPolynomial(tuple(coeffs))


def rank_wreath_cyclic(rk: int, n: int) -> int:
    """Necklace closed form for C wr Z_n: sum_{k<n} rk^gcd(k, n) (Polya
    1937), each gcd counted once; rk^n + (n-1) rk for prime n."""
    if n < 1:
        raise OutOfRange(f"degree must be >= 1, got {n}")
    gcds = Counter(math.gcd(k, n) for k in range(n))
    return sum(count * rk**d for d, count in gcds.items())


class ClassTerm(NamedTuple):
    """One conjugacy class's contribution to a wreath rank; ``a`` is its
    cycle type and ``representative`` is None for classes of S_n."""

    a: tuple[int, ...]
    representative: Permutation | None
    class_size: int
    num_cycles: int
    contribution: int


def _class_terms(rk: int, rows) -> tuple[int, list[ClassTerm]]:
    """The total and the ClassTerms of class rows (a, representative, class
    size); rk^c is computed once per cycle count c that occurs."""
    power = functools.cache(rk.__pow__)
    terms = []
    for a, rep, size in rows:
        c = sum(a)
        terms.append(ClassTerm(a, rep, size, c, size * power(c)))
    return sum(t.contribution for t in terms), terms


def rank_wreath_subgroup(
    rk: int, group: FiniteGroup
) -> tuple[int, list[ClassTerm]]:
    """Total rank of C wr G for an explicitly materialized G <= S_n."""
    classes = perms.conjugacy_classes(group).classes
    reps = [group.elements[cls[0]] for cls in classes]
    return _class_terms(rk, zip(map(cycle_type_of, reps), reps, map(len, classes)))


def rank_wreath_symmetric(rk: int, n: int) -> tuple[int, list[ClassTerm]]:
    """Total rank of C wr S_n from cycle types; S_n is never materialized.
    InconsistencyError if the class sizes do not sum to n!."""
    total, terms = _class_terms(rk, ((a, None, size) for a, size in partitions(n)))
    order = sum(t.class_size for t in terms)
    if order != math.factorial(n):
        raise InconsistencyError(f"class sizes of S_{n} sum to {order}, not {n}!")
    return total, terms


def brute_force_wreath_rank(rk: int, group: FiniteGroup) -> int:
    """Independent oracle: enumerate all rk^n tuples and count, per group
    element, the tuples fixed under permuting coordinates."""
    n = group.degree
    count = rk**n
    if count > BRUTE_FORCE_CAP:
        raise TooLarge(f"rk^n = {count} exceeds cap {BRUTE_FORCE_CAP}")
    # with n == 1 an itemgetter returns a bare entry, not a 1-tuple, so the
    # moved tuple is compared with ``same(t)``, never with t itself
    same = operator.itemgetter(*range(n))
    moves = [operator.itemgetter(*e.images) for e in group.elements]
    total = 0
    for t in itertools.product(range(rk), repeat=n):
        key = same(t)
        for move in moves:
            if move(t) == key:
                total += 1
    return total


# -- group presets ---------------------------------------------------------

_PRESET_RE = re.compile(r"([saz])(\d+)$")


def preset_generators(spec: str, degree: int) -> dict[str, Permutation]:
    """Named generator sets for "s<k>", "a<k>", "z<k>" (k <= degree, acting
    on the first k points), or explicit comma-separated cycle notation."""
    if degree < 1:
        raise OutOfRange(f"degree must be >= 1, got {degree}")
    m = _PRESET_RE.match(spec.strip().lower())
    if m:
        kind, k = m.group(1), int(m.group(2))
        if not 1 <= k <= degree:
            raise ParseError(f"group {spec!r} does not fit degree {degree}")
        cycle_k = "(" + " ".join(str(i) for i in range(1, k + 1)) + ")"
        if kind == "z":
            gens = {f"c{k}": cycle_k} if k > 1 else {}
        elif kind == "s":
            gens = {"t": "(1 2)", f"c{k}": cycle_k} if k > 1 else {}
        else:  # alternating
            if k < 3:
                gens = {}
            elif k % 2 == 1:
                gens = {"t3": "(1 2 3)", f"c{k}": cycle_k}
            else:
                long_even = "(" + " ".join(str(i) for i in range(2, k + 1)) + ")"
                gens = {"t3": "(1 2 3)", f"c{k - 1}": long_even}
        return {
            name: perms.parse_cycles(text, degree) for name, text in gens.items()
        }
    gens = {}
    for i, part in enumerate(s for s in spec.split(",") if s.strip()):
        gens[f"g{i}"] = perms.parse_cycles(part, degree)
    return gens


def preset_group(
    spec: str, degree: int, cap: int = DEFAULT_GROUP_CAP
) -> FiniteGroup:
    return perms.generate_group(degree, preset_generators(spec, degree), cap=cap)


# -- materialized products for cross-checks --------------------------------

def materialize_power(m: ModularData, n: int) -> ModularData:
    """The n-fold product category's fusion data, with tuple labels.

    Meant for small n only (the label count is rk^n)."""
    tuples = list(itertools.product(range(m.rank), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    labels = tuple("*".join(m.labels[i] for i in t) for t in tuples)
    fusion: dict[tuple[int, int, int], int] = {}
    for combo in itertools.product(m.fusion.items(), repeat=n):
        xs = tuple(triple[0] for triple, _ in combo)
        ys = tuple(triple[1] for triple, _ in combo)
        zs = tuple(triple[2] for triple, _ in combo)
        mult = math.prod(v for _, v in combo)
        key = (index[xs], index[ys], index[zs])
        fusion[key] = fusion.get(key, 0) + mult
    unit = index[(m.unit,) * n]
    dual = tuple(index[tuple(m.dual[i] for i in t)] for t in tuples)
    twists = tuple(
        sum((m.twists[i] for i in t), Fraction(0)) % 1 for t in tuples
    )
    return ModularData(
        name=f"{m.name}^{n}",
        labels=labels,
        unit=unit,
        fusion=fusion,
        dual=dual,
        twists=twists,
    )


def factor_permutation(m: ModularData, n: int, sigma: Permutation) -> Permutation:
    """The permutation of product labels moving factor i to slot sigma(i)."""
    if sigma.degree != n:
        raise OutOfRange(f"sigma has degree {sigma.degree}, expected {n}")
    tuples = list(itertools.product(range(m.rank), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    images = []
    for t in tuples:
        moved = [0] * n
        for i, val in enumerate(t):
            moved[sigma.images[i]] = val
        images.append(index[tuple(moved)])
    return Permutation(tuple(images))


def symmetric_power_symmetry(m: ModularData, n: int) -> tuple[ModularData, GlobalSymmetry]:
    """C^n with the full factor-permutation action of S_n, validated."""
    power = materialize_power(m, n)
    gens = preset_generators(f"s{n}", n)
    lifted = {
        name: factor_permutation(m, n, p) for name, p in gens.items()
    }
    return power, build_symmetry(power, lifted)
