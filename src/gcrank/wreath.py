"""Ranks of permutation extensions C wr G for G <= S_n.

Everything is driven by cycle types: an element with |a| cycles contributes
rk(C)^|a|, so totals come from conjugacy-class data and are never computed
by materializing the n-fold product category.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections import Counter

from . import perms
from .errors import InconsistencyError, ParseError, UsageError
from .perms import DEFAULT_GROUP_CAP, FiniteGroup

PARTITION_CAP = 60
DEGREE_CAP = 10**6
BRUTE_FORCE_CAP = 10**7
# between two entries of a cycle type: the array separator of
# json.dumps(indent=2) at the depth of "cycle_type" in ``wreath --json``
SEP = ",\n        "


def _check_degree(n: int) -> None:
    if not 1 <= n <= PARTITION_CAP:
        raise UsageError(f"n must be in 1..{PARTITION_CAP}, got {n}")


def partitions(n: int, sep: str = SEP) -> list[tuple[int, int, str, str]]:
    """(class size, cycle count, text, entries) for all p(n) cycle types
    a = (a_1, ..., a_n), a_j the number of j-cycles, in reverse-lexicographic
    order on a: a_1 from its largest value down, then a_2, and so on.  text
    is "1^2 3^1" (the a_j > 0 only) and entries every a_j joined by ``sep``;
    with SEP that is the body of the ``cycle_type`` array that ``wreath
    --json`` prints.  A caller that never reads entries passes ",", two
    characters an a_j where SEP takes ten, to keep the p(n) rows small.

    The walk goes over distinct part sizes (Knuth, TAOCP 4A 7.2.1.4): after
    parts up to j, the next size k runs upward from j + 1 with a_k counting
    down, and the single part ``rest`` comes last.  A branch is taken only
    if what is left is 0 or more than k, so every call adds one nonzero
    part and every a has sum_j j a_j = n.  Each call extends the class-size
    denominator prod_j j^(a_j) a_j!, the cycle count and both texts by that
    part, from tables built once.  Class sizes n! / denominator are exact."""
    _check_degree(n)
    fact_n = math.factorial(n)
    zeros = [f"0{sep}" * g for g in range(n)]  # a_j = 0 before a part
    tails = [f"{sep}0" * g for g in range(n)]  # a_j = 0 after the largest part
    # parts[k][m]: the denominator factor k^m m!, the text "k^m" and str(m)
    parts = [None] + [[(k**m * math.factorial(m), f"{k}^{m}", str(m))
                       for m in range(n // k + 1)] for k in range(1, n + 1)]
    rows = []

    def walk(j: int, rest: int, denom: int, cycles: int, text: str, entries: str) -> None:
        # parts longer than j make up rest > j; text and entries end in a
        # separator unless they are empty
        for k in range(j + 1, rest // 2 + 1):
            before = entries + zeros[k - j - 1]
            top, left = divmod(rest, k)
            table = parts[k]
            if not left:  # a_k = top leaves 0, and a_k = top - 1 leaves k
                factor, part, digits = table[top]
                rows.append((fact_n // (denom * factor), cycles + top,
                             f"{text}{part}", f"{before}{digits}{tails[n - k]}"))
            for ak in range(top - 1 - (not left), 0, -1):  # leaves more than k
                factor, part, digits = table[ak]
                walk(k, rest - k * ak, denom * factor, cycles + ak, f"{text}{part} ",
                     f"{before}{digits}{sep}")
        rows.append((fact_n // (denom * rest), cycles + 1, f"{text}{rest}^1",
                     f"{entries}{zeros[rest - j - 1]}1{tails[n - rest]}"))

    walk(0, n, 1, 0, "", "")
    return rows


def cycle_type_of(cycles: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The cycle type a of the permutation whose ``perms.cycle_decomposition``
    (fixed points included) is ``cycles``: a_j is the number of its j-cycles."""
    a = [0] * sum(map(len, cycles))
    for cycle in cycles:
        a[len(cycle) - 1] += 1
    return tuple(a)


def rank_polynomial_symmetric(n: int) -> tuple[int, ...]:
    """(c(n, 0), ..., c(n, n)): c(n, k), the coefficient of x^k in the rank
    polynomial of S_n, counts its elements with k cycles, the unsigned Stirling
    numbers c(m+1, k) = m c(m, k) + c(m, k-1); c(n, 0) = 0, the rest are > 0."""
    _check_degree(n)
    coeffs = [0, 1]
    for m in range(1, n):
        coeffs = [m * c + prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def rank_wreath_cyclic(rk: int, n: int) -> int:
    """Necklace closed form for C wr Z_n: sum_{k<n} rk^gcd(k, n) (Polya
    1937), each gcd counted once; rk^n + (n-1) rk for prime n."""
    if n < 1:
        raise UsageError(f"degree must be >= 1, got {n}")
    gcds = Counter(math.gcd(k, n) for k in range(n))
    return sum(count * rk**d for d, count in gcds.items())


def rank_wreath_subgroup(rk: int, group: FiniteGroup,
                         sep: str = SEP) -> tuple[int, list[tuple]]:
    """Total rank of C wr G for an explicitly materialized G <= S_n, and one
    row (entries, text, cycles, class size, cycle count, contribution) per
    conjugacy class; cycles is the ``perms.cycle_decomposition`` of the
    class's representative, and entries and text are its cycle type a as in
    ``partitions(n, sep)``.  rk^c is computed once per cycle count c that
    occurs."""
    power = functools.cache(rk.__pow__)
    rows = []
    for cls in perms.conjugacy_classes(group).classes:
        cycles = perms.cycle_decomposition(group.elements[cls[0]])
        a = cycle_type_of(cycles)
        c = len(cycles)
        text = " ".join(f"{j}^{a[j - 1]}" for j in itertools.compress(itertools.count(1), a))
        rows.append((sep.join(map(str, a)), text, cycles, len(cls), c, len(cls) * power(c)))
    return sum(map(operator.itemgetter(5), rows)), rows


def rank_wreath_symmetric(rk: int, n: int, sep: str = SEP) -> tuple[int, list[tuple]]:
    """Total rank of C wr S_n and its rows, shaped as in
    ``rank_wreath_subgroup`` with cycles None, from the rows of
    ``partitions(n, sep)``; S_n is never materialized.  InconsistencyError if
    the class sizes do not sum to n!, raised before any row is built."""
    classes = partitions(n, sep)
    order = sum(map(operator.itemgetter(0), classes))
    if order != math.factorial(n):
        raise InconsistencyError(f"class sizes of S_{n} sum to {order}, not {n}!")
    powers = list(itertools.accumulate(itertools.repeat(rk, n), operator.mul, initial=1))
    rows = [(entries, text, None, size, c, size * powers[c]) for size, c, text, entries in classes]
    return sum(map(operator.itemgetter(5), rows)), rows


def brute_force_wreath_rank(rk: int, group: FiniteGroup) -> int:
    """Independent oracle: enumerate all rk^n tuples and count, per group
    element, the tuples fixed under permuting coordinates."""
    n = group.degree
    count = rk**n
    if count > BRUTE_FORCE_CAP:
        raise UsageError(f"rk^n = {count} exceeds cap {BRUTE_FORCE_CAP}")
    # with n == 1 an itemgetter returns a bare entry, not a 1-tuple, so the
    # moved tuple is compared with ``same(t)``, never with t itself
    same = operator.itemgetter(*range(n))
    moves = [operator.itemgetter(*e) for e in group.elements]
    total = 0
    for t in itertools.product(range(rk), repeat=n):
        key = same(t)
        for move in moves:
            if move(t) == key:
                total += 1
    return total


# -- group presets ---------------------------------------------------------

# k may be negative, so that "s-1" fails on its degree, not as cycle notation
PRESET_RE = re.compile(r"([saz])(-?\d+)$")


def parse_preset(spec: str, degree: int) -> tuple[str, int | None] | None:
    """(kind, k) for a preset "s<k>", "a<k>" or "z<k>", None for cycle notation;
    k is None if it has more digits than ``degree``, so no int() reads it."""
    m = PRESET_RE.match(spec.strip().lower())
    if m:
        return m[1], int(m[2]) if len(m[2].lstrip("-0")) <= len(str(abs(degree))) else None


def preset_generators(spec: str, degree: int) -> dict[str, tuple[int, ...]]:
    """Named generator sets for "s<k>", "a<k>", "z<k>" (k <= degree, acting
    on the first k points), or explicit comma-separated cycle notation, on
    at most DEGREE_CAP points."""
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    if degree > DEGREE_CAP:
        raise UsageError(f"degree must be <= {DEGREE_CAP}, got {degree}")
    preset = parse_preset(spec, degree)
    if preset:
        kind, k = preset
        if k is None or not 1 <= k <= degree:
            shown = spec if len(spec) <= 40 else spec[:40] + "..."
            raise ParseError(f"group {shown!r} does not fit degree {degree}")
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
