"""Closed forms the benchmark checks gcrank's answers against.

Nothing here imports gcrank.  Every expectation comes from textbook
combinatorics (cycle-index sums, Stirling numbers, multiset and necklace
counts), a route independent of the class enumeration the program uses.

A "factor" is a group acting on k points of its own: ``("s", k)``,
``("a", k)``, ``("z", k)`` or ``("d", k)`` for the symmetric, alternating,
cyclic and dihedral groups.  A job's group is a product of factors on
disjoint supports, and the remaining points are fixed.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import Counter


def rising(x: int, k: int) -> int:
    return math.prod(x + i for i in range(k))


def falling(x: int, k: int) -> int:
    return math.prod(x - i for i in range(k))


def divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def phi(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def integer_partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing part tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


def cycle_vector(parts, n: int) -> tuple[int, ...]:
    """a_j = number of parts equal to j, for j = 1..n."""
    a = [0] * n
    for p in parts:
        a[p - 1] += 1
    return tuple(a)


def class_size(a: tuple[int, ...]) -> int:
    """Size of the S_n class with cycle vector a: n! / prod j^a_j a_j!."""
    n = sum(j * aj for j, aj in enumerate(a, start=1))
    denom = math.prod(j**aj * math.factorial(aj) for j, aj in enumerate(a, start=1))
    return math.factorial(n) // denom


def stirling_first(n: int) -> list[int]:
    """Unsigned Stirling numbers c(n, k) for k = 0..n: elements of S_n with k cycles."""
    row = [1]
    for m in range(n):
        row = [m * (row[k] if k < len(row) else 0) + (row[k - 1] if k else 0)
               for k in range(len(row) + 1)]
    return row


def polynomial_text(coefficients: list[int]) -> str:
    """Render sum_k c_k x^k the way ``gcrank poly`` prints it."""
    parts = []
    for k in range(len(coefficients) - 1, 0, -1):
        c = coefficients[k]
        if c:
            parts.append(("" if c == 1 else str(c)) + ("x" if k == 1 else f"x^{k}"))
    return " + ".join(parts)


# -- permutation groups given as products of factors ------------------------

def factor_order(kind: str, k: int) -> int:
    return {"s": math.factorial(k), "a": math.factorial(k) // 2,
            "z": k, "d": 2 * k}[kind]


def factor_class_count(kind: str, k: int) -> int:
    if kind == "s":
        return sum(1 for _ in integer_partitions(k))
    if kind == "a":
        # even classes of S_k; those with distinct odd parts split in two
        count = 0
        for parts in integer_partitions(k):
            if (k - len(parts)) % 2 == 0:
                distinct_odd = len(set(parts)) == len(parts) and all(p % 2 for p in parts)
                count += 2 if distinct_odd and k > 1 else 1
        return count
    if kind == "z":
        return k
    return (k + 3) // 2 if k % 2 else k // 2 + 3


def factor_cycle_index_sum(kind: str, k: int, x: int) -> int:
    """Sum over the factor's elements of x^(number of cycles on its k points)."""
    if kind == "s":
        return rising(x, k)
    if kind == "a":
        return (rising(x, k) + falling(x, k)) // 2
    necklaces = sum(phi(d) * x ** (k // d) for d in divisors(k))
    if kind == "z":
        return necklaces
    if k % 2:
        return necklaces + k * x ** ((k + 1) // 2)
    return necklaces + (k // 2) * (x ** (k // 2) + x ** (k // 2 + 1))


def product_order(factors) -> int:
    return math.prod(factor_order(kind, k) for kind, k in factors)


def product_class_count(factors) -> int:
    return math.prod(factor_class_count(kind, k) for kind, k in factors)


def product_wreath_total(factors, n: int, rk: int) -> int:
    """Rank of C wr G: each point outside the supports is a fixed 1-cycle."""
    fixed = n - sum(k for _, k in factors)
    return rk**fixed * math.prod(factor_cycle_index_sum(kind, k, rk) for kind, k in factors)


# -- C wr S_n from cycle types ----------------------------------------------

def rows_digest(rows) -> str:
    """Order-independent digest of (cycle vector, representative, class size,
    cycles) rows."""
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


@functools.cache
def symmetric_rows_digest(n: int) -> tuple[int, str]:
    """(p(n), digest of the rows) for the cycle types of S_n; a type's
    representative is printed as its cycle vector, e.g. ``1^2 3^1``."""
    rows = []
    for parts in integer_partitions(n):
        a = cycle_vector(parts, n)
        text = " ".join(f"{j}^{aj}" for j, aj in enumerate(a, start=1) if aj)
        rows.append((a, text, class_size(a), len(parts)))
    return len(rows), rows_digest(rows)


# -- factor-permutation symmetries of C^k ------------------------------------

def multiset_count(r: int, k: int) -> int:
    """Orbits of S_k on k-tuples over r labels."""
    return math.comb(r + k - 1, k)


def necklace_count(r: int, k: int) -> int:
    """Orbits of Z_k on k-tuples over r labels."""
    return sum(phi(d) * r ** (k // d) for d in divisors(k)) // k


def rank_class_pairs(kind: str, k: int, r: int) -> Counter:
    """Multiset of (graded rank, class size) over the elements of S_k or Z_k
    acting on C^k by permuting factors: an element with c cycles fixes r^c
    labels."""
    pairs: Counter = Counter()
    if kind == "s":
        for parts in integer_partitions(k):
            size = class_size(cycle_vector(parts, k))
            pairs[(r ** len(parts), size)] += size
    else:
        for j in range(k):
            pairs[(r ** math.gcd(j, k), 1)] += 1
    return pairs


def orbit_key(kind: str, components: tuple[str, ...]) -> tuple[str, ...]:
    """Canonical representative of a label's orbit under S_k or Z_k."""
    if kind == "s":
        return tuple(sorted(components))
    return min(components[i:] + components[:i] for i in range(len(components)))
