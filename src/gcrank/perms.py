"""Exact permutations and finite permutation groups.

A permutation of degree d is the tuple of its images: ``p[i]`` is the image
of the point i, so ``p`` is a bijection of {0, ..., d-1}.  Points are
0-indexed internally.  Integer cycle notation is 1-indexed, e.g.
``"(1 2 3)(4 5)"``; the empty string denotes the identity.  The same parser
and formatter handle notation over labels, e.g. ``"(e m)"``.  Products are
composed as ``itemgetter(*q)(p)``, which applies the *right* argument
first: its entry i is ``p[q[i]]``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from itertools import compress, repeat
from operator import floordiv, itemgetter, mod, ne

from .errors import (
    GcrankError,
    GroupTooLarge,
    InconsistencyError,
    ParseError,
    UsageError,
)

DEFAULT_GROUP_CAP = 10**6


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, im in enumerate(p):
        inv[im] = i
    return tuple(inv)


def cycle_decomposition(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of p, fixed points included as 1-cycles.  Each cycle starts at
    its minimal point; cycles are sorted by that point.  Its own loop, not
    ``_orbits``: that route is ~1.6x slower on random permutations."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append(tuple(cycle))
    return tuple(cycles)


# -- cycle-notation text format -------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int, point=None) -> tuple[int, ...]:
    """Parse cycle notation such as ``"(1 2 3)(4 5)"`` into the image tuple
    of a permutation of the given degree; the empty string is the identity.

    Without ``point``, tokens are 1-indexed integers.  ``point`` maps a
    token to its 0-indexed point instead, e.g. a label's position for
    ``"(e m)"``, and raises ParseError for a token it does not know.
    """
    stripped = text.strip()
    # one way to split each whitespace run, so a malformed text fails in linear time
    if stripped and not re.fullmatch(r"\([^()]*\)(?:\s*\([^()]*\))*", stripped):
        raise ParseError(f"malformed cycle notation: {text!r}")
    if point is None:
        def point(tok: str) -> int:
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(f"non-integer point {tok!r} in {text!r}") from None
            if not 1 <= val <= degree:
                raise ParseError(f"point {val} out of range 1..{degree}")
            return val - 1
    images = list(range(degree))
    mentioned: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        points = [point(tok) for tok in m.group(1).split()]
        if len(set(points)) != len(points) or mentioned & set(points):
            raise ParseError(f"repeated point in cycle notation {text!r}")
        mentioned |= set(points)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def point_names(degree: int) -> list[str]:
    """The 1-indexed point names ``format_cycles`` writes by default."""
    return [str(pt + 1) for pt in range(degree)]


def format_cycles(p: tuple[int, ...], names=None) -> str:
    """Cycle notation with fixed points omitted; the identity is ``"()"``.

    Points are written 1-indexed, or as ``names[point]`` when a sequence
    of names is given, e.g. the labels of a ModularData for ``"(e m)"``.
    A caller formatting many permutations can pass ``point_names(degree)``.
    """
    if names is None:
        names = point_names(len(p))
    return cycle_notation(cycle_decomposition(p), names)


def cycle_notation(cycles, names) -> str:
    """``format_cycles`` of the permutation whose ``cycle_decomposition`` is
    ``cycles``, for a caller that has the decomposition already."""
    parts = ["(" + " ".join(names[pt] for pt in cycle) + ")"
             for cycle in cycles if len(cycle) > 1]
    return "".join(parts) if parts else "()"


# -- finite groups ---------------------------------------------------------
#
# ``itemgetter(*q)(p)`` is the product "q first, then p", as a tuple once
# the degree is at least 2 (on one point itemgetter returns a bare entry).
# It is faster than ``tuple(map(...))``.

class FiniteGroup(namedtuple("FiniteGroup", "degree elements generators right parent via")):
    """A group of permutations, materialized as an explicit list of image
    tuples.

    Element 0 is the identity; the order of the rest is the breadth-first
    discovery order from the identity, which is deterministic.  The
    generators are kept, with the closure's record of them: ``right[k][i]``
    is the index of e_i∘g_k, and element i > 0 was first reached as
    e_parent[i]∘g_via[i].  Orbits are computed from the generators,
    conjugacy classes from this record.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def group_order(degree: int, generators) -> int:
    """|<generators>| by Knuth's Sims table, without closure.

    Knuth, "Efficient representation of perm groups", *Combinatorica* 11
    (1991).  The base is every point some generator moves, in increasing
    order; the group fixes every other point.  Level k holds the generators
    found for G_k, the pointwise stabilizer of ``base[:k]``, and ``reps[k]``,
    which maps each point j of the orbit of ``base[k]`` to (u, u^-1) with u
    in G_k sending ``base[k]`` to j.  One work list pairs every generator of
    a level with every representative exactly once: a product that reaches
    a new orbit point becomes its representative, any other is a Schreier
    generator of the next level, kept as a generator there unless it sifts
    to the identity.  |G| is the product of the orbit lengths.
    ``generators`` is an iterable of image tuples.
    """
    ident = tuple(range(degree))
    # (level, permutation, is it a generator for that level?)
    todo = [(0, g, True) for g in generators]
    base = sorted(set().union(*[compress(ident, map(ne, g, ident)) for _, g, _ in todo]))
    reps = [{b: (ident, ident)} for b in base]
    gens: list[list[tuple[int, ...]]] = [[] for _ in base]
    while todo:
        k, p, is_generator = todo.pop()
        if is_generator:
            h = p
            for i in range(k, len(base)):
                b = base[i]
                if h[b] != b:
                    entry = reps[i].get(h[b])
                    if entry is None:
                        break
                    h = itemgetter(*h)(entry[1])
            else:
                continue  # p sifts to the identity: it is in G_k already
            # kept at level k, not where its sift stopped: p∘u may reach new points
            gens[k].append(p)
            todo.extend((k, itemgetter(*u)(p), False) for u, _ in reps[k].values())
        else:
            t = reps[k]
            j = p[base[k]]
            if j not in t:
                t[j] = (p, inverse(p))
                todo.extend((k, itemgetter(*p)(g), False) for g in gens[k])
            else:  # u_j^-1 p fixes base[:k + 1]
                todo.append((k + 1, itemgetter(*p)(t[j][1]), True))
    return math.prod(map(len, reps))


def generate_group(
    degree: int,
    generators: dict[str, tuple[int, ...]],
    cap: int = DEFAULT_GROUP_CAP,
) -> FiniteGroup:
    """Closure of the generators under composition, breadth-first.

    Every generator must be a tuple of ints that is a bijection of
    {0, ..., degree-1}; a caller's tuples reach the engine here without a
    parser, so this is checked first.  The order is checked against ``cap``
    next (``group_order``), so a group too large is refused before any
    element is built.  Closure then composes image tuples and records, for
    ``FiniteGroup``, the index of every product e_i∘g_k and where each
    element was first reached.  Its element count must equal that order: two
    independent routes to |G|.
    """
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    for name, g in generators.items():
        if type(g) is not tuple or any(type(x) is not int for x in g):
            raise GcrankError(f"images {g!r} are not a tuple of ints")
        if len(g) != degree:
            raise UsageError(
                f"generator {name!r} has degree {len(g)}, expected {degree}"
            )
        if sorted(g) != list(range(degree)):
            raise GcrankError(f"images {g} are not a bijection")
    order = group_order(degree, generators.values())
    if order > cap:
        raise GroupTooLarge(cap, order)
    # times[k](e) is the tuple e∘g_k; on one point every g_k is the identity
    times = [itemgetter(*g) if degree > 1 else tuple
             for g in generators.values()]
    start = tuple(range(degree))
    index = {start: 0}
    elements = [start]
    reached = [0]  # position in ``table`` where each element was first found
    table = []  # index of e_i∘g_k at position i·|S| + k
    n = 1
    for e in elements:  # the list grows behind the loop: breadth-first order
        for by_g in times:
            prod = by_g(e)
            j = index.setdefault(prod, n)
            if j == n:
                elements.append(prod)
                reached.append(len(table))
                n += 1
            table.append(j)
    if n != order:
        raise InconsistencyError(
            f"group closure has {n} elements but Schreier-Sims order is {order}")
    stride = len(times) or 1
    return FiniteGroup(
        degree,
        tuple(elements),
        tuple(generators.values()),
        tuple(tuple(table[k::stride]) for k in range(len(times))),
        tuple(map(floordiv, reached, repeat(stride))),
        tuple(map(mod, reached, repeat(stride))),
    )


class ConjugacyClassPartition(namedtuple("ConjugacyClassPartition", "classes")):
    __slots__ = ()


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassPartition:
    """Conjugacy classes as orbits under conjugation by the generators.

    The class of h is its orbit under x -> g x g^-1 for the generators g
    (Butler, *Fundamental Algorithms for Permutation Groups*, 1991), so
    the cost is |G|·|S| conjugations, not k(G)·|G|.  Each conjugation is
    an integer map read off the closure's table (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4): g e_i is
    (g e_parent[i]) g_via[i], so ``left`` fills along the discovery tree,
    and g x g^-1 sends e_i∘g to g∘e_i.  The classes are the orbits of these
    maps (``_orbits``, as for ``orbits``), listed by their least element
    index, each as sorted indices, so ``cls[0]`` is the representative.
    """
    right, order = group.right, group.order
    links = tuple(zip(group.parent[1:], group.via[1:]))
    maps = []
    for r in right:
        left = [r[0]]  # g∘e_0 = e_0∘g
        for p, v in links:
            left.append(right[v][left[p]])  # g∘e_i = (g∘e_p)∘g_v
        conj = [0] * order
        for a, b in zip(r, left):
            conj[a] = b
        maps.append(conj)
    return ConjugacyClassPartition(tuple(map(tuple, map(sorted, _orbits(order, maps)))))


def orbits(group: FiniteGroup) -> list[frozenset[int]]:
    """Orbits of the group on {0, ..., degree-1}, sorted by minimal point."""
    return list(map(frozenset, _orbits(group.degree, group.generators)))


def _orbits(size: int, maps) -> list[list[int]]:
    """The orbits of {0, ..., size-1} under the integer maps, breadth-first
    from each least point not yet reached, in order of that point."""
    seen = [False] * size
    result = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for m in maps:
                y = m[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        result.append(orbit)
    return result
