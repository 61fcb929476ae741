"""Graded ranks of G-crossed braided extensions from fixed-point data.

The rank of the g-graded component is the number of simple-object labels
fixed by the action of g.  The total rank is computed twice on every run,
as the fixed-point sum and as |G| times the orbit count, and the two are
asserted equal; a mismatch is a bug, never valid data.
"""

from __future__ import annotations

from collections import namedtuple
from operator import eq

from . import perms
from .errors import InconsistencyError
from .perms import FiniteGroup


class RankReport(namedtuple("RankReport", "per_element orbits total_rank burnside_total")):
    """``per_element[i]`` is the graded rank of ``group.elements[i]`` in
    ``rank_report(group)``; ``burnside_total`` is |G| times the orbit count,
    the second route, equal to ``total_rank``."""

    __slots__ = ()


def rank_report(group: FiniteGroup) -> RankReport:
    """Per-element and total ranks, with the Burnside cross-check applied."""
    per_element = tuple(sum(map(eq, e, range(group.degree))) for e in group.elements)
    total = sum(per_element)
    orbit_list = tuple(perms.orbits(group))
    burnside = group.order * len(orbit_list)
    if total != burnside:
        raise InconsistencyError(f"fixed-point sum {total} != |G| * orbit count {burnside}")
    return RankReport(per_element, orbit_list, total, burnside)
