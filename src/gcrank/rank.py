"""Graded ranks of G-crossed braided extensions from fixed-point data.

The rank of the g-graded component is the number of simple-object labels
fixed by the action of g.  The total rank is computed twice on every run,
as the fixed-point sum and as |G| times the orbit count, and the two are
asserted equal; a mismatch is a bug, never valid data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import perms
from .errors import InconsistencyError
from .symmetry import GlobalSymmetry


@dataclass(frozen=True)
class RankReport:
    """``per_element[i]`` is the graded rank of ``symmetry.group.elements[i]``."""

    symmetry: GlobalSymmetry
    per_element: tuple[int, ...]
    orbits: tuple[frozenset[int], ...]
    total_rank: int
    orbit_count: int
    burnside_total: int

    @cached_property
    def classes(self) -> perms.ConjugacyClassPartition:
        """Conjugacy classes, built on first use: ``burnside`` reads none."""
        return perms.conjugacy_classes(self.symmetry.group)

    @property
    def per_class(self) -> tuple[tuple[int, int, int], ...]:
        """(representative element index, class size, rank) per conjugacy class."""
        return tuple(
            (cls[0], len(cls), self.per_element[cls[0]])
            for cls in self.classes.classes
        )

    @cached_property
    def class_sizes(self) -> dict[int, int]:
        """Element index -> size of its conjugacy class."""
        return {i: len(cls) for cls in self.classes.classes for i in cls}

    def to_json_dict(self) -> dict:
        group = self.symmetry.group
        return {
            "per_element": [
                {
                    "element": perms.format_cycles(e),
                    "class_size": self.class_sizes[i],
                    "rank": str(self.per_element[i]),
                }
                for i, e in enumerate(group.elements)
            ],
            "total_rank": str(self.total_rank),
            "orbit_count": self.orbit_count,
            "group_order": group.order,
        }


def rank_report(s: GlobalSymmetry) -> RankReport:
    """Per-element and total ranks, with the Burnside cross-check applied."""
    per_element = tuple(
        len(perms.fixed_points(e)) for e in s.group.elements
    )
    total = sum(per_element)
    orbit_list = tuple(perms.orbits(s.group))
    burnside = s.group.order * len(orbit_list)
    if total != burnside:
        raise InconsistencyError(
            f"fixed-point sum {total} != |G| * orbit count {burnside}"
        )
    return RankReport(
        symmetry=s,
        per_element=per_element,
        orbits=orbit_list,
        total_rank=total,
        orbit_count=len(orbit_list),
        burnside_total=burnside,
    )
