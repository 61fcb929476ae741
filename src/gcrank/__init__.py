"""gcrank: ranks of G-crossed braided extensions of modular tensor
categories from finite combinatorial data."""

from .errors import GcrankError
from .mtc import ModularData, ValidationReport, load_mtc, parse_mtc, validate_mtc
from .perms import (
    FiniteGroup,
    conjugacy_classes,
    cycle_decomposition,
    format_cycles,
    generate_group,
    inverse,
    orbits,
    parse_cycles,
)
from .rank import RankReport, rank_report
from .symmetry import build_symmetry, load_symmetry, validate_automorphism
from .wreath import (
    brute_force_wreath_rank,
    cycle_type_of,
    partitions,
    rank_polynomial_symmetric,
    rank_wreath_cyclic,
    rank_wreath_subgroup,
    rank_wreath_symmetric,
)

__version__ = "0.1.0"


def bundled_data_path(name: str) -> "Path":
    """Path to a bundled data file, e.g. ``bundled_data_path("ising.json")``.
    ``pathlib`` is imported here, not with the package, since no CLI
    command calls this."""
    from pathlib import Path

    return Path(__file__).parent / "data" / name
