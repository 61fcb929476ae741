from pathlib import Path

import pytest

import gcrank
from gcrank import symmetry

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def a_of(entries: str) -> tuple[int, ...]:
    """The cycle type a back from a row's entries text "2,0,1,0"."""
    return tuple(map(int, entries.split(",")))


@pytest.fixture(scope="session")
def fibonacci():
    return gcrank.load_mtc(gcrank.bundled_data_path("fibonacci.json"))


@pytest.fixture(scope="session")
def ising():
    return gcrank.load_mtc(gcrank.bundled_data_path("ising.json"))


@pytest.fixture(scope="session")
def toric_code():
    return gcrank.load_mtc(gcrank.bundled_data_path("toric_code.json"))


@pytest.fixture(scope="session")
def toric_swap(toric_code):
    """The group Z_2 on the toric code's labels, exchanging e and m."""
    swap = symmetry.parse_generator(toric_code, "(e m)")
    return symmetry.build_symmetry(toric_code, {"swap_em": swap})
