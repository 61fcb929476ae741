import itertools
import json
import math
from pathlib import Path

import pytest

import gcrank
from gcrank import mtc, symmetry, wreath
from gcrank.mtc import ModularData
from gcrank.wreath import preset_generators

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def identity(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """q first, then p: the product ``itemgetter(*q)(p)`` that gcrank forms."""
    return tuple(p[i] for i in q)


def reference_materialize_power(m, n):
    """The n-fold product category C^n (n >= 1) by a walk over n-tuples of
    fusion entries, with a tuple -> label index dict.  Labels are "s*t*..."
    in lexicographic order of the factor tuples; N, duals and twists combine
    factor by factor, twists over C's denominator (each twist of C is the
    twist of a label of C^n).  Small n only: the label count is rk(C)^n."""
    tuples = list(itertools.product(range(m.rank), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    labels = tuple("*".join(m.labels[i] for i in t) for t in tuples)
    fusion = {}
    for combo in itertools.product(m.fusion.items(), repeat=n):
        xs = tuple(triple[0] for triple, _ in combo)
        ys = tuple(triple[1] for triple, _ in combo)
        zs = tuple(triple[2] for triple, _ in combo)
        mult = math.prod(v for _, v in combo)
        key = (index[xs], index[ys], index[zs])
        fusion[key] = fusion.get(key, 0) + mult
    unit = index[(m.unit,) * n]
    dual = tuple(index[tuple(m.dual[i] for i in t)] for t in tuples)
    twists = tuple(sum(m.twists[i] for i in t) % m.twist_denominator for t in tuples)
    return ModularData(f"{m.name}^{n}", labels, unit, fusion, dual, twists,
                       m.twist_denominator)


def mtc_json(m) -> str:
    """An MTC file's text for ``m``: twists as [t_x, N], duals left to be
    derived on load."""
    lab = m.labels
    return json.dumps({
        "name": m.name, "labels": list(lab), "unit": lab[m.unit],
        "fusion": [[lab[x], lab[y], lab[z], n] for (x, y, z), n in m.fusion.items()],
        "twists": {l: [t, m.twist_denominator] for l, t in zip(lab, m.twists)},
    })


def reference_factor_permutation(m, n, sigma):
    """The permutation of the labels of C^n moving factor i to slot
    sigma(i), by moving each label tuple and looking it up."""
    tuples = list(itertools.product(range(m.rank), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    images = []
    for t in tuples:
        moved = [0] * n
        for i, val in enumerate(t):
            moved[sigma[i]] = val
        images.append(index[tuple(moved)])
    return tuple(images)


def symmetric_power_symmetry(m, n):
    """C^n, and S_n permuting its factors as a validated group on its labels."""
    power = reference_materialize_power(m, n)
    lifted = {name: reference_factor_permutation(m, n, p)
              for name, p in preset_generators(f"s{n}", n).items()}
    return power, symmetry.build_symmetry(power, lifted)


def a_of(entries: str) -> tuple[int, ...]:
    """The cycle type a back from a row's entries text, its a_j joined by
    ``wreath.SEP``; a stray "," or other separator does not parse."""
    return tuple(map(int, entries.split(wreath.SEP)))


@pytest.fixture(autouse=True)
def fresh_load_cache(monkeypatch):
    """Each test starts with an empty ``load_mtc`` cache, so no test sees the
    files, or the passing checks, that an earlier one loaded."""
    monkeypatch.setattr(mtc, "_loaded", {})
    monkeypatch.setattr(mtc, "_passed", {})


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
