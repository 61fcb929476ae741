"""Relabelling invariance: no answer depends on how points, generators,
labels or fusion entries are ordered, and products multiply.

Conjugating every generator by a point permutation σ (g becomes σgσ⁻¹)
relabels the group, so its order, its classes' sizes and cycle types, the
wreath totals, the graded ranks and the orbit count stay the same.  So do
shuffling the generators and adding redundant ones: their inverses and a
product of two of them.  Shuffling an MTC file's labels and fusion entries
keeps what ``validate``, ``rank`` and ``burnside`` report, up to order.  A
Deligne product C ⊠ D under G × H, acting factor by factor, has total rank
total(C, G)·total(D, H).  These second routes need no oracle; they catch a
result that depends on the order of base points, generators or labels.
"""

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gcrank
from gcrank import symmetry
from gcrank.cli import main
from gcrank.errors import GcrankError
from gcrank.mtc import ModularData, mtc_from_doc, validate_mtc
from gcrank.perms import conjugacy_classes, generate_group, group_order, inverse, orbits
from gcrank.rank import rank_report
from gcrank.wreath import cycle_type_of, rank_wreath_subgroup

from conftest import FIXTURES, compose

ORDER_LIMIT = 5040


def conjugate(g, sigma):
    """σgσ⁻¹: it sends σ(i) to σ(g(i))."""
    images = [0] * len(g)
    for i, image in enumerate(g):
        images[sigma[i]] = sigma[image]
    return tuple(images)


def invariants(degree, gens):
    group = generate_group(degree, {f"g{i}": g for i, g in enumerate(gens)})
    classes = Counter((len(cls), cycle_type_of(group.elements[cls[0]]))
                      for cls in conjugacy_classes(group).classes)
    return (group_order(degree, gens), group.order, classes,
            [rank_wreath_subgroup(rk, group)[0] for rk in (0, 1, 2, 5)],
            sorted(rank_report(group).per_element), len(orbits(group)))


@st.composite
def relabelled(draw):
    """(degree, generators, their conjugates by σ, the generators shuffled
    with every inverse and one product added)."""
    degree = draw(st.integers(2, 9))
    permutation = st.permutations(range(degree)).map(tuple)
    gens = draw(st.lists(permutation, min_size=1, max_size=3))
    sigma = draw(permutation)
    index = st.integers(0, len(gens) - 1)
    product = compose(gens[draw(index)], gens[draw(index)])
    redundant = draw(st.permutations([*gens, *map(inverse, gens), product]))
    return degree, gens, [conjugate(g, sigma) for g in gens], redundant


@given(relabelled())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_relabelled_and_redundant_generators_change_nothing(case):
    degree, gens, conjugates, redundant = case
    assume(group_order(degree, gens) <= ORDER_LIMIT)
    expected = invariants(degree, gens)
    assert invariants(degree, conjugates) == expected
    assert invariants(degree, redundant) == expected


# -- MTC files with their labels and fusion entries shuffled -----------------

DATA_FILES = sorted([*gcrank.bundled_data_path("ising.json").parent.glob("*.json"),
                     *FIXTURES.glob("*.json")])


def _documents(key):
    """The data files whose JSON document is an object with ``key``."""
    for path in DATA_FILES:
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and key in doc:
            yield path, doc


MTC_FILES = [path for path, _ in _documents("labels")]
# (symmetry file, the MTC file it names)
SYMMETRY_FILES = [(path, path.parent / doc["mtc"]) for path, doc in _documents("generators")]
ORDERS_PER_FILE = 20


def shuffled_files(path: Path, tmp_path: Path):
    """ORDERS_PER_FILE copies of the MTC file at ``path``, its ``labels`` and
    ``fusion`` arrays in random orders; ``twists`` and any explicit ``duals``
    are objects keyed by label and stay as they are."""
    doc = json.loads(path.read_text())
    rng = random.Random(path.name)
    for i in range(ORDERS_PER_FILE):
        moved = {**doc, "labels": rng.sample(doc["labels"], len(doc["labels"])),
                 "fusion": rng.sample(doc["fusion"], len(doc["fusion"]))}
        target = tmp_path / f"{path.stem}-{i}.json"
        target.write_text(json.dumps(moved))
        yield moved, target


def load_error(doc):
    """The class of the error ``mtc_from_doc`` raises on ``doc``, or None."""
    try:
        mtc_from_doc(doc)
    except GcrankError as exc:
        return type(exc)
    return None


def run(capsys, *argv):
    code = main([*map(str, argv)])
    return code, capsys.readouterr().out


def validate_outcome(capsys, *argv):
    """``validate``'s exit code, its text lines sorted, and from ``--json``
    each report's verdict with its sorted (rule, message) pairs and the
    group order.  The messages name labels; the indices are dropped."""
    code, text = run(capsys, "validate", *argv)
    json_code, out = run(capsys, "validate", *argv, "--json")
    assert json_code == code
    if not out:  # the file did not load: only the exit code is compared
        return code
    doc = json.loads(out)
    reports = [doc["mtc"], *doc.get("generators", {}).values()]
    return (code, sorted(text.splitlines()), doc.get("group_order"),
            [(r["ok"], sorted((v["rule"], v["message"]) for v in r["violations"]))
             for r in reports])


@pytest.mark.parametrize("path", MTC_FILES, ids=lambda path: path.name)
def test_shuffled_mtc_file_validates_the_same(path, tmp_path, capsys):
    # a load failure may name another label (the first offending one in file
    # order), so only its exit code and error class are compared
    expected = validate_outcome(capsys, "--mtc", path)
    error = load_error(json.loads(path.read_text()))
    for moved, target in shuffled_files(path, tmp_path):
        assert validate_outcome(capsys, "--mtc", target) == expected, target
        assert load_error(moved) is error


def symmetry_outcome(capsys, mtc: Path, sym: Path):
    """What ``validate --sym``, ``rank --json`` and ``burnside --json`` report
    that no label order can change: burnside's orbits as sets of labels."""
    outcome = [validate_outcome(capsys, "--mtc", mtc, "--sym", sym)]
    for command, keys in (("rank", ("total_rank", "orbit_count", "group_order")),
                          ("burnside", ("orbit_count", "group_order", "fixed_point_sum",
                                        "burnside_total"))):
        code, out = run(capsys, command, "--mtc", mtc, "--sym", sym, "--json")
        doc = json.loads(out) if code == 0 else {}
        outcome.append((code, [doc.get(key) for key in keys],
                        {frozenset(orbit) for orbit in doc.get("orbits", ())}))
    return outcome


@pytest.mark.parametrize("sym, mtc", SYMMETRY_FILES, ids=lambda path: path.name)
def test_shuffled_mtc_file_keeps_symmetry_answers(sym, mtc, tmp_path, capsys):
    # every generator is cycle notation over label names: none needs rewriting
    expected = symmetry_outcome(capsys, mtc, sym)
    for _, target in shuffled_files(mtc, tmp_path):
        assert symmetry_outcome(capsys, target, sym) == expected, target


# -- Deligne products ---------------------------------------------------------

def reference_deligne_product(c: ModularData, d: ModularData) -> ModularData:
    """C ⊠ D: labels "a*b" in lexicographic order of the pairs, N, duals and
    the unit pairwise, and twists summed over the lcm of both denominators."""
    pairs = list(itertools.product(range(c.rank), range(d.rank)))
    index = {pair: i for i, pair in enumerate(pairs)}
    fusion = {(index[x, u], index[y, v], index[z, w]): n * m
              for ((x, y, z), n), ((u, v, w), m)
              in itertools.product(c.fusion.items(), d.fusion.items())}
    denominator = math.lcm(c.twist_denominator, d.twist_denominator)
    twists = tuple((c.twists[x] * (denominator // c.twist_denominator)
                    + d.twists[y] * (denominator // d.twist_denominator)) % denominator
                   for x, y in pairs)
    return ModularData(
        f"{c.name}*{d.name}", tuple(f"{c.labels[x]}*{d.labels[y]}" for x, y in pairs),
        index[c.unit, d.unit], fusion, tuple(index[c.dual[x], d.dual[y]] for x, y in pairs),
        twists, denominator)


def product_generators(c: ModularData, g: dict, d: ModularData, h: dict) -> dict:
    """G × H on the labels of C ⊠ D, each generator acting on its own factor."""
    def lift(p, q):
        return tuple(p[x] * d.rank + q[y] for x in range(c.rank) for y in range(d.rank))
    return {**{f"{name}*1": lift(p, range(d.rank)) for name, p in g.items()},
            **{f"1*{name}": lift(range(c.rank), q) for name, q in h.items()}}


SWAP = {"swap_em": "(e m)"}


@pytest.mark.parametrize("first, g, second, h, total, orbit_count", [
    ("toric_code", SWAP, "ising", {}, 18, 9),
    ("toric_code", SWAP, "toric_code", SWAP, 36, 9),
    ("ising", {}, "fibonacci", {}, 6, 6),
    ("fibonacci", {}, "toric_code", SWAP, 12, 6),
])
def test_deligne_products_multiply(first, g, second, h, total, orbit_count):
    c, d = (gcrank.load_mtc(gcrank.bundled_data_path(f"{name}.json"))
            for name in (first, second))
    g, h = ({name: symmetry.parse_generator(m, spec) for name, spec in gens.items()}
            for m, gens in ((c, g), (d, h)))
    factors = [rank_report(symmetry.build_symmetry(m, gens)) for m, gens in ((c, g), (d, h))]
    product = reference_deligne_product(c, d)
    assert validate_mtc(product).ok
    report = rank_report(symmetry.build_symmetry(product, product_generators(c, g, d, h)))
    assert report.total_rank == factors[0].total_rank * factors[1].total_rank == total
    assert len(report.orbits) == len(factors[0].orbits) * len(factors[1].orbits) == orbit_count
