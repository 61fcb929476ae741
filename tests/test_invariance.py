"""Relabelling invariance: no group answer depends on how points or
generators are ordered.

Conjugating every generator by a point permutation σ (g becomes σgσ⁻¹)
relabels the group, so its order, its classes' sizes and cycle types, the
wreath totals, the graded ranks and the orbit count stay the same.  So do
shuffling the generators and adding redundant ones: their inverses and a
product of two of them.  This second route needs no oracle; it catches a
result that depends on the order of base points or generators.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcrank.perms import conjugacy_classes, generate_group, group_order, inverse, orbits
from gcrank.rank import rank_report
from gcrank.wreath import cycle_type_of, rank_wreath_subgroup

from conftest import compose

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
