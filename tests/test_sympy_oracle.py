"""sympy as an independent oracle for group orders and class sizes.

sympy is a test-only dependency: without it this module is skipped.  The
random draw is derandomized, so every run checks the same generator sets and
takes about the same time; the large degree-8 groups, where sympy is slowest,
are named cases of their own.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("sympy")

from sympy import combinatorics as sympy_comb  # noqa: E402

from gcrank.perms import (  # noqa: E402
    conjugacy_classes,
    generate_group,
    group_order,
    parse_cycles,
)

generator_sets = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.permutations(range(d)), max_size=3).map(
        lambda gens: (d, [tuple(g) for g in gens])
    )
)


NAMED_DEGREE_8 = {
    "S_8": ["(1 2)", "(1 2 3 4 5 6 7 8)"],
    "A_8": ["(1 2 3)", "(2 3 4 5 6 7 8)"],
    "D_8": ["(1 2 3 4 5 6 7 8)", "(2 8)(3 7)(4 6)"],
    "Z_8": ["(1 2 3 4 5 6 7 8)"],
    # Z_2 on each of the pairs {1,2}, {3,4}, {5,6}, {7,8}; Z_4 cycles the pairs
    "Z_2 wr Z_4": ["(1 2)", "(1 3 5 7)(2 4 6 8)"],
}


def check_against_sympy(degree, images):
    gens = {f"g{i}": tuple(im) for i, im in enumerate(images)}
    group = generate_group(degree, gens)
    # the identity fixes the degree even when there are no generators
    oracle = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(list(range(degree)))]
        + [sympy_comb.Permutation(list(im)) for im in images]
    )
    assert group.order == oracle.order()
    assert group_order(degree, gens.values()) == group.order
    ours = sorted(len(c) for c in conjugacy_classes(group).classes)
    assert ours == sorted(len(c) for c in oracle.conjugacy_classes())


@given(generator_sets)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_order_and_class_sizes_match_sympy(degree_and_gens):
    check_against_sympy(*degree_and_gens)


@pytest.mark.parametrize("name", sorted(NAMED_DEGREE_8))
def test_named_degree_8_groups_match_sympy(name):
    images = [parse_cycles(c, 8) for c in NAMED_DEGREE_8[name]]
    check_against_sympy(8, images)
