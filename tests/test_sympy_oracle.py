"""sympy as an independent oracle for group orders and class sizes.

sympy is a test-only dependency: without it this module is skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("sympy")

from sympy import combinatorics as sympy_comb  # noqa: E402

from gcrank.perms import (  # noqa: E402
    Permutation,
    conjugacy_classes,
    generate_group,
    group_order,
)

generator_sets = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.permutations(range(d)), max_size=3).map(
        lambda gens: (d, [tuple(g) for g in gens])
    )
)


@given(generator_sets)
@settings(max_examples=25, deadline=None)
def test_order_and_class_sizes_match_sympy(degree_and_gens):
    degree, images = degree_and_gens
    gens = {f"g{i}": Permutation(im) for i, im in enumerate(images)}
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
