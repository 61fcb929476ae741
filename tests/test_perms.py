import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gcrank
from gcrank import perms, symmetry, wreath
from gcrank.errors import (
    GcrankError,
    GroupTooLarge,
    ParseError,
    UsageError,
)
from gcrank.perms import (
    conjugacy_classes,
    cycle_decomposition,
    format_cycles,
    generate_group,
    group_order,
    inverse,
    orbits,
    parse_cycles,
)

from conftest import compose, identity


def permutations(degree):
    return st.permutations(range(degree)).map(tuple)


def any_permutation(max_degree=10):
    return st.integers(1, max_degree).flatmap(permutations)


S3_GENS = {"t": parse_cycles("(1 2)", 3), "c": parse_cycles("(1 2 3)", 3)}


def cycle(points):
    return "(" + " ".join(map(str, points)) + ")"


def dihedral(n):
    """The rotation and the reflection i -> n + 2 - i of an n-gon."""
    return [cycle(range(1, n + 1)),
            "".join(cycle((i, n + 2 - i)) for i in range(2, n // 2 + 2) if i < n + 2 - i)]


# (name, degree, generators in cycle notation)
NAMED_GROUPS = [
    *[(f"S_{k}", k, ["(1 2)", cycle(range(1, k + 1))]) for k in range(3, 7)],
    ("A_7 on 8 points", 8, ["(1 2 3)", cycle(range(1, 8))]),
    ("Z_5", 5, [cycle(range(1, 6))]),
    ("D_12", 12, dihedral(12)),
    ("D_60", 60, dihedral(60)),
    ("A_5 x S_3", 8, ["(1 2 3)", "(1 2 3 4 5)", "(6 7)", "(6 7 8)"]),
    ("S_4 x S_4", 8, ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)"]),
    ("trivial on 1 point", 1, ["()"]),
    # (2 3) fixes the first base point, 1, but must still extend its orbit
    ("S_3 from (2 3) and (1 2)", 3, ["(2 3)", "(1 2)"]),
]


def named_group(case):
    _, degree, texts = case
    return generate_group(
        degree, {f"g{i}": parse_cycles(t, degree) for i, t in enumerate(texts)})


def reference_classes(group):
    """Conjugacy classes by the loop ``conjugacy_classes`` used before the
    closure's table: each conjugate g x g^-1 composed as an image tuple and
    looked up among the elements."""
    index = {e: i for i, e in enumerate(group.elements)}
    pairs = [(g, inverse(g)) for g in group.generators]
    assigned = [False] * group.order
    classes = []
    for i, h in enumerate(group.elements):
        if assigned[i]:
            continue
        assigned[i] = True
        members = [i]
        frontier = [h]
        for x in frontier:
            for g, ginv in pairs:
                conj = tuple(map(g.__getitem__, map(x.__getitem__, ginv)))
                j = index[conj]
                if not assigned[j]:
                    assigned[j] = True
                    members.append(j)
                    frontier.append(conj)
        classes.append(tuple(sorted(members)))
    return tuple(classes)


class TestIdentityComposeInverse:
    """``identity`` and ``compose`` are the test suite's own helpers, the
    oracle for the products gcrank forms as ``itemgetter(*q)(p)``."""

    def test_identity_images(self):
        assert identity(3) == (0, 1, 2)
        assert identity(1) == (0,)

    @given(permutations(4))
    def test_identity_law(self, p):
        assert compose(identity(4), p) == p
        assert compose(p, identity(4)) == p

    def test_involution_squared(self):
        swap = parse_cycles("(1 2)", 2)
        assert compose(swap, swap) == identity(2)

    def test_composition_convention_right_first(self):
        # pins "apply right argument first": result[i] = p[q[i]], as in the
        # closure's record, where right[k][i] is the index of e_i∘g_k
        p = (1, 2, 0)  # the 3-cycle 0 -> 1 -> 2 -> 0
        q = (1, 0, 2)  # 0 <-> 1
        assert compose(p, q) == (2, 1, 0)
        group = generate_group(3, {"p": p, "q": q})
        index = {e: i for i, e in enumerate(group.elements)}
        assert group.elements[group.right[1][index[p]]] == (2, 1, 0)

    def test_three_cycle_has_order_three(self):
        p = (1, 2, 0)
        assert compose(p, compose(p, p)) == identity(3)
        assert compose(p, p) != identity(3)
        assert generate_group(3, {"p": p}).elements == (identity(3), p, compose(p, p))

    def test_inverse_of_identity(self):
        assert inverse(identity(5)) == identity(5)

    def test_inverse_reverses_cycle(self):
        assert inverse((1, 2, 0)) == (2, 0, 1)

    @given(permutations(8))
    def test_inverse_property(self, p):
        assert compose(p, inverse(p)) == identity(8)
        assert compose(inverse(p), p) == identity(8)


class TestCycleDecomposition:
    def test_identity_all_fixed(self):
        assert cycle_decomposition(identity(4)) == ((0,), (1,), (2,), (3,))

    def test_two_transpositions(self):
        assert cycle_decomposition(parse_cycles("(1 2)(3 4)", 4)) == ((0, 1), (2, 3))

    def test_three_cycle_plus_fixed_point(self):
        cycles = cycle_decomposition(parse_cycles("(1 2 3)", 4))
        assert sorted(len(c) for c in cycles) == [1, 3]
        assert len(cycles) == 2

    def test_cycles_partition_points(self):
        p = parse_cycles("(1 4)(2 5 3)", 6)
        cycles = cycle_decomposition(p)
        assert sorted(pt for c in cycles for pt in c) == list(range(6))
        assert sum(len(c) for c in cycles) == 6

    @given(any_permutation())
    def test_round_trip(self, p):
        images = list(range(len(p)))
        for cycle in cycle_decomposition(p):
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        assert tuple(images) == p


class TestCycleNotation:
    def test_empty_string_is_identity(self):
        assert parse_cycles("", 4) == identity(4)

    def test_whitespace_insensitive(self):
        assert parse_cycles(" ( 1 2 3 ) (4 5) ", 5) == parse_cycles("(1 2 3)(4 5)", 5)

    def test_repeated_point_rejected(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 2)(2 3)", 3)
        with pytest.raises(ParseError):
            parse_cycles("(1 1)", 2)

    def test_malformed_rejected(self):
        for text in ["(1 2", "1 2)", "(1 2) junk", "(1 x)"]:
            with pytest.raises(ParseError):
                parse_cycles(text, 3)

    def test_out_of_range_point(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 5)", 3)

    def test_malformed_fails_fast(self):
        # 40 groups with two spaces between them and a stray token: a check
        # that can split each space run several ways backtracks for hours,
        # so the text is parsed in a child that is killed after 10 s
        src = Path(gcrank.__file__).resolve().parents[1]
        code = ("import sys\n"
                "from gcrank.errors import ParseError\n"
                "from gcrank.perms import parse_cycles\n"
                "try:\n"
                "    parse_cycles('()  ' * 40 + 'x', 3)\n"
                "except ParseError as exc:\n"
                "    sys.exit(0 if 'malformed cycle notation' in str(exc) else 1)\n"
                "sys.exit(1)\n")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=10,
                       env=dict(os.environ, PYTHONPATH=str(src)))

    @settings(max_examples=2000)
    @given(st.text("() \t1a", max_size=12))
    def test_malformed_exactly_as_old_check(self, text):
        # the backtracking check the parser had before, as the reference; a
        # point map that gives every token a new point leaves "malformed"
        # the only error
        stripped = text.strip()
        malformed = bool(stripped) and not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped)
        fresh = itertools.count()
        try:
            parse_cycles(text, 12, lambda tok: next(fresh))
        except ParseError as exc:
            assert malformed and str(exc).startswith("malformed cycle notation")
        else:
            assert not malformed

    @given(any_permutation())
    def test_format_parse_round_trip(self, p):
        assert parse_cycles(format_cycles(p), len(p)) == p

    @given(any_permutation(), st.data())
    def test_labelled_round_trip(self, p, data):
        # labels are cycle-notation tokens: no whitespace, no parentheses
        token = st.text("ab1*_σψ", min_size=1, max_size=4)
        labels = data.draw(
            st.lists(token, min_size=len(p), max_size=len(p), unique=True)
        )
        assert parse_cycles(format_cycles(p, labels), len(p), labels.index) == p


class TestGenerateGroup:
    def test_s3_from_transposition_and_cycle(self):
        group = generate_group(3, S3_GENS)
        assert group.order == 6
        assert set(group.elements) == set(itertools.permutations(range(3)))

    def test_empty_generators_give_trivial_group(self):
        group = generate_group(4, {})
        assert group.elements == (identity(4),)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_rejected(self, degree):
        with pytest.raises(UsageError, match=f"^degree must be >= 1, got {degree}$"):
            generate_group(degree, {})

    def test_cyclic_group_is_powers_of_generator(self):
        c5 = parse_cycles("(1 2 3 4 5)", 5)
        group = generate_group(5, {"c": c5})
        assert group.order == 5
        power = identity(5)
        powers = set()
        for _ in range(5):
            powers.add(power)
            power = compose(c5, power)
        assert set(group.elements) == powers

    def test_cap_exceeded(self):
        assert generate_group(3, S3_GENS, cap=6).order == 6
        with pytest.raises(GroupTooLarge) as info:
            generate_group(3, S3_GENS, cap=5)
        assert (info.value.order, info.value.cap) == (6, 5)

    def test_degree_mismatch(self):
        with pytest.raises(UsageError, match="^generator 't' has degree 3, expected 4$"):
            generate_group(4, {"t": parse_cycles("(1 2)", 3)})

    @pytest.mark.parametrize("images", [(0, 0), (1, 2)])
    def test_non_bijection_refused_before_order(self, monkeypatch, images):
        def no_order(degree, generators):
            raise AssertionError("group_order ran on a non-bijection")

        monkeypatch.setattr(perms, "group_order", no_order)
        with pytest.raises(GcrankError, match=r"are not a bijection"):
            generate_group(2, {"g": images})

    @pytest.mark.parametrize("images", [[1, 0], (1.0, 0), (True, False), "10", 5],
                             ids=["list", "float", "bool", "str", "int"])
    def test_non_tuple_of_ints_refused_before_order(self, monkeypatch, images):
        def no_order(degree, generators):
            raise AssertionError("group_order ran on a generator not a tuple of ints")

        monkeypatch.setattr(perms, "group_order", no_order)
        with pytest.raises(GcrankError, match=r"are not a tuple of ints"):
            generate_group(2, {"g": images})

    def test_identity_is_element_zero(self):
        group = generate_group(3, S3_GENS)
        assert group.elements[0] == identity(3)

    @pytest.mark.parametrize("case", NAMED_GROUPS, ids=[c[0] for c in NAMED_GROUPS])
    def test_table_records_products_and_tree(self, case):
        group = named_group(case)
        gens = group.generators
        index = {e: i for i, e in enumerate(group.elements)}
        assert len(group.right) == len(gens)
        for k, g in enumerate(gens):
            assert group.right[k] == tuple(
                index[compose(e, g)] for e in group.elements)
        # every element i > 0 is its parent times the generator that reached it
        assert group.parent[0] == 0
        for i in range(1, group.order):
            assert group.parent[i] < i
            assert group.elements[i] == compose(
                group.elements[group.parent[i]], gens[group.via[i]])

    @given(st.lists(permutations(5), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_generator_order_irrelevant(self, gens):
        named = {f"g{i}": g for i, g in enumerate(gens)}
        reversed_named = dict(reversed(list(named.items())))
        a = generate_group(5, named, cap=10**4)
        b = generate_group(5, reversed_named, cap=10**4)
        assert set(a.elements) == set(b.elements)


def factor_generators(kind, points):
    """Cycle-notation generators of S_k, A_k, Z_k or D_k on the k given points."""
    k = len(points)
    if kind == "s":
        return [cycle(points[:2]), cycle(points)]
    if kind == "a":
        return [cycle(points[:3]), cycle(points if k % 2 else points[1:])]
    if kind == "z":
        return [cycle(points)]
    return [cycle(points), "".join(cycle((points[i], points[k - i])) for i in range(1, k) if i < k - i)]


FACTOR_ORDER = {"s": math.factorial, "a": lambda k: math.factorial(k) // 2,
                "z": lambda k: k, "d": lambda k: 2 * k}


class TestGroupOrder:
    """Orders past any closure, against the closed-form factor orders."""

    # factors on 3-9 points each, at most 45 points in all, and up to 10
    # more points that every factor fixes
    @given(st.lists(st.tuples(st.sampled_from("sazd"), st.integers(3, 9)), min_size=1, max_size=5),
           st.integers(0, 10), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_products_on_scattered_supports(self, factors, extra, data):
        degree = sum(k for _, k in factors) + extra
        points = data.draw(st.permutations(range(1, degree + 1)))
        texts = []
        for kind, k in factors:
            texts += factor_generators(kind, points[:k])
            points = points[k:]
        gens = [parse_cycles(t, degree) for t in data.draw(st.permutations(texts))]
        assert group_order(degree, gens) == math.prod(FACTOR_ORDER[kind](k) for kind, k in factors)

    def test_base_is_the_moved_points(self):
        """A transposition of the last two of 100,000 points: a base of the
        two moved points, not one that walks the 99,998 points it fixes."""
        assert group_order(100_000, [parse_cycles("(99999 100000)", 100_000)]) == 2


class TestConjugacyClasses:
    def test_s3_class_sizes(self):
        group = generate_group(3, S3_GENS)
        sizes = sorted(len(c) for c in conjugacy_classes(group).classes)
        assert sizes == [1, 2, 3]

    def test_abelian_group_has_singletons(self):
        group = generate_group(5, {"c": parse_cycles("(1 2 3 4 5)", 5)})
        classes = conjugacy_classes(group).classes
        assert all(len(c) == 1 for c in classes)
        assert len(classes) == 5

    def test_s4_class_sizes(self):
        gens = {"t": parse_cycles("(1 2)", 4), "c": parse_cycles("(1 2 3 4)", 4)}
        group = generate_group(4, gens)
        assert group.order == 24
        part = conjugacy_classes(group)
        assert sorted(len(c) for c in part.classes) == [1, 3, 6, 6, 8]
        # brute-force oracle: conjugacy tested pairwise over all elements
        index = {e: i for i, e in enumerate(group.elements)}
        for cls in part.classes:
            h = group.elements[cls[0]]
            reachable = {
                index[compose(compose(k, h), inverse(k))]
                for k in group.elements
            }
            assert reachable == set(cls)

    def test_identity_class_is_first_and_singleton(self):
        group = generate_group(3, S3_GENS)
        part = conjugacy_classes(group)
        assert part.classes[0] == (0,)

    @pytest.mark.parametrize("case", NAMED_GROUPS, ids=[c[0] for c in NAMED_GROUPS])
    def test_named_groups_equal_reference(self, case):
        group = named_group(case)
        assert conjugacy_classes(group).classes == reference_classes(group)

    @given(st.integers(1, 6).flatmap(
        lambda d: st.lists(permutations(d), min_size=0, max_size=3)))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_random_generators_equal_reference(self, gens):
        degree = len(gens[0]) if gens else 4
        group = generate_group(degree, {f"g{i}": g for i, g in enumerate(gens)})
        assert conjugacy_classes(group).classes == reference_classes(group)

    @given(st.lists(permutations(5), min_size=1, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_class_equation(self, gens):
        group = generate_group(5, {f"g{i}": g for i, g in enumerate(gens)}, cap=10**4)
        sizes = [len(c) for c in conjugacy_classes(group).classes]
        assert sum(sizes) == group.order
        assert all(group.order % s == 0 for s in sizes)


def test_permutations_are_image_tuples():
    """Every permutation the library hands out is a plain tuple of images."""
    def exact_tuples(ps):
        ps = list(ps)
        assert ps and all(type(p) is tuple and all(type(i) is int for i in p) for p in ps)

    exact_tuples([parse_cycles("(1 2 3)", 4), identity(2), inverse((1, 0)),
                  compose((1, 2, 0), (1, 0, 2))])
    _, gens = symmetry.load_symmetry(gcrank.bundled_data_path("toric_code_swap.json"))
    exact_tuples(gens.values())
    exact_tuples(wreath.preset_generators("a6", 6).values())
    group = generate_group(4, {"t": parse_cycles("(1 2)", 4), "c": parse_cycles("(1 2 3 4)", 4)})
    exact_tuples(group.elements)
    exact_tuples(group.generators)
    _, rows = wreath.rank_wreath_subgroup(3, group)
    exact_tuples(cycle for row in rows for cycle in row[2])  # each row's representative


class TestFixedPointsAndOrbits:
    def test_trivial_group_orbits(self):
        assert orbits(generate_group(3, {})) == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]

    def test_single_swap_orbits(self):
        group = generate_group(4, {"t": parse_cycles("(1 2)", 4)})
        assert orbits(group) == [frozenset({0, 1}), frozenset({2}), frozenset({3})]

    def test_s3_is_transitive(self):
        group = generate_group(3, S3_GENS)
        assert orbits(group) == [frozenset({0, 1, 2})]

    @given(
        st.integers(2, 10).flatmap(
            lambda d: st.lists(permutations(d), min_size=1, max_size=2)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_burnside_identity(self, gens):
        degree = len(gens[0])
        try:
            group = generate_group(
                degree, {f"g{i}": g for i, g in enumerate(gens)}, cap=10**4
            )
        except GroupTooLarge:
            assume(False)
        fixed_sum = sum(e[i] == i for e in group.elements for i in range(degree))
        assert fixed_sum == group.order * len(orbits(group))
