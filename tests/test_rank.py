import itertools
import random

from gcrank import wreath
from gcrank.perms import conjugacy_classes, generate_group, inverse
from gcrank.rank import rank_report
from gcrank.symmetry import build_symmetry, parse_generator

from conftest import compose, symmetric_power_symmetry


def union_find_orbit_count(group):
    """Independent orbit oracle over all (element, point) moves."""
    parent = list(range(group.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in group.elements:
        for pt in range(group.degree):
            a, b = find(pt), find(e[pt])
            if a != b:
                parent[a] = b
    return len({find(x) for x in range(group.degree)})


def random_permutation_symmetry(mtc, rng):
    """An arbitrary permutation group on the labels; the trace/fixed-point
    identities hold regardless of whether the permutations preserve fusion."""
    gens = {}
    for i in range(rng.randint(1, 2)):
        images = list(range(mtc.rank))
        rng.shuffle(images)
        gens[f"g{i}"] = tuple(images)
    return generate_group(mtc.rank, gens)


def graded_ranks(group):
    """Element -> its graded rank, as ``rank_report(group).per_element`` gives it."""
    return dict(zip(group.elements, rank_report(group).per_element))


def trace(g):
    """The trace of Z_g, the permutation matrix of g: its diagonal ones are
    the points g fixes.  Built here, apart from ``rank_report``."""
    return sum(1 for x, y in enumerate(g) if x == y)


class TestGradedRank:
    def test_toric_swap(self, toric_swap, toric_code):
        swap = parse_generator(toric_code, "(e m)")
        assert graded_ranks(toric_swap)[swap] == 2

    def test_identity_component_is_base_rank(self, toric_swap):
        assert graded_ranks(toric_swap)[toric_swap.elements[0]] == 4

    def test_trivial_group_on_ising(self, ising):
        s = build_symmetry(ising, {})
        assert rank_report(s).per_element == (3,)

    def test_conjugation_invariance(self, ising):
        power, s = symmetric_power_symmetry(ising, 2)
        ranks = graded_ranks(s)
        for h, k in itertools.product(s.elements, repeat=2):
            conj = compose(compose(k, h), inverse(k))
            assert ranks[conj] == ranks[h]


class TestRankReport:
    def test_toric_swap_worked_example(self, toric_swap, toric_code):
        report = rank_report(toric_swap)
        assert report.per_element == (4, 2)
        assert report.total_rank == 6
        assert len(report.orbits) == 3
        assert report.burnside_total == 6
        labels = toric_code.labels
        orbit_labels = [
            frozenset(labels[i] for i in o) for o in report.orbits
        ]
        assert orbit_labels == [
            frozenset({"1"}), frozenset({"e", "m"}), frozenset({"f"})
        ]

    def test_trivial_group_on_fibonacci(self, fibonacci):
        report = rank_report(build_symmetry(fibonacci, {}))
        assert report.total_rank == 2
        assert len(report.orbits) == 2

    def test_ising_squared_factor_swap(self, ising):
        power, s = symmetric_power_symmetry(ising, 2)
        report = rank_report(s)
        assert power.rank == 9
        assert sorted(report.per_element) == [3, 9]
        assert report.total_rank == 12
        # matches the cyclic closed form at rk = 3
        assert report.total_rank == wreath.rank_wreath_cyclic(3, 2)

    def test_identity_rank_equals_label_count(self, toric_swap, toric_code):
        report = rank_report(toric_swap)
        assert report.per_element[0] == toric_code.rank

    def test_total_is_sum_of_elements(self, ising):
        _, s = symmetric_power_symmetry(ising, 3)
        report = rank_report(s)
        assert report.total_rank == sum(report.per_element)
        assert report.total_rank == report.burnside_total

    def test_classes_have_equal_rank(self, ising):
        _, s = symmetric_power_symmetry(ising, 3)
        report = rank_report(s)
        for cls in conjugacy_classes(s).classes:
            ranks = {report.per_element[i] for i in cls}
            assert len(ranks) == 1

    def test_orbit_count_matches_union_find(self, fibonacci, ising, toric_code):
        rng = random.Random(11)
        for mtc in (fibonacci, ising, toric_code):
            for _ in range(10):
                s = random_permutation_symmetry(mtc, rng)
                report = rank_report(s)
                assert len(report.orbits) == union_find_orbit_count(s)


class TestModularInvariant:
    """Z_g is read off ``g``; its trace, taken in this file, is the
    graded rank."""

    def test_permutation_matrix_shape(self, ising):
        # the closure wraps its elements unchecked: each must be a bijection
        power, s = symmetric_power_symmetry(ising, 2)
        for g in s.elements:
            assert sorted(g) == list(range(power.rank))

    def test_transpose_is_inverse_element(self, ising):
        # Z_g transposed is Z_{g^-1}, so g and g^-1 have the same graded rank
        _, s = symmetric_power_symmetry(ising, 3)
        ranks = graded_ranks(s)
        for g in s.elements:
            assert ranks[inverse(g)] == ranks[g] == trace(g)

    def test_derangement_has_zero_trace(self):
        s = generate_group(3, {"c": (1, 2, 0)})
        assert [trace(g) for g in s.elements] == [3, 0, 0]
        assert rank_report(s).per_element == (3, 0, 0)

    def test_trace_equals_graded_rank_randomized(
        self, fibonacci, ising, toric_code
    ):
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            mtc = rng.choice([fibonacci, ising, toric_code])
            s = random_permutation_symmetry(mtc, rng)
            i = rng.randrange(s.order)
            assert trace(s.elements[i]) == rank_report(s).per_element[i]
            checked += 1

    def test_trace_sum_equals_total_rank(self, toric_swap, ising):
        for s in (toric_swap, symmetric_power_symmetry(ising, 2)[1]):
            total = sum(trace(g) for g in s.elements)
            assert total == rank_report(s).total_rank
