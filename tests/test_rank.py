import itertools
import random

import pytest

from gcrank import perms, rank, wreath
from gcrank.errors import UnknownElement
from gcrank.perms import Permutation, compose, generate_group, identity, inverse
from gcrank.rank import (
    ModularInvariantMatrix,
    graded_rank,
    lagrangian_summands,
    modular_invariant,
    rank_report,
    trace,
)
from gcrank.symmetry import GlobalSymmetry, build_symmetry, parse_generator


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
            a, b = find(pt), find(e.images[pt])
            if a != b:
                parent[a] = b
    return len({find(x) for x in range(group.degree)})


def random_permutation_symmetry(mtc, rng):
    """A GlobalSymmetry wrapper over an arbitrary permutation group on the
    labels; the trace/fixed-point identities hold regardless of whether the
    permutations preserve fusion."""
    gens = {}
    for i in range(rng.randint(1, 2)):
        images = list(range(mtc.rank))
        rng.shuffle(images)
        gens[f"g{i}"] = Permutation(tuple(images))
    return GlobalSymmetry(mtc, generate_group(mtc.rank, gens))


class TestGradedRank:
    def test_toric_swap(self, toric_swap):
        swap = parse_generator(toric_swap.mtc, "(e m)")
        assert graded_rank(toric_swap, swap) == 2

    def test_identity_component_is_base_rank(self, toric_swap):
        assert graded_rank(toric_swap, identity(4)) == 4

    def test_trivial_group_on_ising(self, ising):
        s = build_symmetry(ising, {})
        assert graded_rank(s, identity(3)) == 3

    def test_unknown_element(self, toric_swap):
        with pytest.raises(UnknownElement):
            graded_rank(toric_swap, perms.parse_cycles("(1 2)", 4))

    def test_conjugation_invariance(self, ising):
        power, s = wreath.symmetric_power_symmetry(ising, 2)
        for h, k in itertools.product(s.group.elements, repeat=2):
            conj = compose(compose(k, h), inverse(k))
            assert graded_rank(s, conj) == graded_rank(s, h)


class TestRankReport:
    def test_toric_swap_worked_example(self, toric_swap):
        report = rank_report(toric_swap)
        assert report.per_element == (4, 2)
        assert report.total_rank == 6
        assert report.orbit_count == 3
        assert report.burnside_total == 6
        labels = toric_swap.mtc.labels
        orbit_labels = [
            frozenset(labels[i] for i in o) for o in report.orbits
        ]
        assert orbit_labels == [
            frozenset({"1"}), frozenset({"e", "m"}), frozenset({"f"})
        ]

    def test_trivial_group_on_fibonacci(self, fibonacci):
        report = rank_report(build_symmetry(fibonacci, {}))
        assert report.total_rank == 2
        assert report.orbit_count == 2

    def test_ising_squared_factor_swap(self, ising):
        power, s = wreath.symmetric_power_symmetry(ising, 2)
        report = rank_report(s)
        assert power.rank == 9
        assert sorted(report.per_element) == [3, 9]
        assert report.total_rank == 12
        # matches the cyclic closed form at rk = 3
        assert report.total_rank == wreath.rank_wreath_cyclic(3, 2)

    def test_identity_rank_equals_label_count(self, toric_swap):
        report = rank_report(toric_swap)
        assert report.per_element[0] == toric_swap.mtc.rank

    def test_total_is_sum_of_elements(self, ising):
        _, s = wreath.symmetric_power_symmetry(ising, 3)
        report = rank_report(s)
        assert report.total_rank == sum(report.per_element)
        assert report.total_rank == report.burnside_total

    def test_classes_have_equal_rank(self, ising):
        _, s = wreath.symmetric_power_symmetry(ising, 3)
        report = rank_report(s)
        for cls in report.classes.classes:
            ranks = {report.per_element[i] for i in cls}
            assert len(ranks) == 1

    def test_orbit_count_matches_union_find(self, fibonacci, ising, toric_code):
        rng = random.Random(11)
        for mtc in (fibonacci, ising, toric_code):
            for _ in range(10):
                s = random_permutation_symmetry(mtc, rng)
                report = rank_report(s)
                assert report.orbit_count == union_find_orbit_count(s.group)

    def test_json_dict_schema(self, toric_swap):
        doc = rank_report(toric_swap).to_json_dict()
        assert doc["total_rank"] == "6"
        assert doc["orbit_count"] == 3
        assert doc["group_order"] == 2
        assert doc["per_element"] == [
            {"element": "()", "class_size": 1, "rank": "4"},
            {"element": "(2 3)", "class_size": 1, "rank": "2"},
        ]


class TestModularInvariant:
    def test_identity_gives_identity_matrix(self, toric_swap):
        z = modular_invariant(toric_swap, identity(4))
        assert z.entries == {(i, i): 1 for i in range(4)}
        assert trace(z) == 4

    def test_toric_swap_matrix(self, toric_swap):
        m = toric_swap.mtc
        swap = parse_generator(m, "(e m)")
        z = modular_invariant(toric_swap, swap)
        e, mm = m.label_index("e"), m.label_index("m")
        assert z[e, mm] == 1 and z[mm, e] == 1
        assert z[e, e] == 0
        assert trace(z) == 2

    def test_permutation_matrix_shape(self, ising):
        _, s = wreath.symmetric_power_symmetry(ising, 2)
        for g in s.group.elements:
            z = modular_invariant(s, g)
            rows = [x for (x, _) in z.entries]
            cols = [y for (_, y) in z.entries]
            assert sorted(rows) == list(range(z.size))
            assert sorted(cols) == list(range(z.size))
            assert set(z.entries.values()) == {1}

    def test_transpose_is_inverse_element(self, ising):
        _, s = wreath.symmetric_power_symmetry(ising, 2)
        for g in s.group.elements:
            z = modular_invariant(s, g)
            zt = modular_invariant(s, inverse(g))
            assert z.transpose().entries == zt.entries

    def test_trace_equals_graded_rank_randomized(
        self, fibonacci, ising, toric_code
    ):
        # trace(Z_g) and |fixed(g)| computed by independent code paths
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            mtc = rng.choice([fibonacci, ising, toric_code])
            s = random_permutation_symmetry(mtc, rng)
            g = rng.choice(s.group.elements)
            assert trace(modular_invariant(s, g)) == graded_rank(s, g)
            checked += 1

    def test_trace_sum_equals_total_rank(self, toric_swap, ising):
        for s in (toric_swap, wreath.symmetric_power_symmetry(ising, 2)[1]):
            total = sum(
                trace(modular_invariant(s, g)) for g in s.group.elements
            )
            assert total == rank_report(s).total_rank

    def test_derangement_has_zero_trace(self):
        z = ModularInvariantMatrix(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
        assert trace(z) == 0


class TestLagrangianSummands:
    def test_fibonacci_identity(self, fibonacci):
        s = build_symmetry(fibonacci, {})
        dec = lagrangian_summands(s, identity(2))
        assert dec.summands == {(0, 0): 1, (1, 1): 1}
        assert dec.total_multiplicity == 2

    def test_toric_swap(self, toric_swap):
        m = toric_swap.mtc
        swap = parse_generator(m, "(e m)")
        dec = lagrangian_summands(toric_swap, swap)
        one, e, mm, f = (m.label_index(l) for l in ("1", "e", "m", "f"))
        assert dec.summands == {(one, one): 1, (e, mm): 1, (mm, e): 1, (f, f): 1}

    def test_matches_modular_invariant_through_duals(self, toric_swap, ising):
        # the summand multiset is the Z support with the second index dualized
        for s in (toric_swap, wreath.symmetric_power_symmetry(ising, 2)[1]):
            m = s.mtc
            for g in s.group.elements:
                dec = lagrangian_summands(s, g)
                z = modular_invariant(s, g)
                from_z = {
                    (x, m.dual[y]): mult for (x, y), mult in z.entries.items()
                }
                assert dict(dec.summands) == from_z

    def test_total_multiplicity_is_base_rank(self, toric_swap):
        for g in toric_swap.group.elements:
            assert lagrangian_summands(toric_swap, g).total_multiplicity == 4
