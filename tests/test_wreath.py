import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrank import perms, rank, wreath
from gcrank.cli import main
from gcrank.errors import UsageError
from gcrank.perms import parse_cycles
from gcrank.wreath import (
    brute_force_wreath_rank,
    cycle_type_of,
    partitions,
    preset_generators,
    preset_group,
    rank_polynomial_symmetric,
    rank_wreath_cyclic,
    rank_wreath_subgroup,
    rank_wreath_symmetric,
)

from conftest import (
    a_of,
    compose,
    identity,
    reference_factor_permutation,
    reference_materialize_power,
    symmetric_power_symmetry,
)


def rising_factorial(n):
    """x (x+1) (x+2) ... (x+n-1), by iterated polynomial multiplication."""
    coeffs = [0, 1]  # the polynomial x
    for k in range(1, n):
        shifted = [0] + coeffs[:]          # x * p
        scaled = [k * c for c in coeffs] + [0]  # k * p
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return tuple(coeffs)


def poly_text(capsys, n):
    """What ``gcrank poly --n n`` prints."""
    assert main(["poly", "--n", str(n)]) == 0
    return capsys.readouterr().out


def partition_count(n):
    """p(n) by the coin-change recurrence over part sizes."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def reference_partitions(n):
    """(a, class size) for the cycle types of S_n by the dense recursion the
    walk replaced: one call per j <= n, a_j from its largest value down."""
    fact_n = math.factorial(n)
    a = [0] * n
    types = []

    def fill(j, rest, denom):
        for aj in range(rest // j, -1, -1):
            left = rest - j * aj
            if 0 < left <= j:
                continue
            a[j - 1] = aj
            d = denom * j**aj * math.factorial(aj)
            if left:
                fill(j + 1, left, d)
            else:
                types.append((tuple(a), fact_n // d))
        a[j - 1] = 0

    fill(1, n, 1)
    return types


def count_s_n_by_cycle_type(n):
    """Brute-force census of S_n elements grouped by cycle type."""
    census = {}
    for im in itertools.permutations(range(n)):
        a = cycle_type_of(tuple(im))
        census[a] = census.get(a, 0) + 1
    return census


class TestPartitions:
    def test_p4_has_five_types(self):
        assert len(partitions(4)) == 5

    def test_double_transposition_class_size(self):
        # a = (0, 2, 0, 0): 4! / (2^2 * 2!) = 3
        assert ((0, 2, 0, 0), 3) in [(a_of(e), size) for size, _, _, e in partitions(4)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_class_sizes_sum_to_factorial(self, n):
        assert sum(size for size, *_ in partitions(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_sizes_match_brute_force_census(self, n):
        census = count_s_n_by_cycle_type(n)
        for size, _, _, entries in partitions(n):
            assert census[a_of(entries)] == size

    def test_reverse_lexicographic_order(self):
        types = [a_of(e) for *_, e in partitions(4)]
        assert types == sorted(types, reverse=True)
        assert types[0] == (4, 0, 0, 0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_order_count_and_class_sizes(self, n):
        types = [(a_of(e), size) for size, _, _, e in partitions(n)]
        assert all(x > y for (x, _), (y, _) in zip(types, types[1:]))
        assert len(types) == partition_count(n)
        for a, size in types:
            assert len(a) == n
            assert sum(j * aj for j, aj in enumerate(a, start=1)) == n
            denom = math.prod(
                j**aj * math.factorial(aj) for j, aj in enumerate(a, start=1)
            )
            assert divmod(math.factorial(n), denom) == (size, 0)

    def test_out_of_range(self):
        for n in (0, -1, 61):
            with pytest.raises(UsageError, match=f"^n must be in 1..60, got {n}$"):
                partitions(n)

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_text_equals_loop_over_entries(self, n):
        # the walk's carried text, and the text rank_wreath_subgroup builds
        # for explicit groups from the nonzero entries, against a plain loop
        # over all n; at n = 20 the group is Z_2 x Z_3 x ... x Z_6 on disjoint
        # blocks, whose 720 classes have up to six distinct part sizes
        def loop(a):
            return " ".join(f"{j}^{aj}" for j, aj in enumerate(a, start=1) if aj)

        for _, _, text, entries in partitions(n):
            assert text == loop(a_of(entries))
        spec = (f"s{n}" if n <= 7 else
                "(1 2),(3 4 5),(6 7 8 9),(10 11 12 13 14),(15 16 17 18 19 20)")
        for entries, text, rep, *_ in rank_wreath_subgroup(2, preset_group(spec, n))[1]:
            assert text == loop(cycle_type_of(rep))
            assert a_of(entries) == cycle_type_of(rep)

    def test_class_size_division_exact(self):
        # every class size divides n!; exercise a spread of n
        for n in (13, 29, 41):
            for size, *_ in partitions(n)[:50]:
                assert math.factorial(n) % (math.factorial(n) // size) == 0


class TestWalk:
    @pytest.mark.parametrize("n", [*range(1, 31), 40])
    def test_rows_equal_reference_recursion(self, n):
        assert [(a_of(e), size) for size, _, _, e in partitions(n)] == reference_partitions(n)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_carried_fields_equal_loops_over_a(self, n):
        for _, num_cycles, text, entries in partitions(n):
            a = a_of(entries)
            parts = []
            for j, aj in enumerate(a, start=1):
                if aj:
                    parts.append(f"{j}^{aj}")
            assert text == " ".join(parts)
            assert entries == ",\n        ".join(str(aj) for aj in a)
            assert num_cycles == sum(a)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_both_producers_write_one_entries_format(self, n):
        # S_n from cycle-notation generators goes through the explicit-group
        # rows; as a multiset they equal the walk's rows, entries text included
        spec = "(1 2),(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
        explicit = rank_wreath_subgroup(3, preset_group(spec, n))[1]
        walked = rank_wreath_symmetric(3, n)[1]

        def key(row):
            entries, text, _, size, _, contribution = row
            return entries, text, size, contribution

        assert len(explicit) == len(walked) == partition_count(n)
        assert Counter(map(key, explicit)) == Counter(map(key, walked))

    def test_rows_are_plain_tuples(self):
        assert partitions(3) == [
            (1, 3, "1^3", "3,\n        0,\n        0"),
            (3, 2, "1^1 2^1", "1,\n        1,\n        0"),
            (2, 1, "3^1", "0,\n        0,\n        1"),
        ]
        assert [row[3] for row in partitions(3, ",")] == ["3,0,0", "1,1,0", "0,0,1"]


class TestCycleTypeOf:
    def test_identity(self):
        a = cycle_type_of(identity(5))
        assert a == (5, 0, 0, 0, 0)
        assert sum(a) == 5

    def test_double_transposition(self):
        a = cycle_type_of(parse_cycles("(1 2)(3 4)", 4))
        assert a == (0, 2, 0, 0)
        assert sum(a) == 2

    def test_three_cycle_with_fixed_point(self):
        a = cycle_type_of(parse_cycles("(1 2 3)", 4))
        assert a == (1, 0, 1, 0)
        assert sum(a) == 2

    @given(st.integers(1, 8).flatmap(
        lambda d: st.permutations(range(d)).map(tuple)
    ))
    def test_agrees_with_cycle_decomposition(self, p):
        cycles = perms.cycle_decomposition(p)
        a = cycle_type_of(p)
        assert sum(a) == len(cycles)
        for j, aj in enumerate(a, start=1):
            assert aj == sum(1 for c in cycles if len(c) == j)


class TestRankPolynomial:
    def test_s3(self, capsys):
        assert rank_polynomial_symmetric(3) == (0, 2, 3, 1)
        assert poly_text(capsys, 3) == "x^3 + 3x^2 + 2x\n"

    def test_s4(self, capsys):
        assert rank_polynomial_symmetric(4) == (0, 6, 11, 6, 1)
        assert poly_text(capsys, 4) == "x^4 + 6x^3 + 11x^2 + 6x\n"

    def test_s5(self, capsys):
        assert rank_polynomial_symmetric(5) == (0, 24, 50, 35, 10, 1)
        assert poly_text(capsys, 5) == "x^5 + 10x^4 + 35x^3 + 50x^2 + 24x\n"

    def test_s1(self, capsys):
        assert rank_polynomial_symmetric(1) == (0, 1)
        assert poly_text(capsys, 1) == "x\n"

    def test_constant_term_zero_leading_one(self):
        for n in (1, 5, 12):
            poly = rank_polynomial_symmetric(n)
            assert poly[0] == 0
            assert poly[-1] == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 30])
    def test_equals_rising_factorial(self, n):
        assert rank_polynomial_symmetric(n) == rising_factorial(n)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_equals_cycle_type_enumeration(self, n):
        coeffs = [0] * (n + 1)
        for size, _, _, entries in partitions(n):
            coeffs[sum(a_of(entries))] += size
        assert rank_polynomial_symmetric(n) == tuple(coeffs)

    def test_never_enumerates_cycle_types(self, monkeypatch, capsys):
        def refuse(n):
            raise AssertionError("partitions must not be called")

        monkeypatch.setattr(wreath, "partitions", refuse)
        assert rank_polynomial_symmetric(60) == rising_factorial(60)
        assert main(["poly", "--n", "30", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        coeffs = rising_factorial(30)
        assert doc["coefficients"] == [[k, str(coeffs[k])] for k in range(30, 0, -1)]

    def test_out_of_range(self):
        for n in (0, -1, 61):
            with pytest.raises(UsageError, match=f"^n must be in 1..60, got {n}$"):
                rank_polynomial_symmetric(n)

    @pytest.mark.parametrize("n", [1, 3, 7, 15])
    def test_value_at_one_is_group_order(self, n):
        assert sum(rank_polynomial_symmetric(n)) == math.factorial(n)

    def test_s4_evaluations(self):
        poly = rank_polynomial_symmetric(4)
        assert sum(c * 3**k for k, c in enumerate(poly)) == 360
        assert sum(c * 2**k for k, c in enumerate(poly)) == 120


class TestCyclicPrime:
    """For prime n the necklace sum is rk^n + (n-1) rk."""

    def test_n2(self):
        assert rank_wreath_cyclic(3, 2) == 3**2 + 3 == 12

    def test_n3_matches_brute_force(self):
        assert rank_wreath_cyclic(2, 3) == 2**3 + 2 * 2 == 12
        assert rank_wreath_cyclic(2, 3) == brute_force_wreath_rank(
            2, preset_group("z3", 3)
        )

    def test_trivial_category(self):
        for n in (1, 2, 3, 4, 5, 6, 7, 11, 12):
            assert rank_wreath_cyclic(1, n) == n

    def test_composite_degrees(self):
        # sum over k < n of 3^gcd(k, n), written out
        assert rank_wreath_cyclic(3, 1) == 3
        assert rank_wreath_cyclic(3, 4) == 3**4 + 3 + 3**2 + 3 == 96
        assert rank_wreath_cyclic(3, 6) == 3**6 + 2 * 3 + 2 * 3**2 + 3**3 == 780
        assert rank_wreath_cyclic(3, 9) == 3**9 + 6 * 3 + 2 * 3**3

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
    def test_matches_cyclic_subgroup_path(self, n):
        group = preset_group(f"z{n}", n)
        for r in (1, 2, 5, 10):
            total, _ = rank_wreath_subgroup(r, group)
            assert total == rank_wreath_cyclic(r, n) == r**n + (n - 1) * r


class TestCyclicNecklace:
    RANKS = (0, 1, 2, 5, 2**130)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_closure_and_brute_force(self, n):
        # brute force costs rk^n * n tuple moves; 10^5 keeps the sweep to
        # about a second (up to the oracle's own cap, 10^7, takes minutes)
        group = preset_group(f"z{n}", n)
        for r in self.RANKS:
            total, _ = rank_wreath_subgroup(r, group)
            assert rank_wreath_cyclic(r, n) == total, r
            if r**n <= 10**5:
                assert total == brute_force_wreath_rank(r, group), r

    @pytest.mark.parametrize("n", [0, -1, -7])
    def test_degree_below_one(self, n):
        with pytest.raises(UsageError, match=f"^degree must be >= 1, got {n}$"):
            rank_wreath_cyclic(3, n)


class TestWreathSubgroup:
    def test_s3_breakdown(self):
        total, rows = rank_wreath_subgroup(3, preset_group("s3", 3))
        assert total == 60
        assert sorted(x for *_, x in rows) == [6, 27, 27]
        assert total == sum(c * 3**k for k, c in enumerate(rank_polynomial_symmetric(3)))

    def test_trivial_group(self):
        group = perms.generate_group(4, {})
        total, rows = rank_wreath_subgroup(7, group)
        assert total == 7**4
        assert len(rows) == 1

    def test_five_cycle(self):
        total, _ = rank_wreath_subgroup(2, preset_group("z5", 5))
        assert total == 2**5 + 4 * 2 == 40
        assert total == rank_wreath_cyclic(2, 5)

    def test_symmetric_path_agrees_with_materialized(self):
        for n in (2, 3, 4, 5):
            for r in (1, 2, 3):
                total_sym, rows_sym = rank_wreath_symmetric(r, n)
                total_mat, rows_mat = rank_wreath_subgroup(r, preset_group(f"s{n}", n))
                assert total_sym == total_mat
                assert sum(size for _, _, _, size, _, _ in rows_sym) == math.factorial(n)
                # both routes give the same rows, the representative aside
                assert all(rep is None for _, _, rep, *_ in rows_sym)
                assert (sorted((e, t, size, c, x) for e, t, _, size, c, x in rows_sym)
                        == sorted((e, t, size, c, x) for e, t, _, size, c, x in rows_mat))

    def test_alternating_group(self):
        a4 = preset_group("a4", 4)
        assert a4.order == 12
        total, _ = rank_wreath_subgroup(2, a4)
        assert total == brute_force_wreath_rank(2, a4)


class TestBruteForce:
    def test_s3_at_rank_two(self):
        assert brute_force_wreath_rank(2, preset_group("s3", 3)) == 24

    def test_rank_one_counts_group_order(self):
        for spec, n in (("s3", 3), ("z5", 5), ("a4", 4)):
            group = preset_group(spec, n)
            assert brute_force_wreath_rank(1, group) == group.order

    def test_cap_enforced(self):
        with pytest.raises(UsageError, match="^rk\\^n = 100000000 exceeds cap 10000000$"):
            brute_force_wreath_rank(10, preset_group("z2", 8))

    def test_burnside_form(self):
        # total = |G| * number of orbits on tuples, counted directly
        group = preset_group("s3", 3)
        tuples = list(itertools.product(range(3), repeat=3))
        orbit_reps = set()
        for t in tuples:
            images = frozenset(
                tuple(t[perms.inverse(e)[i]] for i in range(3))
                for e in group.elements
            )
            orbit_reps.add(images)
        assert brute_force_wreath_rank(3, group) == group.order * len(orbit_reps)

    def test_random_agreement_with_class_formula(self):
        rng = random.Random(5)
        done = 0
        while done < 200:
            n = rng.randint(2, 6)
            r = rng.randint(1, 4)
            images = list(range(n))
            rng.shuffle(images)
            gens = {"g": tuple(images)}
            if rng.random() < 0.5:
                images2 = list(range(n))
                rng.shuffle(images2)
                gens["h"] = tuple(images2)
            group = perms.generate_group(n, gens)
            total, _ = rank_wreath_subgroup(r, group)
            assert total == brute_force_wreath_rank(r, group)
            done += 1


class TestPresets:
    def test_symmetric_preset_orders(self):
        for n in (2, 3, 4, 5):
            assert preset_group(f"s{n}", n).order == math.factorial(n)

    def test_alternating_preset_orders(self):
        for n in (3, 4, 5, 6):
            assert preset_group(f"a{n}", n).order == math.factorial(n) // 2

    def test_cyclic_preset_orders(self):
        for n in (1, 2, 5, 8):
            assert preset_group(f"z{n}", n).order == n

    def test_explicit_cycle_generators(self):
        group = preset_group("(1 2),(1 2 3)", 3)
        assert group.order == 6

    def test_embedded_smaller_group(self):
        group = preset_group("z3", 5)
        assert group.degree == 5
        assert group.order == 3

    def test_bad_spec(self):
        with pytest.raises(Exception):
            preset_generators("s9", 4)


POWER_CASES = ([("ising", n) for n in range(1, 5)] + [("fibonacci", n) for n in range(1, 7)]
               + [("toric_code", n) for n in range(1, 4)])


class TestMaterializedPower:
    @pytest.mark.parametrize("base, n", POWER_CASES)
    def test_power_equals_reference(self, request, base, n):
        """The reference C^n, read back factor by factor from its labels:
        every field and fusion entry combines the factors' as stated."""
        m = request.getfixturevalue(base)
        power = reference_materialize_power(m, n)
        factors = [tuple(map(m.labels.index, label.split("*"))) for label in power.labels]
        assert power.name == f"{m.name}^{n}"
        assert factors == list(itertools.product(range(m.rank), repeat=n))
        assert factors[power.unit] == (m.unit,) * n
        for t, dual, twist in zip(factors, power.dual, power.twists, strict=True):
            assert factors[dual] == tuple(m.dual[i] for i in t)
            assert twist == sum(m.twists[i] for i in t) % m.twist_denominator
        # each entry is a product of nonzero factor entries, and there are
        # as many entries as n-tuples of those
        assert len(power.fusion) == len(m.fusion) ** n
        for (x, y, z), k in power.fusion.items():
            assert k == math.prod(m.fusion[triple] for triple in
                                  zip(factors[x], factors[y], factors[z]))

    def test_first_power_copies_fusion(self, ising):
        power = reference_materialize_power(ising, 1)
        assert power.fusion == ising.fusion and power.fusion is not ising.fusion
        for field in ("labels", "unit", "dual", "twists", "twist_denominator"):
            assert getattr(power, field) == getattr(ising, field), field

    @pytest.mark.parametrize("base, n", [(b, n) for b, n in POWER_CASES if n <= 4])
    def test_factor_permutation_equals_reference(self, request, base, n):
        """The reference lift of sigma, read from the labels of C^n: the
        image of a label carries its factor i in slot sigma(i)."""
        m = request.getfixturevalue(base)
        parts = [label.split("*") for label in reference_materialize_power(m, n).labels]
        for sigma in itertools.permutations(range(n)):
            for x, image in enumerate(reference_factor_permutation(m, n, sigma)):
                assert [parts[image][sigma[i]] for i in range(n)] == parts[x]

    def test_ising_squared_shape(self, ising):
        power = reference_materialize_power(ising, 2)
        assert power.rank == 9
        from gcrank.mtc import validate_mtc
        assert validate_mtc(power).ok

    def test_fibonacci_cubed_valid(self, fibonacci):
        power = reference_materialize_power(fibonacci, 3)
        assert power.rank == 8
        from gcrank.mtc import validate_mtc
        assert validate_mtc(power).ok

    def test_power_symmetry_matches_class_formula(self, ising):
        for n in (2, 3):
            _, s = symmetric_power_symmetry(ising, n)
            report = rank.rank_report(s)
            total, _ = rank_wreath_symmetric(3, n)
            assert report.total_rank == total

    def test_factor_permutation_is_homomorphism(self, ising):
        n = 3
        for p, q in itertools.product(itertools.permutations(range(n)), repeat=2):
            lifted = reference_factor_permutation(ising, n, compose(p, q))
            composed = compose(
                reference_factor_permutation(ising, n, p),
                reference_factor_permutation(ising, n, q),
            )
            assert lifted == composed
