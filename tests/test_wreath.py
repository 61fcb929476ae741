import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrank import perms, rank, wreath
from gcrank.cli import main
from gcrank.errors import OutOfRange, TooLarge
from gcrank.mtc import ModularData
from gcrank.perms import Permutation, parse_cycles
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


def rising_factorial(n):
    """x (x+1) (x+2) ... (x+n-1), by iterated polynomial multiplication."""
    coeffs = [0, 1]  # the polynomial x
    for k in range(1, n):
        shifted = [0] + coeffs[:]          # x * p
        scaled = [k * c for c in coeffs] + [0]  # k * p
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return tuple(coeffs)


def partition_count(n):
    """p(n) by the coin-change recurrence over part sizes."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def count_s_n_by_cycle_type(n):
    """Brute-force census of S_n elements grouped by cycle type."""
    census = {}
    for im in itertools.permutations(range(n)):
        a = cycle_type_of(Permutation(im))
        census[a] = census.get(a, 0) + 1
    return census


class TestPartitions:
    def test_p4_has_five_types(self):
        assert len(partitions(4)) == 5

    def test_double_transposition_class_size(self):
        # a = (0, 2, 0, 0): 4! / (2^2 * 2!) = 3
        assert ((0, 2, 0, 0), 3) in partitions(4)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_class_sizes_sum_to_factorial(self, n):
        assert sum(size for _, size in partitions(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_sizes_match_brute_force_census(self, n):
        census = count_s_n_by_cycle_type(n)
        for a, size in partitions(n):
            assert census[a] == size

    def test_reverse_lexicographic_order(self):
        types = [a for a, _ in partitions(4)]
        assert types == sorted(types, reverse=True)
        assert types[0] == (4, 0, 0, 0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_order_count_and_class_sizes(self, n):
        types = partitions(n)
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
            with pytest.raises(OutOfRange):
                partitions(n)

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_text_equals_loop_over_entries(self, n):
        # the formatter's table lookup against a plain loop over all n entries
        text = wreath.cycle_type_formatter(n)
        for a, _ in partitions(n):
            loop = " ".join(f"{j}^{aj}" for j, aj in enumerate(a, start=1) if aj)
            assert text(a) == loop

    def test_class_size_division_exact(self):
        # every class size divides n!; exercise a spread of n
        for n in (13, 29, 41):
            for _, size in partitions(n)[:50]:
                assert math.factorial(n) % (math.factorial(n) // size) == 0


class TestCycleTypeOf:
    def test_identity(self):
        a = cycle_type_of(perms.identity(5))
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
        lambda d: st.permutations(range(d)).map(lambda im: Permutation(tuple(im)))
    ))
    def test_agrees_with_cycle_decomposition(self, p):
        cycles = perms.cycle_decomposition(p)
        a = cycle_type_of(p)
        assert sum(a) == len(cycles)
        for j, aj in enumerate(a, start=1):
            assert aj == sum(1 for c in cycles if len(c) == j)


class TestRankPolynomial:
    def test_s3(self):
        assert str(rank_polynomial_symmetric(3)) == "x^3 + 3x^2 + 2x"

    def test_s4(self):
        assert str(rank_polynomial_symmetric(4)) == "x^4 + 6x^3 + 11x^2 + 6x"

    def test_s5(self):
        assert str(rank_polynomial_symmetric(5)) == "x^5 + 10x^4 + 35x^3 + 50x^2 + 24x"

    def test_s1(self):
        assert str(rank_polynomial_symmetric(1)) == "x"

    def test_constant_term_zero_leading_one(self):
        for n in (1, 5, 12):
            poly = rank_polynomial_symmetric(n)
            assert poly.coefficients[0] == 0
            assert poly.coefficients[-1] == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 30])
    def test_equals_rising_factorial(self, n):
        assert rank_polynomial_symmetric(n).coefficients == rising_factorial(n)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_equals_cycle_type_enumeration(self, n):
        coeffs = [0] * (n + 1)
        for a, size in partitions(n):
            coeffs[sum(a)] += size
        assert rank_polynomial_symmetric(n).coefficients == tuple(coeffs)

    def test_never_enumerates_cycle_types(self, monkeypatch, capsys):
        def refuse(n):
            raise AssertionError("partitions must not be called")

        monkeypatch.setattr(wreath, "partitions", refuse)
        assert rank_polynomial_symmetric(60).coefficients == rising_factorial(60)
        assert main(["poly", "--n", "30", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        coeffs = rising_factorial(30)
        assert doc["coefficients"] == [[k, str(coeffs[k])] for k in range(30, 0, -1)]

    def test_out_of_range(self):
        for n in (0, -1, 61):
            with pytest.raises(OutOfRange):
                rank_polynomial_symmetric(n)

    @pytest.mark.parametrize("n", [1, 3, 7, 15])
    def test_value_at_one_is_group_order(self, n):
        assert rank_polynomial_symmetric(n).evaluate(1) == math.factorial(n)

    def test_s4_evaluations(self):
        poly = rank_polynomial_symmetric(4)
        assert poly.evaluate(3) == 360
        assert poly.evaluate(2) == 120

    def test_horner_matches_naive(self):
        poly = rank_polynomial_symmetric(8)
        for x in (0, 1, 7, 123):
            naive = sum(c * x**k for k, c in enumerate(poly.coefficients))
            assert poly.evaluate(x) == naive


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
        with pytest.raises(OutOfRange, match=f"^degree must be >= 1, got {n}$"):
            rank_wreath_cyclic(3, n)


class TestWreathSubgroup:
    def test_s3_breakdown(self):
        total, terms = rank_wreath_subgroup(3, preset_group("s3", 3))
        assert total == 60
        assert sorted(t.contribution for t in terms) == [6, 27, 27]
        assert total == rank_polynomial_symmetric(3).evaluate(3)

    def test_trivial_group(self):
        group = perms.generate_group(4, {})
        total, terms = rank_wreath_subgroup(7, group)
        assert total == 7**4
        assert len(terms) == 1

    def test_five_cycle(self):
        total, _ = rank_wreath_subgroup(2, preset_group("z5", 5))
        assert total == 2**5 + 4 * 2 == 40
        assert total == rank_wreath_cyclic(2, 5)

    def test_symmetric_path_agrees_with_materialized(self):
        for n in (2, 3, 4, 5):
            for r in (1, 2, 3):
                total_sym, terms_sym = rank_wreath_symmetric(r, n)
                total_mat, _ = rank_wreath_subgroup(r, preset_group(f"s{n}", n))
                assert total_sym == total_mat
                assert sum(t.class_size for t in terms_sym) == math.factorial(n)

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
        with pytest.raises(TooLarge):
            brute_force_wreath_rank(10, preset_group("z2", 8))

    def test_burnside_form(self):
        # total = |G| * number of orbits on tuples, counted directly
        group = preset_group("s3", 3)
        tuples = list(itertools.product(range(3), repeat=3))
        orbit_reps = set()
        for t in tuples:
            images = frozenset(
                tuple(t[perms.inverse(e).images[i]] for i in range(3))
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
            gens = {"g": Permutation(tuple(images))}
            if rng.random() < 0.5:
                images2 = list(range(n))
                rng.shuffle(images2)
                gens["h"] = Permutation(tuple(images2))
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


def reference_materialize_power(m, n):
    """``materialize_power`` by its former walk over n-tuples of fusion
    entries, with a tuple -> label index dict."""
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
    twists = tuple(sum((m.twists[i] for i in t), Fraction(0)) % 1 for t in tuples)
    return ModularData(f"{m.name}^{n}", labels, unit, fusion, dual, twists)


def reference_factor_permutation(m, n, sigma):
    """``factor_permutation`` by moving each label tuple and looking it up."""
    tuples = list(itertools.product(range(m.rank), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    images = []
    for t in tuples:
        moved = [0] * n
        for i, val in enumerate(t):
            moved[sigma.images[i]] = val
        images.append(index[tuple(moved)])
    return Permutation(tuple(images))


POWER_CASES = ([("ising", n) for n in range(1, 5)] + [("fibonacci", n) for n in range(1, 7)]
               + [("toric_code", n) for n in range(1, 4)])


class TestMaterializedPower:
    @pytest.mark.parametrize("base, n", POWER_CASES)
    def test_power_equals_reference(self, request, base, n):
        m = request.getfixturevalue(base)
        power, ref = wreath.materialize_power(m, n), reference_materialize_power(m, n)
        for field in ("name", "labels", "unit", "dual", "twists"):
            assert getattr(power, field) == getattr(ref, field), field
        assert list(power.fusion.items()) == list(ref.fusion.items())

    def test_first_power_copies_fusion(self, ising):
        power = wreath.materialize_power(ising, 1)
        assert power.fusion == ising.fusion and power.fusion is not ising.fusion

    @pytest.mark.parametrize("base, n", [(b, n) for b, n in POWER_CASES if n <= 4])
    def test_factor_permutation_equals_reference(self, request, base, n):
        m = request.getfixturevalue(base)
        for images in itertools.permutations(range(n)):
            sigma = Permutation(images)
            assert (wreath.factor_permutation(m, n, sigma)
                    == reference_factor_permutation(m, n, sigma))

    def test_ising_squared_shape(self, ising):
        power = wreath.materialize_power(ising, 2)
        assert power.rank == 9
        from gcrank.mtc import validate_mtc
        assert validate_mtc(power).ok

    def test_fibonacci_cubed_valid(self, fibonacci):
        power = wreath.materialize_power(fibonacci, 3)
        assert power.rank == 8
        from gcrank.mtc import validate_mtc
        assert validate_mtc(power).ok

    def test_power_symmetry_matches_class_formula(self, ising):
        for n in (2, 3):
            _, s = wreath.symmetric_power_symmetry(ising, n)
            report = rank.rank_report(s)
            total, _ = rank_wreath_symmetric(3, n)
            assert report.total_rank == total

    def test_factor_permutation_is_homomorphism(self, ising):
        n = 3
        for im1, im2 in itertools.product(itertools.permutations(range(n)), repeat=2):
            p, q = Permutation(im1), Permutation(im2)
            lifted = wreath.factor_permutation(ising, n, perms.compose(p, q))
            composed = perms.compose(
                wreath.factor_permutation(ising, n, p),
                wreath.factor_permutation(ising, n, q),
            )
            assert lifted == composed
