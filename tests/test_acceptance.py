"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time

import pytest

import gcrank
from gcrank import perms, rank, symmetry, wreath
from gcrank.cli import main as cli_main
from gcrank.errors import (
    GroupTooLarge,
    NotAnAutomorphism,
    ParseError,
)
from gcrank.perms import generate_group
from gcrank.symmetry import build_symmetry

from conftest import (
    fixture_path,
    reference_factor_permutation,
    reference_materialize_power,
    symmetric_power_symmetry,
)


def report_pass(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_paper_polynomials(capsys):
    expected = {
        3: ((0, 2, 3, 1), "x^3 + 3x^2 + 2x"),
        4: ((0, 6, 11, 6, 1), "x^4 + 6x^3 + 11x^2 + 6x"),
        5: ((0, 24, 50, 35, 10, 1), "x^5 + 10x^4 + 35x^3 + 50x^2 + 24x"),
    }
    wreath.rank_polynomial_symmetric(5)  # warm-up outside the timed region
    for n, (coeffs, text) in expected.items():
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            poly = wreath.rank_polynomial_symmetric(n)
            timings.append(time.perf_counter() - start)
        assert poly == coeffs
        assert cli_main(["poly", "--n", str(n)]) == 0
        assert capsys.readouterr().out == text + "\n"
        best = min(timings)
        assert best < 1e-3, f"S_{n} polynomial took {best * 1e3:.3f} ms"
    report_pass(1, "S_3/S_4/S_5 rank polynomials coefficient-exact, < 1 ms each")


def test_criterion_2_cyclic_closed_form_vs_brute_force():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 8):  # composite n = 4, 6 as well as the primes
        group = wreath.preset_group(f"z{n}", n)
        for r in range(1, 6):
            if r**n > 10**7:
                continue
            closed = wreath.rank_wreath_cyclic(r, n)
            assert closed == wreath.brute_force_wreath_rank(r, group), (r, n)
            if n in (2, 3, 5, 7):  # prime n: rk^n + (n-1) rk
                assert closed == r**n + (n - 1) * r, (r, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"sweep took {elapsed:.1f} s"
    report_pass(2, f"closed form = brute force on {checked} (r, n) pairs "
                   f"in {elapsed:.2f} s")


def test_criterion_3_burnside_identity_randomized():
    rng = random.Random(2024)
    start = time.perf_counter()
    done = 0
    while done < 200:
        degree = rng.randint(2, 10)
        gens = {}
        for i in range(rng.randint(1, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens[f"g{i}"] = tuple(images)
        try:
            group = generate_group(degree, gens, cap=10**4)
        except GroupTooLarge:
            continue
        fixed_sum = sum(e[i] == i for e in group.elements for i in range(degree))
        assert fixed_sum == group.order * len(perms.orbits(group))
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"200 groups took {elapsed:.1f} s"
    report_pass(3, f"Burnside identity exact on 200 random groups in {elapsed:.2f} s")


def test_criterion_4_trace_equals_graded_rank(fibonacci, ising, toric_code, toric_swap):
    checked = 0
    symmetries = [  # (MTC, group on its labels)
        (toric_code, toric_swap),
        (fibonacci, build_symmetry(fibonacci, {})),
        (ising, build_symmetry(ising, {})),
        symmetric_power_symmetry(ising, 2),
    ]
    rng = random.Random(99)
    for mtc in (fibonacci, ising, toric_code):
        for _ in range(10):
            images = list(range(mtc.rank))
            rng.shuffle(images)
            group = generate_group(mtc.rank, {"g": tuple(images)})
            symmetries.append((mtc, group))
    for mtc, group in symmetries:
        per_element = rank.rank_report(group).per_element
        for g, graded in zip(group.elements, per_element, strict=True):
            # Z_g has a 1 at (x, g(x)); its trace counts the diagonal ones
            z = {(x, y) for x, y in enumerate(g)}
            assert sum((x, x) in z for x in range(mtc.rank)) == graded
            checked += 1
    report_pass(4, f"trace(Z_g) = graded rank for all {checked} elements")


def test_criterion_5_worked_examples(toric_swap, ising):
    report = rank.rank_report(toric_swap)
    assert sorted(report.per_element) == [2, 4]
    assert report.total_rank == 6
    assert len(report.orbits) == 3

    power, s = symmetric_power_symmetry(ising, 2)
    assert power.rank == 9
    squared = rank.rank_report(s)
    assert squared.total_rank == 12
    assert squared.total_rank == wreath.rank_wreath_cyclic(3, 2) == 3**2 + 3
    report_pass(5, "toric code + Z_2 gives ranks {4, 2}, total 6, orbits 3; "
                   "Ising x Ising + swap gives total 12")


def test_criterion_6_rising_factorial_oracle():
    start = time.perf_counter()
    for n in range(1, 31):
        coeffs = [0, 1]
        for k in range(1, n):
            shifted = [0] + coeffs
            scaled = [k * c for c in coeffs] + [0]
            coeffs = [a + b for a, b in zip(shifted, scaled)]
        assert wreath.rank_polynomial_symmetric(n) == tuple(coeffs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"oracle comparison took {elapsed:.2f} s"
    report_pass(6, f"polynomials equal x(x+1)...(x+n-1) for n <= 30 "
                   f"in {elapsed:.3f} s")


def test_criterion_7_performance():
    start = time.perf_counter()
    total, rows = wreath.rank_wreath_symmetric(10, 10)
    s10_elapsed = time.perf_counter() - start
    assert len(rows) == 42
    assert sum(size for _, _, _, size, _, _ in rows) == math.factorial(10)
    assert total == sum(c * 10**k for k, c in enumerate(wreath.rank_polynomial_symmetric(10)))
    assert s10_elapsed < 1, f"S_10 rank took {s10_elapsed:.2f} s"

    start = time.perf_counter()
    types = wreath.partitions(50)
    sizes = sum(size for size, *_ in types)
    p50_elapsed = time.perf_counter() - start
    assert len(types) == 204226
    assert sizes == math.factorial(50)
    assert p50_elapsed < 5, f"partitions(50) took {p50_elapsed:.2f} s"
    report_pass(7, f"S_10 at rk 10 in {s10_elapsed * 1e3:.1f} ms; "
                   f"partitions(50) with class sizes in {p50_elapsed:.2f} s")


def test_criterion_8_robustness(capsys, ising):
    with pytest.raises(ParseError):
        gcrank.load_mtc(fixture_path("bad_json.json"))
    with pytest.raises(ParseError, match="^unknown label 'x'$"):
        gcrank.load_mtc(fixture_path("unknown_label.json"))
    broken = gcrank.load_mtc(fixture_path("non_associative.json"))
    report = gcrank.validate_mtc(broken)
    assert any(v.rule == "associativity" for v in report.violations)
    mtc, gens = symmetry.load_symmetry(fixture_path("bad_generator.json"))
    with pytest.raises(NotAnAutomorphism):
        build_symmetry(mtc, gens)

    # CLI never crashes on the same inputs, and exit codes are as designated
    for fixture, expected in [
        ("bad_json.json", 2),
        ("unknown_label.json", 2),
        ("non_associative.json", 1),
    ]:
        code = cli_main(["validate", "--mtc", str(fixture_path(fixture))])
        assert code == expected, fixture
    capsys.readouterr()

    swap_path = str(gcrank.bundled_data_path("toric_code_swap.json"))
    outputs = []
    for _ in range(3):
        assert cli_main(["rank", "--sym", swap_path, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])
    with capsys.disabled():
        report_pass(8, "malformed fixtures yield designated errors; JSON output "
                       "byte-identical across runs")


def test_criterion_9_validation_speed(ising):
    power = reference_materialize_power(ising, 4)
    start = time.perf_counter()
    report = gcrank.validate_mtc(power)
    validate_elapsed = time.perf_counter() - start
    assert report.ok, report.violations[:3]
    assert validate_elapsed < 1, f"validate_mtc on Ising^4 took {validate_elapsed:.2f} s"

    start = time.perf_counter()
    power, s = symmetric_power_symmetry(ising, 4)
    symmetry_elapsed = time.perf_counter() - start
    assert power.rank == 81
    assert s.order == 24
    assert symmetry_elapsed < 1, \
        f"symmetric_power_symmetry(Ising, 4) took {symmetry_elapsed:.2f} s"
    report_pass(9, f"validate_mtc on Ising^4 (81 labels) in {validate_elapsed:.3f} s; "
                   f"symmetric_power_symmetry(Ising, 4) in {symmetry_elapsed:.3f} s")


def test_criterion_10_automorphism_speed(fibonacci):
    power = reference_materialize_power(fibonacci, 6)
    generators = {
        name: reference_factor_permutation(fibonacci, 6, p)
        for name, p in wreath.preset_generators("s6", 6).items()
    }
    assert len(power.fusion) == 15625
    start = time.perf_counter()
    s = build_symmetry(power, generators)
    elapsed = time.perf_counter() - start
    assert s.order == 720
    assert elapsed < 3, f"build_symmetry of Fibonacci^6 under S_6 took {elapsed:.2f} s"
    report_pass(10, f"build_symmetry of Fibonacci^6 under S_6 (720 elements, "
                    f"15,625 fusion entries) in {elapsed:.2f} s")


def test_criterion_11_class_speed():
    # A_8: the a8 preset's generators; a ratio of two timings on one host
    gens = wreath.preset_generators("a8", 8)
    closure = classes = math.inf
    for _ in range(3):
        start = time.perf_counter()
        group = generate_group(8, gens)
        closure = min(closure, time.perf_counter() - start)
        start = time.perf_counter()
        part = perms.conjugacy_classes(group)
        classes = min(classes, time.perf_counter() - start)
    assert group.order == 20160
    assert len(part.classes) == 14
    assert classes < closure, (
        f"conjugacy_classes of A_8 took {classes * 1e3:.1f} ms, "
        f"generate_group {closure * 1e3:.1f} ms")
    report_pass(11, f"conjugacy_classes of A_8 (20,160 elements) in "
                    f"{classes * 1e3:.1f} ms, less than generate_group's "
                    f"{closure * 1e3:.1f} ms")
