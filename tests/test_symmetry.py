import itertools
import json

import pytest

import gcrank
from gcrank import wreath
from gcrank.errors import DegreeMismatch, NotAnAutomorphism, ParseError
from gcrank.perms import Permutation, compose, format_cycles, identity
from gcrank.symmetry import (
    build_symmetry,
    load_symmetry,
    parse_generator,
    validate_automorphism,
)

from conftest import fixture_path


class TestValidateAutomorphism:
    def test_toric_swap_passes(self, toric_code):
        swap = parse_generator(toric_code, "(e m)")
        report = validate_automorphism(toric_code, swap)
        assert report.ok, report.violations

    def test_exhaustive_fusion_check(self, toric_code):
        # the swap preserves every one of the 64 fusion triples
        swap = parse_generator(toric_code, "(e m)")
        g = swap.images
        for x, y, z in itertools.product(range(4), repeat=3):
            assert toric_code.n(g[x], g[y], g[z]) == toric_code.n(x, y, z)

    def test_ising_unit_swap_fails(self, ising):
        p = parse_generator(ising, "(1 psi)")
        report = validate_automorphism(ising, p)
        assert {v.rule for v in report.violations} >= {"unit"}

    def test_fibonacci_swap_fails_on_unit_and_twist(self, fibonacci):
        p = parse_generator(fibonacci, "(1 tau)")
        rules = {v.rule for v in validate_automorphism(fibonacci, p).violations}
        assert "unit" in rules
        assert "twist" in rules

    def test_twist_violation_detected(self, toric_code):
        p = parse_generator(toric_code, "(e f)")  # twists 0 vs 1/2
        rules = {v.rule for v in validate_automorphism(toric_code, p).violations}
        assert "twist" in rules

    def test_identity_always_passes(self, fibonacci, ising, toric_code):
        for m in (fibonacci, ising, toric_code):
            assert validate_automorphism(m, identity(m.rank)).ok

    def test_degree_mismatch(self, ising):
        with pytest.raises(DegreeMismatch):
            validate_automorphism(ising, identity(5))


class TestBuildSymmetry:
    def test_toric_swap_group_order_two(self, toric_swap):
        assert toric_swap.group.order == 2

    def test_empty_generators_trivial_group(self, ising):
        s = build_symmetry(ising, {})
        assert s.group.order == 1

    def test_fibonacci_has_no_nontrivial_symmetry(self, fibonacci):
        passing = [
            Permutation(im)
            for im in itertools.permutations(range(2))
            if validate_automorphism(fibonacci, Permutation(im)).ok
        ]
        assert passing == [identity(2)]

    def test_bad_generator_rejected(self, ising):
        with pytest.raises(NotAnAutomorphism):
            build_symmetry(ising, {"bad": parse_generator(ising, "(1 psi)")})

    def test_validation_closed_under_composition(self, toric_swap):
        m = toric_swap.mtc
        for p, q in itertools.product(toric_swap.group.elements, repeat=2):
            assert validate_automorphism(m, compose(p, q)).ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_factor_permutations_all_pass_on_product(self, ising, fibonacci, n):
        base = fibonacci if n == 3 else ising
        power = wreath.materialize_power(base, n)
        for im in itertools.permutations(range(n)):
            lifted = wreath.factor_permutation(base, n, Permutation(im))
            report = validate_automorphism(power, lifted)
            assert report.ok, report.violations


class TestSymmetryFiles:
    def test_bundled_swap_file(self, toric_code):
        mtc, gens = load_symmetry(gcrank.bundled_data_path("toric_code_swap.json"))
        assert mtc.labels == toric_code.labels
        assert list(gens) == ["swap_em"]
        assert gens["swap_em"] == parse_generator(toric_code, "(e m)")

    def test_generator_as_image_list(self, toric_code):
        p = parse_generator(toric_code, ["1", "m", "e", "f"])
        assert p == parse_generator(toric_code, "(e m)")

    def test_generator_unknown_label(self, toric_code):
        with pytest.raises(ParseError):
            parse_generator(toric_code, "(e q)")

    def test_generator_repeated_label(self, toric_code):
        with pytest.raises(ParseError):
            parse_generator(toric_code, "(e m)(m f)")

    def test_inline_mtc(self, tmp_path, toric_code):
        inline = json.loads(gcrank.bundled_data_path("toric_code.json").read_text())
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps({"mtc": inline, "generators": {"s": "(e m)"}}))
        mtc, gens = load_symmetry(sym)
        assert mtc.labels == toric_code.labels

    def test_bad_generator_fixture(self):
        mtc, gens = load_symmetry(fixture_path("bad_generator.json"))
        with pytest.raises(NotAnAutomorphism):
            build_symmetry(mtc, gens)

    def test_label_cycles_rendering(self, toric_swap):
        labels = toric_swap.mtc.labels
        strs = {format_cycles(e, labels) for e in toric_swap.group.elements}
        assert strs == {"()", "(e m)"}
