import json

import gcrank
from gcrank.cli import main

from conftest import fixture_path

TORIC = str(gcrank.bundled_data_path("toric_code.json"))
TORIC_SWAP = str(gcrank.bundled_data_path("toric_code_swap.json"))
FIB = str(gcrank.bundled_data_path("fibonacci.json"))
ISING = str(gcrank.bundled_data_path("ising.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_bundled_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--mtc", ISING)
        assert code == 0
        assert "ok" in out

    def test_with_symmetry(self, capsys):
        code, out, _ = run(capsys, "validate", "--mtc", TORIC, "--sym", TORIC_SWAP)
        assert code == 0
        assert "swap_em: ok" in out
        assert "order: 2" in out

    def test_non_associative_fails(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--mtc", str(fixture_path("non_associative.json"))
        )
        assert code == 1
        assert "associativity" in out

    def test_bad_json_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "validate", "--mtc", str(fixture_path("bad_json.json"))
        )
        assert code == 2
        assert "error" in err

    def test_unknown_label_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "validate", "--mtc", str(fixture_path("unknown_label.json"))
        )
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--mtc", "/no/such/file.json")
        assert code == 2

    def test_bad_generator_fails_validation(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--mtc", ISING,
            "--sym", str(fixture_path("bad_generator.json")),
        )
        assert code == 1
        assert "unit" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "validate", "--mtc", ISING, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mtc"]["ok"] is True


class TestRank:
    def test_toric_swap_total(self, capsys):
        code, out, _ = run(capsys, "rank", "--sym", TORIC_SWAP)
        assert code == 0
        assert "total rank:  6" in out
        assert "(e m)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "rank", "--sym", TORIC_SWAP, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_rank"] == "6"
        assert doc["orbit_count"] == 3
        assert doc["group_order"] == 2
        assert len(doc["per_element"]) == 2

    def test_by_class(self, capsys):
        code, out, _ = run(capsys, "rank", "--sym", TORIC_SWAP, "--by-class")
        assert code == 0
        assert "representative" in out

    def test_empty_generators(self, capsys, tmp_path):
        sym = tmp_path / "trivial.json"
        sym.write_text(json.dumps({"generators": {}}))
        code, out, _ = run(
            capsys, "rank", "--mtc", ISING, "--sym", str(sym)
        )
        assert code == 0
        assert "total rank:  3" in out

    def test_non_automorphism_generator(self, capsys):
        code, _, err = run(
            capsys, "rank", "--mtc", ISING,
            "--sym", str(fixture_path("bad_generator.json")),
        )
        assert code == 1
        assert "automorphism" in err

    def test_deterministic_json(self, capsys):
        _, first, _ = run(capsys, "rank", "--sym", TORIC_SWAP, "--json")
        _, second, _ = run(capsys, "rank", "--sym", TORIC_SWAP, "--json")
        assert first == second


class TestBurnside:
    def test_orbits_listed(self, capsys):
        code, out, _ = run(capsys, "burnside", "--sym", TORIC_SWAP)
        assert code == 0
        assert "{e, m}" in out
        assert "orbit count: 3" in out

    def test_both_totals_printed_equal(self, capsys):
        code, out, _ = run(capsys, "burnside", "--sym", TORIC_SWAP, "--json")
        doc = json.loads(out)
        assert doc["fixed_point_sum"] == doc["burnside_total"] == "6"

    def test_trivial_group_singleton_orbits(self, capsys, tmp_path):
        sym = tmp_path / "trivial.json"
        sym.write_text(json.dumps({"generators": {}}))
        code, out, _ = run(capsys, "burnside", "--mtc", FIB, "--sym", str(sym))
        assert code == 0
        assert "orbit count: 2" in out


class TestWreath:
    def test_closed_form_z2(self, capsys):
        code, out, _ = run(
            capsys, "wreath", "--rk", "3", "--n", "2", "--group", "z2",
            "--closed-form",
        )
        assert code == 0
        assert "12" in out

    def test_s4_at_rank_three(self, capsys):
        code, out, _ = run(capsys, "wreath", "--rk", "3", "--n", "4", "--group", "s4")
        assert code == 0
        assert "total rank:  360" in out

    def test_rank_from_mtc_file(self, capsys):
        code, out, _ = run(
            capsys, "wreath", "--mtc", FIB, "--n", "3", "--group", "z3",
            "--closed-form",
        )
        assert code == 0
        assert "12" in out

    def test_closed_form_composite_rejected(self, capsys):
        code, _, err = run(
            capsys, "wreath", "--rk", "3", "--n", "4", "--group", "z4",
            "--closed-form",
        )
        assert code == 2
        assert "prime" in err

    def test_rk_and_mtc_both_rejected(self, capsys):
        code, _, _ = run(
            capsys, "wreath", "--rk", "2", "--mtc", FIB, "--n", "2", "--group", "z2"
        )
        assert code == 2

    def test_explicit_generators(self, capsys):
        code, out, _ = run(
            capsys, "wreath", "--rk", "2", "--n", "3", "--group", "(1 2),(1 2 3)",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["total_rank"] == "24"

    def test_cap_error_names_order_and_cap(self, capsys):
        code, out, err = run(
            capsys, "wreath", "--rk", "2", "--n", "9", "--group", "a9", "--cap", "1000"
        )
        assert code == 1
        assert out == ""
        assert "181440" in err and "1000" in err

    def test_symmetric_group_never_materialized(self, capsys):
        # S_12 has ~479M elements; only its 77 cycle types are touched
        code, out, _ = run(
            capsys, "wreath", "--rk", "2", "--n", "12", "--group", "s12", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["per_class"]) == 77
        assert doc["group_order"] == 479001600

    def test_deterministic_json(self, capsys):
        _, first, _ = run(capsys, "wreath", "--rk", "3", "--n", "5", "--group", "s5", "--json")
        _, second, _ = run(capsys, "wreath", "--rk", "3", "--n", "5", "--group", "s5", "--json")
        assert first == second


class TestPoly:
    def test_s3(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "3")
        assert code == 0
        assert out.strip() == "x^3 + 3x^2 + 2x"

    def test_s1(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "1")
        assert code == 0
        assert out.strip() == "x"

    def test_s5(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "5")
        assert out.strip() == "x^5 + 10x^4 + 35x^3 + 50x^2 + 24x"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "99")
        assert code == 2

    def test_json_coefficients(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "4", "--json")
        doc = json.loads(out)
        assert doc["coefficients"] == [[4, "1"], [3, "6"], [2, "11"], [1, "6"]]
