import argparse
import contextlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcrank
from gcrank import cli, errors, perms, symmetry, wreath
from gcrank.cli import main
from gcrank.mtc import ValidationReport, Violation

from conftest import (fixture_path, mtc_json, reference_factor_permutation,
                      reference_materialize_power)

TORIC = str(gcrank.bundled_data_path("toric_code.json"))
TORIC_SWAP = str(gcrank.bundled_data_path("toric_code_swap.json"))
FIB = str(gcrank.bundled_data_path("fibonacci.json"))
ISING = str(gcrank.bundled_data_path("ising.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def int_digit_limit():
    """The interpreter's int->str digit limit; None before Python 3.10.7."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


def exact_text(value: int) -> str:
    """str(value) with the int->str digit limit lifted for this call only."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return str(value)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return str(value)
    finally:
        set_limit(limit)


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

    def test_group_order_without_closure(self, capsys, monkeypatch):
        def no_closure(*args, **kwargs):
            raise AssertionError("validate closed the group")

        monkeypatch.setattr(gcrank.perms, "generate_group", no_closure)
        code, out, _ = run(
            capsys, "validate", "--mtc", TORIC, "--sym", TORIC_SWAP, "--json"
        )
        assert code == 0
        assert json.loads(out)["group_order"] == 2

    def test_cap_is_not_an_option(self, capsys):
        """validate builds no group, so it takes no cap."""
        with pytest.raises(SystemExit) as exc_info:
            main(["validate", "--mtc", TORIC, "--sym", TORIC_SWAP, "--cap", "1"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err

    def test_order_above_default_cap_is_printed(self, capsys, tmp_path):
        """Z_2^5 with trivial twists under GL(5, 2), order 9,999,360: validate
        prints the order, rank refuses it at the default cap of 10^6."""
        labels = [format(v, "05b") for v in range(32)]
        mtc = {"name": "z2^5", "labels": labels, "unit": labels[0],
               "fusion": [[labels[a], labels[b], labels[a ^ b], 1]
                          for a in range(32) for b in range(32)],
               "twists": {label: [0, 1] for label in labels}}
        gens = {"rotate": [labels[(v << 1 | v >> 4) & 31] for v in range(32)],
                "transvect": [labels[v ^ (v >> 1 & 1)] for v in range(32)]}
        mtc_path, sym_path = tmp_path / "z2_5.json", tmp_path / "gl52.json"
        mtc_path.write_text(json.dumps(mtc))
        sym_path.write_text(json.dumps({"mtc": mtc, "generators": gens}))
        code, out, _ = run(capsys, "validate", "--mtc", str(mtc_path), "--sym", str(sym_path))
        assert code == 0
        assert out.endswith("symmetry group order: 9999360\n")
        code, _, err = run(capsys, "rank", "--sym", str(sym_path))
        assert (code, err) == (1, "error: group order 9999360 exceeds cap of 1000000 elements\n")


# quotes, backslashes, control characters and non-ASCII, and any other text
texts = st.text(alphabet='"\\\x00\x1f\x7f\n\té€😀\u2028a') | st.text()
indices = st.lists(st.integers(0, 10**6), min_size=1).map(tuple)
reports = st.lists(st.builds(Violation, texts, indices, texts),
                   max_size=3).map(lambda vs: ValidationReport(tuple(vs)))


def report_doc(report) -> dict:
    return {"ok": report.ok, "violations": [v._asdict() for v in report.violations]}


@given(name=texts, report=reports,
       gen_reports=st.none() | st.dictionaries(texts, reports, max_size=3),
       order=st.none() | st.integers(1, 10**30))
@example(name="", report=ValidationReport(), gen_reports={}, order=None)
@settings(max_examples=200, deadline=None)
def test_validate_json_text_equals_json_dumps(name, report, gen_reports, order):
    """``validate --json`` writes the bytes ``json.dumps(indent=2,
    ensure_ascii=False)`` writes for its document, with and without --sym
    (``gen_reports`` None) and the group order."""
    doc = {"mtc": {"name": name, **report_doc(report)}}
    if gen_reports is not None:
        doc["generators"] = {g: report_doc(r) for g, r in gen_reports.items()}
    if order is not None:
        doc["group_order"] = order
    with contextlib.redirect_stdout(StringIO()) as out:
        cli._write_validate_json(name, report, gen_reports, order)
    assert out.getvalue() == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class TestRank:
    def test_cap_error_names_order_and_cap(self, capsys):
        code, _, err = run(capsys, "rank", "--sym", TORIC_SWAP, "--cap", "1")
        assert code == 1
        assert "group order 2 exceeds cap of 1 elements" in err

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

    def test_groups_above_50_elements_print_classes(self, capsys, tmp_path):
        # Fibonacci^5 under S_5: 120 elements, so one row per conjugacy class
        fib = gcrank.load_mtc(FIB)
        power = reference_materialize_power(fib, 5)
        (tmp_path / "fib5.json").write_text(mtc_json(power))
        generators = {
            name: [power.labels[i] for i in reference_factor_permutation(fib, 5, p)]
            for name, p in wreath.preset_generators("s5", 5).items()
        }
        sym = tmp_path / "fib5_s5.json"
        sym.write_text(json.dumps({"mtc": "fib5.json", "generators": generators}))
        code, out, _ = run(capsys, "rank", "--sym", str(sym))
        mtc, generators = symmetry.load_symmetry(sym)
        group = symmetry.build_symmetry(mtc, generators)
        assert code == 0 and group.order == 120
        expected = []
        for cls in perms.conjugacy_classes(group).classes:
            rep = group.elements[cls[0]]
            fixed = sum(1 for x, y in enumerate(rep) if x == y)  # the graded rank
            expected.append([perms.format_cycles(rep, mtc.labels), str(len(cls)), str(fixed)])
        lines = out.splitlines()
        assert lines[0].split() == ["representative", "class", "size", "rank"]
        assert [re.split(r" {2,}", line.rstrip()) for line in lines[1:-3]] == expected
        assert len(expected) == 7  # the partitions of 5


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

    @pytest.mark.parametrize("command, calls", [("burnside", 0), ("rank", 1)])
    def test_classes_built_only_when_printed(self, capsys, monkeypatch, command, calls):
        seen = []
        classes = perms.conjugacy_classes

        def spy(group):
            seen.append(group.order)
            return classes(group)

        monkeypatch.setattr(perms, "conjugacy_classes", spy)
        code, _, _ = run(capsys, command, "--sym", TORIC_SWAP)
        assert code == 0
        assert len(seen) == calls

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

    def test_closed_form_composite(self, capsys):
        # necklace sum 3^4 + 3^1 + 3^2 + 3^1, as the Z_4 closure gives
        code, out, _ = run(
            capsys, "wreath", "--rk", "3", "--n", "4", "--group", "z4",
            "--closed-form",
        )
        assert code == 0
        assert out == "rank of C wr Z_4 at rk(C) = 3: 96\n"
        code, out, _ = run(capsys, "wreath", "--rk", "3", "--n", "4", "--group", "z4")
        assert "total rank:  96\n" in out

    def test_closed_form_degree_one(self, capsys):
        code, out, _ = run(
            capsys, "wreath", "--rk", "7", "--n", "1", "--group", "z1",
            "--closed-form",
        )
        assert code == 0
        assert out == "rank of C wr Z_1 at rk(C) = 7: 7\n"

    def test_closed_form_at_the_cap(self, capsys):
        argv = ("wreath", "--rk", "3", "--n", "12", "--group", "z12", "--closed-form")
        at_cap = run(capsys, *argv, "--cap", "12")  # |Z_12| = 12 is within the cap
        assert at_cap == run(capsys, *argv) == (
            0, "rank of C wr Z_12 at rk(C) = 3: 532416\n", "")

    def test_totals_print_past_the_int_digit_limit(self, capsys):
        # 3^9013 has 4,301 digits, one past the default int->str limit
        limit = int_digit_limit()
        code, out, _ = run(
            capsys, "wreath", "--rk", "3", "--n", "9013", "--group", "z9013",
            "--closed-form",
        )
        assert (code, int_digit_limit()) == (0, limit)  # the limit is restored
        total = 3**9013 + 9012 * 3  # 9013 is prime
        assert out == f"rank of C wr Z_9013 at rk(C) = 3: {exact_text(total)}\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_wreath_rows_print_past_the_int_digit_limit(self, capsys, as_json):
        # (10^400)^12 has 4,801 digits
        limit = int_digit_limit()
        code, out, _ = run(
            capsys, "wreath", "--rk", str(10**400), "--n", "12", "--group", "s12",
            *(["--json"] if as_json else []),
        )
        assert (code, int_digit_limit()) == (0, limit)
        coeffs = gcrank.rank_polynomial_symmetric(12)
        total = exact_text(sum(c * 10**(400 * k) for k, c in enumerate(coeffs)))
        if as_json:
            assert json.loads(out)["total_rank"] == total
        else:
            assert out.endswith(f"\ntotal rank:  {total}\n")

    def test_rk_and_mtc_both_rejected(self, capsys):
        # wreath takes its base rank from --rk alone: --mtc is not an option
        # of wreath, and --rk is required
        for argv, option in ((["--rk", "2", "--mtc", FIB], "--mtc"), ([], "--rk")):
            with pytest.raises(SystemExit) as exc_info:
                main(["wreath", *argv, "--n", "2", "--group", "z2"])
            assert exc_info.value.code == 2
            out, err = capsys.readouterr()
            assert option in err
            assert out == ""

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

    def test_symmetric_order_checked_against_factorial(self, capsys, monkeypatch):
        partitions = cli.wreath.partitions

        def without_identity(n, *args):
            return partitions(n, *args)[1:]

        monkeypatch.setattr(cli.wreath, "partitions", without_identity)
        code, out, err = run(capsys, "wreath", "--rk", "2", "--n", "4", "--group", "s4")
        assert code == 1
        assert out == ""
        assert "class sizes of S_4 sum to 23, not 4!" in err

    def test_symmetric_order_checked_before_json_is_written(self, capsys, monkeypatch):
        partitions = cli.wreath.partitions

        def without_identity(n, *args):
            return partitions(n, *args)[1:]

        monkeypatch.setattr(cli.wreath, "partitions", without_identity)
        code, out, err = run(capsys, "wreath", "--rk", "2", "--n", "4", "--group", "s4",
                             "--json")
        assert code == 1
        assert out == ""
        assert "class sizes of S_4 sum to 23, not 4!" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_symmetric_rows_held_stay_small(self, mode):
        # every one of the p(35) = 14,883 rows is held until the last is
        # written; the Python heap peaked at 769 (text) and 759 (--json)
        # bytes a row on CPython 3.11.  Text mode never reads entries, so
        # holding them as the --json array body (10 characters an a_j, not 2)
        # would take it past 1,000
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            tracemalloc.start()
            try:
                assert main(["wreath", "--rk", "2", "--n", "35", "--group", "s35", *mode]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / 14883 < 850

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("group", [",", "()", "z1", "a3"])
    def test_degree_below_one_is_usage_error(self, capsys, group, n):
        code, out, err = run(capsys, "wreath", "--rk", "2", "--n", n, "--group", group)
        assert (code, out, err) == (2, "", f"error: degree must be >= 1, got {n}\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_symmetric_degree_below_one_keeps_range_text(self, capsys, n):
        code, out, err = run(capsys, "wreath", "--rk", "2", "--n", n, "--group", f"s{n}")
        assert (code, out, err) == (2, "", f"error: n must be in 1..60, got {n}\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_zero_padded_symmetric_spec_is_s_n(self, capsys, fmt):
        # "s03" names S_3 as "s3" does, so it takes the same route and prints
        # the same rows; only the echoed "group" differs
        outs = [run(capsys, "wreath", "--rk", "3", "--n", "3", "--group", g, *fmt)
                for g in ("s3", "s03")]
        assert [code for code, _, _ in outs] == [0, 0]
        plain, padded = (out for _, out, _ in outs)
        assert "(1 2)" not in plain
        assert padded == plain.replace('"group": "s3"', '"group": "s03"')

    def test_zero_padded_cyclic_spec_takes_closed_form(self, capsys):
        outs = [run(capsys, "wreath", "--rk", "3", "--n", "3", "--group", g,
                    "--closed-form", "--json") for g in ("z3", "z03")]
        assert [code for code, _, _ in outs] == [0, 0]
        plain, padded = (json.loads(out) for _, out, _ in outs)
        assert padded["total_rank"] == plain["total_rank"] == "33"

    def test_deterministic_json(self, capsys):
        _, first, _ = run(capsys, "wreath", "--rk", "3", "--n", "5", "--group", "s5", "--json")
        _, second, _ = run(capsys, "wreath", "--rk", "3", "--n", "5", "--group", "s5", "--json")
        assert first == second


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["wreath", "--rk", "2", "--n", "3", "--group", "z3"],
    ["rank", "--sym", TORIC_SWAP],
])
def test_cap_below_one_is_usage_error(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--cap", cap])
    assert exc_info.value.code == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("subcommand", ["rank", "burnside"])
def test_missing_sym_is_usage_error(capsys, subcommand, json_flag):
    with pytest.raises(SystemExit) as exc_info:
        main([subcommand] + json_flag)
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert "--sym" in err
    assert out == ""


# The documented exit code of every error class: 2 for usage and parse
# errors, 1 for domain failures.
EXIT_CODES = {
    "GcrankError": 1, "UsageError": 2, "ParseError": 2,
    "GroupTooLarge": 1, "NotAnAutomorphism": 1, "InconsistencyError": 1,
}
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.GcrankError)
]


def test_every_error_class_has_a_documented_exit_code():
    assert sorted(c.__name__ for c in ERROR_CLASSES) == sorted(EXIT_CODES)


@pytest.mark.parametrize("cls", ERROR_CLASSES + [OSError], ids=lambda c: c.__name__)
def test_main_exits_with_the_error_class_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls.__new__(cls)

    monkeypatch.setattr(cli, "cmd_poly", fail)
    assert main(["poly", "--n", "3"]) == EXIT_CODES.get(cls.__name__, 2)
    assert capsys.readouterr().err.startswith("error:")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """The argparse tree is built at most once per process, not per call."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["poly", "--n", "3"]) == 0
    first = len(built)
    assert main(["poly", "--n", "4"]) == 0
    assert len(built) == first
    assert built.count("gcrank") <= 1


def test_import_loads_no_numpy():
    """Starting the CLI loads no numpy, and none of the standard modules that
    no command runs: ``dataclasses`` (with ``inspect``), ``fractions`` (with
    ``decimal`` and ``numbers``), ``typing``, ``importlib.resources``,
    ``pathlib`` (with ``fnmatch``, ``ntpath``, ``urllib.parse`` and
    ``ipaddress``) and ``contextlib``.  ``-S`` keeps the host's ``site`` from
    loading any of them first."""
    src = Path(gcrank.__file__).resolve().parents[1]
    unused = ("numpy", "dataclasses", "inspect", "fractions", "decimal", "numbers",
              "typing", "importlib.resources", "pathlib", "fnmatch", "ntpath",
              "urllib.parse", "ipaddress", "contextlib")
    subprocess.run(
        [sys.executable, "-S", "-c",
         f"import gcrank.cli, sys; loaded = [m for m in {unused!r} if m in sys.modules]; "
         "assert not loaded, loaded"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=60,
    )


DATA = Path(__file__).resolve().parents[1] / "src" / "gcrank" / "data"


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_bundled_data_path_names_the_file(name):
    """A ``Path`` to the file in the package directory, the one that
    ``importlib.resources`` finds."""
    from importlib import resources

    path = gcrank.bundled_data_path(name)
    assert isinstance(path, Path)
    assert path.is_file() and path.read_bytes() == (DATA / name).read_bytes()
    assert path == Path(gcrank.__file__).parent / "data" / name
    assert path == Path(str(resources.files("gcrank").joinpath("data", name)))


def test_bundled_data_path_loads_no_importlib_resources():
    src = Path(gcrank.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-S", "-c",
         "import gcrank, sys; assert gcrank.bundled_data_path('ising.json').is_file(); "
         "assert 'importlib.resources' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=60,
    )


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

    def test_out_of_range_message(self, capsys):
        code, out, err = run(capsys, "poly", "--n", "61")
        assert (code, out, err) == (2, "", "error: n must be in 1..60, got 61\n")

    def test_json_coefficients(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "4", "--json")
        doc = json.loads(out)
        assert doc["coefficients"] == [[4, "1"], [3, "6"], [2, "11"], [1, "6"]]


FIB_DOC = json.loads(Path(FIB).read_text())


def _mtc_bytes(**changes) -> bytes:
    return json.dumps({**FIB_DOC, **changes}).encode()


def _sym_bytes(generators, mtc=FIB_DOC) -> bytes:
    return json.dumps({"mtc": mtc, "generators": generators}).encode()


# each document is loaded by "validate --mtc" (mtc) or "rank --sym" (sym)
MALFORMED = {
    "fusion-not-array": ("mtc", _mtc_bytes(fusion=5)),
    "twists-not-object": ("mtc", _mtc_bytes(twists=[[0, 1], [2, 5]])),
    "unit-not-label": ("mtc", _mtc_bytes(unit=["1"])),
    "bool-multiplicity": (
        "mtc", _mtc_bytes(fusion=[["1", "1", "1", True]] + FIB_DOC["fusion"][1:])),
    "bool-twist": ("mtc", _mtc_bytes(twists={"1": [0, 1], "tau": [True, 5]})),
    "mtc-not-utf8": ("mtc", b'{"name": "\xff"}'),
    "generators-not-object": ("sym", _sym_bytes(["(1 tau)"])),
    "image-list-repeats-label": ("sym", _sym_bytes({"g": ["tau", "tau"]})),
    "inline-mtc-fusion-not-array": ("sym", _sym_bytes({}, {**FIB_DOC, "fusion": 5})),
    "sym-not-utf8": ("sym", b'{"generators": "\xff"}'),
    "mtc-nested-too-deeply": ("mtc", b"[" * 200_000),
    "generators-nested-too-deeply": ("sym", b'{"generators": ' + b"[" * 200_000 + b"}"),
    "mtc-path-with-nul": ("sym", _sym_bytes({}, "a\u0000b.json")),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_document_is_parse_error(capsys, tmp_path, name):
    kind, content = MALFORMED[name]
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = ("validate", "--mtc") if kind == "mtc" else ("rank", "--sym")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
