"""Exact error texts of raise sites that no other test reaches.

Each CLI case pins the exit code, an empty stdout and the whole one-line
stderr; each library case pins the error class and its message.  The texts
were recorded before the CLI parser was cached and before ``mtc_from_doc``
parsed fusion entries in one loop, so a refactor that changes a text, or
which of two faults is reported first, fails here.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import gcrank
from gcrank import errors, perms, rank, wreath
from gcrank.cli import main
from gcrank.mtc import ValidationReport, Violation
from gcrank.perms import generate_group

FIB_PATH = str(gcrank.bundled_data_path("fibonacci.json"))
FIB = json.loads(Path(FIB_PATH).read_text())
TWISTS = FIB["twists"]


def _mtc(**changes):
    return {**FIB, **changes}


# A preset's k of 5,000 digits, past the default int->str digit limit
NINES = "9" * 5000

# name -> (argv before the file path, file document or None, exit code, stderr)
CLI_CASES = {
    "negative-rk": (
        ["wreath", "--rk", "-1", "--n", "3", "--group", "s3"], None, 2,
        "error: --rk must be non-negative\n"),
    "closed-form-not-cyclic": (
        ["wreath", "--rk", "3", "--n", "5", "--group", "s5", "--closed-form"], None, 2,
        "error: --closed-form applies only to --group z<n>\n"),
    "closed-form-degree-zero": (
        ["wreath", "--rk", "3", "--n", "0", "--group", "z0", "--closed-form"], None, 2,
        "error: degree must be >= 1, got 0\n"),
    "closed-form-negative-degree": (
        ["wreath", "--rk", "3", "--n", "-1", "--group", "z-1", "--closed-form"], None, 2,
        "error: degree must be >= 1, got -1\n"),
    # |Z_n| = n is held to --cap as a closed group's order is, before the sum
    "closed-form-past-cap": (
        ["wreath", "--rk", "3", "--n", "12", "--group", "z12", "--closed-form",
         "--cap", "11"], None, 1,
        "error: group order 12 exceeds cap of 11 elements\n"),
    "closed-form-past-default-cap": (
        ["wreath", "--rk", "3", "--n", "1000001", "--group", "z1000001", "--closed-form"],
        None, 1, "error: group order 1000001 exceeds cap of 1000000 elements\n"),
    # explicit groups act on at most DEGREE_CAP points, checked before any is built
    "cycles-degree-past-cap": (
        ["wreath", "--rk", "2", "--n", "1000001", "--group", "(1 2)"], None, 2,
        "error: degree must be <= 1000000, got 1000001\n"),
    "preset-degree-past-cap": (
        ["wreath", "--rk", "2", "--n", "1000000000000", "--group", "z3"], None, 2,
        "error: degree must be <= 1000000, got 1000000000000\n"),
    # A_60 and S_60 on 61 points: orders known without closure, refused at the default cap
    **{f"{kind}60-past-default-cap": (
        ["wreath", "--rk", "2", "--n", "61", "--group", f"{kind}60"], None, 1,
        f"error: group order {order} exceeds cap of 1000000 elements\n")
       for kind, order in (("a", math.factorial(60) // 2), ("s", math.factorial(60)))},
    "preset-negative-degree": (
        ["wreath", "--rk", "3", "--n", "3", "--group", "s-1"], None, 2,
        "error: group 's-1' does not fit degree 3\n"),
    **{f"preset-k-past-digit-limit{fmt}": (
        ["wreath", "--rk", "3", "--n", "3", "--group", f"s{NINES}", *flags], None, 2,
        f"error: group 's{NINES[:39]}...' does not fit degree 3\n")
       for fmt, flags in (("", []), ("-json", ["--json"]))},
    **{f"closed-form-k-past-digit-limit{fmt}": (
        ["wreath", "--rk", "3", "--n", "3", "--group", f"z{NINES}", "--closed-form", *flags],
        None, 2, "error: --closed-form applies only to --group z<n>\n")
       for fmt, flags in (("", []), ("-json", ["--json"]))},
    "top-level-not-object": (
        ["validate", "--mtc"], [FIB], 2,
        "error: top-level value must be an object\n"),
    "labels-not-strings": (
        ["validate", "--mtc"], _mtc(labels=[1, "tau"]), 2,
        'error: "labels" must be an array of strings\n'),
    "twists-unknown-label": (
        ["validate", "--mtc"], _mtc(twists={**TWISTS, "x": [0, 1]}), 2,
        "error: twists reference unknown labels ['x']\n"),
    "twists-missing-label": (
        ["validate", "--mtc"], _mtc(twists={"1": [0, 1]}), 2,
        "error: twists missing for labels ['tau']\n"),
    "duals-not-total": (
        ["validate", "--mtc"], _mtc(duals={"tau": "tau"}), 2,
        "error: duals must map every label\n"),
    "image-list-wrong-length": (
        ["rank", "--sym"], {"mtc": FIB, "generators": {"g": ["tau"]}}, 2,
        "error: generator image list has 1 entries, expected 2\n"),
    "generator-not-string-or-list": (
        ["rank", "--sym"], {"mtc": FIB, "generators": {"g": 5}}, 2,
        "error: generator must be a string or a list, got 5\n"),
    "generator-not-automorphism": (
        ["rank", "--sym"], {"mtc": FIB, "generators": {"g": "(1 tau)"}}, 1,
        "error: generator 'g' is not a fusion-ring automorphism: unit maps to 'tau', "
        "must be fixed (and 8 more; validate --sym lists them)\n"),
    "symmetry-without-mtc": (
        ["rank", "--sym"], {"generators": {}}, 2,
        'error: symmetry file has no "mtc" field and none was supplied\n'),
    # "mtc" is a path or an inline document; any other value is named as
    # the fault, not the file, which is an object
    **{f"symmetry-mtc-{name}": (
        ["rank", "--sym"], {"mtc": ref, "generators": {}}, 2,
        'error: "mtc" must be a path or an MTC object\n')
       for name, ref in {"number": 5, "list": [FIB]}.items()},
    # a NUL byte in a symmetry file's path, read as an MTC path is; validate
    # reads the symmetry file before it prints the MTC's verdict, in text
    # mode as under --json
    **{f"nul-in-sym-path-{name}": (
        [*argv, "--sym", "a\x00b"], None, 2,
        "error: cannot read 'a\\x00b': embedded null byte\n")
       for name, argv in {"rank": ["rank"], "burnside": ["burnside"],
                          "validate": ["validate", "--mtc", FIB_PATH, "--json"],
                          "validate-text": ["validate", "--mtc", FIB_PATH]}.items()},
}


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_error_text(capsys, tmp_path, name):
    argv, doc, code, stderr = CLI_CASES[name]
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr


LIBRARY_CASES = {
    # the group on no points, whose one element would be the empty permutation
    "empty-permutation": (lambda: generate_group(0, {}), errors.UsageError,
                          "degree must be >= 1, got 0"),
    "non-bijective-permutation": (lambda: generate_group(2, {"g": (0, 0)}),
                                  errors.GcrankError, "images (0, 0) are not a bijection"),
    "list-generator": (lambda: generate_group(2, {"g": [1, 0]}),
                       errors.GcrankError, "images [1, 0] are not a tuple of ints"),
    "float-image": (lambda: generate_group(2, {"g": (1.0, 0)}),
                    errors.GcrankError, "images (1.0, 0) are not a tuple of ints"),
}


def test_not_an_automorphism_names_one_violation():
    """The text names the first violation only; the report keeps them all."""
    report = ValidationReport((Violation("unit", (0,), "unit maps to 'e', must be fixed"),))
    exc = errors.NotAnAutomorphism("g", report)
    assert str(exc) == ("generator 'g' is not a fusion-ring automorphism: "
                        "unit maps to 'e', must be fixed")
    assert exc.report is report


@pytest.mark.parametrize("name", list(LIBRARY_CASES))
def test_library_error_text(name):
    call, cls, message = LIBRARY_CASES[name]
    with pytest.raises(errors.GcrankError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: generate_group(0, {}),
    lambda: wreath.preset_generators("z1", 0),
    lambda: wreath.rank_wreath_cyclic(3, 0),
], ids=["generate_group", "preset_generators", "rank_wreath_cyclic"])
def test_degree_zero_is_one_usage_error(call):
    """One text, one class, one exit code at every degree check."""
    with pytest.raises(errors.GcrankError) as info:
        call()
    assert type(info.value) is errors.UsageError
    assert (str(info.value), info.value.exit_code) == ("degree must be >= 1, got 0", 2)


def test_degree_cap_is_the_last_degree_accepted():
    (g,) = wreath.preset_generators("(1 2)", wreath.DEGREE_CAP).values()
    assert len(g) == wreath.DEGREE_CAP
    with pytest.raises(errors.UsageError) as info:
        wreath.preset_generators("(1 2)", wreath.DEGREE_CAP + 1)
    assert str(info.value) == "degree must be <= 1000000, got 1000001"


# An integer literal longer than the interpreter's int->str digit limit
# (4300 digits by default, Python 3.10.7 and later) cannot be decoded.
HUGE = "1" + "0" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int->str digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv, doc", [
    (["validate", "--mtc"], json.dumps(FIB).replace("[2, 5]", f"[{HUGE}, 5]")),
    (["rank", "--sym"], json.dumps({"mtc": FIB, "generators": {"g": [1, 0]}})
     .replace("[1, 0]", f"[{HUGE}, 0]")),
], ids=["validate-mtc", "rank-sym"])
def test_huge_integer_literal_is_a_parse_error(capsys, tmp_path, argv, doc):
    assert HUGE in doc
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


TORIC_SWAP = str(gcrank.bundled_data_path("toric_code_swap.json"))


# generate_group compares its closure's element count with the Schreier-Sims
# order; a stub order of 3 disagrees with the 2 elements of a swap's group
CLOSURE_MISMATCH = "group closure has 2 elements but Schreier-Sims order is 3"


def test_closure_size_disagreeing_with_order(capsys, monkeypatch):
    monkeypatch.setattr(perms, "group_order", lambda degree, generators: 3)
    assert main(["rank", "--sym", TORIC_SWAP]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {CLOSURE_MISMATCH}\n"


def test_library_closure_size_disagreeing_with_order(monkeypatch):
    monkeypatch.setattr(perms, "group_order", lambda degree, generators: 3)
    with pytest.raises(errors.InconsistencyError) as info:
        generate_group(2, {"g": (1, 0)})
    assert str(info.value) == CLOSURE_MISMATCH


def test_burnside_check_failing(capsys, monkeypatch):
    """rank_report compares the fixed-point sum with |G| times the orbit
    count; singleton orbits under the toric code swap give 2 * 4 != 6."""
    monkeypatch.setattr(rank.perms, "orbits",
                        lambda group: [frozenset({x}) for x in range(group.degree)])
    assert main(["rank", "--sym", TORIC_SWAP]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fixed-point sum 6 != |G| * orbit count 8\n"
