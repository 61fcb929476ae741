"""Golden corpus: exit code and exact stdout of fixed CLI runs.

The files under ``tests/golden/`` pin the CLI output byte for byte across
refactors.  The group-engine cases were recorded before the generator-based
engine replaced brute-force closure and conjugation; the ``poly`` and
``s<n>`` cases before cycle types were generated in output order and the
S_n polynomial was taken from the Stirling recurrence.  The rk = 0 and
129-bit rk cases, and the sha256 digest of the 3.2 MB n = 28 output, were
recorded before ``wreath --json`` was written row by row instead of through
``json.dumps(indent=2)``.  The ``validate`` cases were recorded before the
associativity and automorphism checks compared packed product vectors
instead of looping over every triple.  The Z_4 cases were recorded before the
CLI parser was cached and ``mtc_from_doc`` parsed fusion entries in one loop;
Z_4 is not self-dual, so they fire the dual rules the other files cannot.
Its unit is "0", and ``validate_z4_bad_duals`` was recorded again when the
unit-law and duality messages began to write the unit's label where they
wrote a literal 1, and again when ``validate`` began to check that dual
labels have equal twists.  The ``rank`` and ``burnside`` text cases were recorded
before the rank report lost its symmetry, class and JSON views and the CLI
took over rendering ``rank``.  The ``validate --sym`` text cases were
recorded before ``validate`` read the symmetry file ahead of printing the
MTC's verdict.  To record the files again after an intended
output change, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root and review the diff; it prints the digests to pin.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import gcrank
from gcrank.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
ISING = str(gcrank.bundled_data_path("ising.json"))
TORIC = str(gcrank.bundled_data_path("toric_code.json"))
TORIC_SWAP = str(gcrank.bundled_data_path("toric_code_swap.json"))
# Ising^2 with N_{sigma*sigma, sigma*sigma}^{psi*psi} doubled: 36 associativity
# violations
ISING2_DOUBLED = str(FIXTURES / "ising2_doubled.json")
D12 = "(1 2 3 4 5 6 7 8 9 10 11 12),(2 12)(3 11)(4 10)(5 9)(6 8)"
# one more than 2^128, so the ranks need more than 128 bits
RK_129_BIT = str(2**128 + 1)
# A_5 on points 1-5 times S_3 on points 6-8, with point 9 fixed
A5_X_S3 = "(1 2 3),(1 2 3 4 5),(6 7),(6 7 8)"

CASES = {
    "wreath_a7_n9": ["wreath", "--rk", "3", "--n", "9", "--group", "a7", "--json"],
    "wreath_s6_n8": ["wreath", "--rk", "2", "--n", "8", "--group", "s6", "--json"],
    "wreath_d12": ["wreath", "--rk", "5", "--n", "12", "--group", D12, "--json"],
    "wreath_a5_x_s3": ["wreath", "--rk", "4", "--n", "9", "--group", A5_X_S3, "--json"],
    "rank_toric_swap": ["rank", "--sym", TORIC_SWAP, "--json"],
    "rank_toric_swap_by_class": ["rank", "--sym", TORIC_SWAP, "--by-class"],
    "burnside_toric_swap": ["burnside", "--sym", TORIC_SWAP, "--json"],
    "rank_toric_swap_text": ["rank", "--sym", TORIC_SWAP],
    "burnside_toric_swap_text": ["burnside", "--sym", TORIC_SWAP],
    "poly_n30": ["poly", "--n", "30", "--json"],
    "poly_n7_text": ["poly", "--n", "7"],
    "poly_n61_out_of_range": ["poly", "--n", "61"],
    "wreath_s12_n12": ["wreath", "--rk", "3", "--n", "12", "--group", "s12", "--json"],
    "wreath_s7_n7_text": ["wreath", "--rk", "2", "--n", "7", "--group", "s7"],
    "wreath_z7_closed_form": [
        "wreath", "--rk", "3", "--n", "7", "--group", "z7", "--closed-form", "--json"
    ],
    "wreath_s5_rk0": ["wreath", "--rk", "0", "--n", "5", "--group", "s5", "--json"],
    "wreath_s9_rk129bit": [
        "wreath", "--rk", RK_129_BIT, "--n", "9", "--group", "s9", "--json"
    ],
    "validate_non_associative": [
        "validate", "--mtc", str(FIXTURES / "non_associative.json"), "--json"
    ],
    "validate_ising2_doubled": ["validate", "--mtc", ISING2_DOUBLED, "--json"],
    "validate_ising2_doubled_text": ["validate", "--mtc", ISING2_DOUBLED],
    # one generator passes, one breaks only fusion coefficients
    "validate_ising2_generators": [
        "validate", "--mtc", ISING2_DOUBLED,
        "--sym", str(FIXTURES / "ising2_generators.json"), "--json",
    ],
    # "(1 psi)" moves the unit and breaks twists and fusion
    "validate_ising_bad_generator": [
        "validate", "--mtc", ISING, "--sym", str(FIXTURES / "bad_generator.json"),
        "--json",
    ],
    # "(1 3)" inverts and passes; "(1 2)" breaks duals, twists and fusion
    "validate_z4_generators": [
        "validate", "--mtc", str(FIXTURES / "z4.json"),
        "--sym", str(FIXTURES / "z4_generators.json"), "--json",
    ],
    "validate_z4_generators_text": [
        "validate", "--mtc", str(FIXTURES / "z4.json"),
        "--sym", str(FIXTURES / "z4_generators.json"),
    ],
    "validate_toric_swap_text": ["validate", "--mtc", TORIC, "--sym", TORIC_SWAP],
    # duals form a 4-cycle: not an involution, and the unit is not self-dual
    "validate_z4_bad_duals": [
        "validate", "--mtc", str(FIXTURES / "z4_bad_duals.json"), "--json"
    ],
    # Z_4 with theta_1 = 1/8 but theta_3 = 3/8, although 3 is the dual of 1
    "validate_z4_bad_dual_twists": [
        "validate", "--mtc", str(FIXTURES / "z4_bad_dual_twists.json"), "--json"
    ],
}

# outputs too large to check in: exit code 0 and the sha256 of stdout
DIGEST_CASES = {
    "wreath_s28_rk129bit": (
        ["wreath", "--rk", RK_129_BIT, "--n", "28", "--group", "s28", "--json"],
        "edb64ba7683ece2c1949874715d01ae9fc489cd28be8495aea3818c36cefae81",
    ),
}


def run_case(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, stdout = run_case(CASES[name])
    assert code == expected_codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_golden_digest(name):
    argv, digest = DIGEST_CASES[name]
    code, stdout = run_case(argv)
    assert code == 0
    assert hashlib.sha256(stdout).hexdigest() == digest


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], stdout = run_case(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    for name, (argv, _) in sorted(DIGEST_CASES.items()):
        _, stdout = run_case(argv)
        print(name, hashlib.sha256(stdout).hexdigest())
