"""``wreath --json`` is written row by row; its bytes must equal those of
``json.dumps(doc, indent=2, ensure_ascii=False)`` on the document the CLI
built as a list of dicts before, which ``oracle_doc`` keeps as the oracle."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcrank
from gcrank import perms, wreath
from gcrank.cli import main

from conftest import a_of

ISING = str(gcrank.bundled_data_path("ising.json"))
FIB = str(gcrank.bundled_data_path("fibonacci.json"))

ranks = st.one_of(st.just(0), st.just(1), st.integers(0, 2**130))


def cycle_type_text(a):
    """The text of cycle type a by a plain loop over its entries: "1^2 3^1"
    for a = (2, 0, 1), "-" for the empty type."""
    parts = []
    for j, aj in enumerate(a, start=1):
        if aj:
            parts.append(f"{j}^{aj}")
    return " ".join(parts) or "-"


def oracle_doc(total, rows, rk, n, group_spec, order):
    return {
        "rk": str(rk),
        "n": n,
        "group": group_spec,
        "group_order": order,
        "total_rank": str(total),
        "per_class": [
            {
                "cycle_type": list(a_of(entries) if rep is None else wreath.cycle_type_of(rep)),
                "representative": (
                    perms.format_cycles(rep)
                    if rep is not None
                    else cycle_type_text(a_of(entries))
                ),
                "class_size": str(size),
                "num_cycles": num_cycles,
                "contribution": str(contribution),
            }
            for entries, _, rep, size, num_cycles, contribution in rows
        ],
    }


def expected_stdout(rk, n, group):
    spec = group.strip().lower()
    if spec == f"s{n}":
        total, rows = wreath.rank_wreath_symmetric(rk, n)
        order = sum(size for _, _, _, size, _, _ in rows)
    else:
        g = wreath.preset_group(group, n)
        total, rows = wreath.rank_wreath_subgroup(rk, g)
        order = g.order
    doc = oracle_doc(total, rows, rk, n, spec, order)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["wreath", *argv, "--json"])
    assert code == 0
    return out.getvalue()


def assert_writer_matches(rk, n, group):
    got = cli_stdout("--rk", str(rk), "--n", str(n), "--group", group)
    assert got == expected_stdout(rk, n, group)


@given(n=st.integers(1, 12), rk=ranks)
@settings(max_examples=40, deadline=None)
def test_symmetric_rows(n, rk):
    assert_writer_matches(rk, n, f"s{n}")


@pytest.mark.parametrize("n", [23, 28])
def test_symmetric_rows_at_benchmark_degrees(n):
    # rows written from the walk's carried texts, against the oracle document
    assert_writer_matches(3, n, f"s{n}")
    assert_writer_matches(2**64 + 7, n, f"s{n}")


@given(
    kind=st.sampled_from("az"),
    n_and_k=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    rk=ranks,
)
@settings(max_examples=40, deadline=None)
def test_presets(kind, n_and_k, rk):
    n, k = n_and_k
    assert_writer_matches(rk, n, f"{kind}{k}")


generator_specs = st.integers(1, 7).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.permutations(range(d)), max_size=3).map(
            lambda gens: ",".join(perms.format_cycles(tuple(g)) for g in gens)
        ),
    )
)


@given(degree_and_spec=generator_specs, rk=ranks)
@example(degree_and_spec=(3, " (1 2 3),(1 2) "), rk=5)  # spec is stripped
@settings(max_examples=40, deadline=None)
def test_explicit_generators(degree_and_spec, rk):
    degree, spec = degree_and_spec
    assert_writer_matches(rk, degree, spec)


def test_mtc_route():
    # the ranks of the bundled files, given to wreath as --rk
    for path, rk in ((ISING, 3), (FIB, 2)):
        assert gcrank.load_mtc(path).rank == rk
        for n, group in ((4, "s4"), (5, "a5"), (6, "z6"), (4, "(1 2),(3 4)")):
            got = cli_stdout("--rk", str(rk), "--n", str(n), "--group", group)
            assert got == expected_stdout(rk, n, group)
