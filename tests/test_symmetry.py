import contextlib
import io
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcrank
from gcrank import cli, mtc, perms, symmetry, wreath
from gcrank.errors import NotAnAutomorphism, ParseError, UsageError
from gcrank.mtc import ModularData, Violation
from gcrank.perms import format_cycles
from gcrank.symmetry import (
    build_symmetry,
    load_symmetry,
    parse_generator,
    validate_automorphism,
)

from conftest import (
    compose,
    fixture_path,
    identity,
    mtc_json,
    reference_factor_permutation,
    reference_materialize_power,
    symmetric_power_symmetry,
)


def reference_automorphism(m, g):
    """The violations of ``validate_automorphism`` by the loop it used before
    the whole-map test: every support triple and its preimage, in order."""
    lab = m.labels
    violations = []
    if g[m.unit] != m.unit:
        violations.append(Violation(
            "unit", (m.unit,), f"unit maps to {lab[g[m.unit]]!r}, must be fixed"))
    for x in range(m.rank):
        if g[m.dual[x]] != m.dual[g[x]]:
            violations.append(Violation(
                "dual", (x,),
                f"dual of {lab[x]!r}: image of dual is {lab[g[m.dual[x]]]!r} "
                f"but dual of image is {lab[m.dual[g[x]]]!r}",
            ))
        if m.twists[g[x]] != m.twists[x]:
            violations.append(Violation(
                "twist", (x,),
                f"twist({lab[x]!r}) = {Fraction(m.twists[x], m.twist_denominator)} but "
                f"twist({lab[g[x]]!r}) = {Fraction(m.twists[g[x]], m.twist_denominator)}",
            ))
    ginv = perms.inverse(g)
    N = m.fusion.get
    seen = set()
    for (x, y, z) in m.fusion:
        for (a, b, c) in ((x, y, z), (ginv[x], ginv[y], ginv[z])):
            if (a, b, c) in seen:
                continue
            seen.add((a, b, c))
            if N((g[a], g[b], g[c]), 0) != N((a, b, c), 0):
                violations.append(Violation(
                    "fusion", (a, b, c),
                    f"N_{{{lab[a]},{lab[b]}}}^{lab[c]} = {N((a, b, c), 0)} but "
                    f"N_{{{lab[g[a]]},{lab[g[b]]}}}^{lab[g[c]]} = {N((g[a], g[b], g[c]), 0)}",
                ))
    return violations


def _power_automorphisms(name, n, first_factor=None):
    """C^n and the group generated by the factor permutations and, if given,
    an automorphism of C (cycle notation) acting on the first factor."""
    base = gcrank.load_mtc(gcrank.bundled_data_path(f"{name}.json"))
    power = reference_materialize_power(base, n)
    gens = {
        k: reference_factor_permutation(base, n, p)
        for k, p in wreath.preset_generators(f"s{n}", n).items()
    }
    if first_factor:
        moved = parse_generator(base, first_factor)
        tuples = list(itertools.product(range(base.rank), repeat=n))
        index = {t: i for i, t in enumerate(tuples)}
        gens["first"] = tuple(index[(moved[t[0]],) + t[1:]] for t in tuples)
    return power, perms.generate_group(power.rank, gens).elements


def _doubled(m, automorphisms, entry):
    """m with the fusion entry at the given labels doubled: the automorphisms
    of m that move it keep the support of N but not its values."""
    key = tuple(map(m.labels.index, entry))
    doubled = m._replace(fusion={**m.fusion, key: 2 * m.fusion[key]})
    return doubled, automorphisms


# ising^3 under S_3, and toric_code^2 under S_2 and the e-m swap on each factor
AUTOMORPHISM_CASES = [
    _power_automorphisms("ising", 3),
    _power_automorphisms("toric_code", 2, "(e m)"),
]
DOUBLED_TORIC = _doubled(*AUTOMORPHISM_CASES[1], ("e*1", "e*1", "1*1"))


# Fibonacci^4 under S_4, and toric code^2 with one entry raised to 10^6
FIBONACCI_4 = _power_automorphisms("fibonacci", 4)
MILLION_TORIC = (
    AUTOMORPHISM_CASES[1][0]._replace(
        fusion={**AUTOMORPHISM_CASES[1][0].fusion, (0, 0, 0): 10**6}),
    AUTOMORPHISM_CASES[1][1],
)


def _unit_moved(m, automorphisms):
    """m with its last automorphism changed to exchange the unit's image and
    label 1's: the unit moves and many fusion entries disagree."""
    images = list(automorphisms[-1])
    images[m.unit], images[1] = images[1], images[m.unit]
    return m, tuple(images)


# failing generators whose fusion violations the file-order walk lists
FALLBACK_CASES = {
    "fibonacci^3 unit moved": _unit_moved(*_power_automorphisms("fibonacci", 3)),
    "ising^3 unit moved": _unit_moved(*AUTOMORPHISM_CASES[0]),
}
# the same generators on files that list their fusion entries in reverse:
# violations follow the file's order, not the labels'
FALLBACK_CASES |= {
    f"{name}, fusion reversed":
        (m._replace(fusion=dict(reversed(m.fusion.items()))), p)
    for name, (m, p) in FALLBACK_CASES.items()
} | {
    f"ising2_doubled {name}": (m, p)
    for m, generators in [load_symmetry(fixture_path("ising2_generators.json"))]
    for name, p in generators.items()
}


@st.composite
def shuffled_entries(draw):
    """A ring of FALLBACK_CASES, or toric code^2 with one entry doubled, its
    fusion entries in a drawn order, with a generator of the same case."""
    m, p = draw(st.sampled_from(
        list(FALLBACK_CASES.values()) + [_unit_moved(*DOUBLED_TORIC)]
        + [(DOUBLED_TORIC[0], q) for q in DOUBLED_TORIC[1]]))
    entries = list(m.fusion.items())
    draw(st.randoms(use_true_random=False)).shuffle(entries)
    return m._replace(fusion=dict(entries)), p


@st.composite
def broken_generators(draw):
    """An automorphism of Ising^3, Fibonacci^4 or toric code^2 (one entry at
    10^6 or not) whose images of the unit, or of two labels, are exchanged:
    the unit moves, or two labels swap, and many N disagree."""
    m, automorphisms = draw(st.sampled_from(
        AUTOMORPHISM_CASES + [FIBONACCI_4, MILLION_TORIC]))
    images = list(draw(st.sampled_from(automorphisms)))
    i = m.unit if draw(st.booleans()) else draw(st.integers(0, m.rank - 1))
    j = draw(st.integers(0, m.rank - 1).filter(lambda j: j != i))
    images[i], images[j] = images[j], images[i]
    return m, tuple(images)


def slot_permuted_ring(low, high):
    """Labels 1, a, b, c with a⊗a = low b + high c and b⊗b = high b + low c:
    (b c) exchanges the multiplicities of a⊗a and of b⊗b, which keeps the
    set of values of N but not N."""
    fusion = {(0, x, x): 1 for x in range(4)} | {(x, 0, x): 1 for x in range(4)}
    fusion |= {(1, 1, 2): low, (1, 1, 3): high, (2, 2, 2): high, (2, 2, 3): low}
    return ModularData(name="slot-permuted", labels=("1", "a", "b", "c"), unit=0,
                       fusion=fusion, dual=(0, 1, 2, 3), twists=(0,) * 4,
                       twist_denominator=1)


def count_table_builds(monkeypatch):
    """The packed product tables built from now on, each as the ModularData
    and the name of the function that asked for it."""
    builds = []
    build = mtc._product_table

    def spy(m):
        builds.append((m, sys._getframe(1).f_code.co_name))
        return build(m)

    monkeypatch.setattr(mtc, "_product_table", spy)
    return builds


def spy_violations(monkeypatch):
    """The (ModularData, generator) of each generator check from now on, by
    ``validate_automorphism`` or ``build_symmetry``."""
    calls = []
    violations = symmetry._violations

    def spy(m, g):
        calls.append((m, g))
        return violations(m, g)

    monkeypatch.setattr(symmetry, "_violations", spy)
    return calls


@st.composite
def labelled_permutations(draw):
    """A power of a bundled MTC with an automorphism, a random label
    permutation, or an automorphism with two labels exchanged afterwards."""
    m, automorphisms = draw(st.sampled_from(AUTOMORPHISM_CASES + [DOUBLED_TORIC]))
    kind = draw(st.sampled_from(["automorphism", "random", "near-miss"]))
    if kind == "random":
        images = draw(st.permutations(range(m.rank)))
    else:
        images = list(draw(st.sampled_from(automorphisms)))
        if kind == "near-miss":
            i = draw(st.integers(0, m.rank - 1))
            j = draw(st.integers(0, m.rank - 1))
            images[i], images[j] = images[j], images[i]
    return m, tuple(images)


class TestValidateAutomorphism:
    def test_toric_swap_passes(self, toric_code):
        swap = parse_generator(toric_code, "(e m)")
        report = validate_automorphism(toric_code, swap)
        assert report.ok, report.violations

    def test_exhaustive_fusion_check(self, toric_code):
        # the swap preserves every one of the 64 fusion triples
        swap = parse_generator(toric_code, "(e m)")
        g, N = swap, toric_code.fusion.get
        for x, y, z in itertools.product(range(4), repeat=3):
            assert N((g[x], g[y], g[z]), 0) == N((x, y, z), 0)

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
        with pytest.raises(UsageError, match="^permutation degree 5 != number of labels 3$"):
            validate_automorphism(ising, identity(5))

    @pytest.mark.parametrize("case", range(len(AUTOMORPHISM_CASES)))
    def test_whole_groups_pass(self, case):
        m, automorphisms = AUTOMORPHISM_CASES[case]
        assert len(automorphisms) == (6, 8)[case]
        for p in automorphisms:
            assert validate_automorphism(m, p).violations == ()
            assert reference_automorphism(m, p) == []

    def test_values_checked_not_only_the_support(self):
        m, automorphisms = DOUBLED_TORIC
        rules = []
        for p in automorphisms:
            violations = validate_automorphism(m, p).violations
            assert list(violations) == reference_automorphism(m, p)
            rules.append({v.rule for v in violations})
        assert rules.count(set()) == 2 and rules.count({"fusion"}) == 6

    @given(labelled_permutations())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_violations_equal_reference(self, case):
        m, p = case
        assert list(validate_automorphism(m, p).violations) == \
            reference_automorphism(m, p)

    @given(broken_generators())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_broken_generators_equal_reference(self, case):
        m, p = case
        assert list(validate_automorphism(m, p).violations) == \
            reference_automorphism(m, p)

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_unit_moves_list_hundreds(self, case):
        m, automorphisms = (AUTOMORPHISM_CASES + [FIBONACCI_4])[case]
        for j in range(1, m.rank, 5):
            images = list(automorphisms[-1])
            images[m.unit], images[j] = images[j], images[m.unit]
            p = tuple(images)
            violations = list(validate_automorphism(m, p).violations)
            assert violations == reference_automorphism(m, p)
            assert len(violations) >= 100

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_filtered_walk_equals_full_entry_walk(self, case):
        # the walk skips the entries e with N(g e) = N(e) = N(g^-1 e); the
        # reference checks every entry and its preimage
        m, p = FALLBACK_CASES[case]
        violations = list(validate_automorphism(m, p).violations)
        assert violations == reference_automorphism(m, p)
        fusion = [v for v in violations if v.rule == "fusion"]
        assert len(fusion) >= (0 if case.endswith("swap_factors") else 40)

    @given(shuffled_entries())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_violations_follow_any_entry_order(self, case):
        m, p = case
        assert list(validate_automorphism(m, p).violations) == \
            reference_automorphism(m, p)

    def test_duals_checked_when_twists_agree(self):
        # Z_4 with every twist 0: a permutation can break duals alone, so
        # the label loop must not wait for the twist tuples to differ
        m = gcrank.load_mtc(fixture_path("z4.json"))._replace(
            twists=(0,) * 4, twist_denominator=1)
        rules = []
        for p in itertools.permutations(range(4)):
            violations = list(validate_automorphism(m, p).violations)
            assert violations == reference_automorphism(m, p)
            rules.append({v.rule for v in violations})
        assert any("dual" in r for r in rules)

    @pytest.mark.parametrize("low,high", [(2, 3), (10**6 - 1, 10**6)])
    def test_slot_permuted_vectors(self, low, high):
        m = slot_permuted_ring(low, high)
        passing = []
        for p in itertools.permutations(range(4)):
            violations = list(validate_automorphism(m, p).violations)
            assert violations == reference_automorphism(m, p)
            if not violations:
                passing.append(p)
        assert passing == [(0, 1, 2, 3)]
        swap = validate_automorphism(m, (0, 1, 3, 2)).violations
        assert [v.indices for v in swap][:2] == [(1, 1, 2), (1, 1, 3)]


class TestBuildSymmetry:
    def test_toric_swap_group_order_two(self, toric_swap):
        assert toric_swap.order == 2

    def test_empty_generators_trivial_group(self, ising):
        s = build_symmetry(ising, {})
        assert s.order == 1

    def test_fibonacci_has_no_nontrivial_symmetry(self, fibonacci):
        passing = [
            tuple(im)
            for im in itertools.permutations(range(2))
            if validate_automorphism(fibonacci, tuple(im)).ok
        ]
        assert passing == [identity(2)]

    def test_only_generators_validated(self, ising, monkeypatch):
        builds = count_table_builds(monkeypatch)
        calls = spy_violations(monkeypatch)
        _, s = symmetric_power_symmetry(ising, 4)
        generators = wreath.preset_generators("s4", 4)
        assert s.order == 24
        assert len(calls) == len(generators)
        assert builds == []  # automorphisms are checked on the fusion dict alone

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_every_element_passes(self, data):
        """What build_symmetry no longer checks at run time: every element
        of a group generated by automorphisms is an automorphism."""
        m, automorphisms = data.draw(st.sampled_from(AUTOMORPHISM_CASES))
        chosen = data.draw(st.lists(st.sampled_from(automorphisms), min_size=1, max_size=3))
        s = build_symmetry(m, {f"g{i}": p for i, p in enumerate(chosen)})
        for element in s.elements:
            assert validate_automorphism(m, element).violations == ()

    @pytest.mark.parametrize("command", ["validate", "rank", "burnside"])
    def test_one_table_per_cli_run(self, command, monkeypatch, capsys):
        # validate_mtc's check builds the one table of a validate run; the
        # generator checks of every command, and rank and burnside as a whole,
        # build none
        builds = count_table_builds(monkeypatch)
        calls = spy_violations(monkeypatch)
        mtc_path = str(gcrank.bundled_data_path("toric_code.json"))
        sym = str(gcrank.bundled_data_path("toric_code_swap.json"))
        assert cli.main([command, "--mtc", mtc_path, "--sym", sym]) == 0
        assert len(calls) == 1
        assert builds == ([(calls[0][0], "_check_mtc")] if command == "validate" else [])

    def test_bad_generator_rejected(self, ising):
        with pytest.raises(NotAnAutomorphism):
            build_symmetry(ising, {"bad": parse_generator(ising, "(1 psi)")})

    def test_validation_closed_under_composition(self, toric_swap, toric_code):
        m = toric_code
        for p, q in itertools.product(toric_swap.elements, repeat=2):
            assert validate_automorphism(m, compose(p, q)).ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_factor_permutations_all_pass_on_product(self, ising, fibonacci, n):
        base = fibonacci if n == 3 else ising
        power = reference_materialize_power(base, n)
        for im in itertools.permutations(range(n)):
            lifted = reference_factor_permutation(base, n, tuple(im))
            report = validate_automorphism(power, lifted)
            assert report.ok, report.violations


# the bundled files, Z_4 (whose labels 1 and 3 are dual to each other), and
# powers of Fibonacci and Ising
REFUSAL_FILES = [
    gcrank.load_mtc(gcrank.bundled_data_path(f"{name}.json"))
    for name in ("fibonacci", "ising", "toric_code")
] + [gcrank.load_mtc(fixture_path("z4.json"))] + [
    reference_materialize_power(gcrank.load_mtc(gcrank.bundled_data_path(f"{name}.json")), k)
    for name, k in [("fibonacci", 2), ("fibonacci", 3), ("ising", 2), ("ising", 3)]
]


@st.composite
def label_permutations(draw):
    """A file of REFUSAL_FILES and a permutation of its labels: random, with
    the unit moved, within the twist classes with the unit fixed (duals or
    fusion break, if anything), or that with two twists exchanged."""
    m = draw(st.sampled_from(REFUSAL_FILES))
    kind = draw(st.sampled_from(["random", "unit-moved", "twist-classes", "twist-broken"]))
    if kind in ("random", "unit-moved"):
        images = list(draw(st.permutations(range(m.rank))))
        if kind == "unit-moved" and images[m.unit] == m.unit:
            j = draw(st.integers(0, m.rank - 1).filter(lambda j: j != m.unit))
            images[m.unit], images[j] = images[j], images[m.unit]
        return m, tuple(images)
    classes: dict[int, list[int]] = {}
    for x in range(m.rank):
        if x != m.unit:
            classes.setdefault(m.twists[x], []).append(x)
    images = list(range(m.rank))
    for labels in classes.values():
        for x, y in zip(labels, draw(st.permutations(labels))):
            images[x] = y
    if kind == "twist-broken" and len(classes) > 1:
        a, b = draw(st.lists(st.sampled_from(list(classes)), min_size=2, max_size=2,
                             unique=True))
        x, y = draw(st.sampled_from(classes[a])), draw(st.sampled_from(classes[b]))
        images[x], images[y] = images[y], images[x]
    return m, tuple(images)


def refusal_text(violation) -> str:
    return ("error: generator 'g' is not a fusion-ring automorphism: "
            f"{violation.message} (validate --sym lists every violation)\n")


def assert_refused_at_first(m, p):
    """build_symmetry refuses p with the first violation of the full report,
    alone, and ``rank`` prints it; a p that passes gives a group and exit 0.
    Returns the full report's violations."""
    full = validate_automorphism(m, p).violations
    if full:
        with pytest.raises(NotAnAutomorphism) as exc:
            build_symmetry(m, {"g": p})
        assert exc.value.report.violations == full[:1]
    else:
        assert p in build_symmetry(m, {"g": p}).elements
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "m.json").write_text(mtc_json(m))
        sym = Path(tmp, "s.json")
        sym.write_text(json.dumps({"mtc": "m.json",
                                   "generators": {"g": [m.labels[i] for i in p]}}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["rank", "--sym", str(sym)])
    if full:
        assert (code, out.getvalue(), err.getvalue()) == (1, "", refusal_text(full[0]))
    else:
        assert code == 0 and err.getvalue() == ""
    return full


class TestRefusal:
    """rank and burnside refuse a generator at its first violation."""

    @given(label_permutations())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_refused_violation_is_the_first(self, case):
        assert_refused_at_first(*case)

    @pytest.mark.parametrize("file, cycles, rule", [
        ("fibonacci", "(1 tau)", "unit"),
        ("z4", "(1 2)", "dual"),
        ("toric_code", "(e f)", "twist"),
        ("ising^2", "(1*sigma sigma*1)", "fusion"),
    ])
    def test_each_rule_refused_first(self, file, cycles, rule):
        m = next(m for m in REFUSAL_FILES if m.name == file)
        full = assert_refused_at_first(m, parse_generator(m, cycles))
        assert full[0].rule == rule and len(full) > 1

    def test_unit_refusal_walks_no_fusion_entry(self, fibonacci, monkeypatch):
        class WatchedFusion(dict):
            """A fusion dict that counts the walks over it."""
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

            def items(self):
                self.walks += 1
                return super().items()

        power = reference_materialize_power(fibonacci, 5)
        m = power._replace(fusion=WatchedFusion(power.fusion))
        made = []

        def counted(*fields):
            made.append(Violation(*fields))
            return made[-1]

        monkeypatch.setattr(symmetry, "Violation", counted)
        images = list(reference_factor_permutation(fibonacci, 5, (1, 2, 3, 4, 0)))
        images[m.unit], images[-1] = images[-1], images[m.unit]
        p = tuple(images)
        with pytest.raises(NotAnAutomorphism) as exc:
            build_symmetry(m, {"g": p})
        assert made == list(exc.value.report.violations) and len(made) == 1
        assert m.fusion.walks == 0
        # the spies see the full check walk the entries and make every violation
        full = validate_automorphism(m, p).violations
        assert m.fusion.walks > 0 and len(full) > 100 and made == [made[0], *full]

    def test_passing_verdicts_shared(self, monkeypatch):
        calls = spy_violations(monkeypatch)
        m = gcrank.load_mtc(gcrank.bundled_data_path("toric_code.json"))
        swap, same = parse_generator(m, "(e m)"), identity(m.rank)
        assert build_symmetry(m, {"swap": swap}).order == 2
        assert validate_automorphism(m, swap).ok
        assert validate_automorphism(m, same).ok
        assert build_symmetry(m, {"identity": same}).order == 1
        assert calls == [(m, swap), (m, same)]

    def test_refused_generator_checked_every_call(self, monkeypatch):
        calls = spy_violations(monkeypatch)
        m = gcrank.load_mtc(gcrank.bundled_data_path("toric_code.json"))
        moves_unit = parse_generator(m, "(1 e)")
        for _ in range(2):
            with pytest.raises(NotAnAutomorphism):
                build_symmetry(m, {"g": moves_unit})
            assert not validate_automorphism(m, moves_unit).ok
        assert calls == [(m, moves_unit)] * 4


class TestSymmetryFiles:
    def test_bundled_swap_file(self, toric_code):
        mtc, gens = load_symmetry(gcrank.bundled_data_path("toric_code_swap.json"))
        assert mtc.labels == toric_code.labels
        assert list(gens) == ["swap_em"]
        assert gens["swap_em"] == parse_generator(toric_code, "(e m)")

    def test_generator_as_image_list(self, toric_code):
        p = parse_generator(toric_code, ["1", "m", "e", "f"])
        assert p == parse_generator(toric_code, "(e m)")

    def test_generator_resolves_replaced_labels(self, toric_code):
        renamed = toric_code._replace(labels=("1", "a", "b", "c"))
        assert parse_generator(renamed, "(a b)") == parse_generator(toric_code, "(e m)")
        assert parse_generator(renamed, ["1", "b", "a", "c"]) == (0, 2, 1, 3)
        with pytest.raises(ParseError, match="^unknown label 'e'$"):
            parse_generator(renamed, "(e m)")

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

    # the symmetry file tmp/d/sym.json as a str, a Path, a bare name in the
    # working directory, and a relative path with a directory
    PATH_FORMS = ["str", "path", "bare", "relative"]

    @staticmethod
    def symmetry_file(form, ref, tmp_path, monkeypatch):
        sym = tmp_path / "d" / "sym.json"
        sym.parent.mkdir()
        sym.write_text(json.dumps({"mtc": ref, "generators": {"s": "(e m)"}}))
        if form in ("bare", "relative"):
            monkeypatch.chdir(sym.parent if form == "bare" else tmp_path)
        return {"str": str(sym), "path": sym, "bare": "sym.json",
                "relative": "d/sym.json"}[form]

    @pytest.mark.parametrize("ref", ["toric_code.json", "sub/toric_code.json"])
    @pytest.mark.parametrize("form", PATH_FORMS)
    def test_relative_reference_read_next_to_file(self, form, ref, tmp_path,
                                                  monkeypatch, toric_code):
        path = self.symmetry_file(form, ref, tmp_path, monkeypatch)
        target = tmp_path / "d" / ref
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(gcrank.bundled_data_path("toric_code.json").read_bytes())
        mtc, gens = load_symmetry(path)
        assert mtc.labels == toric_code.labels and mtc.fusion == toric_code.fusion
        assert gens == {"s": parse_generator(toric_code, "(e m)")}

    @pytest.mark.parametrize("ref", ["missing.json", "sub/missing.json"])
    @pytest.mark.parametrize("form", PATH_FORMS)
    def test_missing_reference_names_joined_path(self, form, ref, tmp_path,
                                                 monkeypatch, capsys):
        # the path in the error is the file's directory joined with the
        # reference, as pathlib's ``Path(path).parent / ref`` writes it
        path = self.symmetry_file(form, ref, tmp_path, monkeypatch)
        expected = str(Path(path).parent / ref)
        with pytest.raises(FileNotFoundError) as exc:
            load_symmetry(path)
        assert exc.value.filename == expected
        assert cli.main(["rank", "--sym", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {expected!r}\n")

    def test_bad_generator_fixture(self):
        mtc, gens = load_symmetry(fixture_path("bad_generator.json"))
        with pytest.raises(NotAnAutomorphism):
            build_symmetry(mtc, gens)

    def test_label_cycles_rendering(self, toric_swap, toric_code):
        labels = toric_code.labels
        strs = {format_cycles(e, labels) for e in toric_swap.elements}
        assert strs == {"()", "(e m)"}
