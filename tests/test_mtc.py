import copy
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcrank
from gcrank import mtc, symmetry
from gcrank.cli import main
from gcrank.errors import GcrankError, ParseError
from gcrank.mtc import (
    ModularData,
    Violation,
    derive_duals,
    load_mtc,
    mtc_from_doc,
    parse_mtc,
    validate_mtc,
)

from conftest import fixture_path, mtc_json, reference_materialize_power


def brute_force_associativity(m):
    """Re-evaluate both association orders over every quadruple, in a
    randomized evaluation order; same computation, independent coding."""
    quads = list(itertools.product(range(m.rank), repeat=4))
    random.Random(7).shuffle(quads)
    N = m.fusion.get
    bad = []
    for x, y, z, u in quads:
        lhs = sum(N((x, y, w), 0) * N((w, z, u), 0) for w in range(m.rank))
        rhs = sum(N((y, z, w), 0) * N((x, w, u), 0) for w in range(m.rank))
        if lhs != rhs:
            bad.append((x, y, z, u))
    return bad


def reference_associativity(m):
    """The associativity violations of ``validate_mtc`` by the per-triple
    loop it used before products were packed: both sides as sparse maps
    u -> value for every (x, y, z), in the same order and wording."""
    lab = m.labels
    by_pair = {}
    for (x, y, z), mult in m.fusion.items():
        by_pair.setdefault((x, y), []).append((z, mult))

    def side(outer, inner):
        out = {}
        for w, nw in by_pair.get(outer, ()):
            for u, nu in by_pair.get(inner(w), ()):
                out[u] = out.get(u, 0) + nw * nu
        return out

    violations = []
    for x, y, z in itertools.product(range(m.rank), repeat=3):
        lhs = side((x, y), lambda w: (w, z))
        rhs = side((y, z), lambda w: (x, w))
        for u in sorted(set(lhs) | set(rhs)):
            l, r = lhs.get(u, 0), rhs.get(u, 0)
            if l != r:
                violations.append(Violation(
                    "associativity", (x, y, z, u),
                    f"(({lab[x]} {lab[y]}) {lab[z]} -> {lab[u]}) = {l} "
                    f"but ({lab[x]} ({lab[y]} {lab[z]}) -> {lab[u]}) = {r}",
                ))
    return violations


def reference_unit_and_duality(m):
    """The unit-law and duality violations of ``validate_mtc`` by the
    ``fusion.get`` loops it ran before reading the product table, in the
    same order and wording."""
    violations = []
    rng = range(m.rank)
    lab = m.labels
    unit_label = lab[m.unit]
    n = m.fusion.get
    for x in rng:
        for y in rng:
            want = 1 if x == y else 0
            if n((m.unit, x, y), 0) != want:
                violations.append(Violation(
                    "unit-law", (m.unit, x, y),
                    f"N_{{{unit_label},{lab[x]}}}^{lab[y]} = {n((m.unit, x, y), 0)}, expected {want}",
                ))
            if n((x, m.unit, y), 0) != want:
                violations.append(Violation(
                    "unit-law", (x, m.unit, y),
                    f"N_{{{lab[x]},{unit_label}}}^{lab[y]} = {n((x, m.unit, y), 0)}, expected {want}",
                ))
    for x in rng:
        for y in rng:
            want = 1 if y == m.dual[x] else 0
            got = n((x, y, m.unit), 0)
            if got != want:
                violations.append(Violation(
                    "duality", (x, y),
                    f"N_{{{lab[x]},{lab[y]}}}^{unit_label} = {got}, expected {want}",
                ))
        if m.dual[m.dual[x]] != x:
            violations.append(Violation(
                "duality", (x,),
                f"dual is not an involution at {lab[x]!r}",
            ))
    if m.dual[m.unit] != m.unit:
        violations.append(Violation(
            "duality", (m.unit,), "dual of the unit is not the unit"))
    return violations


def su2_level(k):
    """SU(2)_k: spins 0..k/2 as labels "0".."k", truncated Clebsch-Gordan
    fusion, all self-dual, twists h_j = j(j+2)/4(k+2) mod 1."""
    fusion = {
        (a, b, c): 1
        for a, b, c in itertools.product(range(k + 1), repeat=3)
        if abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
    }
    return ModularData(
        name=f"SU(2)_{k}",
        labels=tuple(str(j) for j in range(k + 1)),
        unit=0,
        fusion=fusion,
        dual=tuple(range(k + 1)),
        twists=tuple(j * (j + 2) % (4 * (k + 2)) for j in range(k + 1)),
        twist_denominator=4 * (k + 2),
    )


def constant_ring(rank, mult):
    """Every N_xy^z = mult: associative, and each slot of both sides holds
    rank * mult^2, the largest value the packed slot width allows for."""
    fusion = {t: mult for t in itertools.product(range(rank), repeat=3)}
    return ModularData(
        name=f"constant-{mult}", labels=tuple(f"a{i}" for i in range(rank)),
        unit=0, fusion=fusion, dual=tuple(range(rank)),
        twists=(0,) * rank, twist_denominator=1,
    )


def random_ring(rank, top, seed):
    """Random multiplicities in 1..top on a random support: non-associative."""
    rng = random.Random(seed)
    fusion = {
        t: rng.randint(1, top)
        for t in itertools.product(range(rank), repeat=3) if rng.random() < 0.6
    }
    return constant_ring(rank, 1)._replace(name=f"random-{top}", fusion=fusion)


def _bundled(name):
    return gcrank.load_mtc(gcrank.bundled_data_path(f"{name}.json"))


ASSOCIATIVITY_RINGS = (
    [_bundled(name) for name in ("fibonacci", "ising", "toric_code")]
    + [load_mtc(fixture_path(name))
       for name in ("non_associative.json", "ising2_doubled.json")]
    + [reference_materialize_power(_bundled("ising"), n) for n in (2, 3)]
    + [reference_materialize_power(_bundled("fibonacci"), n) for n in (2, 3, 4)]
    + [su2_level(k) for k in range(1, 13)]
    + [constant_ring(4, 10**6), random_ring(5, 10**6, seed=3)]
    # rank 1: one index per product row, so itemgetter returns a bare item
    + [constant_ring(1, 1), constant_ring(1, 3)]
)


@st.composite
def edited_rings(draw):
    """A ring from ASSOCIATIVITY_RINGS with one fusion entry doubled,
    removed or added, or left as it is."""
    m = draw(st.sampled_from(ASSOCIATIVITY_RINGS))
    fusion = dict(m.fusion)
    edit = draw(st.sampled_from(["none", "double", "remove", "add"]))
    if edit in ("double", "remove"):
        key = draw(st.sampled_from(sorted(fusion)))
        if edit == "double":
            fusion[key] *= 2
        else:
            del fusion[key]
    elif edit == "add":
        label = st.integers(0, m.rank - 1)
        key = draw(st.tuples(label, label, label))
        fusion[key] = fusion.get(key, 0) + draw(st.sampled_from([1, 2, 10**6]))
    return m._replace(fusion=fusion)


def associativity_violations(m):
    return [v for v in validate_mtc(m).violations if v.rule == "associativity"]


def unit_and_duality_violations(m):
    return [v for v in validate_mtc(m).violations if v.rule in ("unit-law", "duality")]


def reference_fusion(entries, labels):
    """The fusion map by the per-entry loop ``mtc_from_doc`` ran on every
    document before its one-pass fast path: the errors it raises, in their
    precedence, are the ones that must not change."""
    index = {l: i for i, l in enumerate(labels)}

    def lookup(label):
        if not isinstance(label, str) or label not in index:
            raise ParseError(f"unknown label {label!r}")
        return index[label]

    fusion = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"fusion entry must be [x, y, z, n], got {entry!r}")
        x, y, z, mult = entry
        if type(mult) is not int or mult < 1:
            raise ParseError(f"fusion multiplicity must be a positive integer, got {mult!r}")
        key = (lookup(x), lookup(y), lookup(z))
        if key in fusion:
            raise ParseError(f"duplicate fusion entry for ({x}, {y}, {z})")
        fusion[key] = mult
    return fusion


def reference_duals(labels, unit, fusion):
    """``derive_duals`` by its former rank^2 lookups."""
    duals = []
    for x in range(len(labels)):
        candidates = [y for y in range(len(labels)) if fusion.get((x, y, unit), 0) > 0]
        if len(candidates) != 1 or fusion[(x, candidates[0], unit)] != 1:
            raise GcrankError(
                f"label {labels[x]!r} has no unique dual: "
                f"candidates {[labels[y] for y in candidates]}"
            )
        duals.append(candidates[0])
    return tuple(duals)


BUNDLED_DOCS = [json.loads(gcrank.bundled_data_path(f"{name}.json").read_text())
                for name in ("fibonacci", "ising", "toric_code")]


@st.composite
def fusion_documents(draw):
    """A bundled document with its fusion array shuffled, up to three
    entries broken, relabelled, repeated or removed, and its duals dropped
    or kept."""
    doc = dict(draw(st.sampled_from(BUNDLED_DOCS)))
    entries = draw(st.permutations([list(e) for e in doc["fusion"]]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        fault = draw(st.sampled_from(
            ["entry", "short", "long", "mult", "label", "relabel", "repeat", "remove"]))
        if fault == "entry":
            entries[i] = draw(st.sampled_from(
                ["1111", {"1": 1, "e": 1, "m": 1, "f": 1}, 5, None, []]))
        elif fault in ("short", "long") and isinstance(entries[i], list):
            entries[i] = entries[i][:3] if fault == "short" else entries[i] + [1]
        elif fault == "mult" and isinstance(entries[i], list) and len(entries[i]) == 4:
            entries[i][3] = draw(st.sampled_from([0, -1, True, 1.0, "1", 2, 10**6]))
        elif fault == "label" and isinstance(entries[i], list) and entries[i]:
            k = draw(st.integers(0, min(2, len(entries[i]) - 1)))
            entries[i][k] = draw(st.sampled_from(["nope", 1, None, ["1"], False]))
        elif fault == "relabel" and isinstance(entries[i], list) and len(entries[i]) > 2:
            entries[i][draw(st.integers(0, 2))] = draw(st.sampled_from(doc["labels"]))
        elif fault == "repeat":
            entries.insert(draw(st.integers(0, len(entries))), copy.deepcopy(entries[i]))
        elif fault == "remove" and len(entries) > 1:
            del entries[i]
    doc["fusion"] = entries
    if draw(st.booleans()):
        doc.pop("duals", None)
    return doc


def _outcome(build):
    try:
        return build()
    except GcrankError as exc:
        return type(exc), str(exc)


class TestRecord:
    """ModularData is a named tuple: its fields are all of its state."""

    def test_fields(self):
        assert ModularData._fields == (
            "name", "labels", "unit", "fusion", "dual", "twists", "twist_denominator")

    def test_fields_cannot_be_assigned(self):
        m = _bundled("fibonacci")  # not the shared fixture, in case the assignment succeeds
        with pytest.raises(AttributeError):
            m.labels = ("1", "t")
        assert m.labels == ("1", "tau")

    def test_equal_by_value(self):
        source = gcrank.bundled_data_path("ising.json").read_bytes()
        first, second = parse_mtc(source), parse_mtc(source)
        assert first is not second
        assert first == second
        assert first != first._replace(name="other")


class TestParse:
    @given(fusion_documents())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fusion_and_duals_equal_reference(self, doc):
        def reference():
            fusion = reference_fusion(doc["fusion"], doc["labels"])
            unit = doc["labels"].index(doc["unit"])
            duals = (tuple(doc["labels"].index(doc["duals"][l]) for l in doc["labels"])
                     if "duals" in doc
                     else reference_duals(tuple(doc["labels"]), unit, fusion))
            return list(fusion.items()), duals

        def parsed():
            m = mtc_from_doc(doc)
            return list(m.fusion.items()), m.dual

        assert _outcome(parsed) == _outcome(reference)

    def test_fibonacci(self, fibonacci):
        assert fibonacci.labels == ("1", "tau")
        assert fibonacci.rank == 2
        assert (fibonacci.twists, fibonacci.twist_denominator) == ((0, 2), 5)
        tau = fibonacci.labels.index("tau")
        assert fibonacci.fusion.get((tau, tau, fibonacci.unit), 0) == 1
        assert fibonacci.fusion.get((tau, tau, tau), 0) == 1

    def test_toric_code(self, toric_code):
        assert toric_code.rank == 4
        assert toric_code.dual == (0, 1, 2, 3)
        assert toric_code.twists == (0, 0, 0, 1)
        assert toric_code.twist_denominator == 2
        assert toric_code.twist_text(toric_code.labels.index("f")) == "1/2"

    def test_bad_json(self):
        with pytest.raises(ParseError):
            load_mtc(fixture_path("bad_json.json"))

    def test_unknown_label(self):
        with pytest.raises(ParseError, match=r"^unknown label 'x'$"):
            load_mtc(fixture_path("unknown_label.json"))

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match=r"^duplicate labels: \['tau'\]$"):
            load_mtc(fixture_path("duplicate_label.json"))

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match=r"^twist of 'tau' has denominator 0$"):
            load_mtc(fixture_path("zero_denominator.json"))

    def test_twists_reduced_mod_one(self, fibonacci):
        doc = json.loads(gcrank.bundled_data_path("fibonacci.json").read_text())
        for pair in ([7, 5], [-3, 5], [3, -5], [-8, -20]):
            doc["twists"]["tau"] = pair
            m = parse_mtc(json.dumps(doc))
            assert (m.twists, m.twist_denominator) == ((0, 2), 5), pair

    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-1000, 1000)),
                    min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_integer_twists_equal_fraction_reading(self, pairs):
        """t_x/N is the former reading Fraction(num, den) % 1, N is the lcm of
        those denominators, and messages write the same text; denominator 0
        is still a ParseError naming the first such label."""
        labels = [f"a{i}" for i in range(len(pairs))]
        doc = {"name": "twists", "labels": labels, "unit": "a0", "fusion": [],
               "twists": {l: list(pair) for l, pair in zip(labels, pairs)},
               "duals": {l: l for l in labels}}
        if any(den == 0 for _, den in pairs):
            first = next(i for i, (_, den) in enumerate(pairs) if den == 0)
            with pytest.raises(ParseError, match=f"^twist of 'a{first}' has denominator 0$"):
                mtc_from_doc(doc)
            return
        m = mtc_from_doc(doc)
        former = [Fraction(num, den) % 1 for num, den in pairs]
        assert m.twist_denominator == math.lcm(*(r.denominator for r in former))
        assert all(0 <= t < m.twist_denominator for t in m.twists)
        assert [Fraction(t, m.twist_denominator) for t in m.twists] == former
        assert [m.twist_text(x) for x in range(m.rank)] == list(map(str, former))

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_mtc('{"name": "x", "labels": ["1"]}')


class TestValidate:
    def test_bundled_data_is_valid(self, fibonacci, ising, toric_code):
        for m in (fibonacci, ising, toric_code):
            report = validate_mtc(m)
            assert report.ok, report.violations

    def test_non_associative_fixture(self):
        m = load_mtc(fixture_path("non_associative.json"))
        report = validate_mtc(m)
        rules = {v.rule for v in report.violations}
        assert "associativity" in rules
        # validator findings agree with the brute-force re-evaluation
        assert brute_force_associativity(m)

    def test_associativity_agrees_with_brute_force(self, ising, toric_code):
        for m in (ising, toric_code):
            assert brute_force_associativity(m) == []

    @pytest.mark.parametrize("m", ASSOCIATIVITY_RINGS, ids=lambda m: m.name)
    def test_associativity_equals_reference(self, m):
        assert associativity_violations(m) == reference_associativity(m)
        assert unit_and_duality_violations(m) == reference_unit_and_duality(m)

    @given(edited_rings())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_edited_associativity_equals_reference(self, m):
        assert associativity_violations(m) == reference_associativity(m)
        assert unit_and_duality_violations(m) == reference_unit_and_duality(m)

    @pytest.mark.parametrize("m", [constant_ring(4, 10**6), random_ring(5, 10**6, seed=3)],
                             ids=lambda m: m.name)
    def test_large_multiplicities_fire_unit_and_duality(self, m):
        found = unit_and_duality_violations(m)
        assert {v.rule for v in found} == {"unit-law", "duality"}
        # slots far above 1 are decoded whole, not only tested against 0 and 1
        assert max(int(v.message.split(" = ")[1].split(",")[0]) for v in found) > 10**5

    def test_violations_at_the_slot_width_bound(self):
        # one entry lowered by 1 in the constant ring: the sides differ in
        # slots that sit at rank * N^2 and just below
        m = constant_ring(4, 10**6)
        m = m._replace(fusion={**m.fusion, (1, 2, 3): 10**6 - 1})
        found = associativity_violations(m)
        assert found == reference_associativity(m)
        assert found and all(v.rule == "associativity" for v in found)
        assert max(int(w) for v in found for w in v.message.split() if w.isdigit()) \
            == 4 * 10**12

    def test_unit_law_violation(self, fibonacci):
        doc = json.loads(gcrank.bundled_data_path("fibonacci.json").read_text())
        doc["fusion"].remove(["1", "tau", "tau", 1])
        doc["duals"] = {"1": "1", "tau": "tau"}
        m = parse_mtc(json.dumps(doc))
        rules = {v.rule for v in validate_mtc(m).violations}
        assert "unit-law" in rules

    def test_unit_messages_name_the_unit(self):
        # Z_4's unit is "0"; the messages write it where N_{1,x}^y has 1
        doc = json.loads(fixture_path("z4.json").read_text())
        doc["fusion"].remove(["0", "1", "1", 1])
        doc["fusion"].remove(["1", "3", "0", 1])
        doc["duals"] = {"0": "0", "1": "3", "2": "2", "3": "1"}
        messages = {v.message for v in validate_mtc(parse_mtc(json.dumps(doc))).violations}
        assert "N_{0,1}^1 = 0, expected 1" in messages
        assert "N_{1,3}^0 = 0, expected 1" in messages

    def test_unit_twist_violation(self, fibonacci):
        doc = json.loads(gcrank.bundled_data_path("fibonacci.json").read_text())
        doc["twists"]["1"] = [1, 3]
        m = parse_mtc(json.dumps(doc))
        rules = {v.rule for v in validate_mtc(m).violations}
        assert "unit-twist" in rules

    def test_all_violations_collected(self):
        m = load_mtc(fixture_path("non_associative.json"))
        report = validate_mtc(m)
        assert len(report.violations) > 1
        assert not report.ok


class TestDuals:
    def test_toric_code_all_self_dual(self, toric_code):
        derived = derive_duals(toric_code.labels, toric_code.unit, toric_code.fusion)
        assert derived == (0, 1, 2, 3)

    def test_fibonacci_forced_identity(self, fibonacci):
        derived = derive_duals(fibonacci.labels, fibonacci.unit, fibonacci.fusion)
        assert derived == (0, 1)

    def test_ambiguous_dual_rejected(self):
        with pytest.raises(GcrankError, match=re.escape(
                "label 'a' has no unique dual: candidates ['a', 'b']")) as raised:
            load_mtc(fixture_path("ambiguous_dual.json"))
        assert raised.value.exit_code == 1  # a domain failure, not a parse error

    def test_ambiguous_candidates_in_label_order(self):
        doc = {k: v for k, v in BUNDLED_DOCS[0].items() if k != "duals"}
        doc["fusion"] = [["1", "tau", "1", 1]] + doc["fusion"]  # listed before ["1", "1", "1", 1]
        with pytest.raises(GcrankError, match="^label '1' has no unique dual") as raised:
            mtc_from_doc(doc)
        assert str(raised.value) == "label '1' has no unique dual: candidates ['1', 'tau']"
        fusion = reference_fusion(doc["fusion"], doc["labels"])
        with pytest.raises(GcrankError, match=re.escape(str(raised.value))):
            reference_duals(tuple(doc["labels"]), 0, fusion)

    def test_duals_are_involutions(self, fibonacci, ising, toric_code):
        for m in (fibonacci, ising, toric_code):
            assert all(m.dual[m.dual[x]] == x for x in range(m.rank))


def doubled(m, entry):
    """``m`` with the fusion coefficient at ``entry`` doubled."""
    return m._replace(fusion={**m.fusion, entry: 2 * m.fusion[entry]})


class TestLoadCache:
    """load_mtc parses bytes equal to one of its last ``LOADED_FILES`` files once."""

    @pytest.fixture(autouse=True)
    def parsed(self, monkeypatch):
        """The sources that reach ``mtc.parse_mtc`` (the cache starts empty)."""
        sources, real = [], mtc.parse_mtc

        def spy(source):
            sources.append(source)
            return real(source)

        monkeypatch.setattr(mtc, "parse_mtc", spy)
        return sources

    def test_same_bytes_parsed_once_from_any_path(self, parsed, tmp_path, ising):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(mtc_json(ising))
        second.write_bytes(first.read_bytes())
        loads = [load_mtc(first), load_mtc(first), load_mtc(str(second))]
        assert len(parsed) == 1
        assert loads == [parse_mtc(first.read_bytes())] * 3

    def test_rewritten_file_is_parsed_again(self, parsed, tmp_path, toric_code):
        path = tmp_path / "t.json"
        path.write_text(mtc_json(toric_code))
        before = path.read_bytes()
        assert load_mtc(path) == toric_code
        edited = doubled(toric_code, (1, 2, 3))
        path.write_text(mtc_json(edited))
        after = path.read_bytes()
        assert len(after) == len(before) and after != before
        assert load_mtc(path) == edited
        assert len(parsed) == 2

    def test_loaded_fusion_is_read_only(self, parsed, tmp_path, toric_code):
        path = tmp_path / "t.json"
        path.write_text(mtc_json(toric_code))
        first = load_mtc(path)
        fusion, key = first.fusion, (1, 2, 3)
        with pytest.raises(TypeError):
            fusion[key] = 2
        with pytest.raises(TypeError):
            del fusion[key]
        assert not any(hasattr(fusion, name) for name in ("clear", "pop", "update"))
        # nor do dict's own methods reach the dict behind the mapping
        for name, args in [("__setitem__", (key, 2)), ("clear", ()), ("pop", (key,)),
                           ("update", ({key: 2},))]:
            with pytest.raises(TypeError):
                getattr(dict, name)(fusion, *args)
        second = load_mtc(path)
        assert second == toric_code and second is first and fusion[key] == 1
        assert len(parsed) == 1

    @pytest.mark.parametrize("name", ["bad_json.json", "unknown_label.json",
                                      "duplicate_label.json", "zero_denominator.json"])
    def test_malformed_file_raises_on_every_call(self, parsed, name):
        texts = []
        for _ in range(2):
            with pytest.raises(ParseError) as raised:
                load_mtc(fixture_path(name))
            texts.append(str(raised.value))
        assert texts[0] == texts[1]
        assert len(parsed) == 2 and mtc._loaded == {}

    def test_least_recently_used_file_is_parsed_again(self, parsed, tmp_path, toric_code):
        paths = []
        for i in range(mtc.LOADED_FILES + 1):
            paths.append(tmp_path / f"t{i}.json")
            paths[-1].write_text(mtc_json(toric_code._replace(name=f"t{i}")))
        for path in paths[:-1]:
            load_mtc(path)
        load_mtc(paths[0])  # reused: paths[1] is now the least recently used
        load_mtc(paths[-1])  # one file too many: paths[1] is evicted
        assert [load_mtc(p).name for p in (paths[0], paths[1])] == ["t0", "t1"]
        names = [json.loads(source)["name"] for source in parsed]
        assert names == [f"t{i}" for i in range(mtc.LOADED_FILES + 1)] + ["t1"]

    def test_cli_repeats_are_byte_identical_and_see_edits(self, parsed, tmp_path,
                                                           toric_code, capsys):
        mtc_path, sym_path = tmp_path / "f.json", tmp_path / "s.json"
        mtc_path.write_text(mtc_json(toric_code))
        sym_path.write_text(json.dumps({"mtc": "f.json", "generators": {"swap": "(e m)"}}))
        commands = [["validate", "--mtc", str(mtc_path), "--sym", str(sym_path), "--json"],
                    ["rank", "--sym", str(sym_path), "--json"],
                    ["burnside", "--sym", str(sym_path), "--json"]]
        for argv in commands:
            runs = []
            for _ in range(2):
                code = main(argv)
                runs.append((code, *capsys.readouterr()))
            assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""
        assert len(parsed) == 1

        mtc_path.write_text(mtc_json(doubled(toric_code, (1, 2, 3))))
        code = main(commands[0])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["mtc"]["ok"] is False and doc["mtc"]["violations"]
        assert len(parsed) == 2


class TestVerdictMemo:
    """A ModularData that load_mtc holds keeps its passing checks."""

    @pytest.fixture(autouse=True)
    def checks(self, monkeypatch):
        """The ModularData (and generator) of each run of the unwrapped checks."""
        runs, check_mtc, check_g = [], mtc._check_mtc, symmetry._check_automorphism

        def spy_mtc(m):
            runs.append((m,))
            return check_mtc(m)

        def spy_g(m, g):
            runs.append((m, g))
            return check_g(m, g)

        monkeypatch.setattr(mtc, "_check_mtc", spy_mtc)
        monkeypatch.setattr(symmetry, "_check_automorphism", spy_g)
        return runs

    @staticmethod
    def write(tmp_path, m):
        mtc_path, sym_path = tmp_path / "f.json", tmp_path / "s.json"
        mtc_path.write_text(mtc_json(m))
        sym_path.write_text(json.dumps({"mtc": "f.json", "generators": {"swap": "(e m)"}}))
        return mtc_path, sym_path

    def test_cli_repeats_check_once(self, checks, tmp_path, toric_code, capsys):
        mtc_path, sym_path = self.write(tmp_path, toric_code)
        for argv in (["validate", "--mtc", str(mtc_path), "--sym", str(sym_path), "--json"],
                     ["rank", "--sym", str(sym_path), "--json"],
                     ["burnside", "--sym", str(sym_path), "--json"]):
            runs = []
            for _ in range(2):
                code = main(argv)
                runs.append((code, *capsys.readouterr()))
            assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""
        loaded = load_mtc(mtc_path)
        assert checks == [(loaded,), (loaded, (0, 2, 1, 3))]
        assert mtc._passed == {id(loaded): {None, (0, 2, 1, 3)}}

    def test_rewritten_file_is_checked_again(self, checks, tmp_path, toric_code, capsys):
        mtc_path, sym_path = self.write(tmp_path, toric_code)
        argv = ["validate", "--mtc", str(mtc_path), "--sym", str(sym_path), "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        before = mtc_path.read_bytes()
        mtc_path.write_text(mtc_json(doubled(toric_code, (1, 2, 3))))
        assert len(mtc_path.read_bytes()) == len(before)
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["mtc"]["ok"] is False and doc["mtc"]["violations"]
        assert [len(run) for run in checks] == [1, 2, 1, 2]

    def test_failing_report_is_never_kept(self, checks, tmp_path, toric_code):
        path = tmp_path / "t.json"
        path.write_text(mtc_json(doubled(toric_code, (1, 2, 3))))
        m, moves_unit = load_mtc(path), (1, 0, 2, 3)
        reports = [validate_mtc(m), validate_mtc(m),
                   symmetry.validate_automorphism(m, moves_unit),
                   symmetry.validate_automorphism(m, moves_unit)]
        assert not any(r.ok for r in reports)
        assert reports[0] == reports[1] and reports[2] == reports[3]
        assert checks == [(m,), (m,), (m, moves_unit), (m, moves_unit)]
        assert mtc._passed == {id(m): set()}

    def test_unloaded_data_is_never_memoized(self, checks, tmp_path, toric_code):
        mtc_path, _ = self.write(tmp_path, toric_code)
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps({"mtc": json.loads(mtc_path.read_text()),
                                      "generators": {}}))
        loaded = load_mtc(mtc_path)
        others = [loaded._replace(name="copy"), parse_mtc(mtc_path.read_bytes()),
                  symmetry.load_symmetry(inline)[0]]
        for m in others:
            for _ in range(2):
                assert validate_mtc(m).ok and symmetry.validate_automorphism(m, (0, 2, 1, 3)).ok
        assert len(checks) == 4 * len(others)
        assert list(mtc._passed) == [id(loaded)] and mtc._passed[id(loaded)] == set()

    def test_memo_follows_the_cache(self, checks, tmp_path, toric_code):
        paths = []
        for i in range(mtc.LOADED_FILES + 1):
            paths.append(tmp_path / f"t{i}.json")
            paths[-1].write_text(mtc_json(toric_code._replace(name=f"t{i}")))
            assert validate_mtc(load_mtc(paths[-1])).ok
        assert set(mtc._passed) == {id(m) for m in mtc._loaded.values()}
        assert len(mtc._passed) == mtc.LOADED_FILES
        assert all(passed == {None} for passed in mtc._passed.values())
        assert validate_mtc(load_mtc(paths[0])).ok  # evicted: parsed and checked again
        assert len(checks) == mtc.LOADED_FILES + 2
