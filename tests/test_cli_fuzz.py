"""Arbitrary JSON values in valid data files never escape the CLI.

One value is put in one place of a valid MTC document (the toric code with
explicit duals) or of its symmetry file: a top-level MTC field, a fusion
entry or one slot of it, a twist pair or one of its numbers, a ``duals``
value, the ``generators`` object, one generator, or the ``"mtc"`` value.
``validate`` (with and without ``--sym``), ``rank`` and ``burnside`` then run
on the files, with and without ``--json``: each returns 0, 1 or 2, and no
exception leaves ``cli.main``.  The same holds when one of the two files
holds arbitrary bytes, or the valid file's bytes with a few spans replaced.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcrank
from gcrank.cli import main

TORIC = json.loads(gcrank.bundled_data_path("toric_code.json").read_text())
LABELS = TORIC["labels"]
MTC = {**TORIC, "duals": {label: label for label in LABELS}}  # each is its own dual
SYM = {"mtc": "mtc.json", "generators": {"swap_em": "(e m)", "swap_list": ["1", "m", "e", "f"]}}

TARGETS = [
    *(("mtc", key) for key in MTC),
    *(("mtc", "fusion", i) for i in range(len(MTC["fusion"]))),
    *(("mtc", "fusion", i, j) for i in range(len(MTC["fusion"])) for j in range(4)),
    *(("mtc", "twists", label) for label in LABELS),
    *(("mtc", "twists", label, j) for label in LABELS for j in range(2)),
    *(("mtc", "duals", label) for label in LABELS),
    ("sym", "generators"),
    *(("sym", "generators", name) for name in SYM["generators"]),
    ("sym", "mtc"),
]

SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([*LABELS, "", "x", "(e m)", "(1 f)", "(e m", "(e e)", "mtc.json"])
           | st.text(max_size=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(LABELS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=8)

COMMANDS = [
    ["validate", "--mtc", "{mtc}"],
    ["validate", "--mtc", "{mtc}", "--sym", "{sym}"],
    ["rank", "--sym", "{sym}"],
    ["burnside", "--sym", "{sym}"],
]


FILE_BYTES = {name: json.dumps(doc).encode() for name, doc in (("mtc", MTC), ("sym", SYM))}


def mutations(valid: bytes):
    """``valid`` with one to three spans of up to 8 bytes replaced by up to
    8 arbitrary bytes, so bytes are flipped, dropped and inserted."""
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8))

    def apply(edits):
        data = valid
        for start, length, new in edits:
            data = data[:start] + new + data[start + length:]
        return data

    return st.lists(edit, min_size=1, max_size=3).map(apply)


def assert_exit_codes(paths, case):
    for command in COMMANDS:
        argv = [arg.format(**paths) for arg in command]
        for extra in ([], ["--json"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + extra)
            assert code in (0, 1, 2), (case, argv + extra)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_the_unchanged_files_are_valid(folder):
    (folder / "mtc.json").write_text(json.dumps(MTC))
    (folder / "sym.json").write_text(json.dumps(SYM))
    assert main(["validate", "--mtc", str(folder / "mtc.json"),
                 "--sym", str(folder / "sym.json")]) == 0


@given(target=st.sampled_from(TARGETS), value=VALUES)
@settings(max_examples=250, deadline=None, derandomize=True)
def test_any_value_anywhere_exits_0_1_or_2(folder, target, value):
    docs = copy.deepcopy({"mtc": MTC, "sym": SYM})
    *path, last = target
    node = docs
    for key in path:
        node = node[key]
    node[last] = value
    paths = {name: folder / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    assert_exit_codes(paths, (target, value))


@given(data=st.data(), name=st.sampled_from(sorted(FILE_BYTES)))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_any_bytes_in_either_file_exit_0_1_or_2(folder, data, name):
    content = data.draw(st.binary(max_size=64) | mutations(FILE_BYTES[name]))
    paths = {other: folder / f"{other}.json" for other in FILE_BYTES}
    for other, valid in FILE_BYTES.items():
        paths[other].write_bytes(content if other == name else valid)
    assert_exit_codes(paths, (name, content))
