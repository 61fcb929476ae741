"""``tools/bench_record.py``: the merge step on canned result lines, and
one run with ``subprocess.run`` stubbed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(correct, failed, p50, types):
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": {
        "job_wall_s.p50": {"value": p50, "unit": "s"},
        "wreath.partitions.types": {"value": types, "unit": "count"}}})


def test_merge_lays_two_lines_side_by_side(bench_record):
    parent = result_line(True, 0, 0.025, 88000)
    change = result_line(False, 2, 0.010, 88000)
    merged = bench_record.merge([
        ("parent", "wreath-cycle-types", 1, 21, parent),
        ("change", "wreath-cycle-types", 1, 21, change),
    ])
    assert merged == {"wreath-cycle-types": {"trace 1": {
        "seeds": {"parent": [21], "change": [21]},
        "correct": {"parent": [True], "change": [False]},
        "failed": {"parent": [0], "change": [2]},
        "metrics": {
            "job_wall_s.p50": {"unit": "s",
                               "values": {"parent": [0.025], "change": [0.010]},
                               "median": {"parent": 0.025, "change": 0.010}},
            "wreath.partitions.types": {"unit": "count",
                                        "values": {"parent": [88000], "change": [88000]},
                                        "median": {"parent": 88000, "change": 88000}},
        },
    }}}


def test_merge_keeps_seed_order_and_takes_medians(bench_record):
    lines = [("change", "mtc-symmetry", 0, seed, result_line(True, 0, p50, 0))
             for seed, p50 in ((3, 0.05), (1, 0.01), (2, 0.03))]
    block = bench_record.merge(lines)["mtc-symmetry"]["trace 0"]
    assert block["seeds"] == {"change": [3, 1, 2]}
    row = block["metrics"]["job_wall_s.p50"]
    assert row["values"] == {"change": [0.05, 0.01, 0.03]}
    assert row["median"] == {"change": 0.03}


def test_run_once_starts_from_source(bench_record, tmp_path, monkeypatch):
    """Bytecode caches under src/ are gone before the run, and the run is
    told to write none."""
    cache = tmp_path / "src" / "gcrank" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "x.pyc").write_bytes(b"")
    line = result_line(True, 0, 0.03, 0)
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs, cache_left=cache.exists())
        return subprocess.CompletedProcess(argv, 0, stdout=f"a run\n{line}\n")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    assert bench_record.run_once(tmp_path, "mtc-symmetry", 1, 4, 0) == line
    assert seen["cwd"] == tmp_path
    assert seen["cache_left"] is False
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
