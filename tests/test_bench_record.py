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
                               "median": {"parent": 0.025, "change": 0.010},
                               "quartiles": {"parent": [0.025, 0.025],
                                             "change": [0.010, 0.010]},
                               "lower": {"parent": 0, "change": 1}},
            "wreath.partitions.types": {"unit": "count",
                                        "values": {"parent": [88000], "change": [88000]},
                                        "median": {"parent": 88000, "change": 88000},
                                        "quartiles": {"parent": [88000, 88000],
                                                      "change": [88000, 88000]},
                                        "lower": {"parent": 0, "change": 0}},
        },
    }}}


def test_merge_counts_lower_seeds_and_quartiles(bench_record):
    """Four alternating pairs, one of them a tie: each label is lower on the
    seeds where it reads strictly less, and the tie counts for neither."""
    runs = []
    for i, (seed, parent, change) in enumerate(((5, 0.04, 0.03), (6, 0.02, 0.02),
                                                (7, 0.03, 0.05), (8, 0.05, 0.06))):
        pair = [("parent", parent), ("change", change)]
        for label, p50 in pair if i % 2 == 0 else pair[::-1]:
            runs.append((label, "wreath-cycle-types", 0, seed, result_line(True, 0, p50, 7)))
    block = bench_record.merge(runs)["wreath-cycle-types"]["trace 0"]
    assert block["seeds"] == {"parent": [5, 6, 7, 8], "change": [5, 6, 7, 8]}
    row = block["metrics"]["job_wall_s.p50"]
    assert row["values"] == {"parent": [0.04, 0.02, 0.03, 0.05],
                             "change": [0.03, 0.02, 0.05, 0.06]}
    # an even count: the median and quartiles fall between order statistics
    assert row["median"] == {"parent": pytest.approx(0.035), "change": pytest.approx(0.04)}
    assert row["quartiles"] == {"parent": [pytest.approx(0.0275), pytest.approx(0.0425)],
                                "change": [pytest.approx(0.0275), pytest.approx(0.0525)]}
    assert row["lower"] == {"parent": 2, "change": 1}
    assert block["metrics"]["wreath.partitions.types"]["lower"] == {"parent": 0, "change": 0}


def test_merge_keeps_seed_order_and_takes_medians(bench_record):
    lines = [("change", "mtc-symmetry", 0, seed, result_line(True, 0, p50, 0))
             for seed, p50 in ((3, 0.05), (1, 0.01), (2, 0.03))]
    block = bench_record.merge(lines)["mtc-symmetry"]["trace 0"]
    assert block["seeds"] == {"change": [3, 1, 2]}
    row = block["metrics"]["job_wall_s.p50"]
    assert row["values"] == {"change": [0.05, 0.01, 0.03]}
    assert row["median"] == {"change": 0.03}
    assert row["quartiles"] == {"change": [pytest.approx(0.02), pytest.approx(0.04)]}
    assert "lower" not in row  # one checkout: nothing to compare


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
