"""Record perfbench results of one or more checkouts side by side.

    python3 tools/bench_record.py --out BENCH.json --seconds 40 --seeds 31 32 33 \\
        --checkout parent=../parent --checkout change=.

For every seed, workload and trace setting (0 and 1), ``perfbench/run.py``
runs once in each checkout, from that checkout's root and with this
interpreter.  Runs go one at a time, and the checkout that goes first
alternates from one seed to the next, so that each pair of runs meets the
host in the same state.  Each seed is one such alternating pair per
workload and trace setting, so a claimed gain needs at least ten seeds:
with fewer, "better on nine of ten pairs" cannot be read off.  Only the
last stdout line of a run, its result object, is kept.  ``merge`` lays
those lines out side by side: per workload and trace setting, each
metric's values per checkout in seed order, the median and quartiles
[q1, q3] of each, and each run's ``correct`` and ``failed`` fields.  When
exactly two checkouts ran, each metric row also counts, per checkout, the
seeds on which it read strictly lower than the other (ties count for
neither).  With the medians and the quartiles of the checkout compared
against, that is what a claimed gain is judged by: better on nine of ten
pairs, and in the median by more than the other's interquartile range.
Two recorded files then diff row by row.

Every run starts from source: each ``__pycache__`` under the checkout's
``src/`` is deleted first, and the run gets ``PYTHONDONTWRITEBYTECODE=1``,
so it writes none back.  ``setup_s`` times an interpreter up to
``gcrank.cli`` imported, and compiling ``src/gcrank`` is about 30 ms of
that: in six alternating ``mtc-symmetry`` pairs, a checkout holding
``src/gcrank/__pycache__`` read 0.088 s against 0.122 s for a parent
without one, and with the caches removed from both the same trees read
0.114 s against 0.122 s, inside the parent's IQR of 0.015 s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("wreath-cycle-types", "wreath-explicit-groups", "mtc-symmetry")


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> str:
    """The last stdout line of one ``perfbench/run.py`` run in ``checkout``,
    with no bytecode cache under ``src/`` before or during the run."""
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return done.stdout.strip().splitlines()[-1]


def merge(runs) -> dict:
    """Lay out result lines side by side.  ``runs`` yields (checkout label,
    workload, trace, seed, last result line) in the order they ran."""
    out: dict = {}
    for label, workload, trace, seed, line in runs:
        result = json.loads(line)
        block = out.setdefault(workload, {}).setdefault(f"trace {trace}", {
            "seeds": {}, "correct": {}, "failed": {}, "metrics": {}})
        block["seeds"].setdefault(label, []).append(seed)
        block["correct"].setdefault(label, []).append(result["correct"])
        block["failed"].setdefault(label, []).append(result["failed"])
        for name, metric in result["metrics"].items():
            row = block["metrics"].setdefault(name, {"unit": metric["unit"], "values": {}})
            row["values"].setdefault(label, []).append(metric["value"])
    for workload in out.values():
        for block in workload.values():
            for row in block["metrics"].values():
                values = row["values"]
                row["median"] = {label: statistics.median(v) for label, v in values.items()}
                row["quartiles"] = {label: quartiles(v) for label, v in values.items()}
                if len(values) == 2:
                    (a, va), (b, vb) = values.items()
                    row["lower"] = {a: sum(x < y for x, y in zip(va, vb)),
                                    b: sum(y < x for x, y in zip(va, vb))}
    return out


def quartiles(values) -> list:
    """[q1, q3] of ``values`` by linear interpolation between order
    statistics (``statistics.quantiles`` "inclusive"); [v, v] for one value."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                        help="a source checkout to run, repeated for each one")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one alternating pair of runs per seed; "
                             "at least ten to back a claimed gain")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--checkout {item!r} is not LABEL=DIR of a checkout with perfbench/")
        checkouts.append((label, Path(path).resolve()))
    runs = []
    for i, seed in enumerate(args.seeds):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for workload in WORKLOADS:
            for trace in (0, 1):
                for label, path in order:
                    line = run_once(path, workload, seed, args.seconds, trace)
                    print(f"{label} {workload} seed {seed} trace {trace}: {line}", flush=True)
                    runs.append((label, workload, trace, seed, line))
    doc = {"seconds": args.seconds, "seeds": args.seeds,
           "checkouts": [label for label, _ in checkouts], "workloads": merge(runs)}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
