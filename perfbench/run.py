"""Benchmark of the gcrank CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run: check the oracles (``selfcheck``), draw a fixed job list from the
seed (``workloads``), then run the list twice in one fresh worker process,
one closed-loop client, each job an in-process ``main(argv)`` call checked
against its oracle and timed as the slower of its two runs.  Between jobs
the worker times cold starts of a fresh interpreter up to ``gcrank.cli``
imported (``setup_s``).  The last stdout line is the result object; the
lines before it describe the run.  With ``--trace 1`` the worker runs each
job once untraced and once with spans around each layer's public functions,
and the run reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selfcheck
import workloads

SETUP_STARTS = 8
RUN_BUDGET_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SPAN_METRICS = (
    "cli.main.self_s", "mtc.parse_mtc.s", "mtc.validate_mtc.s",
    "symmetry.load_symmetry.self_s", "symmetry.validate_automorphism.s",
    "symmetry.build_symmetry.self_s", "perms.generate_group.s",
    "perms.conjugacy_classes.s", "perms.orbits.s", "rank.rank_report.self_s",
    "wreath.partitions.s", "wreath.rank_wreath_symmetric.self_s",
    "wreath.rank_wreath_subgroup.self_s", "wreath.rank_polynomial_symmetric.self_s",
)
COUNT_METRICS = (
    "mtc.validate_mtc.violations", "symmetry.validate_automorphism.calls",
    "perms.generate_group.elements", "perms.generate_group.compositions",
    "perms.generate_group.cap_hits", "perms.conjugacy_classes.compositions",
    "wreath.partitions.types",
)


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_context() -> dict:
    ctx = {"loadavg": list(os.getloadavg())}
    try:
        ctx["steal_ticks"] = int(Path("/proc/stat").read_text().split()[8])
    except (OSError, IndexError, ValueError):
        ctx["steal_ticks"] = None
    return ctx


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it
    (else the median): (percentile, value, samples beyond)."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value = percentile(ordered, p)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= 10:
            break
    return p, value, beyond


def run_worker(jobs_doc: dict, workdir: Path, env: dict, timeout: float) -> dict:
    jobs_path, result_path = workdir / "jobs.json", workdir / "result.json"
    jobs_path.write_text(json.dumps(jobs_doc))
    worker = Path(__file__).with_name("worker.py")
    with subprocess.Popen([sys.executable, str(worker), str(jobs_path), str(result_path)],
                          env=env) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text())


def job_summary(jobs: list[dict], results: list[dict]) -> dict:
    by_kind: dict = {}
    for job, r in zip(jobs, results):
        by_kind.setdefault(job["kind"], []).append(r["wall"])
    seen, repeats = set(), 0
    for job in jobs:
        repeats += job["key"] in seen
        seen.add(job["key"])
    walls = [r["wall"] for r in results]
    slowest = sorted(range(len(jobs)), key=lambda i: -results[i]["wall"])[:5]
    return {
        "jobs": len(jobs),
        "cost_range_s": [min(walls), max(walls)],
        "expected_failure_share": sum(j["expect"].get("rc", 0) != 0 for j in jobs) / len(jobs),
        "repeat_share": repeats / len(jobs),
        "kinds": {k: {"count": len(v), "median_s": statistics.median(v), "max_s": max(v)}
                  for k, v in sorted(by_kind.items())},
        "slowest": [{"kind": jobs[i]["kind"], "wall_s": results[i]["wall"],
                     "argv": " ".join(jobs[i]["argv"])} for i in slowest],
    }


def layer_metrics(result: dict) -> tuple[dict, list[tuple]]:
    layers, counts = result["layers"], result["counts"]
    metrics = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        metrics[name] = (layers.get(span, {}).get(field, 0.0), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    compositions = counts.get("perms.generate_group.compositions", 0)
    metrics["perms.generate_group.useful_ratio"] = (
        counts.get("perms.generate_group.useful", 0) / compositions if compositions else 0.0,
        "ratio")
    elements = counts.get("perms.generate_group.elements", 0)
    metrics["symmetry.validate_automorphism.calls_per_element"] = (
        counts.get("symmetry.validate_automorphism.calls", 0) / elements if elements else 0.0,
        "ratio")
    untraced = sum(r["wall"] for r in result["timed"])
    traced = sum(r["wall"] for r in result["traced"])
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    table = sorted(((name, row["calls"], row["s"], row["self_s"], row["self_s"] / traced)
                    for name, row in layers.items()), key=lambda row: -row[3])
    return metrics, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = clock()
    if not Path("src/gcrank/cli.py").is_file():
        print("error: run from the root of a gcrank checkout (src/gcrank not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    workdir = Path(".bench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        context = {"nproc": os.cpu_count(),
                   "affinity": len(os.sched_getaffinity(0)),
                   "python": platform.python_version(),
                   "before": machine_context()}
        self_failures = selfcheck.run(workdir)
        warmup, jobs = workloads.make_jobs(args.workload, args.seed, args.seconds, workdir)
        result = run_worker({"warmup": warmup, "jobs": jobs, "trace": bool(args.trace),
                             "setup_starts": SETUP_STARTS},
                            workdir, child_env(), RUN_BUDGET_S - (clock() - started))
        setup = result["setup"]
        context["after"] = machine_context()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            workdir.parent.rmdir()

    timed = result["timed"]
    walls = [r["wall"] for r in timed]
    passes = [(warmup, result["warmup"]), (jobs, timed)]
    if args.trace:
        passes.append((jobs, result["traced"]))
    errors = [(job, r["error"]) for pass_jobs, results in passes
              for job, r in zip(pass_jobs, results) if r["error"]]
    failed = sum(1 for i, r in enumerate(timed)
                 if r["error"] or (args.trace and result["traced"][i]["error"]))
    tail_p, tail_value, beyond = tail(walls)
    summary = job_summary(jobs, timed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "warmup_jobs": len(warmup), "tail_percentile": tail_p,
              "tail_samples_beyond": beyond, "setup_samples_s": setup,
              "context": context, **summary}
    print(json.dumps(report))
    for job, error in errors[:10]:
        print(f"FAILED {job['kind']}: {' '.join(job['argv'])}: {error}")
    for failure in self_failures:
        print(f"SELF-CHECK FAILED: {failure}")

    if args.trace:
        metrics, table = layer_metrics(result)
        print(f"{'layer':40} {'calls':>7} {'total s':>9} {'self s':>9} {'self share':>10}")
        for name, calls, total, self_s, share in table:
            print(f"{name:40} {calls:7d} {total:9.4f} {self_s:9.4f} {share:10.1%}")
        print(f"tracing overhead: traced / untraced job wall = "
              f"{metrics['trace.overhead_ratio'][0]:.4f}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "job_wall_s.p50": (statistics.median(walls), "s"),
            "job_wall_s.tail": (tail_value, "s"),
            "job_cpu_s.p50": (statistics.median(r["cpu"] for r in timed), "s"),
            "jobs_per_s": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mb.max": (result["peak_rss_mb"], "MB"),
            "ok_ratio": ((len(timed) - failed) / len(timed), "ratio"),
        }
    print(json.dumps({
        "correct": not errors and not self_failures,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
