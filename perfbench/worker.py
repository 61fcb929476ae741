"""Run one job list in-process: ``python3 worker.py JOBS.json RESULT.json``.

The process is started fresh for each benchmark run with ``src`` on
PYTHONPATH.  Each job is one ``gcrank.cli.main(argv)`` call with stdout
and stderr captured; only that call is timed.  ``gc.collect()`` and the
output check run between jobs, outside the timed region.

The list runs twice in the same order, so each job's two runs lie half a
run apart, and a job's time is the slower of its two.  The shared 2-vCPU
host this was tuned on runs at a steady base speed broken by fast spells of
2 to 15 seconds in which the same code runs 1.3 to 1.6 times faster.  How
much of a 30-second run such spells cover varied from none to half, and
moved the median of single runs by up to 20%; a job counts as fast only
when both of its runs met a spell.  Between jobs, spread evenly over both
passes, the worker also times cold starts of a fresh interpreter up to
``gcrank.cli`` imported.  With tracing on, each job runs once untraced and
once traced instead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gcrank.cli

import checks
from spans import Tracer


def cold_start() -> float:
    """Seconds from spawning an interpreter to ``gcrank.cli`` imported.  The
    child inherits this process's environment, with ``src`` on PYTHONPATH;
    CLOCK_MONOTONIC is one clock for both processes."""
    code = "import time, gcrank.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout) - start


def run_job(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        rc = gcrank.cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def timed_call(job: dict, verified: str | None = None) -> dict:
    """Run and check one job.  ``verified`` is the output digest of an
    earlier run of the same job that passed its check: the same output
    again passes without a second check."""
    gc.collect()
    digest = None
    try:
        rc, out, err, wall, cpu = run_job(job["argv"])
        digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()
        error = None if digest == verified else checks.check(job, rc, out, err)
    except Exception:
        # a traceback out of the CLI is a wrong answer, not a crash of the run
        wall = cpu = 0.0
        error = "uncaught exception: " + traceback.format_exc(limit=3)[-300:]
    return {"wall": wall, "cpu": cpu, "error": error,
            "digest": None if error else digest}


def traced_call(tracer: Tracer, job: dict) -> dict:
    tracer.install()
    try:
        return timed_call(job)
    finally:
        tracer.uninstall()


def two_passes(jobs: list[dict], starts: int) -> tuple[list[dict], list[float]]:
    """Each job's slower run of two passes over the list, and the cold starts."""
    runs = jobs + jobs
    start_before = {k * len(runs) // starts for k in range(starts)}
    first, timed, setup = [], [], []
    for i, job in enumerate(runs):
        if i in start_before:
            setup.append(cold_start())
        if i < len(jobs):
            first.append(timed_call(job))
            continue
        a = first[i - len(jobs)]
        b = timed_call(job, a["digest"])
        timed.append({"wall": max(a["wall"], b["wall"]), "cpu": max(a["cpu"], b["cpu"]),
                      "error": a["error"] or b["error"]})
    return timed, setup


def main(jobs_path: str, result_path: str) -> None:
    doc = json.loads(Path(jobs_path).read_text())
    result = {"warmup": [timed_call(job) for job in doc["warmup"]]}
    if not doc["trace"]:
        result["timed"], result["setup"] = two_passes(doc["jobs"], doc["setup_starts"])
    else:
        # each job runs untraced and traced, alternating which goes first so
        # that neither side always finds the caches warm
        tracer = Tracer()
        result["timed"], result["traced"], result["setup"] = [], [], []
        for i, job in enumerate(doc["jobs"]):
            if i % 2:
                traced = traced_call(tracer, job)
                untraced = timed_call(job)
            else:
                untraced = timed_call(job)
                traced = traced_call(tracer, job)
            result["timed"].append(untraced)
            result["traced"].append(traced)
        result["layers"] = tracer.layer_times()
        result["counts"] = dict(tracer.counts)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
