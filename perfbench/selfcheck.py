"""Check the checker before a run trusts it.

On small cases the oracles must agree with gcrank's brute-force tuple
enumeration (``wreath.brute_force_wreath_rank``), every job type must pass
``checks.check`` against the real CLI, and the same output must fail when
its expectation is deliberately wrong.  ``run`` returns the failures.
"""

from __future__ import annotations

import copy
import random
from pathlib import Path

import checks
import oracles
import workloads

# (factors, n, rk): products on disjoint supports with fixed points left over
SMALL_GROUPS = [
    ([("s", 3)], 4, 3), ([("a", 4)], 5, 2), ([("a", 5)], 5, 3),
    ([("z", 4)], 5, 2), ([("z", 6)], 6, 2), ([("d", 5)], 5, 3), ([("d", 6)], 7, 2),
    ([("s", 2), ("z", 3)], 6, 3), ([("a", 3), ("d", 4)], 8, 2),
]

_WRONG = {
    "wreath": lambda e: e.update(total=str(int(e["total"]) + 1)),
    "rank": lambda e: e.update(total=str(int(e["total"]) + 1)),
    "burnside": lambda e: e.update(orbit_count=e["orbit_count"] + 1),
    "poly": lambda e: e.update(text=e["text"] + " + 1"),
    "validate": lambda e: e.update(ok=not e["ok"]),
    "error": lambda e: e["stderr_has"].append("text the program never prints"),
}


def _small_jobs(rng: random.Random, workdir: Path) -> tuple[list[dict], list[str]]:
    from gcrank import wreath

    failures, jobs = [], []
    for factors, n, rk in SMALL_GROUPS:
        support = sum(k for _, k in factors)
        spec = workloads.product_spec(factors, rng.sample(range(1, n + 1), support))
        group = wreath.preset_group(spec, n)
        brute = wreath.brute_force_wreath_rank(rk, group)
        oracle = oracles.product_wreath_total(factors, n, rk)
        if (brute, group.order) != (oracle, oracles.product_order(factors)):
            failures.append(f"oracle for {spec} on {n} points: total {oracle} and "
                            f"order {oracles.product_order(factors)}, brute force "
                            f"{brute} and {group.order}")
        jobs.append(workloads.group_job(rk, n, factors, spec, "selfcheck"))
    for n, rk in ((4, 3), (6, 2)):
        brute = wreath.brute_force_wreath_rank(rk, wreath.preset_group(f"s{n}", n))
        if brute != oracles.rising(rk, n):
            failures.append(f"rising factorial {oracles.rising(rk, n)} != brute force "
                            f"{brute} for S_{n}, rk {rk}")
        jobs.append(workloads.wreath_sn_job(rk, n))
    jobs += [workloads.poly_job(n) for n in (1, 5, 9)]
    jobs.append(workloads.cap_job(2, 7, "s6", 100, "selfcheck"))
    inputs = workloads.MtcInputs(rng, workdir)
    jobs += [inputs.validate_job("toric_code", 2, "s"),
             inputs.validate_job("fibonacci", 3, "z"),
             inputs.broken_validate_job("toric_code", 2, "s", 0),
             inputs.broken_validate_job("ising", 2, "z", 1),
             inputs.unit_moved_job("rank", "fibonacci", 3, "z", 0),
             inputs.unit_moved_job("burnside", "ising", 2, "s", 1)]
    jobs += [inputs.orbit_job(op, *t) for op in ("rank", "burnside")
             for t in (("toric_code", 2, "s"), ("fibonacci", 3, "z"), ("ising", 3, "s"))]
    return jobs, failures


def run(workdir: Path) -> list[str]:
    from worker import run_job

    jobs, failures = _small_jobs(random.Random(0), workdir)
    for job in jobs:
        rc, out, err, _, _ = run_job(job["argv"])
        reason = checks.check(job, rc, out, err)
        if reason:
            failures.append(f"{' '.join(job['argv'])}: {reason}")
        wrong = copy.deepcopy(job)
        _WRONG[wrong["expect"]["check"]](wrong["expect"])
        if checks.check(wrong, rc, out, err) is None:
            failures.append(f"a wrong expectation passed for {' '.join(job['argv'])}")
    return failures
