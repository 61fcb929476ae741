"""Job lists for the three workloads, drawn from a seed.

A job is one CLI call: ``{"kind", "argv", "key", "expect"}``.  ``kind``
names the job's input class, so an outlier can be traced to it; ``key`` is
the input the work depends on, so the share of jobs repeating an earlier
key shows how much a cache could save; ``expect`` is what ``checks.check``
compares the call's output against, computed by ``oracles``.

Each list is stratified.  A template fixes everything that sets a job's
cost (command, sizes, bit length of the base rank, cap), and every template
of a workload appears equally often.  The seed draws the rest: base ranks
within their bit length, point labels, label order in generated files,
the broken fusion entry, the label swapped with the unit, and the job
order.  The inputs differ from seed to seed while the cost mix, and so the
medians, stay put.  Templates were chosen so that job costs inside a
workload stay within about one decade.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracles

# Jobs per second of --seconds.  The run is bounded by this job count, not
# by a clock, so a faster program finishes the same list sooner.  Each job
# runs twice (see worker.py).  At --seconds 40 every list holds at least 100
# jobs, so that p90 has ten samples beyond it.
JOBS_PER_SECOND = {
    "wreath-cycle-types": 3.0,
    "wreath-explicit-groups": 2.5,
    "mtc-symmetry": 2.5,
}
WARMUP_JOBS = 6
DATA_DIR = Path("src/gcrank/data")
RK_BITS = (3, 16, 64, 128)


def _stratified(rng: random.Random, templates: list, count: int) -> list:
    """WARMUP_JOBS random templates, then every template count / len(templates)
    times in a random order."""
    jobs = [templates[i % len(templates)] for i in range(count)]
    rng.shuffle(jobs)
    return [rng.choice(templates) for _ in range(WARMUP_JOBS)] + jobs


def _rk(rng: random.Random, bits: int) -> int:
    """A base rank of exactly the given bit length."""
    return rng.getrandbits(bits) | 1 << (bits - 1)


# -- wreath-cycle-types -----------------------------------------------------

def poly_job(n: int) -> dict:
    coeffs = oracles.stirling_first(n)
    return {
        "kind": "poly", "key": f"poly/{n}",
        "argv": ["poly", "--n", str(n), "--json"],
        "expect": {"check": "poly", "n": n, "text": oracles.polynomial_text(coeffs),
                   "coefficients": [[k, str(c)] for k, c in enumerate(coeffs)
                                    if c and k][::-1]},
    }


def wreath_sn_job(rk: int, n: int) -> dict:
    classes, digest = oracles.symmetric_rows_digest(n)
    return {
        "kind": "wreath-sn", "key": f"wreath/{n}",
        "argv": ["wreath", "--rk", str(rk), "--n", str(n), "--group", f"s{n}", "--json"],
        "expect": {"check": "wreath", "rk": str(rk), "n": n,
                   "order": math.factorial(n), "total": str(oracles.rising(rk, n)),
                   "classes": classes, "digest": digest},
    }


# (kind, n, bits of rk): the rank's size sets the cost of rendering the rows.
# The dearest n, 28, is a fifth of the list, so that p90 falls inside it and
# not on its edge with n = 27.
CYCLE_TYPE_TEMPLATES = ([("wreath", n, bits) for n in (23, 24, 25, 26, 27, 28, 28)
                         for bits in RK_BITS]
                        + [("poly", n, None) for n in range(28, 34)] * 2)


def cycle_type_jobs(rng: random.Random, count: int, workdir: Path) -> list[dict]:
    return [poly_job(n) if kind == "poly" else wreath_sn_job(_rk(rng, bits), n)
            for kind, n, bits in _stratified(rng, CYCLE_TYPE_TEMPLATES, count)]


# -- wreath-explicit-groups ---------------------------------------------------

# (kind, factors, fixed points beyond the support, cap).  Presets act on
# the first k of n points; "gens" groups are products of factors on
# disjoint supports, given in cycle notation; "cap" jobs set --cap below the
# group order and must exit 1.  As in MTC_TEMPLATES, a quarter are cheap
# (70-130 ms), half middle (150-230 ms) and a quarter dear (270-330 ms), so
# that neither the median nor p90 falls on the edge between two groups.
EXPLICIT_TEMPLATES = (
    [("gens", [("a", 5), ("s", 3)], 0, None), ("preset", [("s", 6)], 2, None),
     ("cap", [("s", 8)], 1, 15000), ("cap", [("a", 8)], 1, 12000),
     ("cap", [("a", 9)], 0, 18000)]
    + [("gens", [("d", k)], extra, None) for k, extra in ((60, 2), (62, 1), (65, 0), (68, 1))]
    + [("gens", f, extra, None) for f, extra in (
        ([("s", 4), ("s", 4)], 1), ([("s", 4), ("s", 4)], 2), ([("a", 5), ("a", 4)], 0),
        ([("a", 5), ("a", 4)], 2), ([("s", 5), ("s", 3)], 2))]
    + [("cap", [("s", 6), ("s", 5)], 1, 15000)]
    + [("preset", [("a", 7)], extra, None) for extra in (0, 1, 2)]
    + [("gens", [("d", 7), ("a", 5)], 1, None), ("gens", [("a", 6), ("z", 3)], 2, None)]
)


def factor_generators(kind: str, points: list[int]) -> list[str]:
    """Cycle-notation generators of one factor acting on the given points."""
    k = len(points)

    def cyc(pts):
        return "(" + " ".join(map(str, pts)) + ")"

    if kind == "z":
        return [cyc(points)]
    if kind == "s":
        return [cyc(points[:2]), cyc(points)]
    if kind == "a":
        return [cyc(points[:3]), cyc(points if k % 2 else points[1:])]
    reflection = "".join(cyc([points[i], points[k - i]])
                         for i in range(1, k) if i < k - i)
    return [cyc(points), reflection]


def product_spec(factors, points: list[int]) -> str:
    gens = []
    for kind, k in factors:
        gens += factor_generators(kind, points[:k])
        points = points[k:]
    return ",".join(gens)


def group_job(rk: int, n: int, factors, spec: str, kind: str) -> dict:
    return {
        "kind": kind, "key": f"{spec}/{n}",
        "argv": ["wreath", "--rk", str(rk), "--n", str(n), "--group", spec, "--json"],
        "expect": {"check": "wreath", "rk": str(rk), "n": n,
                   "order": oracles.product_order(factors),
                   "total": str(oracles.product_wreath_total(factors, n, rk)),
                   "classes": oracles.product_class_count(factors)},
    }


def cap_job(rk: int, n: int, spec: str, cap: int, kind: str) -> dict:
    return {
        "kind": kind, "key": f"{spec}/{n}/{cap}",
        "argv": ["wreath", "--rk", str(rk), "--n", str(n), "--group", spec,
                 "--cap", str(cap), "--json"],
        "expect": {"check": "error", "rc": 1, "stderr_has": ["cap", str(cap)]},
    }


def explicit_group_jobs(rng: random.Random, count: int, workdir: Path) -> list[dict]:
    jobs = []
    for kind, factors, extra, cap in _stratified(rng, EXPLICIT_TEMPLATES, count):
        rk = _rk(rng, rng.choice(RK_BITS))
        name = kind + "/" + "x".join(f"{fk}{k}" for fk, k in factors)
        support = sum(k for _, k in factors)
        n = support + extra
        if len(factors) == 1 and kind != "gens":
            # s<k> names the closed form when k = n, so presets of S_k use k < n
            spec = f"{factors[0][0]}{support}"
        else:
            spec = product_spec(factors, rng.sample(range(1, n + 1), support))
        if kind == "cap":
            jobs.append(cap_job(rk, n, spec, cap + rng.randrange(-200, 200), name))
        else:
            jobs.append(group_job(rk, n, factors, spec, name))
    return jobs


# -- mtc-symmetry -----------------------------------------------------------

class PowerData:
    """C^k of a bundled MTC file, written with the seed's label order."""

    def __init__(self, base_doc: dict, k: int, rng: random.Random):
        base = base_doc["labels"]
        self.k = k
        self.base_rank = len(base)
        self.name = f"{base_doc['name']}^{k}"
        self.tuples = list(itertools.product(base, repeat=k))
        rng.shuffle(self.tuples)
        self.labels = ["*".join(t) for t in self.tuples]
        self.index = {t: i for i, t in enumerate(self.tuples)}
        self.unit = self.index[(base_doc["unit"],) * k]
        by_pair: dict = {}
        for x, y, z, mult in base_doc["fusion"]:
            by_pair.setdefault((x, y), []).append((z, mult))
        self.fusion = {}
        for xs in self.tuples:
            for ys in self.tuples:
                choices = [by_pair.get(pair, []) for pair in zip(xs, ys)]
                for combo in itertools.product(*choices):
                    zs = tuple(z for z, _ in combo)
                    key = (self.index[xs], self.index[ys], self.index[zs])
                    self.fusion[key] = math.prod(m for _, m in combo)
        base_twist = {l: Fraction(*base_doc["twists"][l]) for l in base}
        self.twists = [sum((base_twist[l] for l in t), Fraction(0)) % 1
                       for t in self.tuples]
        self.dual = [next(y for y in range(len(self.tuples))
                          if (x, y, self.unit) in self.fusion)
                     for x in range(len(self.tuples))]

    def document(self, fusion: dict) -> dict:
        lab = self.labels
        return {
            "name": self.name,
            "labels": lab,
            "unit": lab[self.unit],
            "fusion": [[lab[x], lab[y], lab[z], m] for (x, y, z), m in fusion.items()],
            "twists": {lab[i]: [t.numerator, t.denominator]
                       for i, t in enumerate(self.twists)},
        }

    def factor_permutation(self, sigma: list[int]) -> list[int]:
        """Label images of the permutation moving factor i to slot sigma[i]."""
        images = []
        for t in self.tuples:
            moved = [None] * self.k
            for i, v in enumerate(t):
                moved[sigma[i]] = v
            images.append(self.index[tuple(moved)])
        return images

    def cycle_text(self, images: list[int]) -> str:
        seen, parts = set(), []
        for start in range(len(images)):
            if start in seen or images[start] == start:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(self.labels[x])
                x = images[x]
            parts.append("(" + " ".join(cycle) + ")")
        return "".join(parts)

    def generator_images(self, group: str) -> dict[str, list[int]]:
        """Label images of the generators of S_k (a swap and a shift of
        factors) or Z_k (the shift)."""
        sigmas = {"c": [(i + 1) % self.k for i in range(self.k)]}
        if group == "s":
            sigmas["t"] = [1, 0] + list(range(2, self.k))
        return {name: self.factor_permutation(s) for name, s in sigmas.items()}

    def generators(self, group: str) -> dict:
        """S_k in cycle notation over labels, Z_k as image-label lists."""
        images = self.generator_images(group)
        if group == "z":
            return {name: [self.labels[j] for j in im] for name, im in images.items()}
        return {name: self.cycle_text(im) for name, im in images.items()}

    def broken_triple(self, rng: random.Random):
        """A fusion entry whose doubling breaks associativity at (x, y, z*)
        with outcome unit, by the recount below."""
        candidates = sorted(key for key, m in self.fusion.items()
                            if m == 1 and self.unit not in key)
        rng.shuffle(candidates)
        for x, y, z in candidates:
            fusion = dict(self.fusion)
            fusion[(x, y, z)] = 2
            w_ = self.dual[z]
            lhs = sum(fusion.get((x, y, w), 0) * fusion.get((w, w_, self.unit), 0)
                      for w in range(len(self.labels)))
            rhs = sum(fusion.get((y, w_, w), 0) * fusion.get((x, w, self.unit), 0)
                      for w in range(len(self.labels)))
            if lhs != rhs:
                return (x, y, z), fusion, [x, y, w_, self.unit]
        raise ValueError(f"no breakable fusion entry in {self.name}")


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class MtcInputs:
    """Generated MTC and symmetry files of one run, with their jobs."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng, self.workdir = rng, workdir
        self.powers: dict = {}
        self.files: dict = {}

    def power(self, base: str, k: int) -> PowerData:
        if (base, k) not in self.powers:
            doc = json.loads((DATA_DIR / f"{base}.json").read_text())
            p = self.powers[(base, k)] = PowerData(doc, k, self.rng)
            self.files[(base, k)] = _write(self.workdir / f"{base}{k}.json",
                                           p.document(p.fusion))
        return self.powers[(base, k)]

    def sym_file(self, base: str, k: int, group: str, extra=None, suffix="") -> str:
        key = (base, k, group, suffix)
        if key not in self.files:
            gens = dict(self.power(base, k).generators(group), **(extra or {}))
            self.files[key] = _write(
                self.workdir / f"{base}{k}{group}{suffix}.sym.json",
                {"mtc": Path(self.files[(base, k)]).name, "generators": gens})
        return self.files[key]

    def validate_job(self, base: str, k: int, group: str) -> dict:
        p = self.power(base, k)
        kind = f"validate/{p.name}/{group}{k}"
        return {
            "kind": kind, "key": kind,
            "argv": ["validate", "--mtc", self.files[(base, k)],
                     "--sym", self.sym_file(base, k, group), "--json"],
            "expect": {"check": "validate", "rc": 0, "ok": True, "rules": [],
                       "generators": {g: True for g in p.generators(group)},
                       "order": math.factorial(k) if group == "s" else k},
        }

    def broken_validate_job(self, base: str, k: int, group: str, i: int) -> dict:
        p = self.power(base, k)
        triple, fusion, violation = p.broken_triple(self.rng)
        path = _write(self.workdir / f"{base}{k}-broken{i}.json", p.document(fusion))
        # a generator keeps the doubled entry iff it fixes all three labels
        verdicts = {g: all(images[x] == x for x in triple)
                    for g, images in p.generator_images(group).items()}
        return {
            "kind": f"validate-broken/{p.name}/{group}{k}", "key": path,
            "argv": ["validate", "--mtc", path, "--sym", self.sym_file(base, k, group),
                     "--json"],
            "expect": {"check": "validate", "rc": 1, "ok": False,
                       "rules": ["associativity"], "violation": violation,
                       "generators": verdicts, "order": None},
        }

    def unit_moved_job(self, op: str, base: str, k: int, group: str, i: int) -> dict:
        p = self.power(base, k)
        other = self.rng.choice([x for x in range(len(p.labels)) if x != p.unit])
        images = list(range(len(p.labels)))
        images[p.unit], images[other] = other, p.unit
        path = self.sym_file(base, k, group, {"moves_unit": p.cycle_text(images)},
                             suffix=f"-unit{i}")
        return {
            "kind": f"unit-moved-{op}/{p.name}/{group}{k}", "key": path,
            "argv": [op, "--sym", path, "--json"],
            "expect": {"check": "error", "rc": 1,
                       "stderr_has": ["'moves_unit'", "unit maps to",
                                      repr(p.labels[other])]},
        }

    def orbit_job(self, op: str, base: str, k: int, group: str) -> dict:
        """``rank`` or ``burnside`` under S_k or Z_k permuting the factors."""
        p = self.power(base, k)
        r = p.base_rank
        if group == "s":
            order, total, orbits = math.factorial(k), oracles.rising(r, k), \
                oracles.multiset_count(r, k)
        else:
            orbits = oracles.necklace_count(r, k)
            order, total = k, k * orbits
        expect = {"check": op, "order": order, "total": str(total),
                  "orbit_count": orbits, "labels": len(p.labels), "group": group}
        if op == "rank":
            expect["pairs"] = sorted([rk, size, c] for (rk, size), c in
                                     oracles.rank_class_pairs(group, k, r).items())
        kind = f"{op}/{p.name}/{group}{k}"
        return {"kind": kind, "key": kind,
                "argv": [op, "--sym", self.sym_file(base, k, group), "--json"],
                "expect": expect}


# (job type, bundled data file, power k, factor-permutation group S_k or Z_k).
# A quarter cheap templates (40-100 ms), half middle ones (about 200 ms) and
# a quarter dear ones (about 400 ms): the median falls in the middle of the
# middle group and p90 inside the dear one, never on the edge between two
# groups, where the share of jobs that meet a fast spell of a shared host
# would move it.
MTC_TEMPLATES = (
    [("validate", "ising", 3, "s"), ("validate-broken", "ising", 3, "s"),
     ("rank", "ising", 4, "z"),
     ("unit-moved-rank", "fibonacci", 6, "z"), ("unit-moved-burnside", "fibonacci", 6, "z")]
    + [("validate", "fibonacci", 5, "z"), ("validate-broken", "fibonacci", 5, "z"),
       ("validate", "fibonacci", 5, "s"),
       ("rank", "fibonacci", 6, "z"), ("burnside", "fibonacci", 6, "z")] * 2
    + [("validate", "toric_code", 3, "z"), ("validate-broken", "toric_code", 3, "z"),
       ("validate", "toric_code", 3, "s"),
       ("rank", "ising", 4, "s"), ("burnside", "ising", 4, "s")]
)


def mtc_symmetry_jobs(rng: random.Random, count: int, workdir: Path) -> list[dict]:
    inputs = MtcInputs(rng, workdir)
    jobs = []
    for i, (op, *t) in enumerate(_stratified(rng, MTC_TEMPLATES, count)):
        if op == "validate":
            jobs.append(inputs.validate_job(*t))
        elif op == "validate-broken":
            jobs.append(inputs.broken_validate_job(*t, i))
        elif op.startswith("unit-moved-"):
            jobs.append(inputs.unit_moved_job(op.removeprefix("unit-moved-"), *t, i))
        else:
            jobs.append(inputs.orbit_job(op, *t))
    return jobs


WORKLOADS = {
    "wreath-cycle-types": (cycle_type_jobs, len(CYCLE_TYPE_TEMPLATES)),
    "wreath-explicit-groups": (explicit_group_jobs, len(EXPLICIT_TEMPLATES)),
    "mtc-symmetry": (mtc_symmetry_jobs, len(MTC_TEMPLATES)),
}


def make_jobs(workload: str, seed: int, seconds: int, workdir: Path):
    """(warm-up jobs, timed jobs) for one run; the same seed gives the same
    lists.  The timed count is a whole number of template rounds, so every
    seed runs the same mix."""
    generate, rounds_of = WORKLOADS[workload]
    rounds = max(1, round(seconds * JOBS_PER_SECOND[workload] / rounds_of))
    jobs = generate(random.Random(f"{workload}/{seed}"), rounds * rounds_of, workdir)
    return jobs[:WARMUP_JOBS], jobs[WARMUP_JOBS:]
