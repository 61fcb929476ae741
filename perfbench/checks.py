"""Compare one CLI call's exit code and output with its job's expectation.

``check`` returns None when the call is correct and a one-line reason
otherwise.  It imports nothing from gcrank: cycle notation and cycle types
are re-read here, and every number is compared with the value ``oracles``
computed when the job was drawn.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import oracles

_CYCLE = re.compile(r"\(([^()]*)\)")


def _cycle_lengths(text: str) -> list[int]:
    return [len(c.split()) for c in _CYCLE.findall(text) if c.split()]


class Mismatch(Exception):
    """The output disagrees with the expectation."""


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def _check_wreath(e: dict, doc: dict) -> None:
    _expect(doc["rk"] == e["rk"] and doc["n"] == e["n"], "rk or n echoed wrong")
    _expect(doc["group_order"] == e["order"],
            f"group order {doc['group_order']} != {e['order']}")
    _expect(doc["total_rank"] == e["total"], "total rank differs from the oracle")
    rows = doc["per_class"]
    _expect(len(rows) == e["classes"], f"{len(rows)} classes != {e['classes']}")
    _expect(sum(int(r["class_size"]) for r in rows) == e["order"],
            "class sizes do not sum to the group order")
    rk, total = int(e["rk"]), 0
    for r in rows:
        contribution = int(r["contribution"])
        _expect(contribution == int(r["class_size"]) * rk ** r["num_cycles"],
                "contribution != class size * rk^cycles")
        total += contribution
    _expect(total == int(e["total"]), "contributions do not sum to the total")
    if "digest" in e:
        # S_n: the rows must be exactly the oracle's cycle types
        canonical = [(tuple(r["cycle_type"]), r["representative"],
                      int(r["class_size"]), r["num_cycles"]) for r in rows]
        _expect(oracles.rows_digest(canonical) == e["digest"],
                "class rows differ from the p(n) cycle-type oracle")
        return
    n = e["n"]
    for r in rows:
        lengths = _cycle_lengths(r["representative"])
        a = oracles.cycle_vector(lengths + [1] * (n - sum(lengths)), n)
        _expect(tuple(r["cycle_type"]) == a and r["num_cycles"] == sum(a),
                f"representative {r['representative']} is not of type {r['cycle_type']}")


def _check_poly(e: dict, doc: dict) -> None:
    _expect(doc["n"] == e["n"], "n echoed wrong")
    _expect(doc["coefficients"] == e["coefficients"],
            "coefficients differ from the Stirling numbers")
    _expect(doc["text"] == e["text"], "rendered polynomial differs")


def _check_validate(e: dict, doc: dict) -> None:
    violations = doc["mtc"]["violations"]
    _expect(doc["mtc"]["ok"] is e["ok"], f"mtc ok is {doc['mtc']['ok']}")
    _expect(sorted({v["rule"] for v in violations}) == e["rules"],
            f"violated rules {sorted({v['rule'] for v in violations})} != {e['rules']}")
    if e.get("violation"):
        _expect(any(v["indices"] == e["violation"] for v in violations),
                f"no violation at {e['violation']}")
    verdicts = {g: r["ok"] for g, r in doc["generators"].items()}
    _expect(verdicts == e["generators"], f"generator verdicts {verdicts}")
    _expect(doc.get("group_order") == e["order"],
            f"group order {doc.get('group_order')} != {e['order']}")


def _check_rank(e: dict, doc: dict) -> None:
    _expect(doc["group_order"] == e["order"], "group order differs")
    _expect(doc["total_rank"] == e["total"], "total rank differs from the oracle")
    _expect(doc["orbit_count"] == e["orbit_count"], "orbit count differs")
    pairs = Counter((int(r["rank"]), r["class_size"]) for r in doc["per_element"])
    _expect(sorted([rk, size, c] for (rk, size), c in pairs.items()) == e["pairs"],
            "per-element (rank, class size) multiset differs from the cycle-type oracle")


def _check_burnside(e: dict, doc: dict) -> None:
    _expect(doc["group_order"] == e["order"], "group order differs")
    _expect(doc["orbit_count"] == e["orbit_count"] == len(doc["orbits"]),
            "orbit count differs from the multiset/necklace count")
    _expect(doc["fixed_point_sum"] == doc["burnside_total"] == e["total"],
            "fixed-point sum or |G| x orbits differs from the oracle")
    labels = [label for orbit in doc["orbits"] for label in orbit]
    _expect(len(labels) == len(set(labels)) == e["labels"],
            "the orbits do not partition the labels")
    keys = set()
    for orbit in doc["orbits"]:
        orbit_keys = {oracles.orbit_key(e["group"], tuple(l.split("*"))) for l in orbit}
        _expect(len(orbit_keys) == 1, f"orbit {orbit} mixes factor multisets")
        keys |= orbit_keys
    _expect(len(keys) == len(doc["orbits"]), "two orbits share a factor multiset")


_CHECKS = {
    "wreath": _check_wreath,
    "poly": _check_poly,
    "validate": _check_validate,
    "rank": _check_rank,
    "burnside": _check_burnside,
}


def check(job: dict, rc: int, out: str, err: str) -> str | None:
    e = job["expect"]
    expected_rc = e.get("rc", 0)
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}: {err.strip()[:200]}"
    try:
        if e["check"] == "error":
            _expect(out == "", "stdout not empty on an error")
            _expect(err.startswith("error: ") and err.count("\n") == 1,
                    f"stderr is not one error line: {err[:200]!r}")
            for part in e["stderr_has"]:
                _expect(part in err, f"stderr lacks {part!r}: {err.strip()[:200]}")
            return None
        _expect(err == "", f"unexpected stderr: {err[:200]!r}")
        _CHECKS[e["check"]](e, json.loads(out))
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
