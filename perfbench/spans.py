"""Spans around gcrank's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function in every gcrank module
that binds it (``gcrank.cli.validate_mtc`` as well as
``gcrank.mtc.validate_mtc``), so calls through either name are recorded.
A span is ``(id, parent id, name, start, end)``; a layer's self time is its
span time minus the time of its child spans.  Counts are derived from each
call's arguments and result, never by wrapping ``perms.compose``: closure
costs |G|·|S| compositions and conjugacy-class search 2·|G| per class.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

from gcrank.errors import GroupTooLarge

TRACED = {
    "cli": ["main"],
    "mtc": ["parse_mtc", "validate_mtc"],
    "symmetry": ["load_symmetry", "validate_automorphism", "build_symmetry"],
    "perms": ["generate_group", "conjugacy_classes", "orbits"],
    "rank": ["rank_report"],
    "wreath": ["partitions", "rank_wreath_symmetric", "rank_wreath_subgroup",
               "rank_polynomial_symmetric"],
}


def _count(counts, name: str, args, result, exc) -> None:
    if name == "mtc.validate_mtc" and exc is None:
        counts["mtc.validate_mtc.violations"] += len(result.violations)
    elif name == "symmetry.validate_automorphism":
        counts["symmetry.validate_automorphism.calls"] += 1
    elif name == "perms.generate_group":
        if isinstance(exc, GroupTooLarge):
            counts["perms.generate_group.cap_hits"] += 1
        elif exc is None:
            counts["perms.generate_group.elements"] += result.order
            counts["perms.generate_group.useful"] += result.order - 1
            counts["perms.generate_group.compositions"] += result.order * len(args[1])
    elif name == "perms.conjugacy_classes" and exc is None:
        counts["perms.conjugacy_classes.compositions"] += (
            2 * len(result.classes) * args[0].order)
    elif name == "wreath.partitions" and exc is None:
        counts["wreath.partitions.types"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, counts, stack, ids = self.spans, self.counts, self._stack, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
                _count(counts, name, args, result, exc)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "gcrank" or key.startswith("gcrank.")]
        for short, names in TRACED.items():
            home = sys.modules[f"gcrank.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
            row["calls"] += 1
        return out
