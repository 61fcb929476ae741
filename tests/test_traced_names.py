"""``perfbench/spans.py`` wraps gcrank's layers by looking each name in its
``TRACED`` table up with ``getattr``; a renamed or deleted function would
break ``--trace 1``.  The table is read from the file as it stands."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_table() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


PAIRS = [(module, name) for module, names in traced_table().items() for name in names]


def test_table_is_not_empty():
    assert ("wreath", "partitions") in PAIRS


@pytest.mark.parametrize("module, name", PAIRS)
def test_traced_name_is_a_gcrank_callable(module, name):
    assert callable(getattr(importlib.import_module(f"gcrank.{module}"), name, None))
