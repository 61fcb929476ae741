"""Every name a gcrank module, test file or tool imports is used in that file.

``src/gcrank/__init__.py`` is left out: its imports are the package's
exports.  A name counts as used when it occurs as an ``ast.Name`` (a bare
name such as ``perms`` in ``perms.orbits``), so an import left behind when
the code using it is deleted fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
# gcrank's modules by file name, test files and tools by folder and name
FILES = {p.name: p for p in (ROOT / "src" / "gcrank").glob("*.py") if p.name != "__init__.py"}
FILES.update((f"{folder}/{p.name}", p) for folder in ("tests", "tools")
             for p in (ROOT / folder).glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("name", sorted(FILES))
def test_every_import_is_used(name):
    path = FILES[name]
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []
