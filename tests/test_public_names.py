"""Every public module-level name of a gcrank module is read outside the tests.

A public name is a function, class or constant defined at the top level of
``src/gcrank/<module>.py`` (``__init__.py`` left out) whose name does not
start with "_".  It counts as read when it occurs as an ``ast.Name`` in load
context or as an ``ast.Attribute`` in ``src/gcrank`` (``__init__.py`` too,
though a re-export there is an import, not a read), ``perfbench/*.py`` or
``tools/*.py``, or as a word in ``.github/workflows/*.yml``.  So API that only
tests call fails here.  ``cli.cmd_*`` is exempt: ``main`` reaches each
command through ``globals()``.

A public method or property is a ``def`` in the body of such a class whose
name does not start with "_".  It counts as read only when it occurs as an
``ast.Attribute`` in those Python files.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "gcrank").glob("*.py") if p.name != "__init__.py")
READERS = [*(ROOT / "src" / "gcrank").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           *(ROOT / "tools").glob("*.py")]


def public_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


def public_methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def read_attributes():
    return {node.attr for path in READERS
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)}


def read_names():
    names = read_attributes()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    for path in (ROOT / ".github" / "workflows").glob("*.yml"):
        names.update(re.findall(r"\w+", path.read_text()))
    return names


def test_modules_and_readers_are_found():
    assert "mtc.py" in {p.name for p in MODULES} and len(READERS) > len(MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_read_outside_tests(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names()
    unread = [f"{path.name}:{name}" for name in public_names(tree)
              if not name.startswith("_") and name not in read
              and not (path.name == "cli.py" and name.startswith("cmd_"))]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_method_is_read_outside_tests(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_attributes()
    unread = [f"{path.name}:{qualified}" for qualified, name in public_methods(tree)
              if name not in read]
    assert unread == []
