"""Source hygiene checks that need no import of the code they check.

Every name that a module of src/qcover or tests/ imports must be used in that
module: an AST scan collects the names its import statements bind and fails
on any that never appears as a name elsewhere in it.  qcover/__init__.py
re-exports what it imports, and __future__ imports are directives, so both
are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REEXPORTS = ROOT / "src" / "qcover" / "__init__.py"
MODULES = sorted(path for folder in (ROOT / "src" / "qcover", ROOT / "tests")
                 for path in folder.glob("*.py") if path != REEXPORTS)


def unused_imports(source: str):
    """(line, name) of every imported name that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # "import a.b" binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_covers_both_trees():
    names = {path.name for path in MODULES}
    assert {"designs.py", "subspaces.py", "test_hygiene.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan_finds_each_binding_form():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport json as js\n"
              "from math import comb, prod as product\n"
              "def f():\n    return comb(2, 1) + os.sep\n")
    assert unused_imports(source) == [(4, "js"), (5, "product")]
