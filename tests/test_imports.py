"""Static check: every name a module of the package or of its tests
imports is used.

No linter ships with the project, so this parses each module with ``ast``
and fails on an imported name that the module never references, unless
the line that imports it carries ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "curldiv"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name, line in imported.items()
                  if name not in used
                  and "# noqa: F401" not in lines[line - 1])


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import (dumps,\n"
              "                  loads)\n"
              "import sys  # noqa: F401\n"
              "x = np.zeros(dumps(1))\n")
    assert unused_imports(source) == ["loads", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_imports_in_tests(module):
    assert unused_imports((TESTS / module).read_text()) == []
