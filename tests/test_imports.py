"""What the package imports.

Static check: every name a module of the package, of its tests or of the
benchmark imports is used.  No linter ships with the project, so this
parses each module with ``ast`` and fails on an imported name that the
module never references, unless the line that imports it carries
``# noqa: F401``.

Run-time check: the topology path runs on numpy alone, and scipy loads
only when a solve needs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "curldiv"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))
PERFBENCH_MODULES = sorted(p.name for p in PERFBENCH.glob("*.py"))


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


@pytest.mark.parametrize("module", PERFBENCH_MODULES)
def test_no_unused_imports_in_perfbench(module):
    assert unused_imports((PERFBENCH / module).read_text()) == []


_TOPOLOGY_THEN_SOLVE = """
import contextlib, io, sys
from curldiv import cli, read_gmsh, solid_torus_mesh, write_gmsh

m = solid_torus_mesh()
path = sys.argv[1]
write_gmsh(path, m.vertices, m.tets)
report = cli.topology_report(read_gmsh(path).mesh)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["topology", "--mesh", path])
assert (report["g"], code) == (1, 0), (report, code)
assert "scipy" not in sys.modules, "the topology path loaded scipy"
for f in ("tangential", "normal"):
    _, rep = cli.solve_on_mesh(m, cli.ProblemConfig(formulation=f,
                                                    case="mms1"))
    assert rep["passed"], rep
assert "scipy" in sys.modules
"""


def test_topology_path_does_not_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _TOPOLOGY_THEN_SOLVE,
         str(tmp_path / "torus.msh")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
