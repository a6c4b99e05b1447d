"""What the package imports.

Static checks: every name a module of the package, of its tests or of the
benchmark imports is used.  No linter ships with the project, so this
parses each module with ``ast`` and fails on an imported name that the
module never references, unless the line that imports it carries
``# noqa: F401``.  And every function, class and constant a module of the
package defines at top level, and every method, property, dataclass field
and constant of its classes, is read by the package, exported from
``curldiv/__init__.py`` or read by the benchmark: a name only the tests
read lives in the tests.  And no function of the package takes a value
another of its inputs holds: a ``BoundaryStructure`` (``Mesh.boundary``
gives it), a ``Mesh`` beside a finite element function, lift data, a
``TreeCotree`` or a ``HomologyBasis``, which hold their mesh, or a
``TreeCotree`` beside a ``HomologyBasis``, which holds its tree;
``vtk.write_vtk`` is the one exception, and it checks that the function
is on the mesh.

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


def _defined_names(body) -> list[str]:
    """The functions, classes and assigned names of a module or class
    body, less dunder names such as ``__getattr__`` or ``__post_init__``."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                names += [n.id for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def top_level_names(source: str) -> list[str]:
    """The functions, classes and constants a module defines at top level."""
    return _defined_names(ast.parse(source).body)


def class_level_names(source: str) -> list[str]:
    """The methods, properties, dataclass fields and class constants of the
    top-level classes of a module."""
    return [name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for name in _defined_names(node.body)]


def read_names(paths) -> set[str]:
    """Every name the files read: loaded names, attributes and imports."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_dead_names_detected():
    source = ("X = 1\n_A, (_B, _C) = 2, (3, 4)\nY: int = X\n"
              "def __getattr__(name): pass\n"
              "def f(): return _A\nclass K: pass\n")
    assert top_level_names(source) == ["X", "_A", "_B", "_C", "Y", "f", "K"]


def test_dead_class_level_names_detected():
    source = ("class K:\n    a: int\n    b: int = 0\n    C = 1\n"
              "    def __post_init__(self): pass\n"
              "    @property\n    def p(self): return self.a\n"
              "    def m(self): pass\nX = 1\n")
    assert class_level_names(source) == ["a", "b", "C", "p", "m"]


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_names(module):
    read = read_names([*SRC.glob("*.py"), *PERFBENCH.glob("*.py")])
    source = (SRC / module).read_text()
    dead = set(top_level_names(source) + class_level_names(source)) - read
    assert sorted(dead) == []


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


# a function takes no value another of its inputs holds: the boundary is
# Mesh.boundary, a finite element function, lift data, a tree-cotree or a
# homology basis holds its mesh, and a homology basis its tree
_HOLDS_MESH = {"FEFunction", "DivergenceData", "CurlData", "TreeCotree",
               "HomologyBasis"}
# perfbench/workloads.py calls write_vtk(m, u, ...) positionally
_TAKES_MESH_AND_FUNCTION = {"vtk.write_vtk"}


def _annotation_names(node) -> set[str]:
    """The names an annotation reads, also inside a string annotation."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out |= _annotation_names(ast.parse(n.value, mode="eval"))
    return out


def restated_inputs(source: str, module: str) -> list[str]:
    """The functions, as module.name, with a parameter annotated
    ``BoundaryStructure``, with a ``Mesh`` parameter beside one of a type
    in _HOLDS_MESH, less those in _TAKES_MESH_AND_FUNCTION, or with a
    ``TreeCotree`` parameter beside a ``HomologyBasis`` one."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        types = [_annotation_names(p.annotation)
                 for p in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                 if p.annotation is not None]
        name = f"{module}.{node.name}"
        if (any("BoundaryStructure" in t for t in types)
                or (any("Mesh" in t for t in types)
                    and any(t & _HOLDS_MESH for t in types)
                    and name not in _TAKES_MESH_AND_FUNCTION)
                or (any("TreeCotree" in t for t in types)
                    and any("HomologyBasis" in t for t in types))):
            bad.append(name)
    return bad


def test_restated_inputs_detected():
    source = ("def a(m: Mesh, b: BoundaryStructure): pass\n"
              "def b(m, *, b: 'mesh.BoundaryStructure'): pass\n"
              "def c(m: Mesh, u: FEFunction): pass\n"
              "def d(m: Mesh, dd: Optional[DivergenceData] = None): pass\n"
              "def e(m: Mesh, tc: TreeCotree): pass\n"
              "def f(cd: CurlData): pass\n"
              "def g(tc: TreeCotree, hb: 'HomologyBasis'): pass\n"
              "def h(m: Mesh, hb: HomologyBasis | None = None): pass\n"
              "def i(hb: HomologyBasis, cd: CurlData): pass\n"
              "def write_vtk(m: Mesh, u: FEFunction): pass\n")
    assert restated_inputs(source, "mod") == ["mod.a", "mod.b", "mod.c",
                                              "mod.d", "mod.e", "mod.g",
                                              "mod.h", "mod.write_vtk"]
    assert restated_inputs(source, "vtk") == ["vtk.a", "vtk.b", "vtk.c",
                                              "vtk.d", "vtk.e", "vtk.g",
                                              "vtk.h"]


@pytest.mark.parametrize("module", MODULES)
def test_no_restated_inputs(module):
    source = (SRC / module).read_text()
    assert restated_inputs(source, module.removesuffix(".py")) == []


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
