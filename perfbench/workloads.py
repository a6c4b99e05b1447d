"""The benchmark's workloads: their inputs, one operation each, its checks.

An operation starts from the MSH file, so nothing cached on a ``Mesh``
carries over from one operation to the next.  The pipeline is called
through module attributes (``msh.read_gmsh``, ``cli.solve_on_mesh``, ...)
so that a traced run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import curldiv
from curldiv import cli, msh, solver, vtk
from curldiv.mms import get_case

import checks
import inputs

FORMULATIONS = ("tangential", "normal")


@dataclass(frozen=True)
class Input:
    domain: inputs.Domain
    vertices: np.ndarray
    tets: np.ndarray
    path: Path


@dataclass
class Outputs:
    mesh: object
    solutions: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    topology: object = None
    vtk_files: list = field(default_factory=list)


def prepare(domain: inputs.Domain, seed: int, path: Path) -> Input:
    """Renumber the domain by the seed and write it as an MSH file."""
    vertices, tets = inputs.renumbered(domain, seed)
    curldiv.write_gmsh(path, vertices, tets)
    return Input(domain, vertices, tets, path)


def export(m, sol, path) -> None:
    """Write a solution and its constraint residual, as ``curldiv solve`` does."""
    vtk.write_vtk(m, sol.u_h, path, residual=cli.solution_residual_field(sol))


def solve(inp: Input, work: Path, case: str = "mms1") -> Outputs:
    """Read the mesh, compute its topology once, solve both formulations
    with it and write both solutions."""
    m = msh.read_gmsh(inp.path).mesh
    out = Outputs(mesh=m, topology=cli.compute_topology(m))
    for f in FORMULATIONS:
        cfg = cli.ProblemConfig(formulation=f, case=case)
        out.solutions[f], out.reports[f] = cli.solve_on_mesh(m, cfg, out.topology)
    for f in FORMULATIONS:
        out.vtk_files.append(work / f"{f}.vtk")
        export(m, out.solutions[f], out.vtk_files[-1])
    return out


def topology(inp: Input, work: Path) -> Outputs:
    """Read the mesh and build the ``curldiv topology`` report."""
    m = msh.read_gmsh(inp.path).mesh
    return Outputs(mesh=m, reports={"topology": cli.topology_report(m)})


# ---------------------------------------------------------------------------
# checks of one operation


def check_solve(inp: Input, out: Outputs) -> None:
    m = out.mesh
    checks.same_input(m, inp.vertices, len(inp.tets))
    for f, rep in out.reports.items():
        checks.require(rep["passed"], f"{f} solve reports a failed check")
    checks.tangential_balance(m, out.solutions["tangential"].u_h.coeffs,
                              get_case("mms1").g)
    for path in out.vtk_files:
        checks.vtk_cells(path, m.n_t)
    d = inp.domain
    hb, tc = out.topology.homology, out.topology.tree
    checks.require(out.topology.boundary.p == d.p,
                   f"p = {out.topology.boundary.p}, domain has {d.p}")
    checks.require(hb.g == d.g, f"g = {hb.g}, domain has {d.g}")
    checks.require(tc.n_Q - hb.g == m.n_e - m.n_v + 1 - d.g,
                   "dim W0h != n_e - n_v + 1 - g")
    checks.cycles(m, [list(c.items()) for c in hb.cycles], d.column, d.g)


def check_topology(inp: Input, out: Outputs) -> None:
    m, rep = out.mesh, out.reports["topology"]
    checks.same_input(m, inp.vertices, len(inp.tets))
    checks.topology_counts(rep, inp.domain, len(inp.vertices), len(inp.tets))
    checks.cycles(m, rep["cycles"], inp.domain.column, inp.domain.g)


# ---------------------------------------------------------------------------
# checks made once per run


def check_constant_and_order(fine: Outputs, coarse_inp: Input,
                             work: Path) -> dict:
    """Constant case and mms1 convergence order, on a coarser copy."""
    const = solve(coarse_inp, work, case="constant")
    for f, rep in const.reports.items():
        checks.require(rep["passed"], f"constant {f} solve reports a failed check")
    checks.constant_reproduced(const.mesh,
                               const.solutions["tangential"].u_h.coeffs,
                               const.solutions["normal"].u_h.coeffs)
    coarse = solve(coarse_inp, work)
    check_solve(coarse_inp, coarse)
    case = get_case("mms1")
    orders = {}
    for f in FORMULATIONS:
        diff = case.g if f == "tangential" else case.J
        errs = [(checks.mesh_size(o.mesh),
                 solver.error_norms(o.solutions[f], case.u, diff)[1])
                for o in (coarse, fine)]
        orders[f] = checks.convergence_order(f"mms1 {f}", *errs)
    return orders


@dataclass(frozen=True)
class Workload:
    name: str
    domain: Callable[[int], inputs.Domain]
    n: int                      # grid size of the timed input
    coarse: int | None          # grid size of the coarser copy, if solved
    tiny: tuple                 # (n, coarse) in smoke mode
    operation: Callable[[Input, Path], Outputs]
    check: Callable[[Input, Outputs], None]


WORKLOADS = {w.name: w for w in (
    Workload("torus-topology", inputs.solid_torus, n=9, coarse=None,
             tiny=(5, None), operation=topology, check=check_topology),
    Workload("handle-cavity-solve", inputs.handle_cavity, n=7, coarse=5,
             tiny=(6, 5), operation=solve, check=check_solve),
)}
