"""Command-line workflows: solve, topology report, convergence study.

Exit codes: 0 success, 1 data or validation failure, 2 IO or parse
failure.  Configuration and reports are JSON; fields go out as legacy
ASCII VTK.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .elements import ElementError, interpolate
from .lifts import (RESIDUAL_TOL, CurlData, DivergenceData, LiftError,
                    clean_curl_data, component_fluxes, cycle_period,
                    harmonic_cocycles, nedelec_potential, rt_potential)
from .mesh import Mesh, MeshError
from .meshes import structured_cube_mesh
from .mms import MMSError, discrete_alpha, discrete_beta, get_case
from .msh import MshParseError, read_gmsh
from .quadrature import QuadratureError
from .solver import (Solution, SolverError, assemble_normal,
                     assemble_tangential, build_L_star, error_norms,
                     recover_solution, solve_spd, validate_tangential)
from .solver import build_N_star  # noqa: F401  perfbench/tracing.py wraps cli.build_N_star
from .topology import (TopologyError, betti, build_boundary_first_tree,
                       domain_homology_basis, surface_cycle_basis)
from .vtk import write_vtk


class ConfigError(ValueError):
    pass


@dataclass
class Topology:
    boundary: object
    tree: object
    surface_cycles: object
    homology: object


def compute_topology(m: Mesh) -> Topology:
    b = m.boundary
    tc = build_boundary_first_tree(m, b)
    scb = surface_cycle_basis(m, b, tc)
    # the gauge puts the closing edges first, then the rest of the cotree
    rest = tc.cotree_edges[~np.isin(tc.cotree_edges, scb.closing_edges)]
    tc = replace(tc, cotree_edges=np.concatenate([scb.closing_edges, rest]))
    hb = domain_homology_basis(m, tc, scb)
    return Topology(boundary=b, tree=tc, surface_cycles=scb, homology=hb)


@dataclass
class ProblemConfig:
    formulation: str                          # tangential | normal
    case: str                                 # built-in MMS case name
    coefficient: float = 1.0                  # eta or mu
    alpha: np.ndarray | None = None           # default: from the MMS case
    beta: np.ndarray | None = None
    tol: float = 1e-10
    maxit: int | None = None
    output: str | None = None


_CONFIG_KEYS = tuple(f.name for f in fields(ProblemConfig))
_COEFFICIENT_KEYS = {"identity": ("kind",), "scalar": ("kind", "value")}


def parse_config(data: dict) -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}; "
                          f"known keys: {', '.join(_CONFIG_KEYS)}")
    form = data.get("formulation")
    if form not in ("tangential", "normal"):
        raise ConfigError(
            f"formulation must be 'tangential' or 'normal', got {form!r}")
    case = data.get("case")
    if not isinstance(case, str):
        raise ConfigError("config needs a built-in MMS 'case' name")
    cspec = data.get("coefficient", {"kind": "identity"})
    if not isinstance(cspec, dict):
        raise ConfigError(f"coefficient must be a JSON object, got {cspec!r}")
    kind = cspec.get("kind", "identity")
    if not isinstance(kind, str) or kind not in _COEFFICIENT_KEYS:
        raise ConfigError(f"unknown coefficient kind {kind!r}")
    unknown = sorted(set(cspec) - set(_COEFFICIENT_KEYS[kind]))
    if unknown:
        raise ConfigError(f"unknown coefficient key {unknown[0]!r} for kind "
                          f"{kind!r}")
    # JSON true and false are not numbers, though float() takes them
    if type(cspec.get("value")) is bool:
        raise ConfigError(f"coefficient value must be a number, got "
                          f"{cspec['value']!r}")
    if type(data.get("tol")) is bool:
        raise ConfigError(f"tol must be finite and > 0, got {data['tol']!r}")
    maxit = data.get("maxit")
    if maxit is not None and (type(maxit) is not int or maxit < 1):
        raise ConfigError(f"maxit must be a positive integer, got {maxit!r}")
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a file name or null, got {output!r}")
    alpha = data.get("alpha")
    beta = data.get("beta")
    try:
        coef = 1.0 if kind == "identity" else float(cspec["value"])
        cfg = ProblemConfig(
            formulation=form, case=case, coefficient=coef,
            alpha=None if alpha is None else np.asarray(alpha, dtype=np.float64),
            beta=None if beta is None else np.asarray(beta, dtype=np.float64),
            tol=float(data.get("tol", 1e-10)),
            maxit=maxit,
            output=output)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient, alpha, beta or tol: {exc!r}"
                          ) from exc
    if not (np.isfinite(coef) and coef > 0):
        raise ConfigError(f"coefficient must be finite and > 0, got {coef!r}")
    if not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError(f"tol must be finite and > 0, got {cfg.tol!r}")
    for name, value in (("alpha", cfg.alpha), ("beta", cfg.beta)):
        if value is not None and (value.ndim != 1
                                  or not np.all(np.isfinite(value))
                                  or any(type(x) is bool for x in data[name])):
            raise ConfigError(f"{name} must be a flat list of finite "
                              f"numbers, got {data[name]!r}")
    return cfg


def solve_on_mesh(m: Mesh, cfg: ProblemConfig,
                  topo: Topology | None = None) -> tuple[Solution, dict]:
    """Full pipeline on a built mesh; returns the solution and a report."""
    if topo is None:
        topo = compute_topology(m)
    b, tc, hb = topo.boundary, topo.tree, topo.homology
    case = get_case(cfg.case)
    report = {"formulation": cfg.formulation, "case": cfg.case,
              "checks": {}, "passed": True}

    if cfg.formulation == "tangential":
        alpha = discrete_alpha(case, m, b) if cfg.alpha is None else cfg.alpha
        if len(alpha) != b.p:
            raise ConfigError(f"alpha must have length p = {b.p}")
        prob = case.tangential(cfg.coefficient)
        report["validation"] = validate_tangential(prob, m, b)
        g_h = interpolate("cell", case.g, m)
        lift = rt_potential(m, b, DivergenceData(g_h, alpha))
        # the quotient space: every edge, the load made consistent
        dofs = np.arange(m.n_e)
        system = assemble_tangential(prob, m, dofs, lift,
                                     harmonic_cocycles(m, tc, hb))
        coeffs = solve_spd(system, tol=cfg.tol, maxit=cfg.maxit)
        sol = recover_solution("tangential", coeffs, dofs, lift)
        div_resid = float(np.abs(
            m.incidence.D @ sol.u_h.coeffs - g_h.coeffs * m.volumes).max())
        fluxes = component_fluxes(m, b, sol.u_h)
        flux_err = float(max(
            (abs(fluxes[r] - a) for r, a in zip(b.internal_components(), alpha)),
            default=0.0))
        scale = 1.0 + np.abs(sol.u_h.coeffs).max()
        report["checks"]["div_residual"] = div_resid
        report["checks"]["flux_error"] = flux_err
        report["checks"]["load_compatibility"] = system.load_compatibility
        ok = div_resid <= RESIDUAL_TOL * scale and flux_err <= RESIDUAL_TOL * scale
    else:
        beta = discrete_beta(case, m, hb) if cfg.beta is None else cfg.beta
        if len(beta) != hb.g:
            raise ConfigError(f"beta must have length g = {hb.g}")
        prob = case.normal(cfg.coefficient)
        J_I = interpolate("face", case.J, m)
        J_h = clean_curl_data(m, b, J_I)
        lift = nedelec_potential(m, tc, hb, CurlData(J_h, beta))
        dofs = build_L_star(m)
        system = assemble_normal(prob, m, dofs, lift)
        coeffs = solve_spd(system, tol=cfg.tol, maxit=cfg.maxit)
        sol = recover_solution("normal", coeffs, dofs, lift)
        curl_resid = float(np.abs(
            m.incidence.C @ sol.u_h.coeffs - J_h.coeffs).max())
        per_err = float(max(
            (abs(cycle_period(cyc, sol.u_h.coeffs) - bn)
             for cyc, bn in zip(hb.cycles, beta)), default=0.0))
        scale = 1.0 + np.abs(sol.u_h.coeffs).max()
        report["checks"]["curl_residual"] = curl_resid
        report["checks"]["period_error"] = per_err
        # the relative size of the clean_curl_data correction
        J_norm = np.linalg.norm(J_I.coeffs)
        report["checks"]["curl_data_defect"] = float(
            np.linalg.norm(J_h.coeffs - J_I.coeffs) / J_norm) if J_norm else 0.0
        ok = curl_resid <= RESIDUAL_TOL * scale and per_err <= RESIDUAL_TOL * scale

    report["passed"] = bool(ok)
    return sol, report


def solution_residual_field(sol: Solution) -> np.ndarray:
    """Per-cell defect of the discrete constraint, for VTK export."""
    m = sol.u_h.mesh
    if sol.kind == "tangential":
        return np.abs(m.incidence.D @ (sol.u_h.coeffs - sol.lift.coeffs)
                      ) / m.volumes
    curl = m.incidence.C @ (sol.u_h.coeffs - sol.lift.coeffs)
    return np.abs(curl[m.tet_faces]).sum(axis=1)


def topology_report(m: Mesh) -> dict:
    topo = compute_topology(m)
    b, tc, hb = topo.boundary, topo.tree, topo.homology
    b0, b1, b2 = betti(m, hb.rank_C)
    return {
        "n_v": m.n_v, "n_e": m.n_e, "n_f": m.n_f, "n_t": m.n_t,
        "p": b.p, "g": hb.g,
        "betti": [b0, b1, b2],
        "n_Q": tc.n_Q,
        "dim_W0h": tc.n_Q - hb.g,
        "cycles": [sorted([int(e), int(c)] for e, c in cyc.items())
                   for cyc in hb.cycles],
    }


def run_convergence(case_name: str, levels: int,
                    formulations=("tangential", "normal")) -> dict:
    """MMS study on structured cubes n = 2^(k+1), k = 0..levels-1."""
    case = get_case(case_name)
    out = {"case": case_name, "levels": []}
    tables = {f: [] for f in formulations}
    for k in range(levels):
        n = 2 ** (k + 1)
        m = structured_cube_mesh(n)
        topo = compute_topology(m)
        h = float(m.edge_lengths.max())
        entry = {"n": n, "h": h}
        for f in formulations:
            t0 = time.perf_counter()
            cfg = ProblemConfig(formulation=f, case=case_name)
            sol, rep = solve_on_mesh(m, cfg, topo)
            exact_diff = case.g if f == "tangential" else case.J
            l2, graph = error_norms(sol, case.u, exact_diff)
            tables[f].append((l2, graph))
            entry[f] = {"L2": l2, "graph": graph,
                        "runtime": time.perf_counter() - t0,
                        "passed": rep["passed"]}
        out["levels"].append(entry)
    for f in formulations:
        rates = []
        for (_, g0), (_, g1) in zip(tables[f], tables[f][1:]):
            if g0 < 1e-9 and g1 < 1e-9:
                rates.append("exact")
            else:
                rates.append(float(np.log2(g0 / g1)))
        out[f"rates_{f}"] = rates
    return out


def format_convergence_table(report: dict) -> str:
    lines = [f"case: {report['case']}"]
    for f in ("tangential", "normal"):
        if f not in report["levels"][0]:
            continue
        lines.append(f"\n{f} formulation")
        lines.append(f"{'n':>4} {'h':>10} {'L2 error':>14} "
                     f"{'graph error':>14} {'rate':>8}")
        rates = report[f"rates_{f}"]
        for i, lv in enumerate(report["levels"]):
            r = "-" if i == 0 else (
                rates[i - 1] if isinstance(rates[i - 1], str)
                else f"{rates[i - 1]:.3f}")
            lines.append(f"{lv['n']:>4} {lv['h']:>10.4e} "
                         f"{lv[f]['L2']:>14.6e} {lv[f]['graph']:>14.6e} "
                         f"{r:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def _load_mesh(path) -> Mesh:
    return read_gmsh(path).mesh


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="curldiv",
        description="curl-div boundary value problems on tetrahedral meshes")
    sub = ap.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("--mesh", required=True)
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out")

    p_topo = sub.add_parser("topology", help="topology report for a mesh")
    p_topo.add_argument("--mesh", required=True)

    p_conv = sub.add_parser("convergence", help="MMS convergence study")
    p_conv.add_argument("--case", required=True)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--json-out")

    args = ap.parse_args(argv)
    try:
        if args.command == "topology":
            m = _load_mesh(args.mesh)
            print(json.dumps(topology_report(m), indent=2))
            return 0
        if args.command == "convergence":
            rep = run_convergence(args.case, args.levels)
            print(format_convergence_table(rep))
            if args.json_out:
                with open(args.json_out, "w") as fh:
                    json.dump(rep, fh, indent=2)
            return 0
        # solve
        m = _load_mesh(args.mesh)
        with open(args.config) as fh:
            cfg = parse_config(json.load(fh))
        if args.out:
            cfg.output = args.out
        sol, report = solve_on_mesh(m, cfg)
        if cfg.output:
            write_vtk(m, sol.u_h, cfg.output,
                      residual=solution_residual_field(sol))
        print(json.dumps(report, indent=2, default=float))
        return 0 if report["passed"] else 1
    except (OSError, MshParseError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, TopologyError, LiftError, SolverError, ElementError,
            QuadratureError, ConfigError, MMSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
