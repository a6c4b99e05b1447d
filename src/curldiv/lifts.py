"""Discrete source potentials.

Both lifts run the sweep of the topology module.  Raviart-Thomas lift:
prescribed divergence and boundary-component fluxes, swept over the tet
equations of D from the leaves of a BFS tree of the dual graph (tets as
nodes, interior faces as arcs), with every face off that tree given.
Nedelec lift: prescribed curl and homology periods, swept over the face
equations of C from the tree and the closing edge of each sigma_n, which
carries its period.  Circulations it leaves free (none on any mesh tried)
are fitted to the unused faces.  With zero curl and a unit period on one
sigma_n it gives the harmonic cocycles that complete the gradients to a
basis of ker C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import FEFunction, Space
from .mesh import FACE_EDGE_SIGN, Mesh, BoundaryStructure
from .topology import HomologyBasis, TreeCotree, _bfs, _dual_arcs, _face_sweep


class LiftError(ValueError):
    pass


RESIDUAL_TOL = 1e-10


def __getattr__(name):
    # perfbench/tracing.py wraps lifts.sp.linalg.lsqr, which no code calls,
    # and looks lifts.sp up when its tracer is built; scipy loads only then.
    # Drop with that wrapper at the next benchmark change (the FOUND line
    # on lifts.sp in CHANGES.md).
    if name == "sp":
        import scipy.sparse
        return scipy.sparse
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class DivergenceData:
    g_h: FEFunction                       # cell values
    alpha: np.ndarray                     # (p,) fluxes through internal components

    def __post_init__(self):
        if self.g_h.space != Space.CELL:
            raise LiftError("divergence data must be a cell function")
        self.alpha = np.asarray(self.alpha, dtype=np.float64)


@dataclass
class CurlData:
    J_h: FEFunction                       # face fluxes
    beta: np.ndarray                      # (g,) periods over the sigma_n

    def __post_init__(self):
        if self.J_h.space != Space.FACE:
            raise LiftError("curl data must be a face function")
        self.beta = np.asarray(self.beta, dtype=np.float64)


def rt_potential(m: Mesh, b: BoundaryStructure, dd: DivergenceData) -> FEFunction:
    """RT field with div = g_h and prescribed component fluxes (exact sweep)."""
    if len(dd.alpha) != b.p:
        raise LiftError(f"alpha must have length p = {b.p}")
    inc = m.incidence
    cell_int = dd.g_h.coeffs * m.volumes          # per-tet divergence integral
    total = float(cell_int.sum())

    # required outward flux per component; the external one closes Gauss
    internal = b.internal_components()
    alpha_by_comp = {}
    for r, a in zip(internal, dd.alpha):
        alpha_by_comp[r] = float(a)
    alpha_by_comp[b.external_index] = total - float(dd.alpha.sum())

    flux = np.zeros(m.n_f)
    # area-weighted spread of the component flux over its boundary faces
    for r, comp in enumerate(b.components):
        areas = m.face_areas[comp]
        share = alpha_by_comp[r] * areas / areas.sum()
        flux[comp] = b.face_sign[comp] * share     # outward flux = D * coeff

    # a dual tree always has a leaf, so the sweep over the tets never stalls
    interior, t0, t1 = _dual_arcs(m)
    order, arc = _bfs(m.n_t, t0, t1, 0)
    if len(order) != m.n_t:
        raise LiftError("dual graph is disconnected; singular sweep")
    known = np.ones(m.n_f, dtype=bool)
    known[interior[arc[order[1:]]]] = False
    flux = _face_sweep(m.tet_faces, m.tet_face_sign, known, flux,
                       cell_int)[0][:, 0]

    u = FEFunction(Space.FACE, m, flux)
    resid = np.abs(inc.D @ flux - cell_int).max()
    scale = 1.0 + np.abs(cell_int).max() + np.abs(dd.alpha).max(initial=0.0)
    if resid > RESIDUAL_TOL * scale:
        raise LiftError(f"incompatible divergence data: residual {resid:.3e}")
    return u


def component_fluxes(m: Mesh, b: BoundaryStructure, u: FEFunction) -> np.ndarray:
    """Outward flux of an RT field through each boundary component."""
    return np.array([b.face_sign[comp] @ u.coeffs[comp]
                     for comp in b.components])


def cycle_period(cycle: dict, coeffs: np.ndarray) -> float:
    """Signed sum of edge circulations along an integer cycle."""
    return float(sum(c * coeffs[int(e)] for e, c in cycle.items()))


def nedelec_potential(m: Mesh, tc: TreeCotree, hb: HomologyBasis,
                      cd: CurlData) -> FEFunction:
    """Nedelec field with curl = J_h and prescribed sigma_n periods."""
    if len(cd.beta) != hb.g:
        raise LiftError(f"beta must have length g = {hb.g}")
    inc = m.incidence
    J = cd.J_h.coeffs
    scale = 1.0 + np.abs(J).max() if len(J) else 1.0
    div_resid = np.abs(inc.D @ J).max() / scale
    if div_resid > RESIDUAL_TOL:
        raise LiftError(
            f"incompatible curl data: D.J residual {div_resid:.3e}")

    # tree circulations are gauged to 0, and the period over sigma_n is the
    # circulation of its closing edge, its one edge off the tree (coeff +1)
    circ = np.zeros(m.n_e)
    circ[hb.closing_edges] = cd.beta
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    known[hb.closing_edges] = True
    X, R = _face_sweep(m.face_edges, FACE_EDGE_SIGN, known, circ, J)
    circ = X[:, 0]
    if X.shape[1] > 1:
        # circulations the sweep left free: the face equations it used hold
        # for any value of them, so fit them to the ones it did not use
        rows = np.flatnonzero(R[:, 1:].any(axis=1))
        t, *_ = np.linalg.lstsq(R[rows, 1:], -R[rows, 0], rcond=None)
        circ = circ + X[:, 1:] @ t

    resid = np.abs(inc.C @ circ - J).max() / scale
    if resid > RESIDUAL_TOL:
        raise LiftError(f"curl residual {resid:.3e} exceeds tolerance")
    for n, cyc in enumerate(hb.cycles):
        per = cycle_period(cyc, circ)
        if abs(per - cd.beta[n]) > RESIDUAL_TOL * (1.0 + abs(cd.beta[n])):
            raise LiftError(
                f"period over sigma_{n + 1} is {per}, wanted {cd.beta[n]}")
    return FEFunction(Space.EDGE, m, circ)


def harmonic_cocycles(m: Mesh, tc: TreeCotree, hb: HomologyBasis) -> np.ndarray:
    """(n_e, g) curl-free Nedelec fields, column n with period 1 on sigma_n
    and 0 on the others: with the gradients they span ker C."""
    zero = FEFunction(Space.FACE, m, np.zeros(m.n_f))
    H = np.zeros((m.n_e, hb.g))
    for n, beta in enumerate(np.eye(hb.g)):
        H[:, n] = nedelec_potential(m, tc, hb, CurlData(zero, beta)).coeffs
    return H


def clean_curl_data(m: Mesh, b: BoundaryStructure, J_h: FEFunction) -> FEFunction:
    """Project interpolated curl data onto the discretely compatible set.

    Quadrature leaves I_RT(curl u) with a small spurious divergence and
    component fluxes; subtracting an RT correction with exactly those
    defects restores D.J = 0 and zero fluxes without affecting convergence.
    """
    inc = m.incidence
    defect = FEFunction(Space.CELL, m, (inc.D @ J_h.coeffs) / m.volumes)
    fluxes = component_fluxes(m, b, J_h)
    alpha = np.array([fluxes[r] for r in b.internal_components()])
    corr = rt_potential(m, b, DivergenceData(g_h=defect, alpha=alpha))
    return FEFunction(Space.FACE, m, J_h.coeffs - corr.coeffs)
