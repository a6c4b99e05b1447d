"""Discrete source potentials.

Both lifts run the sweep of the topology module.  Raviart-Thomas lift:
prescribed divergence and boundary-component fluxes, swept over the tet
equations of D from the leaves of a BFS tree of the dual graph (tets as
nodes, interior faces as arcs, from ``Mesh.face_tets``), with every face
off that tree given.  alpha holds the fluxes of ``components[1:]``; the
external component 0 closes Gauss's law.
Nedelec lift: prescribed curl and homology periods, swept over the face
equations of C from the tree and the closing edge of each sigma_n, which
carries its period.  Circulations it leaves free (none on any mesh tried)
are fitted to the unused faces.
Each function reads the mesh from the function it is given (g_h of
``DivergenceData``, J_h of ``CurlData``, or the field itself) and the
boundary components from that mesh's ``Mesh.boundary``; the Nedelec lift
reads its gauge tree and closing edges from the ``HomologyBasis`` of that
mesh, and refuses a basis of another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import FEFunction, Space
from .mesh import FACE_EDGE_SIGN
from .topology import HomologyBasis, _bfs, _face_sweep


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


def rt_potential(dd: DivergenceData) -> FEFunction:
    """RT field on the mesh of g_h with div = g_h and prescribed component
    fluxes (exact sweep)."""
    m = dd.g_h.mesh
    b = m.boundary
    if len(dd.alpha) != b.p:
        raise LiftError(f"alpha must have length p = {b.p}")
    inc = m.incidence
    cell_int = dd.g_h.coeffs * m.volumes          # per-tet divergence integral
    total = float(cell_int.sum())

    # required outward flux per component; the external one closes Gauss
    target = np.r_[total - dd.alpha.sum(), dd.alpha]

    flux = np.zeros(m.n_f)
    # area-weighted spread of the component flux over its boundary faces
    for comp, want in zip(b.components, target):
        areas = m.face_areas[comp]
        flux[comp] = b.face_sign[comp] * (want * areas / areas.sum())

    # a dual tree always has a leaf, so the sweep over the tets never stalls
    interior = np.flatnonzero(m.face_tets[:, 1] >= 0)
    order, arc = _bfs(m.n_t, *m.face_tets[interior].T, 0)
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


def component_fluxes(u: FEFunction) -> np.ndarray:
    """Outward flux of an RT field through each boundary component of
    its mesh."""
    b = u.mesh.boundary
    return np.array([b.face_sign[comp] @ u.coeffs[comp]
                     for comp in b.components])


def cycle_period(cycle: dict, coeffs: np.ndarray) -> float:
    """Signed sum of edge circulations along an integer cycle."""
    return float(sum(c * coeffs[int(e)] for e, c in cycle.items()))


def nedelec_potential(hb: HomologyBasis, cd: CurlData) -> FEFunction:
    """Nedelec field on the mesh of J_h with curl = J_h and prescribed
    sigma_n periods, gauged to zero on the tree ``hb.tree``; ``hb`` must be
    the homology basis of that mesh (``hb.tree.mesh is cd.J_h.mesh``)."""
    m = cd.J_h.mesh
    if hb.tree.mesh is not m:
        raise LiftError("the homology basis is of another mesh than the "
                        "curl data J_h")
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
    known[hb.tree.tree_edges] = True
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


def clean_curl_data(J_h: FEFunction) -> FEFunction:
    """Project interpolated curl data onto the discretely compatible set.

    Quadrature leaves I_RT(curl u) with a small spurious divergence and
    component fluxes; subtracting an RT correction with exactly those
    defects restores D.J = 0 and zero fluxes without affecting convergence.
    """
    m = J_h.mesh
    defect = FEFunction(Space.CELL, m,
                        (m.incidence.D @ J_h.coeffs) / m.volumes)
    alpha = component_fluxes(J_h)[1:]
    corr = rt_potential(DivergenceData(g_h=defect, alpha=alpha))
    return FEFunction(Space.FACE, m, J_h.coeffs - corr.coeffs)
