"""Discrete source potentials.

Raviart-Thomas lift: prescribed divergence and boundary-component fluxes,
built by a spanning-tree sweep on the dual graph (tets as nodes, interior
faces as arcs).  Nedelec lift: prescribed curl and homology periods, by
the Webb-Forghani face sweep of the topology module from the tree and the
closing edge of each sigma_n, which carries its period.  Circulations it
leaves free (none on any mesh tried) are fitted to the unused faces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp  # noqa: F401  perfbench/tracing.py wraps lifts.sp.linalg.lsqr

from .elements import FEFunction, Space
from .mesh import Mesh, BoundaryStructure
from .topology import HomologyBasis, TreeCotree, _face_sweep


class LiftError(ValueError):
    pass


RESIDUAL_TOL = 1e-10


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

    # dual spanning tree over interior faces
    interior = [f for f in range(m.n_f) if len(m.face_tets[f]) == 2]
    tet_adj = [[] for _ in range(m.n_t)]
    for f in interior:
        t0, t1 = m.face_tets[f]
        tet_adj[t0].append((t1, f))
        tet_adj[t1].append((t0, f))
    parent_tet = np.full(m.n_t, -1, dtype=np.int64)
    parent_face = np.full(m.n_t, -1, dtype=np.int64)
    order = []
    seen = np.zeros(m.n_t, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        t = queue.popleft()
        order.append(t)
        for (t2, f) in tet_adj[t]:
            if not seen[t2]:
                seen[t2] = True
                parent_tet[t2] = t
                parent_face[t2] = f
                queue.append(t2)
    if not seen.all():
        raise LiftError("dual graph is disconnected; singular sweep")
    in_dual_tree = set(int(parent_face[t]) for t in order[1:])

    # leaf-to-root: each tet equation determines its parent arc flux
    Drows = inc.D.tocsr()
    for t in reversed(order[1:]):
        sl = slice(Drows.indptr[t], Drows.indptr[t + 1])
        fids = Drows.indices[sl]
        signs = Drows.data[sl]
        pf = int(parent_face[t])
        resid = cell_int[t]
        psign = 0
        for fid, s in zip(fids, signs):
            if int(fid) == pf:
                psign = s
            else:
                resid -= s * flux[int(fid)]
        flux[pf] = resid / psign

    u = FEFunction(Space.FACE, m, flux)
    resid = np.abs(inc.D @ flux - cell_int).max()
    scale = 1.0 + np.abs(cell_int).max() + np.abs(dd.alpha).max() if len(dd.alpha) else 1.0 + np.abs(cell_int).max()
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
    # circulation of its closing edge, its one edge off the tree
    circ = np.zeros(m.n_e)
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    for n, (cyc, tree_part) in enumerate(zip(hb.cycles, hb.tree_parts)):
        (e, c), = ((e, c) for e, c in cyc.items() if e not in tree_part)
        circ[e] = cd.beta[n] / c
        known[e] = True
    X, R = _face_sweep(inc.C, known, circ, J)
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
