"""Discrete source potentials.

Raviart-Thomas lift: prescribed divergence and boundary-component fluxes,
built by a spanning-tree sweep on the dual graph (tets as nodes, interior
faces as arcs).  Nedelec lift: prescribed curl and homology periods, built
by a Webb-Forghani style sweep over the face equations with a least-squares
fallback for the circulations the sweep leaves undetermined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import FEFunction, Space
from .mesh import Mesh, BoundaryStructure
from .topology import TreeCotree, HomologyBasis


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

    circ = np.zeros(m.n_e)
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True                     # tree circulations gauged to 0

    C = inc.C.tocsr()
    # Webb-Forghani sweep: resolve any face equation with a single unknown
    unknown_count = np.zeros(m.n_f, dtype=np.int64)
    edge_faces = [[] for _ in range(m.n_e)]
    for f in range(m.n_f):
        sl = slice(C.indptr[f], C.indptr[f + 1])
        for e in C.indices[sl]:
            edge_faces[int(e)].append(f)
        unknown_count[f] = int(np.sum(~known[C.indices[sl]]))
    queue = deque(np.where(unknown_count == 1)[0].tolist())
    done_face = np.zeros(m.n_f, dtype=bool)
    while queue:
        f = queue.popleft()
        if done_face[f] or unknown_count[f] != 1:
            continue
        sl = slice(C.indptr[f], C.indptr[f + 1])
        eids = C.indices[sl]
        signs = C.data[sl]
        resid = J[f]
        target = -1
        tsign = 0
        for e, s in zip(eids, signs):
            if known[int(e)]:
                resid -= s * circ[int(e)]
            else:
                target, tsign = int(e), s
        circ[target] = resid / tsign
        known[target] = True
        done_face[f] = True
        for f2 in edge_faces[target]:
            unknown_count[f2] -= 1
            if unknown_count[f2] == 1 and not done_face[f2]:
                queue.append(f2)

    free = np.where(~known)[0]
    if len(free):
        # unresolved face equations plus the period equations, least squares
        rows, cols, data, rhs = [], [], [], []
        nrow = 0
        col_of = {int(e): i for i, e in enumerate(free)}
        for f in range(m.n_f):
            sl = slice(C.indptr[f], C.indptr[f + 1])
            eids = C.indices[sl]
            if not np.any(~known[eids]):
                continue
            signs = C.data[sl]
            r = J[f]
            for e, s in zip(eids, signs):
                if known[int(e)]:
                    r -= s * circ[int(e)]
                else:
                    rows.append(nrow)
                    cols.append(col_of[int(e)])
                    data.append(float(s))
            rhs.append(r)
            nrow += 1
        for n, cyc in enumerate(hb.cycles):
            r = cd.beta[n]
            used = False
            for e, c in cyc.items():
                if known[int(e)]:
                    r -= c * circ[int(e)]
                else:
                    rows.append(nrow)
                    cols.append(col_of[int(e)])
                    data.append(float(c))
                    used = True
            rhs.append(r)
            nrow += 1
        A = sp.csr_matrix((data, (rows, cols)), shape=(nrow, len(free)))
        rhs = np.array(rhs)
        if len(free) <= 4000:
            x, *_ = np.linalg.lstsq(np.asarray(A.todense()), rhs, rcond=None)
        else:
            x = sp.linalg.lsqr(A, rhs, atol=1e-14, btol=1e-14,
                               iter_lim=20 * len(free))[0]
        circ[free] = x
        known[free] = True
    elif hb.g:
        raise LiftError("period system unsolvable: sweep left no free "
                        "circulations while g > 0")

    resid = np.abs(C @ circ - J).max() / scale
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
