"""Pointwise evaluation of FE functions, for probing solutions in tests.

Brute-force point location over every tet: fine for a few probe points on
the small test meshes, not for production use.
"""

import numpy as np

from curldiv import kernels
from curldiv.elements import ElementError, FEFunction, Space
from curldiv.mesh import Mesh
from whitney import edge_basis_values, rt_basis_values

INSIDE_TOL = 1e-10


def barycentric(m: Mesh, tet: int, p) -> np.ndarray:
    verts = m.vertices[m.tets[tet]]
    A = np.vstack([np.ones(4), verts.T])
    rhs = np.concatenate([[1.0], np.asarray(p, dtype=np.float64)])
    return np.linalg.solve(A, rhs)


def eval_fe(f: FEFunction, tet: int, p):
    """Evaluate an FE function at point ``p`` inside tet ``tet``."""
    m = f.mesh
    lam = barycentric(m, tet, p)
    if lam.min() < -INSIDE_TOL:
        raise ElementError(f"point {p} lies outside tet {tet}")
    if f.space == Space.CELL:
        return float(f.coeffs[tet])
    if f.space == Space.LAGRANGE:
        return float(lam @ f.coeffs[m.tets[tet]])
    grads, _ = kernels.tet_geometry(m.vertices, m.tets[tet:tet + 1])
    bary = lam[None, :]
    if f.space == Space.EDGE:
        vals = edge_basis_values(grads, bary)[0, 0]           # (6, 3)
        return vals.T @ f.coeffs[m.tet_edges[tet]]
    vals = rt_basis_values(grads, bary)[0, 0]                 # (4, 3)
    return vals.T @ f.coeffs[m.tet_faces[tet]]


def locate_tet(m: Mesh, p) -> int:
    """Brute-force point location."""
    for t in range(m.n_t):
        if barycentric(m, t, p).min() >= -INSIDE_TOL:
            return t
    raise ElementError(f"point {p} lies outside the mesh")


def eval_at_points(f: FEFunction, points) -> np.ndarray:
    """Evaluate an FE function at arbitrary points via point location."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.array([eval_fe(f, locate_tet(f.mesh, p), p) for p in points])
