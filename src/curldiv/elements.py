"""Lowest-order Whitney element spaces and their degree-of-freedom maps.

Spaces: nodal P1 ("lagrange"), Nedelec edge of degree 1 ("edge"),
Raviart-Thomas of degree 1 ("face") and piecewise constants ("cell").
Coefficients are the DOF functionals of the represented field: vertex
value, edge tangential integral, face normal flux, cell value; the edge
and face functionals are taken by ``edge_integrals`` and ``face_fluxes``,
on any subset of edges or faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .mesh import Mesh
from .quadrature import make_quadrature

# Degrees of the edge and face DOF functionals: C I_N u = I_RT curl u to
# round-off for smooth u, so the normal u_h does not depend on the sigma_n.
EDGE_DEGREE = 11
FACE_DEGREE = 10


class Space(str, Enum):
    LAGRANGE = "lagrange"
    EDGE = "edge"
    FACE = "face"
    CELL = "cell"


_SPACE_DIM = {
    Space.LAGRANGE: lambda m: m.n_v,
    Space.EDGE: lambda m: m.n_e,
    Space.FACE: lambda m: m.n_f,
    Space.CELL: lambda m: m.n_t,
}


class ElementError(ValueError):
    pass


@dataclass
class FEFunction:
    space: Space
    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        self.space = Space(self.space)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        expect = _SPACE_DIM[self.space](self.mesh)
        if self.coeffs.shape != (expect,):
            raise ElementError(
                f"{self.space.value} function needs {expect} coefficients, "
                f"got {self.coeffs.shape}")


def zero_function(space, mesh) -> FEFunction:
    space = Space(space)
    return FEFunction(space, mesh, np.zeros(_SPACE_DIM[space](mesh)))


def eval_field(fn, points, vector: bool) -> np.ndarray:
    """Evaluate a vectorized user field at an (n, 3) point array: fn must
    return (n, 3) values if ``vector``, else (n,)."""
    points = np.asarray(points, dtype=np.float64)
    out = np.asarray(fn(points), dtype=np.float64)
    want = (len(points), 3) if vector else (len(points),)
    if out.shape != want:
        raise ElementError(f"field returned shape {out.shape} at "
                           f"{len(points)} points, expected {want}")
    return out


def differential(f: FEFunction) -> FEFunction:
    """grad, curl or div of an FE function via the incidence operators."""
    m = f.mesh
    inc = m.incidence
    if f.space == Space.LAGRANGE:
        return FEFunction(Space.EDGE, m, inc.G @ f.coeffs)
    if f.space == Space.EDGE:
        return FEFunction(Space.FACE, m, inc.C @ f.coeffs)
    if f.space == Space.FACE:
        return FEFunction(Space.CELL, m, (inc.D @ f.coeffs) / m.volumes)
    raise ElementError("piecewise constants have no differential here")


def edge_integrals(fn, m: Mesh, edges: np.ndarray) -> np.ndarray:
    """Integral of the tangential part of a vector field along each edge in
    ``edges``, along p1 - p0, by the degree EDGE_DEGREE rule."""
    rule = make_quadrature("edge", EDGE_DEGREE)
    p = m.vertices[m.edges[edges]]                      # (n, 2, 3)
    pts = np.einsum("qi,eix->eqx", rule.points, p)
    vals = eval_field(fn, pts.reshape(-1, 3), vector=True).reshape(pts.shape)
    return np.einsum("eqx,ex,q->e", vals, p[:, 1] - p[:, 0], rule.weights)


def face_fluxes(fn, m: Mesh, faces: np.ndarray) -> np.ndarray:
    """Flux of a vector field through each face in ``faces``, along the
    face normal (p1 - p0) x (p2 - p0), by the degree FACE_DEGREE rule, in
    blocks of faces so the point arrays stay small."""
    rule = make_quadrature("tri", FACE_DEGREE)
    flux = np.empty(len(faces))
    for blk in kernels.blocks(len(faces)):
        fverts = m.vertices[m.faces[faces[blk]]]
        vals = eval_field(fn, (rule.points @ fverts).reshape(-1, 3),
                          vector=True).reshape(len(fverts), -1, 3)
        nvec = np.cross(fverts[:, 1] - fverts[:, 0], fverts[:, 2] - fverts[:, 0])
        flux[blk] = np.einsum("fqx,fx,q->f", vals, nvec, rule.weights)
    return flux


def tet_point_values(fn, m: Mesh, tets: slice, rule, vector: bool):
    """fn at the rule's points in the tets ``tets``: (n, nq, 3) if
    ``vector``, else (n, nq)."""
    pts = np.einsum("qi,tix->tqx", rule.points, m.vertices[m.tets[tets]])
    vals = eval_field(fn, pts.reshape(-1, 3), vector)
    return vals.reshape(pts.shape[:2] + vals.shape[1:])


def field_values(u: FEFunction, bary, tets: slice = slice(None)):
    """An edge or face function at barycentric points ``bary`` (nq, 4) of
    the tets ``tets``, (n, nq, 3); a cell function as (n, 1, 1)."""
    m = u.mesh
    if u.space == Space.CELL:
        return u.coeffs[tets, None, None]
    grads = m.tet_geometry[0][tets]
    if u.space == Space.EDGE:
        basis, conn = kernels.edge_basis_values(grads, bary), m.tet_edges
    elif u.space == Space.FACE:
        basis, conn = kernels.rt_basis_values(grads, bary), m.tet_faces
    else:
        raise ElementError("nodal functions are not evaluated per tet")
    return np.einsum("tqix,ti->tqx", basis, u.coeffs[conn[tets]])


def interpolate(space, fn, m: Mesh) -> FEFunction:
    """Canonical interpolant: DOF functionals evaluated by quadrature."""
    space = Space(space)
    if space == Space.LAGRANGE:
        vals = eval_field(fn, m.vertices, vector=False)
        return FEFunction(space, m, vals)
    if space == Space.EDGE:
        return FEFunction(space, m, edge_integrals(fn, m, np.arange(m.n_e)))
    if space == Space.FACE:
        return FEFunction(space, m, face_fluxes(fn, m, np.arange(m.n_f)))
    rule = make_quadrature("tet", 2)
    vals = tet_point_values(fn, m, slice(None), rule, vector=False)
    return FEFunction(Space.CELL, m, 6.0 * vals @ rule.weights)  # averages
