"""Lowest-order Whitney element spaces and their degree-of-freedom maps.

Spaces: nodal P1 ("lagrange"), Nedelec edge of degree 1 ("edge"),
Raviart-Thomas of degree 1 ("face") and piecewise constants ("cell").
Coefficients are the DOF functionals of the represented field: vertex
value, edge tangential integral, face normal flux, cell value; the edge
and face functionals are taken by ``edge_integrals`` and ``face_fluxes``,
on any subset of edges or faces.

An edge or face function is affine on each tet: u_c + (curl u / 2) x
(x - x_c) on an edge, u_c + (div u / 3)(x - x_c) on a face, with u_c its
value at the centroid x_c.  ``centroid_values`` gives u_c and
``field_values`` the field at any barycentric points, from that one form;
the solver's centroid pairings and the VTK values read u_c.
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
# The face rule is Dunavant's symmetric 25-point rule; with one of degree 4
# the identity fails, and the sigma_n the numbering picks move u_h.
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
    blocks of faces so the point arrays stay small: the rule's weighted sum
    of the values on a face, dotted with its constant normal."""
    rule = make_quadrature("tri", FACE_DEGREE)
    flux = np.empty(len(faces))
    for blk in kernels.blocks(len(faces)):
        fverts = m.vertices[m.faces[faces[blk]]]
        vals = eval_field(fn, (rule.points @ fverts).reshape(-1, 3),
                          vector=True).reshape(len(fverts), -1, 3)
        nvec = kernels.cross(fverts[:, 1] - fverts[:, 0],
                             fverts[:, 2] - fverts[:, 0])
        flux[blk] = np.einsum("fx,fx->f", rule.weights @ vals, nvec)
    return flux


def tet_point_values(fn, m: Mesh, tets: slice, rule, vector: bool):
    """fn at the rule's points in the tets ``tets``: (n, nq, 3) if
    ``vector``, else (n, nq)."""
    pts = np.einsum("qi,tix->tqx", rule.points, m.vertices[m.tets[tets]])
    vals = eval_field(fn, pts.reshape(-1, 3), vector)
    return vals.reshape(pts.shape[:2] + vals.shape[1:])


def _offsets(m: Mesh, tets: slice) -> np.ndarray:
    """The vertices of the tets ``tets`` less their vertex 0, (n, 4, 3):
    every coordinate difference is taken in the tet, so none cancels far
    from the origin."""
    p = m.vertices[m.tets[tets]]
    p -= p[:, :1]
    return p


def _face_weights(u: FEFunction, tets: slice) -> np.ndarray:
    """s_i u_i / (3|T|) for the local faces i of the tets ``tets``, (n, 4),
    s_i the D entry of face i: RT face function i is s_i (x - p_{3-i}) /
    (3|T|), and the sum of the weights is div u / 3."""
    m = u.mesh
    return (m.tet_face_sign[tets] * u.coeffs[m.tet_faces[tets]]
            / (3.0 * m.volumes[tets, None]))


def centroid_values(u: FEFunction, tets: slice = slice(None)) -> np.ndarray:
    """An edge or face function at the centroid x_c of each of the tets
    ``tets``, (n, 3).  Edge: sum_e u_e (grad lam_b - grad lam_a) / 4 over
    the edges [a, b], through ``kernels._LOCAL_GRAD``.  Face: sum_i s_i u_i
    (x_c - p_{3-i}) / (3|T|) over the local faces i (``_face_weights``)."""
    m = u.mesh
    if u.space == Space.EDGE:
        return np.einsum("tv,tvx->tx", u.coeffs[m.tet_edges[tets]]
                         @ kernels._LOCAL_GRAD, m.tet_geometry[0][tets]) / 4.0
    if u.space == Space.FACE:
        d = _offsets(m, tets)
        r = np.subtract(d.mean(axis=1, keepdims=True), d, out=d)  # x_c - p_j
        return np.einsum("ti,tix->tx", _face_weights(u, tets), r[:, ::-1])
    raise ElementError(f"{u.space.value} functions have no centroid value "
                       f"here")


def field_values(u: FEFunction, bary, tets: slice = slice(None)):
    """An edge or face function at barycentric points ``bary`` (nq, 4) of
    the tets ``tets``, (n, nq, 3); a cell function as (n, 1, 1).  Either
    field is affine on a tet: u_c + (curl u / 2) x dx on an edge, u_c +
    (div u / 3) dx on a face, u_c the ``centroid_values`` and dx = x - x_c
    = (bary - 1/4) @ (p - p_0)."""
    m = u.mesh
    if u.space == Space.CELL:
        return u.coeffs[tets, None, None]
    u_c = centroid_values(u, tets)[:, None]
    dx = (bary - 0.25) @ _offsets(m, tets)                  # (n, nq, 3)
    if u.space == Space.EDGE:
        curl = np.einsum("ti,tix->tx", u.coeffs[m.tet_edges[tets]],
                         kernels.edge_curls(m.tet_geometry[0][tets]))
        return u_c + kernels.cross(curl[:, None] / 2.0, dx)
    return u_c + _face_weights(u, tets).sum(axis=1)[:, None, None] * dx


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
