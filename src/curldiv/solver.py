"""Reduced SPD systems for the two curl-div formulations.

Tangential problem: curl(eta u) = J, div u = g, (eta u) x n = a on the
boundary, prescribed component fluxes alpha.  Normal problem: curl u = J,
div(mu u) = g, mu u . n = b, prescribed homology periods beta.  Both are
reduced to symmetric positive definite systems on a gauged basis, solved
by Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import kernels
from .elements import (CoefficientField, FEFunction, Space, eval_field,
                       interpolate)
from .gauge import GaugedCurlBasis, ReducedNodalBasis, curl_image_basis
from .mesh import Mesh, BoundaryStructure
from .quadrature import make_quadrature, subdivided_tri_rule

VOLUME_DEGREE = 2
BOUNDARY_DEGREE = 3
ERROR_DEGREE = 4
# faces per block in the refined flux pass of validate_tangential
_VALIDATE_BLOCK = 512


class SolverError(RuntimeError):
    pass


@dataclass
class TangentialProblem:
    eta: CoefficientField
    J: object                       # analytic vector field
    g: object                       # analytic scalar
    a: object                       # analytic tangential boundary field
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)


@dataclass
class NormalProblem:
    mu: CoefficientField
    J: object
    g: object
    b: object                       # analytic scalar boundary field
    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)


@dataclass
class AssembledSystem:
    K: sp.csr_matrix
    rhs: np.ndarray
    dof_map: np.ndarray             # reduced index -> basis column / vertex


@dataclass
class Solution:
    kind: str                       # tangential | normal
    u_h: FEFunction                 # RT_h or N_h coefficients
    homogeneous: FEFunction         # W_h or V_h part
    lift: FEFunction
    reduced_coeffs: np.ndarray


# ---------------------------------------------------------------------------
# global mass matrices


def _global_mass(m: Mesh, coef: CoefficientField, space: Space,
                 degree: int = VOLUME_DEGREE) -> sp.csr_matrix:
    rule = make_quadrature("tet", degree)
    grads, det = kernels.tet_geometry(m.vertices, m.tets)
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    cvals = coef.at_quadrature(np.arange(m.n_t), pts)
    if space == Space.FACE:
        basis = kernels.rt_basis_values(grads, rule.points)
        conn = m.tet_faces
        dim = m.n_f
    else:
        basis = kernels.edge_basis_values(grads, rule.points)
        conn = m.tet_edges
        dim = m.n_e
    local = kernels.local_mass(basis, det, rule.weights, cvals)
    nb = conn.shape[1]
    rows = np.repeat(conn, nb, axis=1).ravel()
    cols = np.tile(conn, (1, nb)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(dim, dim))
    return M.tocsr()


def rt_mass_matrix(m: Mesh, coef: CoefficientField,
                   degree: int = VOLUME_DEGREE) -> sp.csr_matrix:
    return _global_mass(m, coef, Space.FACE, degree)


def edge_mass_matrix(m: Mesh, coef: CoefficientField,
                     degree: int = VOLUME_DEGREE) -> sp.csr_matrix:
    return _global_mass(m, coef, Space.EDGE, degree)


# ---------------------------------------------------------------------------
# volume and boundary load vectors


def _edge_load(m: Mesh, fn, degree: int = VOLUME_DEGREE) -> np.ndarray:
    """Global vector of integrals of fn against the edge basis."""
    rule = make_quadrature("tet", degree)
    grads, det = kernels.tet_geometry(m.vertices, m.tets)
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    fvals = eval_field(fn, pts.reshape(-1, 3), vector=True)
    fvals = fvals.reshape(m.n_t, -1, 3)
    basis = kernels.edge_basis_values(grads, rule.points)
    local = kernels.local_vector_load(basis, det, rule.weights, fvals)
    out = np.zeros(m.n_e)
    np.add.at(out, m.tet_edges.ravel(), local.ravel())
    return out


def _nodal_load(m: Mesh, fn, degree: int = VOLUME_DEGREE) -> np.ndarray:
    """Global vector of integrals of a scalar fn against P1 hat functions."""
    rule = make_quadrature("tet", degree)
    _, det = kernels.tet_geometry(m.vertices, m.tets)
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    gvals = eval_field(fn, pts.reshape(-1, 3), vector=False)
    gvals = gvals.reshape(m.n_t, -1)
    local = kernels.local_scalar_load(rule.points, det, rule.weights, gvals)
    out = np.zeros(m.n_v)
    np.add.at(out, m.tets.ravel(), local.ravel())
    return out


def _eval_boundary(fn, points, normals, vector: bool) -> np.ndarray:
    """Evaluate a boundary datum; normal-aware callables get the normals."""
    if getattr(fn, "needs_normal", False):
        return np.asarray(fn(points, normals), dtype=np.float64)
    return eval_field(fn, points, vector)


def _outward_normals(m: Mesh, faces: np.ndarray) -> np.ndarray:
    return m.face_normals[faces] * m.boundary.face_sign[faces, None]


def _boundary_face_geometry(m: Mesh, faces: np.ndarray, rule):
    """Physical quad points, tet barycentric coords and owner data per face."""
    b = m.boundary
    owners = b.face_owner[faces]
    fverts = m.vertices[m.faces[faces]]                 # (nbf, 3, 3)
    pts = np.einsum("qi,fix->fqx", rule.points, fverts)  # (nbf, nq, 3)
    grads, _ = kernels.tet_geometry(m.vertices, m.tets[owners])
    p0 = m.vertices[m.tets[owners][:, 0]]               # (nbf, 3)
    # lam(x) = e_0 + grads . (x - p0), affine on the owner tet
    rel = pts - p0[:, None, :]
    lam = np.einsum("fix,fqx->fqi", grads, rel)
    lam[:, :, 0] += 1.0
    return pts, lam, grads, owners


def _tangential_boundary_load(m: Mesh, a_fn,
                              degree: int = BOUNDARY_DEGREE) -> np.ndarray:
    """Integrals of the tangential field a against edge-basis traces."""
    b = m.boundary
    faces = np.asarray(b.boundary_faces, dtype=np.int64)
    if len(faces) == 0:
        return np.zeros(m.n_e)
    rule = make_quadrature("tri", degree)
    pts, lam, grads, owners = _boundary_face_geometry(m, faces, rule)
    nbf, nq = pts.shape[:2]
    nrm = _outward_normals(m, faces)
    nrm_q = np.broadcast_to(nrm[:, None, :], (nbf, nq, 3)).reshape(-1, 3)
    avals = _eval_boundary(a_fn, pts.reshape(-1, 3), nrm_q, vector=True)
    avals = avals.reshape(nbf, nq, 3)
    # project a onto the tangent plane; normal component must not contribute
    avals = avals - np.einsum("fqx,fx->fq", avals, nrm)[:, :, None] * nrm[:, None, :]
    # edge basis of the owner tet evaluated on the face
    la = lam[:, :, kernels._EDGE_A]                     # (nbf, nq, 6)
    lb = lam[:, :, kernels._EDGE_B]
    ga = grads[:, kernels._EDGE_A]                      # (nbf, 6, 3)
    gb = grads[:, kernels._EDGE_B]
    wvals = (la[:, :, :, None] * gb[:, None] - lb[:, :, :, None] * ga[:, None])
    scale = 2.0 * m.face_areas[faces]                   # tri weights sum to 1/2
    local = np.einsum("fqix,fqx,q,f->fi", wvals, avals, rule.weights, scale)
    out = np.zeros(m.n_e)
    np.add.at(out, m.tet_edges[owners].ravel(), local.ravel())
    return out


def _scalar_boundary_load(m: Mesh, b_fn,
                          degree: int = BOUNDARY_DEGREE) -> np.ndarray:
    """Integrals of a scalar boundary field against P1 traces."""
    b = m.boundary
    faces = np.asarray(b.boundary_faces, dtype=np.int64)
    if len(faces) == 0:
        return np.zeros(m.n_v)
    rule = make_quadrature("tri", degree)
    fverts = m.vertices[m.faces[faces]]
    pts = np.einsum("qi,fix->fqx", rule.points, fverts)
    nbf, nq = pts.shape[:2]
    nrm = _outward_normals(m, faces)
    nrm_q = np.broadcast_to(nrm[:, None, :], (nbf, nq, 3)).reshape(-1, 3)
    bvals = _eval_boundary(b_fn, pts.reshape(-1, 3), nrm_q, vector=False)
    bvals = bvals.reshape(nbf, nq)
    scale = 2.0 * m.face_areas[faces]
    local = np.einsum("fq,qi,q,f->fi", bvals, rule.points, rule.weights, scale)
    out = np.zeros(m.n_v)
    np.add.at(out, m.faces[faces].ravel(), local.ravel())
    return out


# ---------------------------------------------------------------------------
# data validation (report only)


def validate_tangential(p: TangentialProblem, m: Mesh,
                        b: BoundaryStructure, tol: float = 1e-8) -> dict:
    """Necessary-condition checks on tangential data; warnings, no failures.

    The divergence check integrates J.n over every face with a refined
    rule, in blocks of faces so the point arrays stay small, and inspects
    D.flux.  The trace check compares the outward flux of J through each
    boundary face, taken from those same fluxes, with the circulation of
    n x a around the face (Stokes on the face), all boundary faces at once.
    The continuous compatibility against Neumann harmonic fields needs
    basis fields this package never constructs, so it is reported as
    unchecked.
    """
    report = {"warnings": [], "div_check": None, "trace_check": None,
              "unchecked": ["compatibility against Neumann harmonic fields "
                            "(requires harmonic basis; not constructed)"]}
    # refined face fluxes so the check sees div J, not interpolation error
    frule = subdivided_tri_rule(4, 3)
    flux = np.empty(m.n_f)
    for start in range(0, m.n_f, _VALIDATE_BLOCK):
        blk = slice(start, start + _VALIDATE_BLOCK)
        fverts = m.vertices[m.faces[blk]]
        Jv = eval_field(p.J, (frule.points @ fverts).reshape(-1, 3),
                        vector=True).reshape(len(fverts), -1, 3)
        nvec = np.cross(fverts[:, 1] - fverts[:, 0], fverts[:, 2] - fverts[:, 0])
        flux[blk] = np.einsum("fqx,fx,q->f", Jv, nvec, frule.weights)
    scale = 1.0 + np.abs(flux).max()
    div_resid = float(np.abs(m.incidence.D @ flux).max() / scale)
    report["div_check"] = div_resid
    if div_resid > tol:
        report["warnings"].append(
            f"J is not divergence free (face-flux residual {div_resid:.3e})")

    # per face: int_f J.n dA = circulation of the tangential part of eta*u,
    # recovered from a as n x a, around the face boundary (outward RHR);
    # inward-numbered faces walk their vertices as 0, 2, 1
    faces = np.asarray(b.boundary_faces, dtype=np.int64)
    sign = b.face_sign[faces]
    tri = m.vertices[m.faces[faces]]
    centroid = tri.mean(axis=1)
    tri = np.where(sign[:, None, None] > 0, tri, tri[:, [0, 2, 1]])
    nrm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    erule = make_quadrature("edge", 15)
    head, tail = tri, tri[:, [1, 2, 0]]                 # (nbf, 3 edges, 3)
    t = erule.points[:, 0][:, None]
    epts = (1.0 - t) * head[:, :, None] + t * tail[:, :, None]
    # tiny inset keeps points off ambiguous domain edges, in-plane
    epts = epts + 1e-9 * (centroid[:, None, None] - epts)
    nq = np.broadcast_to(nrm[:, None, None], epts.shape).reshape(-1, 3)
    av = _eval_boundary(p.a, epts.reshape(-1, 3), nq, vector=True)
    tang = np.cross(nrm[:, None, None], av.reshape(epts.shape))
    circ = np.einsum("feqx,fex,q->f", tang, tail - head, erule.weights)
    worst = float(np.abs(sign * flux[faces] - circ).max(initial=0.0))
    report["trace_check"] = worst
    if worst > tol:
        report["warnings"].append(
            f"J.n does not match the surface divergence of a "
            f"(worst face residual {worst:.3e})")
    return report


# ---------------------------------------------------------------------------
# assembly


def assemble_tangential(p: TangentialProblem, m: Mesh, gb: GaugedCurlBasis,
                        lift: FEFunction) -> AssembledSystem:
    if lift.space != Space.FACE:
        raise SolverError("tangential lift must be an RT function")
    S = curl_image_basis(gb, m)                         # (n_f, n_Q - g)
    M = rt_mass_matrix(m, p.eta)
    K = (S.T @ M @ S).tocsr()
    f_edge = _edge_load(m, p.J)
    t_edge = _tangential_boundary_load(m, p.a)
    rhs = np.asarray(gb.fields.T @ (f_edge + t_edge)).ravel()
    rhs -= np.asarray(S.T @ (M @ lift.coeffs)).ravel()
    return AssembledSystem(K=K, rhs=rhs, dof_map=np.arange(S.shape[1]))


def assemble_normal(p: NormalProblem, m: Mesh, rb: ReducedNodalBasis,
                    lift: FEFunction) -> AssembledSystem:
    if lift.space != Space.EDGE:
        raise SolverError("normal lift must be a Nedelec function")
    keep = rb.retained
    G = m.incidence.G.tocsc()[:, keep]                  # (n_e, n_v - 1)
    M = edge_mass_matrix(m, p.mu)
    K = (G.T @ M @ G).tocsr()
    g_node = _nodal_load(m, p.g)
    b_node = _scalar_boundary_load(m, p.b)
    rhs = (b_node - g_node)[keep]
    rhs -= np.asarray(G.T @ (M @ lift.coeffs)).ravel()
    return AssembledSystem(K=K, rhs=rhs, dof_map=np.asarray(keep))


# ---------------------------------------------------------------------------
# conjugate gradients


def solve_spd(s: AssembledSystem, tol: float = 1e-10,
              maxit: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned CG; raises on stagnation or negative curvature."""
    K = s.K
    b = s.rhs
    n = K.shape[0]
    if maxit is None:
        maxit = max(10 * n, 100)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    diag = K.diagonal()
    if np.any(diag <= 0):
        raise SolverError("nonpositive diagonal entry; K is not SPD")
    inv_diag = 1.0 / diag
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    for it in range(maxit):
        Kd = K @ d
        dKd = float(d @ Kd)
        if dKd <= 0.0:
            raise SolverError(
                f"negative curvature at iteration {it}; K is not SPD")
        step = rz / dKd
        x += step * d
        r -= step * Kd
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        z = inv_diag * r
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise SolverError(f"CG did not converge in {maxit} iterations "
                      f"(relative residual "
                      f"{np.linalg.norm(r) / bnorm:.3e})")


# ---------------------------------------------------------------------------
# solution recovery and error norms


def recover_solution(kind: str, coeffs: np.ndarray, basis,
                     lift: FEFunction) -> Solution:
    m = lift.mesh
    if kind == "tangential":
        S = curl_image_basis(basis, m)
        W = np.asarray(S @ coeffs).ravel()
        hom = FEFunction(Space.FACE, m, W)
        u = FEFunction(Space.FACE, m, W + lift.coeffs)
    elif kind == "normal":
        G = m.incidence.G.tocsc()[:, basis.retained]
        V = np.asarray(G @ coeffs).ravel()
        hom = FEFunction(Space.EDGE, m, V)
        u = FEFunction(Space.EDGE, m, V + lift.coeffs)
    else:
        raise SolverError(f"unknown formulation {kind!r}")
    return Solution(kind=kind, u_h=u, homogeneous=hom, lift=lift,
                    reduced_coeffs=np.asarray(coeffs, dtype=np.float64))


def error_norms(sol: Solution, exact_u, exact_diff) -> tuple[float, float]:
    """L2 and graph-norm errors against an analytic exact solution.

    ``exact_diff`` is the scalar divergence for the tangential formulation
    and the vector curl for the normal one.
    """
    m = sol.u_h.mesh
    rule = make_quadrature("tet", ERROR_DEGREE)
    grads, det = kernels.tet_geometry(m.vertices, m.tets)
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    uex = eval_field(exact_u, pts.reshape(-1, 3), vector=True)
    uex = uex.reshape(m.n_t, -1, 3)
    if sol.kind == "tangential":
        basis = kernels.rt_basis_values(grads, rule.points)
        local = sol.u_h.coeffs[m.tet_faces]
        uh = kernels.field_at_points(basis, local)
        div_h = (m.incidence.D @ sol.u_h.coeffs) / m.volumes
        dex = eval_field(exact_diff, pts.reshape(-1, 3), vector=False)
        dvals = dex.reshape(m.n_t, -1) - div_h[:, None]
    else:
        basis = kernels.edge_basis_values(grads, rule.points)
        local = sol.u_h.coeffs[m.tet_edges]
        uh = kernels.field_at_points(basis, local)
        curl_h = np.einsum("tex,te->tx", kernels.edge_curl_values(grads),
                           local)
        dex = eval_field(exact_diff, pts.reshape(-1, 3), vector=True)
        dvals = dex.reshape(m.n_t, -1, 3) - curl_h[:, None, :]
    l2_sq = kernels.weighted_l2_sq(uh - uex, det, rule.weights)
    diff_sq = kernels.weighted_l2_sq(dvals, det, rule.weights)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + diff_sq))
