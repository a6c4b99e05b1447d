"""Reduced SPD systems for the two curl-div formulations.

Tangential problem: curl(eta u) = J, div u = g, (eta u) x n = a on the
boundary, prescribed component fluxes alpha.  Normal problem: curl u = J,
div(mu u) = g, mu u . n = b, prescribed homology periods beta.  Both are
solved by Jacobi-preconditioned conjugate gradients.  The coefficient is
one positive, finite float, and the boundary data are callables
fn(points, normals).  A problem object holds what its assembly reads
(eta, J, a or mu, g, b); g and alpha, or J and beta, enter through the
lift.

Normal: u_h - lift lies in grad L*_h, G restricted to the vertex columns
L*_h (every vertex but the last), and K = G^T M_mu G is positive definite.

Tangential: u_h = C x + lift over all edges, with K = C^T M_eta C
semidefinite on the quotient space N_h / ker C.  CG converges on it
because the load is made consistent first: the edge load F loses its
M_e-projection onto ker C, the gradients plus the g harmonic cocycles
(Ren, IEEE Trans. Magn. 32(3), 1996).  The projection does not depend on
the basis of ker C, so u_h does not depend on the vertex numbering, and
the curl of every CG iterate lies in W0h.  The tree-cotree gauged basis
N*_h (the cotree less the g closing edges of the domain generators
sigma_n) gives the same u_h as a positive definite system; it stays as
the reference of the topology and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .elements import FEFunction, Space, eval_field, interpolate
from .mesh import Mesh, BoundaryStructure
from .quadrature import make_quadrature
from .topology import HomologyBasis, TreeCotree

if TYPE_CHECKING:
    import scipy.sparse as sp

VOLUME_DEGREE = 2
BOUNDARY_DEGREE = 3
ERROR_DEGREE = 4
# the residual above which validate_tangential warns
_VALIDATE_TOL = 1e-8


class SolverError(RuntimeError):
    pass


@dataclass
class TangentialProblem:
    """The data the tangential assembly reads; g and alpha reach the
    solve through the lift (``DivergenceData``)."""
    eta: float
    J: object                       # vector field, (n, 3) -> (n, 3)
    a: object                       # tangential boundary datum a(x, n)


@dataclass
class NormalProblem:
    """The data the normal assembly reads; J and beta reach the solve
    through the lift (``CurlData``)."""
    mu: float
    g: object                       # scalar field, (n, 3) -> (n,)
    b: object                       # scalar boundary datum b(x, n)


@dataclass
class AssembledSystem:
    K: sp.csr_matrix
    rhs: np.ndarray
    # tangential: |Z^T F| / |F| of the raw load against ker C, per part
    load_compatibility: dict = field(default_factory=dict)


@dataclass
class Solution:
    kind: str                       # tangential | normal
    u_h: FEFunction                 # RT_h or N_h coefficients
    lift: FEFunction


# ---------------------------------------------------------------------------
# gauged bases


def build_N_star(tc: TreeCotree, hb: HomologyBasis) -> np.ndarray:
    """Edge ids of N*_h: the cotree, in order, less the sigma_n closing edges."""
    return tc.cotree_edges[~np.isin(tc.cotree_edges, hb.closing_edges)]


def build_L_star(m: Mesh) -> np.ndarray:
    """Vertex ids of L*_h: all but the last vertex."""
    return np.arange(m.n_v - 1)


def _reduced_operator(m: Mesh, kind: str, dofs: np.ndarray) -> sp.csc_matrix:
    """C (tangential) or G (normal) restricted to the basis columns dofs."""
    if kind == "tangential":
        op = m.incidence.C
    elif kind == "normal":
        op = m.incidence.G
    else:
        raise SolverError(f"unknown formulation {kind!r}")
    # slice CSC columns: slicing CSR columns reorders the sums of K
    return op.tocsc()[:, dofs]


# ---------------------------------------------------------------------------
# global mass matrices


def _global_mass(m: Mesh, coef: float, space: Space) -> sp.csr_matrix:
    import scipy.sparse as sp           # only the solve path needs scipy

    if not (np.isfinite(coef) and coef > 0):
        raise SolverError(f"coefficient must be finite and > 0, got {coef!r}")
    rule = make_quadrature("tet", VOLUME_DEGREE)
    grads, det = m.tet_geometry
    if space == Space.FACE:
        basis = kernels.rt_basis_values(grads, rule.points)
        conn = m.tet_faces
        dim = m.n_f
    else:
        basis = kernels.edge_basis_values(grads, rule.points)
        conn = m.tet_edges
        dim = m.n_e
    local = kernels.local_mass(basis, det, rule.weights, coef)
    nb = conn.shape[1]
    rows = np.repeat(conn, nb, axis=1).ravel()
    cols = np.tile(conn, (1, nb)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(dim, dim))
    return M.tocsr()


def rt_mass_matrix(m: Mesh, coef: float) -> sp.csr_matrix:
    return _global_mass(m, coef, Space.FACE)


def edge_mass_matrix(m: Mesh, coef: float) -> sp.csr_matrix:
    return _global_mass(m, coef, Space.EDGE)


# ---------------------------------------------------------------------------
# volume and boundary load vectors


def _edge_load(m: Mesh, fn) -> np.ndarray:
    """Global vector of integrals of fn against the edge basis."""
    rule = make_quadrature("tet", VOLUME_DEGREE)
    grads, det = m.tet_geometry
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    fvals = eval_field(fn, pts.reshape(-1, 3), vector=True)
    fvals = fvals.reshape(m.n_t, -1, 3)
    basis = kernels.edge_basis_values(grads, rule.points)
    local = kernels.local_vector_load(basis, det, rule.weights, fvals)
    return np.bincount(m.tet_edges.ravel(), local.ravel(), minlength=m.n_e)


def _nodal_load(m: Mesh, fn) -> np.ndarray:
    """Global vector of integrals of a scalar fn against P1 hat functions."""
    rule = make_quadrature("tet", VOLUME_DEGREE)
    _, det = m.tet_geometry
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    gvals = eval_field(fn, pts.reshape(-1, 3), vector=False)
    gvals = gvals.reshape(m.n_t, -1)
    local = kernels.local_scalar_load(rule.points, det, rule.weights, gvals)
    return np.bincount(m.tets.ravel(), local.ravel(), minlength=m.n_v)


def _eval_boundary(fn, points, normals, vector: bool) -> np.ndarray:
    """A boundary datum fn(points, normals) at (n, 3) points and normals."""
    return eval_field(lambda x: fn(x, normals), points, vector)


def _boundary_quadrature(m: Mesh, fn, vector: bool):
    """The boundary faces, the tri rule, its physical points (nbf, nq, 3),
    the outward unit normals (nbf, 3), fn at the points and the 2*area
    scale of each face (the tri weights sum to 1/2)."""
    faces = m.boundary.boundary_faces
    rule = make_quadrature("tri", BOUNDARY_DEGREE)
    pts = np.einsum("qi,fix->fqx", rule.points, m.vertices[m.faces[faces]])
    nbf, nq = pts.shape[:2]
    nrm = m.face_normals[faces] * m.boundary.face_sign[faces, None]
    nrm_q = np.broadcast_to(nrm[:, None, :], (nbf, nq, 3)).reshape(-1, 3)
    vals = _eval_boundary(fn, pts.reshape(-1, 3), nrm_q, vector)
    return (faces, rule, pts, nrm, vals.reshape(nbf, nq, *vals.shape[1:]),
            2.0 * m.face_areas[faces])


def _tangential_boundary_load(m: Mesh, a_fn) -> np.ndarray:
    """Integrals of the tangential field a against edge-basis traces."""
    faces, rule, pts, nrm, avals, scale = _boundary_quadrature(
        m, a_fn, vector=True)
    # project a onto the tangent plane; normal component must not contribute
    avals = avals - np.einsum("fqx,fx->fq", avals, nrm)[:, :, None] * nrm[:, None, :]
    # edge basis of the owner tet on the face, whose barycentric coords are
    # lam(x) = e_0 + grads . (x - p0), affine on the owner tet
    owners = m.boundary.face_owner[faces]
    grads = m.tet_geometry[0][owners]                   # (nbf, 4, 3)
    p0 = m.vertices[m.tets[owners, 0]]                  # (nbf, 3)
    lam = np.einsum("fix,fqx->fqi", grads, pts - p0[:, None, :])
    lam[:, :, 0] += 1.0
    wvals = kernels.edge_basis_values(grads, lam)
    local = np.einsum("fqix,fqx,q,f->fi", wvals, avals, rule.weights, scale)
    return np.bincount(m.tet_edges[owners].ravel(), local.ravel(),
                       minlength=m.n_e)


def _scalar_boundary_load(m: Mesh, b_fn) -> np.ndarray:
    """Integrals of a scalar boundary field against P1 traces."""
    faces, rule, _, _, bvals, scale = _boundary_quadrature(
        m, b_fn, vector=False)
    local = np.einsum("fq,qi,q,f->fi", bvals, rule.points, rule.weights, scale)
    return np.bincount(m.faces[faces].ravel(), local.ravel(), minlength=m.n_v)


# ---------------------------------------------------------------------------
# data validation (report only)


def validate_tangential(p: TangentialProblem, m: Mesh,
                        b: BoundaryStructure) -> dict:
    """Necessary-condition checks on tangential data; warnings, no failures.

    The divergence check inspects D.flux, with the face fluxes of J those
    of its RT interpolant, whose rule is fine enough to see div J and not
    quadrature error.  The trace check compares the outward flux of J
    through each boundary face, taken from those same fluxes, with the
    circulation of n x a around the face (Stokes on the face), all boundary
    faces at once.  The continuous compatibility against Neumann harmonic
    fields needs basis fields this package never constructs, so it is
    reported as unchecked.
    """
    report = {"warnings": [], "div_check": None, "trace_check": None,
              "unchecked": ["compatibility against Neumann harmonic fields "
                            "(requires harmonic basis; not constructed)"]}
    flux = interpolate("face", p.J, m).coeffs
    scale = 1.0 + np.abs(flux).max()
    div_resid = float(np.abs(m.incidence.D @ flux).max() / scale)
    report["div_check"] = div_resid
    if div_resid > _VALIDATE_TOL:
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
    if worst > _VALIDATE_TOL:
        report["warnings"].append(
            f"J.n does not match the surface divergence of a "
            f"(worst face residual {worst:.3e})")
    return report


# ---------------------------------------------------------------------------
# assembly


def consistent_load(m: Mesh, F: np.ndarray,
                    cocycles: np.ndarray) -> tuple[np.ndarray, dict]:
    """F - M_e Z (Z^T M_e Z)^-1 Z^T F, Z = [G[:, L*_h], H] spanning ker C.

    M_e is the Nedelec mass with the identity coefficient and H the
    (n_e, g) cocycles.  The gradient part is one Jacobi-CG solve with
    G^T M_e G; H is made M_e-orthogonal to the gradients, one solve per
    column, then its part is one g x g solve.  Also returns |G^T F| and
    |H^T F| for the orthogonalised H, each over |F|.
    """
    norm = np.linalg.norm(F)
    if norm == 0.0:
        return F, {"gradient": 0.0, "harmonic": 0.0}
    M = edge_mass_matrix(m, 1.0)
    G = _reduced_operator(m, "normal", build_L_star(m))
    A = (G.T @ M @ G).tocsr()

    def grad_part(v):
        """The gradient G phi whose M_e-pairings with grad L*_h are G^T v."""
        return G @ solve_spd(AssembledSystem(K=A, rhs=G.T @ v))

    H = np.array(cocycles, dtype=np.float64)
    for n in range(H.shape[1]):
        H[:, n] -= grad_part(M @ H[:, n])
    GtF, HtF = G.T @ F, H.T @ F
    y = np.linalg.solve(H.T @ (M @ H), HtF)
    Fc = F - M @ (grad_part(F) + H @ y)
    return Fc, {"gradient": float(np.linalg.norm(GtF) / norm),
                "harmonic": float(np.linalg.norm(HtF) / norm)}


def assemble_tangential(p: TangentialProblem, m: Mesh, dofs: np.ndarray,
                        lift: FEFunction,
                        cocycles: np.ndarray) -> AssembledSystem:
    """K = S^T M_eta S and rhs = F[dofs] - S^T M_eta lift, S = C[:, dofs],
    with F the consistent load against ker C (``consistent_load``).

    All edges as dofs give the quotient-space system of the solve; the
    gauged dofs of ``build_N_star`` give its positive definite reference.
    """
    if lift.space != Space.FACE:
        raise SolverError("tangential lift must be an RT function")
    S = _reduced_operator(m, "tangential", dofs)
    M = rt_mass_matrix(m, p.eta)
    K = (S.T @ M @ S).tocsr()
    F, compat = consistent_load(
        m, _edge_load(m, p.J) + _tangential_boundary_load(m, p.a), cocycles)
    rhs = F[dofs] - S.T @ (M @ lift.coeffs)
    return AssembledSystem(K=K, rhs=rhs, load_compatibility=compat)


def assemble_normal(p: NormalProblem, m: Mesh, dofs: np.ndarray,
                    lift: FEFunction) -> AssembledSystem:
    """K = G^T M_mu G and rhs = (b - g)[dofs] - G^T M_mu lift, G = G[:, dofs]."""
    if lift.space != Space.EDGE:
        raise SolverError("normal lift must be a Nedelec function")
    G = _reduced_operator(m, "normal", dofs)            # (n_e, n_v - 1)
    M = edge_mass_matrix(m, p.mu)
    K = (G.T @ M @ G).tocsr()
    rhs = (_scalar_boundary_load(m, p.b) - _nodal_load(m, p.g))[dofs]
    rhs -= G.T @ (M @ lift.coeffs)
    return AssembledSystem(K=K, rhs=rhs)


# ---------------------------------------------------------------------------
# conjugate gradients


def solve_spd(s: AssembledSystem, tol: float = 1e-10,
              maxit: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned CG; raises on stagnation or negative curvature.

    K may be semidefinite if rhs is orthogonal to its kernel."""
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


def recover_solution(kind: str, coeffs: np.ndarray, dofs: np.ndarray,
                     lift: FEFunction) -> Solution:
    """u_h = lift + C[:, dofs] coeffs (tangential) or G[:, dofs] coeffs."""
    S = _reduced_operator(lift.mesh, kind, dofs)
    return Solution(kind=kind, lift=lift, u_h=FEFunction(
        lift.space, lift.mesh, S @ coeffs + lift.coeffs))


def error_norms(sol: Solution, exact_u, exact_diff) -> tuple[float, float]:
    """L2 and graph-norm errors against an analytic exact solution.

    ``exact_diff`` is the scalar divergence for the tangential formulation
    and the vector curl for the normal one.
    """
    m = sol.u_h.mesh
    rule = make_quadrature("tet", ERROR_DEGREE)
    grads, det = m.tet_geometry
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
