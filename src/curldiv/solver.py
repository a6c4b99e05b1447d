"""Quotient-space systems for the two curl-div formulations.

Tangential problem: curl(eta u) = J, div u = g, (eta u) x n = a on the
boundary, prescribed component fluxes alpha.  Normal problem: curl u = J,
div(mu u) = g, mu u . n = b, prescribed homology periods beta.  Both are
solved by Jacobi-preconditioned conjugate gradients.  The coefficient,
checked to lie in COEFFICIENT_RANGE when a problem is made, scales the
unit-coefficient matrices of the mesh.  The boundary data are callables
fn(points, normals).  A problem holds what its assembly reads (eta, J, a
or mu, g, b); g and alpha, or J and beta, enter through the lift, whose
space names the formulation.  Each assembly reads the mesh from the lift,
and the tangential one the cocycles from a ``HomologyBasis``, which must
be of that mesh: ``hb.tree.mesh is lift.mesh``, checked before any work.

Both run CG on a semidefinite K in a quotient space, the load made
consistent first: it loses its projection onto ker K (Ren, IEEE Trans.
Magn. 32(3), 1996), which does not depend on the basis of ker K, so u_h
does not depend on the vertex numbering.  Normal: u_h = G x + lift over
all vertices, K = mu G^T M_e G = mu ``Mesh.gradient_stiffness``, whose
kernel is the constants; the nodal load loses its L2 projection onto
them, which shifts g by the constant that balances it against b.
Tangential: u_h = C x + lift over all edges, K = eta C^T M_f C = eta
``Mesh.curl_curl``; the edge load loses its M_e-projection onto ker C,
the gradients plus the g harmonic cocycles ``HomologyBasis.cocycles``,
and the curl of every CG iterate lies in W0h.  M_e is never assembled:
each product with it is of a curl-free field, constant on each tet, or
is G^T M_e lift, and sums |T| grad lam_v . u(centroid) over the tets
(``_centroid_pairings``).  The principal submatrices of K on L*_h (every
vertex but the last) and on N*_h (the cotree less the g closing edges of
the sigma_n) are positive definite and give the same u_h; the tests keep
them as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .elements import (FEFunction, Space, differential, eval_field,
                       field_values, interpolate, tet_point_values)
from .mesh import Mesh
from .quadrature import make_quadrature
from .topology import HomologyBasis

if TYPE_CHECKING:
    import scipy.sparse as sp

VOLUME_DEGREE = 2
BOUNDARY_DEGREE = 3
ERROR_DEGREE = 4
# the residual above which validate_tangential warns
_VALIDATE_TOL = 1e-8
# c scales the unit matrices and 1/c the CG scalars (r.z, d.Kd, z, x): each
# stays a normal float if it is within 2**254 of 1 at c = 1, as on a mesh
# of any practical size, and c within 2**768: 254 + 768 = 1022.
COEFFICIENT_RANGE = (2.0 ** -768, 2.0 ** 768)


class SolverError(RuntimeError):
    pass


def _check_coefficient(coef: float) -> None:
    if not COEFFICIENT_RANGE[0] <= coef <= COEFFICIENT_RANGE[1]:
        raise SolverError(f"coefficient must be finite and > 0, in "
                          f"[2**-768, 2**768], got {coef!r}")


@dataclass
class TangentialProblem:
    """The data the tangential assembly reads; g and alpha reach the
    solve through the lift (``DivergenceData``)."""
    eta: float
    J: object                       # vector field, (n, 3) -> (n, 3)
    a: object                       # tangential boundary datum a(x, n)

    def __post_init__(self):
        _check_coefficient(self.eta)


@dataclass
class NormalProblem:
    """The data the normal assembly reads; J and beta reach the solve
    through the lift (``CurlData``)."""
    mu: float
    g: object                       # scalar field, (n, 3) -> (n,)
    b: object                       # scalar boundary datum b(x, n)

    def __post_init__(self):
        _check_coefficient(self.mu)


@dataclass
class AssembledSystem:
    K: sp.csr_matrix
    rhs: np.ndarray
    # |Z^T F| / |F| of the raw load against ker K, per part
    load_compatibility: dict = field(default_factory=dict)


@dataclass
class Solution:
    u_h: FEFunction                 # RT_h (tangential) or N_h (normal)
    lift: FEFunction


# ---------------------------------------------------------------------------
# gauged bases


def build_N_star(hb: HomologyBasis) -> np.ndarray:
    """The edges of N*_h: the cotree of ``hb.tree`` less the sigma_n
    closing edges."""
    cotree = hb.tree.cotree_edges
    return cotree[~np.isin(cotree, hb.closing_edges)]


def build_L_star(m: Mesh) -> np.ndarray:
    """Vertex ids of L*_h: all but the last vertex."""
    return np.arange(m.n_v - 1)


# ---------------------------------------------------------------------------
# volume and boundary load vectors


def _edge_load(m: Mesh, fn) -> np.ndarray:
    """Global vector of integrals of fn against the edge basis."""
    rule = make_quadrature("tet", VOLUME_DEGREE)
    grads, det = m.tet_geometry
    loads = np.empty((m.n_t, 6))
    for blk in kernels.blocks(m.n_t):
        basis = kernels.edge_basis_values(grads[blk], rule.points)
        vals = tet_point_values(fn, m, blk, rule, vector=True)
        loads[blk] = (np.einsum("tqix,tqx,q->ti", basis, vals, rule.weights)
                      * np.abs(det[blk])[:, None])
    return np.bincount(m.tet_edges.ravel(), loads.ravel(), minlength=m.n_e)


def _nodal_load(m: Mesh, fn) -> np.ndarray:
    """Global vector of integrals of a scalar fn against P1 hat functions."""
    rule = make_quadrature("tet", VOLUME_DEGREE)
    _, det = m.tet_geometry
    loads = np.empty((m.n_t, 4))
    for blk in kernels.blocks(m.n_t):
        vals = tet_point_values(fn, m, blk, rule, vector=False)
        loads[blk] = (np.einsum("qi,tq,q->ti", rule.points, vals, rule.weights)
                      * np.abs(det[blk])[:, None])
    return np.bincount(m.tets.ravel(), loads.ravel(), minlength=m.n_v)


def _eval_boundary(fn, points, normals, vector: bool) -> np.ndarray:
    """A boundary datum fn(points, normals) at (n, 3) points and normals."""
    return eval_field(lambda x: fn(x, normals), points, vector)


def _boundary_quadrature(m: Mesh, faces: np.ndarray, fn, vector: bool):
    """For boundary faces ``faces``: the tri rule, its physical points
    (nbf, nq, 3), the outward unit normals (nbf, 3), fn at the points and
    the 2*area scale of each face (the tri weights sum to 1/2)."""
    rule = make_quadrature("tri", BOUNDARY_DEGREE)
    pts = np.einsum("qi,fix->fqx", rule.points, m.vertices[m.faces[faces]])
    nbf, nq = pts.shape[:2]
    nrm = m.face_normals[faces] * m.boundary.face_sign[faces, None]
    nrm_q = np.broadcast_to(nrm[:, None, :], (nbf, nq, 3)).reshape(-1, 3)
    vals = _eval_boundary(fn, pts.reshape(-1, 3), nrm_q, vector)
    return (rule, pts, nrm, vals.reshape(nbf, nq, *vals.shape[1:]),
            2.0 * m.face_areas[faces])


def _tangential_boundary_load(m: Mesh, a_fn) -> np.ndarray:
    """Integrals of the tangential field a against edge-basis traces."""
    faces = m.boundary.boundary_faces
    owners = m.face_tets[faces, 0]
    loads = np.empty((len(faces), 6))
    for blk in kernels.blocks(len(faces)):
        rule, pts, nrm, avals, scale = _boundary_quadrature(
            m, faces[blk], a_fn, vector=True)
        # project a onto the tangent plane; the normal part must not count
        avals = avals - (np.einsum("fqx,fx->fq", avals, nrm)[:, :, None]
                         * nrm[:, None, :])
        # edge basis of the owner tet on the face, whose barycentric
        # coords are lam(x) = e_0 + grads . (x - p0), affine on the tet
        grads = m.tet_geometry[0][owners[blk]]          # (nbf, 4, 3)
        p0 = m.vertices[m.tets[owners[blk], 0]]         # (nbf, 3)
        lam = np.einsum("fix,fqx->fqi", grads, pts - p0[:, None, :])
        lam[:, :, 0] += 1.0
        wvals = kernels.edge_basis_values(grads, lam)
        loads[blk] = np.einsum("fqix,fqx,q,f->fi", wvals, avals,
                               rule.weights, scale)
    return np.bincount(m.tet_edges[owners].ravel(), loads.ravel(),
                       minlength=m.n_e)


def _scalar_boundary_load(m: Mesh, b_fn) -> np.ndarray:
    """Integrals of a scalar boundary field against P1 traces."""
    faces = m.boundary.boundary_faces
    local = np.empty((len(faces), 3))
    for blk in kernels.blocks(len(faces)):
        rule, _, _, bvals, scale = _boundary_quadrature(m, faces[blk], b_fn,
                                                        vector=False)
        local[blk] = np.einsum("fq,qi,q,f->fi", bvals, rule.points,
                               rule.weights, scale)
    return np.bincount(m.faces[faces].ravel(), local.ravel(), minlength=m.n_v)


# ---------------------------------------------------------------------------
# data validation (report only)


def validate_tangential(p: TangentialProblem, m: Mesh) -> dict:
    """Necessary-condition checks on tangential data on the boundary
    ``m.boundary``; warnings, no failures.

    The divergence check inspects D.flux, with the face fluxes of J those
    of its RT interpolant, whose rule is fine enough to see div J and not
    quadrature error.  The trace check compares the flux of J through each
    boundary face, taken from those same fluxes, with the circulation of
    n x a, n the outward normal, around the face in its stored vertex
    order, whose right-hand normal is the one of the flux (Stokes on the
    face), a block of boundary faces at a time.  Both residuals are over
    1 + max |flux|.  The compatibility against the harmonic fields is the
    ``harmonic`` part of the load compatibility (``consistent_load``).
    """
    report = {"warnings": [], "div_check": None, "trace_check": None}
    flux = interpolate("face", p.J, m).coeffs
    scale = 1.0 + np.abs(flux).max()
    div_resid = float(np.abs(m.incidence.D @ flux).max() / scale)
    report["div_check"] = div_resid
    if div_resid > _VALIDATE_TOL:
        report["warnings"].append(
            f"J is not divergence free (face-flux residual {div_resid:.3e})")

    # per face: its flux of J = the circulation of n x a, n outward (the
    # tangential part of eta*u), around it in its stored vertex order,
    # whose right-hand normal is that of the flux; a takes n as an
    # argument, so the points may lie on the face's edges
    b = m.boundary
    faces = b.boundary_faces
    erule = make_quadrature("edge", 15)
    t = erule.points[:, 0][:, None]
    resid = np.empty(len(faces))
    for blk in kernels.blocks(len(faces)):
        head = m.vertices[m.faces[faces[blk]]]
        tail = head[:, [1, 2, 0]]                       # (nbf, 3 edges, 3)
        nrm = m.face_normals[faces[blk]] * b.face_sign[faces[blk], None]
        epts = (1.0 - t) * head[:, :, None] + t * tail[:, :, None]
        nq = np.broadcast_to(nrm[:, None, None], epts.shape).reshape(-1, 3)
        av = _eval_boundary(p.a, epts.reshape(-1, 3), nq, vector=True)
        tang = np.cross(nrm[:, None, None], av.reshape(epts.shape))
        circ = np.einsum("feqx,fex,q->f", tang, tail - head, erule.weights)
        resid[blk] = flux[faces[blk]] - circ
    worst = float(np.abs(resid).max(initial=0.0) / scale)
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
    """F - M_e Z (Z^T M_e Z)^-1 Z^T F, Z = [G, H] spanning ker C.

    M_e is the Nedelec mass with the unit coefficient and H the
    (n_e, g) cocycles; every product with M_e is of a curl-free field,
    applied element by element and never assembled (``_curl_free_mass``).
    The gradient part is one Jacobi-CG solve with G^T M_e G, its rhs rid
    of its round-off mean (the exact one sums to 0); H is made
    M_e-orthogonal to the gradients, one solve per column, then its part
    is one g x g solve.  Also returns |G^T F| and |Q^T F|, Q an
    orthonormal basis of the orthogonalised H (free of the sigma_n the
    numbering picks), each over |F|.  F is scaled by a power of two first,
    as is the rhs in ``solve_spd``.  Any (n_e, k) columns H of ker C will
    do; ``assemble_tangential`` passes those of its homology basis.
    """
    F, e = _scaled(F)
    norm = np.linalg.norm(F)
    if norm == 0.0:
        return F, {"gradient": 0.0, "harmonic": 0.0}
    G = m.incidence.G

    def gradient_part(v):
        """The gradient G phi whose M_e-pairings with every gradient are
        G^T v."""
        r = G.T @ v
        return G @ solve_spd(AssembledSystem(K=m.gradient_stiffness,
                                             rhs=r - r.mean()))

    H = np.array(cocycles, dtype=np.float64)
    MH = np.empty_like(H)
    for n in range(H.shape[1]):
        H[:, n] -= gradient_part(_curl_free_mass(m, H[:, n]))
        MH[:, n] = _curl_free_mass(m, H[:, n])
    y = np.linalg.solve(H.T @ MH, H.T @ F)
    Fc = np.ldexp(F - _curl_free_mass(m, gradient_part(F)) - MH @ y, e)
    QtF = np.linalg.qr(H)[0].T @ F
    return Fc, {"gradient": float(np.linalg.norm(G.T @ F) / norm),
                "harmonic": float(np.linalg.norm(QtF) / norm)}


def _curl_free_mass(m: Mesh, u: np.ndarray) -> np.ndarray:
    """M_e u, unit coefficient, for the coefficients u (n_e,) of a
    curl-free Nedelec field, constant on each tet: int_T w_ab = |T|/4
    (grad lam_b - grad lam_a) pairs edge [a, b] with (P_b - P_a)/4, P the
    ``_centroid_pairings`` of u."""
    P = _centroid_pairings(FEFunction(Space.EDGE, m, u))
    return np.bincount(m.tet_edges.ravel(),
                       (P @ (kernels._LOCAL_GRAD.T / 4.0)).ravel(),
                       minlength=m.n_e)


def _centroid_pairings(u: FEFunction) -> np.ndarray:
    """|T| w . u(centroid) per tet, w constant on T: the edge curls
    (n_t, 6) for an RT u, the hat gradients (n_t, 4) for a Nedelec u,
    whose centroid value sum_e u_e (grad lam_b - grad lam_a)/4 is summed
    per vertex, through ``kernels._LOCAL_GRAD``.  u is affine on T, so
    this is int_T w . u."""
    m = u.mesh
    face = u.space == Space.FACE
    pairs = np.empty((m.n_t, 6 if face else 4))
    for blk in kernels.blocks(m.n_t):
        grads = m.tet_geometry[0][blk]
        if face:
            w = kernels.edge_curls(grads)
            mean = field_values(u, np.full((1, 4), 0.25), blk)[:, 0]
        else:
            w = grads
            mean = np.einsum("tv,tvx->tx", u.coeffs[m.tet_edges[blk]]
                             @ kernels._LOCAL_GRAD, grads) / 4.0
        pairs[blk] = np.einsum("tix,tx,t->ti", w, mean, m.volumes[blk])
    return pairs


def _lift_load(lift: FEFunction) -> np.ndarray:
    """C^T M_f lift (RT lift) or G^T M_e lift (Nedelec lift), unit
    coefficient: the ``_centroid_pairings`` of the lift scattered into
    the edges or the vertices."""
    m = lift.mesh
    conn, n = ((m.tet_edges, m.n_e) if lift.space == Space.FACE
               else (m.tets, m.n_v))
    return np.bincount(conn.ravel(), _centroid_pairings(lift).ravel(),
                       minlength=n)


def assemble_tangential(p: TangentialProblem, lift: FEFunction,
                        hb: HomologyBasis) -> AssembledSystem:
    """K = C^T eta M_f C and rhs = F - C^T eta M_f lift over all edges of
    the lift's mesh, with F the consistent load against ker C
    (``consistent_load``) and the cocycles ``hb.cocycles``; ``hb`` must be
    the homology basis of that mesh (``hb.tree.mesh is lift.mesh``)."""
    if lift.space != Space.FACE:
        raise SolverError("tangential lift must be an RT function")
    m = lift.mesh
    if hb.tree.mesh is not m:
        raise SolverError("the homology basis is of another mesh than the "
                          "lift")
    # the load first: its element passes run before K takes memory
    F, compat = consistent_load(
        m, _edge_load(m, p.J) + _tangential_boundary_load(m, p.a),
        hb.cocycles)
    K = p.eta * m.curl_curl
    rhs = F - p.eta * _lift_load(lift)
    return AssembledSystem(K=K, rhs=rhs, load_compatibility=compat)


def assemble_normal(p: NormalProblem, lift: FEFunction) -> AssembledSystem:
    """K = G^T mu M_e G and rhs = F - G^T mu M_e lift over all vertices
    of the lift's mesh, F the load b - g less hat * (sum F / sum hat), hat
    = int lambda_v: F is orthogonal to the constants, ker K.  Also returns
    |sum F| / |F|; both from F scaled by a power of two, as in
    ``consistent_load``."""
    if lift.space != Space.EDGE:
        raise SolverError("normal lift must be a Nedelec function")
    m = lift.mesh
    F, e = _scaled(_scalar_boundary_load(m, p.b) - _nodal_load(m, p.g))
    norm, total = np.linalg.norm(F), F.sum()
    hat = np.bincount(m.tets.ravel(), np.repeat(m.volumes / 4.0, 4),
                      minlength=m.n_v)
    rhs = np.ldexp(F - hat * (total / hat.sum()), e)
    compat = {"constant": float(abs(total) / norm) if norm else 0.0}
    return AssembledSystem(K=p.mu * m.gradient_stiffness,
                           rhs=rhs - p.mu * _lift_load(lift),
                           load_compatibility=compat)


# ---------------------------------------------------------------------------
# conjugate gradients


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v / 2**e and e, the largest entry of v / 2**e in [1/2, 1)."""
    e = int(np.frexp(np.abs(v).max(initial=0.0))[1])
    return np.ldexp(v, -e), e


@np.errstate(over="ignore", invalid="ignore")   # a SolverError instead
def solve_spd(s: AssembledSystem, tol: float = 1e-10,
              maxit: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned CG; raises on stagnation, and on an r.z or
    d.Kd that is not finite and > 0 (negative curvature, or out of range).

    K may be semidefinite if rhs is orthogonal to its kernel.  CG runs on
    rhs / 2**e, its largest entry in [1/2, 1), so that |rhs|^2 neither
    overflows nor underflows, and each iterate is exactly 2**-e times the
    unscaled one."""
    K = s.K
    r, e = _scaled(s.rhs)                   # the residual at x = 0
    n = K.shape[0]
    if maxit is None:
        maxit = max(10 * n, 100)
    bnorm = np.linalg.norm(r)
    if bnorm == 0.0:
        return np.zeros(n)
    diag = K.diagonal()
    if np.any(diag <= 0):
        raise SolverError("nonpositive diagonal entry; K is not SPD")
    inv_diag = 1.0 / diag
    x = np.zeros(n)
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    for it in range(maxit):
        Kd = K @ d
        dKd = float(d @ Kd)
        if not (0.0 < rz < np.inf and 0.0 < dKd < np.inf):
            raise SolverError(f"r.z = {rz:.3e}, d.Kd = {dKd:.3e} at iteration "
                              f"{it}: K is not SPD, or out of float range")
        step = rz / dKd
        x += step * d
        r -= step * Kd
        if np.linalg.norm(r) <= tol * bnorm:
            return np.ldexp(x, e)
        z = inv_diag * r
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise SolverError(f"CG did not converge in {maxit} iterations "
                      f"(relative residual "
                      f"{np.linalg.norm(r) / bnorm:.3e})")


# ---------------------------------------------------------------------------
# solution recovery and error norms


def recover_solution(coeffs: np.ndarray, lift: FEFunction) -> Solution:
    """u_h = lift + C coeffs for an RT lift (tangential), or
    lift + G coeffs for a Nedelec lift (normal)."""
    m = lift.mesh
    S = m.incidence.C if lift.space == Space.FACE else m.incidence.G
    return Solution(lift=lift, u_h=FEFunction(lift.space, m,
                                              S @ coeffs + lift.coeffs))


def error_norms(sol: Solution, exact_u, exact_diff) -> tuple[float, float]:
    """L2 and graph-norm errors against an analytic exact solution.

    ``exact_diff`` is the scalar divergence for the tangential formulation
    and the vector curl for the normal one.
    """
    u = sol.u_h
    m = u.mesh
    rule = make_quadrature("tet", ERROR_DEGREE)
    det = m.tet_geometry[1]
    du = differential(u)                # div_h (cell) or curl_h (face)
    centre = np.full((1, 4), 0.25)      # du is constant on each tet
    sq = np.empty((2, m.n_t))           # squared L2 errors of u_h and du
    for blk in kernels.blocks(m.n_t):
        for row, f, fn, bary in ((0, u, exact_u, rule.points),
                                 (1, du, exact_diff, centre)):
            exact = tet_point_values(fn, m, blk, rule, f.space != Space.CELL)
            d = field_values(f, bary, blk) - exact.reshape(exact.shape[:2] + (-1,))
            sq[row, blk] = (np.einsum("tqx,tqx,q->t", d, d, rule.weights)
                            * np.abs(det[blk]))
    l2_sq, diff_sq = sq.sum(axis=1)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + diff_sq))
