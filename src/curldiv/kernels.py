"""Element-loop kernels for assembly, evaluation and error quadrature.

Each kernel is one vectorized numpy expression over all tets and
quadrature points at once.  The per-tet geometry they take (barycentric
gradients and signed 6*volume) is computed once per mesh, by
``Mesh.tet_geometry``.

Conventions: tets carry sorted vertex indices, so the local Whitney bases
(edge pairs and face triples in lexicographic order) coincide with the
global degrees of freedom without sign flips.
"""

from __future__ import annotations

import numpy as np

_EDGE_A = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
_EDGE_B = np.array([1, 2, 3, 2, 3, 3], dtype=np.int64)
_FACE_V = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], dtype=np.int64)


def tet_jacobian(vertices, tets):
    """Edge vectors p1 - p0, p2 - p0, p3 - p0 as columns: (n_t, 3, 3)."""
    p = vertices[tets]                       # (n_t, 4, 3)
    return np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]],
                    axis=2)


def tet_geometry(vertices, tets):
    """Barycentric gradients (n_t, 4, 3) and signed 6*volume (n_t,)."""
    J = tet_jacobian(vertices, tets)
    det = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:] = Jinv
    grads[:, 0] = -Jinv.sum(axis=1)
    return grads, det


def physical_points(vertices, tets, bary):
    """Quadrature points in physical space: (n_t, nq, 3)."""
    return np.einsum("qi,tix->tqx", bary, vertices[tets])


# ---------------------------------------------------------------------------
# basis values at barycentric points


def edge_basis_values(grads, bary):
    """Whitney edge functions at quadrature points: (n_t, nq, 6, 3).

    ``bary`` holds points shared by every tet, (nq, 4), or points of each
    tet, (n_t, nq, 4).
    """
    ga = grads[:, _EDGE_A]                   # (n_t, 6, 3)
    gb = grads[:, _EDGE_B]
    return (bary[..., _EDGE_A, None] * gb[:, None] -
            bary[..., _EDGE_B, None] * ga[:, None])


def rt_basis_values(grads, bary):
    """Raviart-Thomas face functions at quadrature points: (n_t, nq, 4, 3)."""
    n_t = grads.shape[0]
    nq = bary.shape[0]
    out = np.zeros((n_t, nq, 4, 3))
    for fi in range(4):
        a, b, c = _FACE_V[fi]
        gbc = np.cross(grads[:, b], grads[:, c])     # (n_t, 3)
        gca = np.cross(grads[:, c], grads[:, a])
        gab = np.cross(grads[:, a], grads[:, b])
        out[:, :, fi, :] = 2.0 * (
            bary[None, :, a, None] * gbc[:, None] +
            bary[None, :, b, None] * gca[:, None] +
            bary[None, :, c, None] * gab[:, None])
    return out


def edge_curl_values(grads):
    """Constant curls of the six edge functions: (n_t, 6, 3)."""
    return 2.0 * np.cross(grads[:, _EDGE_A], grads[:, _EDGE_B])


# ---------------------------------------------------------------------------
# local mass matrices: M[i, j] = sum_q w_q |det| basis_i . basis_j, with the
# unit coefficient; the assembly scales the global matrix


def local_mass(basis_vals, det, qw):
    M = np.einsum("tqix,tqjx,q->tij", basis_vals, basis_vals, qw)
    return M * np.abs(det)[:, None, None]


# ---------------------------------------------------------------------------
# local load vectors


def local_vector_load(basis_vals, det, qw, fvals):
    L = np.einsum("tqix,tqx,q->ti", basis_vals, fvals, qw)
    return L * np.abs(det)[:, None]


def local_scalar_load(bary, det, qw, gvals):
    L = np.einsum("qi,tq,q->ti", bary, gvals, qw)
    return L * np.abs(det)[:, None]


# ---------------------------------------------------------------------------
# field evaluation and weighted L2 error accumulation


def field_at_points(basis_vals, local_coeffs):
    return np.einsum("tqix,ti->tqx", basis_vals, local_coeffs)


def weighted_l2_sq(diff, det, qw):
    """Integral of |diff|^2, diff given at quadrature points (n_t, nq, ...)."""
    if diff.ndim == 2:
        diff = diff[:, :, None]
    sq = np.einsum("tqx,tqx->tq", diff, diff)
    return float(np.einsum("tq,q,t->", sq, qw, np.abs(det)))
