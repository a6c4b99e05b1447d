"""Element kernels: tet geometry, Whitney basis values and local masses.

Each kernel is one vectorized numpy expression over the tets it is given;
a pass over a whole mesh takes BLOCK tets (or faces) at a time from
``blocks``, so that its point and basis arrays stay small.  The per-tet
geometry (barycentric gradients and signed 6*volume) is computed once per
mesh, by ``Mesh.tet_geometry``.  The local mass matrices are closed forms,
with no quadrature.

Conventions: tets carry sorted vertex indices, so the local Whitney bases
(edge pairs and face triples in lexicographic order) coincide with the
global degrees of freedom without sign flips.
"""

from __future__ import annotations

import numpy as np

# The local numbering of a tet's sorted vertices 0..3, lexicographic as is
# the global one: edge i is [_EDGE_A[i], _EDGE_B[i]]; face i omits vertex
# 3 - i, and its edges [a, b], [a, c], [b, c] are those that avoid it.
_EDGE_A = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
_EDGE_B = np.array([1, 2, 3, 2, 3, 3], dtype=np.int64)
_LOCAL_FACE_EDGES = np.array([np.flatnonzero((_EDGE_A != v) & (_EDGE_B != v))
                              for v in (3, 2, 1, 0)])
# int_T lam_a lam_b = |T| (1 + delta_ab) / 20
_BARY_GRAM = (1.0 + np.eye(4)) / 20.0

BLOCK = 512                                 # tets or faces per block


def blocks(n: int):
    """Consecutive slices of range(n), BLOCK long.  A pass loops over them
    in its own body: arrays freed at the end of each block, as a callback
    per block would free them, let the heap shrink and grow back, at a
    page fault per page of every block."""
    return (slice(start, start + BLOCK) for start in range(0, n, BLOCK))


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
        a, b, c = np.delete(np.arange(4), 3 - fi)
        gbc = np.cross(grads[:, b], grads[:, c])     # (n_t, 3)
        gca = np.cross(grads[:, c], grads[:, a])
        gab = np.cross(grads[:, a], grads[:, b])
        out[:, :, fi, :] = 2.0 * (
            bary[None, :, a, None] * gbc[:, None] +
            bary[None, :, b, None] * gca[:, None] +
            bary[None, :, c, None] * gab[:, None])
    return out


# ---------------------------------------------------------------------------
# local mass matrices with the unit coefficient; the assembly scales the
# global matrix


def edge_mass(grads, vol):
    """Whitney edge mass matrices (n_t, 6, 6) from the Gram matrix
    G = grad lam . grad lam^T: for edges [a, b] and [c, d], |T| times
    L_ac G_bd - L_ad G_bc - L_bc G_ad + L_bd G_ac, L = ``_BARY_GRAM``."""
    G = np.einsum("tix,tjx->tij", grads, grads)
    L = _BARY_GRAM
    a, b = _EDGE_A[:, None], _EDGE_B[:, None]
    c, d = _EDGE_A, _EDGE_B
    M = (L[a, c] * G[:, b, d] - L[a, d] * G[:, b, c]
         - L[b, c] * G[:, a, d] + L[b, d] * G[:, a, c])
    return M * vol[:, None, None]


def rt_mass(p, sign, vol):
    """Raviart-Thomas mass matrices (n_t, 4, 4) of tets with vertices p
    (n_t, 4, 3), face signs ``sign`` and volumes ``vol``.  Face i has the
    function s_i (x - x_i) / (3|T|), x_i the vertex opposite it, and the
    mass s_i s_j (S/20 + y_i . y_j) / (9|T|), with y the vertices about the
    centroid and S = sum_k |y_k|^2."""
    # face i omits vertex 3 - i; y is taken from the edge vectors, since
    # the centroid of p itself loses digits on tets far from the origin
    d = p - p[:, :1]
    y = d[:, ::-1] - d.mean(axis=1)[:, None]
    Y = np.einsum("tix,tjx->tij", y, y)
    Y += np.trace(Y, axis1=1, axis2=2)[:, None, None] / 20.0
    Y *= (sign / (9.0 * vol)[:, None])[:, :, None] * sign[:, None, :]
    return Y
