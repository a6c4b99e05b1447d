"""Element kernels: tet geometry, Whitney basis values and local matrices.

Each kernel is one vectorized numpy expression over the tets it is given;
a pass over a whole mesh takes BLOCK tets (or faces) at a time from
``blocks``, so that its point and basis arrays stay small.  The signed
6*volume is the triple product of a tet's edge vectors from vertex 0 and
the barycentric gradients their cross products over it, computed once per
mesh by ``Mesh.tet_geometry``.  The local matrices are closed forms: the
curl-curl and P1 stiffness from the edge curls and the gradients,
constant on each tet.  No edge mass is formed: the solver applies it only
to curl-free fields, constant on each tet, in one closed form.

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
# the local gradient (6, 4): row i of _LOCAL_GRAD @ phi is phi_b - phi_a
_LOCAL_GRAD = np.eye(4)[_EDGE_B] - np.eye(4)[_EDGE_A]

BLOCK = 512                                 # tets or faces per block


def blocks(n: int):
    """Consecutive slices of range(n), BLOCK long.  A pass loops over them
    in its own body: arrays freed at the end of each block, as a callback
    per block would free them, let the heap shrink and grow back, at a
    page fault per page of every block."""
    return (slice(start, start + BLOCK) for start in range(0, n, BLOCK))


def tet_edge_vectors(vertices, tets):
    """The edge vectors d_i = p_i - p_0 of each tet (n_t, 3, 3), and their
    triple product d1 . d2 x d3, the signed 6*volume (n_t,)."""
    p = vertices[tets]                       # (n_t, 4, 3)
    d = p[:, 1:] - p[:, :1]
    return d, np.einsum("tx,tx->t", d[:, 0], np.cross(d[:, 1], d[:, 2]))


def tet_geometry(vertices, tets):
    """Barycentric gradients (n_t, 4, 3): d2 x d3, d3 x d1 and d1 x d2 over
    6*volume (rows of [d1 d2 d3]^-1) and minus their sum; 6*volume (n_t,)."""
    d, det = tet_edge_vectors(vertices, tets)
    g = np.cross(d[:, [1, 2, 0]], d[:, [2, 0, 1]]) / det[:, None, None]
    return np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1), det


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
    """Raviart-Thomas face functions at shared points ``bary`` (nq, 4),
    (n_t, nq, 4, 3): lam_a c_bc - lam_b c_ac + lam_c c_ab on face [a, b, c]."""
    ab, ac, bc = _LOCAL_FACE_EDGES.T
    a, b, c = _EDGE_A[ab], _EDGE_B[ab], _EDGE_B[ac]
    curls = edge_curls(grads)[:, None]                  # (n_t, 1, 6, 3)
    return (bary[:, a, None] * curls[:, :, bc] - bary[:, b, None]
            * curls[:, :, ac] + bary[:, c, None] * curls[:, :, ab])


# ---------------------------------------------------------------------------
# local matrices with the unit coefficient; the assembly scales the global
# matrix


def edge_curls(grads):
    """Edge function curls (n_t, 6, 3): 2 grad lam_a x grad lam_b on [a, b]."""
    return 2.0 * np.cross(grads[:, _EDGE_A], grads[:, _EDGE_B])


def curl_curl(grads, vol):
    """Curl-curl matrices (n_t, 6, 6): |T| c_i . c_j, c = ``edge_curls``."""
    c = edge_curls(grads)
    return (c @ c.transpose(0, 2, 1)) * vol[:, None, None]


def stiffness(grads, vol):
    """P1 stiffness matrices (n_t, 4, 4): |T| grad lam_a . grad lam_b."""
    return (grads @ grads.transpose(0, 2, 1)) * vol[:, None, None]
