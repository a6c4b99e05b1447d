"""Whitney basis values at barycentric points, the reference of the affine
form that evaluates edge and face functions (``elements.centroid_values``
and ``elements.field_values``) and of the closed-form masses and loads."""

from curldiv import kernels

_EDGE_A, _EDGE_B = kernels._EDGE_A, kernels._EDGE_B


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
    ab, ac, bc = kernels._LOCAL_FACE_EDGES.T
    a, b, c = _EDGE_A[ab], _EDGE_B[ab], _EDGE_B[ac]
    curls = kernels.edge_curls(grads)[:, None]          # (n_t, 1, 6, 3)
    return (bary[:, a, None] * curls[:, :, bc] - bary[:, b, None]
            * curls[:, :, ac] + bary[:, c, None] * curls[:, :, ab])
