"""The quadrature mass matrices that the closed forms replaced, kept as the
oracle of the local matrices: the RT mass M_f gives C^T M_f C and the
lift pairings of the tangential system."""

import numpy as np
import scipy.sparse as sp

from curldiv import kernels
from curldiv.quadrature import make_quadrature
from whitney import edge_basis_values, rt_basis_values


def tensor_mass(m, space):
    """The mass matrix of the tensor path: the identity coefficient as an
    (n_t, nq, 3, 3) array, contracted with the basis by a 3x3 einsum, on
    the degree 2 rule, which is exact for the mass of linear fields."""
    rule = make_quadrature("tet", 2)
    n_t, nq = m.n_t, len(rule.weights)
    tensor = np.ascontiguousarray(np.broadcast_to(np.eye(3), (n_t, nq, 3, 3)))
    grads, det = kernels.tet_geometry(m.vertices, m.tets)
    if space == "face":
        basis, conn, dim = (rt_basis_values(grads, rule.points),
                            m.tet_faces, m.n_f)
    else:
        basis, conn, dim = (edge_basis_values(grads, rule.points),
                            m.tet_edges, m.n_e)
    cb = np.einsum("tqxy,tqjy->tqjx", tensor, basis)
    local = np.einsum("tqix,tqjx,q->tij", basis, cb, rule.weights)
    local = local * np.abs(det)[:, None, None]
    nb = conn.shape[1]
    rows = np.repeat(conn, nb, axis=1).ravel()
    cols = np.tile(conn, (1, nb)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(dim, dim)).tocsr()
