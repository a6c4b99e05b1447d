"""The two round loops of ``curldiv.topology`` as they were before each
round found its front and computed its values in one pass: the references
that ``_face_sweep`` and ``_bfs`` must match bit for bit.

``face_sweep`` finds every round first, its winners by ``np.unique`` and
its next front by a sorted ``np.unique`` of the rows touched, walks the
initially unknown edges in Python for the lowest one at a stall, and
replays the rounds for the arithmetic once k is known.  ``bfs`` takes the
first visits of each level from a sorted ``np.unique``.
"""

import numpy as np

from curldiv.topology import _ranges


def face_sweep(fe: np.ndarray, fs, known: np.ndarray, x0=None, rhs=None,
               p: int | None = None):
    """Sweep the equations sum_i fs[r, i] x[fe[r, i]] = rhs[r], rows of w
    +-1 entries each: the faces of C (``Mesh.face_edges`` and
    FACE_EDGE_SIGN, w = 3) or the tets of D (``Mesh.tet_faces`` and
    ``Mesh.tet_face_sign``, w = 4).  ``fs`` may be one row of signs for all.

    ``known`` marks the edges ``x0`` gives (zero if omitted) and every edge
    no row touches.  Each round resolves every row with one unknown edge,
    the lowest row winning a shared edge; on a stall the lowest unknown
    edge becomes the next of k free parameters t.  Returns X (n_e, 1 + k)
    and R (unused rows, 1 + k): x = X[:, 0] + X[:, 1:] @ t solves the rows
    used, and the others iff R[:, 0] + R[:, 1:] @ t = 0.  With ``p`` the
    arithmetic is exact modulo p, otherwise float64.
    """
    n_e = len(known)
    w = fe.shape[1]
    fs = np.broadcast_to(fs, fe.shape)
    # the rows touching each edge, grouped by edge
    by_edge = np.argsort(fe.ravel()) // w
    ptr = np.concatenate([[0], np.cumsum(np.bincount(fe.ravel(), minlength=n_e))])

    seeded = known
    known = known.copy()
    unknown = np.count_nonzero(~known[fe], axis=1)
    used = np.zeros(len(fe), dtype=bool)
    rounds, params = [], []
    lowest = iter(np.flatnonzero(~known).tolist())
    front = np.flatnonzero(unknown == 1)
    while True:
        if len(front):
            rows = fe[front]
            edges, first = np.unique(rows[~known[rows]], return_index=True)
            used[front[first]] = True
            rounds.append((front[first], edges))
        else:
            e = next((e for e in lowest if not known[e]), None)
            if e is None:
                break
            params.append(e)
            edges = np.array([e])
        known[edges] = True
        touched = by_edge[_ranges(ptr, edges)]
        np.subtract.at(unknown, touched, 1)
        front = np.unique(touched[(unknown[touched] == 1) & ~used[touched]])

    k = len(params)
    X = np.zeros((n_e, 1 + k), dtype=np.int64 if p else np.float64)
    if x0 is not None:
        X[seeded, 0] = x0[seeded]
    X[params, 1 + np.arange(k)] = 1
    b = np.zeros(len(fe), dtype=X.dtype) if rhs is None else rhs
    for faces, edges in rounds:
        ce, cs = fe[faces], fs[faces]
        own = ce == edges[:, None]
        v = -np.einsum("fi,fic->fc", np.where(own, 0, cs), X[ce])
        v[:, 0] += b[faces]
        v *= cs[own][:, None]               # 1 / s = s for s = +-1
        X[edges] = v % p if p else v
    rest = ~used
    R = np.einsum("fi,fic->fc", fs[rest], X[fe[rest]])
    R[:, 0] -= b[rest]
    return X, (R % p if p else R)


def bfs(n: int, u, v, root: int):
    """Queue-order BFS from root over the n nodes joined by arcs (u[i], v[i]):
    the visit order and each node's parent arc (-1 if none).  Neighbours are
    scanned in ascending arc id; on sorted edges that is ascending vertex."""
    arc = np.arange(len(u))
    src, dst, arc = np.r_[u, v], np.r_[v, u], np.r_[arc, arc]
    by_src = np.argsort(src * len(u) + arc)
    dst, arc = dst[by_src], arc[by_src]
    ptr = np.searchsorted(src[by_src], np.arange(n + 1))
    parent = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    order = [np.array([root])]
    while len(order[-1]):
        at = _ranges(ptr, order[-1])
        nbr = dst[at]
        fresh = np.flatnonzero(~seen[nbr])
        # a node joins the queue where the scan first meets it
        first = fresh[np.sort(np.unique(nbr[fresh], return_index=True)[1])]
        parent[nbr[first]] = arc[at[first]]
        seen[nbr[first]] = True
        order.append(nbr[first])
    return np.concatenate(order), parent
