"""Tree-cotree structure and homology generators of the complex.

Each product records where it came from: a ``TreeCotree`` its mesh, a
``HomologyBasis`` its tree.  A function given a tree or a basis reads the
mesh from it, and every function the boundary components from the
mesh's ``Mesh.boundary``, so no call pairs the topology of one mesh with
another.

The boundary-first spanning tree restricts to a spanning tree of each
boundary component; the cotree is the rest of the edges, ascending, and
no later stage reorders it.  The fundamental cycles, in the boundary
tree, of the boundary cotree edges span H1 of the boundary, and so H1 of
the domain, onto which H1 of the boundary maps for a domain in R^3.  The
domain generators sigma_n are the first g of them, the cotree edges of
each component ascending and the components from ``components[0]``,
that stay independent in H1 of the domain.

That selection, and rank C for the Betti numbers, come from a face sweep
(Webb & Forghani, IEEE Trans. Magn. 1989) from the tree edges, gauged to
zero.  Carried modulo a large prime, it gives the tree-gauged cocycles W
exactly as T ker(R): T holds each edge's value in terms of the k edges
left free at stalls, R the k-column residuals of the faces it did not
use.  A boundary cycle pairs with W through its closing edge alone, so
its row of W is its class in H1 of the domain: zero when it bounds there,
and independent of the rows before it exactly when the cycle is
independent of the cycles before it.  What the sweep leaves, ker R and
those rows, goes through a dense reduced row echelon form modulo p,
``_echelon``: on the rows, its pivots pick the sigma_n, and the same pass
turns W into the harmonic cocycles with periods delta_nm, exact integers
that complete the gradients to a basis of ker C.  Both lifts run the same
sweep in floating point, the Nedelec lift over the faces of C and the RT
lift over the tets of D.  The sweep reads C and D as the tables
``face_edges`` and ``tet_faces`` of the mesh, and the dual graph as
``Mesh.face_tets``.  Each of its rounds finds the rows it solves and
solves them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import FACE_EDGE_SIGN, Mesh, connected_components, read_only


class TopologyError(ValueError):
    pass


_PRIME = 2_147_483_647


def _echelon(A):
    """Reduced row echelon form of the integer matrix A modulo _PRIME: its
    nonzero rows E and their pivot columns, ascending.  A column is a pivot
    exactly when it is independent of the columns before it."""
    p = _PRIME
    E = np.array(A, dtype=np.int64) % p
    pivots = []
    for c in range(E.shape[1]):
        r = len(pivots)
        if r == len(E):
            break
        nz = r + np.flatnonzero(E[r:, c])
        if not len(nz):
            continue
        E[[r, nz[0]]] = E[[nz[0], r]]
        E[r] = E[r] * pow(int(E[r, c]), p - 2, p) % p
        rest = np.flatnonzero(E[:, c])
        rest = rest[rest != r]
        # products of two residues stay below 2^62
        E[rest] = (E[rest] - E[rest, c, None] * E[r]) % p
        pivots.append(c)
    return E[:len(pivots)], np.array(pivots, dtype=np.int64)


def _kernel(A) -> np.ndarray:
    """Rows spanning {x : A x = 0} modulo _PRIME: a unit vector on each free
    column, solved for the pivot columns."""
    E, pivots = _echelon(A)
    free = np.setdiff1d(np.arange(A.shape[1]), pivots)
    K = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = -E[:, free].T % _PRIME
    return K


def _ranges(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The positions ptr[i] .. ptr[i + 1] - 1 of every i in ids, in turn."""
    lo, n = ptr[ids], ptr[ids + 1] - ptr[ids]
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def _face_sweep(fe: np.ndarray, fs, known: np.ndarray, x0=None, rhs=None,
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

    X = np.zeros((n_e, 1), dtype=np.int64 if p else np.float64)
    if x0 is not None:
        X[known, 0] = x0[known]
    b = np.zeros(len(fe), dtype=X.dtype) if rhs is None else rhs
    # mod p with no x0 or rhs every value is 0 until the first stall (in
    # float a round may write -0.0), so the rounds before it skip the sums
    k, zero = 0, p is not None and x0 is None and rhs is None
    known = known.copy()
    unknown = np.count_nonzero(~known[fe], axis=1)
    owner = np.empty(n_e, dtype=np.int64)
    mark = np.zeros(len(fe), dtype=bool)
    used = np.zeros(len(fe), dtype=bool)
    front = np.flatnonzero(unknown == 1)
    while True:
        if len(front):
            rows = fe[front]
            own = ~known[rows]
            edges = rows[own]               # the one unknown edge of each row
            # the front ascends, so the last write is the lowest row
            owner[edges[::-1]] = front[::-1]
            win = owner[edges] == front
            faces, edges = front[win], edges[win]
            used[faces] = True
            if not zero:
                ce, cs, own = rows[win], fs[faces], own[win]
                v = -np.einsum("fi,fic->fc", np.where(own, 0, cs), X[ce, :1 + k])
                v[:, 0] += b[faces]
                v *= cs[own][:, None]       # 1 / s = s for s = +-1
                X[edges, :1 + k] = v % p if p else v
        else:
            e = np.argmax(~known)
            if known[e]:
                break
            k, zero = k + 1, False
            if k == X.shape[1]:             # out of columns: double them
                X = np.hstack([X, np.zeros_like(X)])
            X[e, k] = 1
            edges = np.array([e])
        known[edges] = True
        touched = by_edge[_ranges(ptr, edges)]
        np.subtract.at(unknown, touched, 1)
        # a row used or beaten has no unknown edge left, so no row comes twice
        mark[touched] = unknown[touched] == 1
        front = np.flatnonzero(mark)
        mark[front] = False

    X = np.ascontiguousarray(X[:, :1 + k])
    rest = ~used
    R = np.einsum("fi,fic->fc", fs[rest], X[fe[rest]])
    R[:, 0] -= b[rest]
    return X, (R % p if p else R)


def _cocycles(face_edges: np.ndarray, known: np.ndarray):
    """Basis W (n_e, d) mod p of {x : C x = 0, x = 0 on known edges}, C
    the rows of the faces ``face_edges``, and rank C if ``known`` is a
    spanning tree plus the edges C does not touch."""
    X, R = _face_sweep(face_edges, FACE_EDGE_SIGN, known, p=_PRIME)
    T = X[:, 1:]
    K = _kernel(R[:, 1:])
    W = np.zeros((len(T), len(K)), dtype=np.int64)
    for j in range(T.shape[1]):             # products stay below 2^62
        W = (W + T[:, j, None] * K[None, :, j] % _PRIME) % _PRIME
    return W, int(np.count_nonzero(~known)) - len(K)


@dataclass(frozen=True)
class TreeCotree:
    tree_edges: np.ndarray          # (n_v - 1,) edge ids of the spanning tree
    cotree_edges: np.ndarray        # (n_Q,) remaining edge ids, ascending
    boundary_parent: np.ndarray     # (n_v,) edge to the parent in the
                                    # boundary tree, -1 at roots and inside
    mesh: Mesh = field(repr=False, compare=False)   # the mesh it spans

    def __post_init__(self):
        read_only(self.tree_edges, self.cotree_edges, self.boundary_parent)

    @property
    def n_Q(self) -> int:
        return len(self.cotree_edges)


@dataclass(frozen=True)
class HomologyBasis:
    cycles: list                    # g domain generators, dict edge -> coeff
    closing_edges: np.ndarray       # (g,) closing edge of each, coeff +1
    rank_C: int                     # rank of the curl incidence operator
    cocycles: np.ndarray            # (n_e, g) ker C, period delta_nm on sigma_m
    tree: TreeCotree = field(repr=False, compare=False)  # the gauge it is of

    def __post_init__(self):
        read_only(self.closing_edges, self.cocycles)

    @property
    def g(self) -> int:
        return len(self.cycles)


def chain_boundary(m: Mesh, chain: dict) -> dict:
    """Signed vertex boundary of an integer edge chain (exact integers)."""
    out = {}
    for e, c in chain.items():
        a, b = (int(v) for v in m.edges[int(e)])
        out[a] = out.get(a, 0) - c
        out[b] = out.get(b, 0) + c
    return {v: c for v, c in out.items() if c}


def _bfs(n: int, u, v, root: int):
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
    first = np.empty(n, dtype=np.int64)
    order = [np.array([root])]
    while len(order[-1]):
        at = _ranges(ptr, order[-1])
        nbr = dst[at]
        # a node joins the queue where the scan first meets it, the last
        # write of the reversed scan
        first[nbr[::-1]] = at[::-1]
        nbr = nbr[(first[nbr] == at) & ~seen[nbr]]
        parent[nbr] = arc[first[nbr]]
        seen[nbr] = True
        order.append(nbr)
    return np.concatenate(order), parent


def build_boundary_first_tree(m: Mesh) -> TreeCotree:
    """Spanning tree containing a BFS spanning tree of each boundary
    component of ``m.boundary``."""
    b = m.boundary
    in_tree = np.zeros(m.n_e, dtype=bool)
    bparent = np.full(m.n_v, -1, dtype=np.int64)
    for cv, ce in zip(b.component_vertices, b.component_edges):
        u, v = m.edges[ce].T
        order, arc = _bfs(m.n_v, u, v, int(cv.min()))
        if len(order) != len(cv):
            raise TopologyError("boundary component surface graph is disconnected")
        up = ce[arc[order[1:]]]
        in_tree[up] = True
        bparent[order[1:]] = up

    # one BFS over the graph of the boundary trees, contracted to a node
    # each, joins them and the inner vertices to the global tree
    u, v = m.edges.T
    label = connected_components(m.n_v, u[in_tree], v[in_tree])
    order, arc = _bfs(m.n_v, label[u], label[v], int(label[0]))
    in_tree[arc[order[1:]]] = True
    tree_edges = np.flatnonzero(in_tree)
    if len(tree_edges) != m.n_v - 1:
        raise TopologyError("vertex graph is disconnected")
    return TreeCotree(tree_edges=tree_edges,
                      cotree_edges=np.flatnonzero(~in_tree),
                      boundary_parent=bparent, mesh=m)


def fundamental_cycle(tc: TreeCotree, edge_id: int) -> dict:
    """Cycle formed by an edge of ``tc.mesh`` off the boundary tree plus
    the path in that tree between its ends, the tree given by each
    vertex's parent edge ``tc.boundary_parent`` (-1 at the roots): the edge
    a -> b, the path up from b, then the path from a, reversed."""
    m, parent = tc.mesh, tc.boundary_parent
    a, b = (int(x) for x in m.edges[int(edge_id)])
    paths = []
    for v in (b, a):
        path = []                       # (edge, sign of child -> parent)
        while parent[v] != -1:
            e = int(parent[v])
            lo, hi = (int(x) for x in m.edges[e])
            path.append((e, 1 if v == lo else -1))
            v = lo + hi - v
        paths.append(path)
    up_b, up_a = paths
    while up_b and up_a and up_b[-1] == up_a[-1]:   # above the meeting vertex
        up_b.pop()
        up_a.pop()
    chain = {int(edge_id): 1}
    chain.update(up_b)
    chain.update((e, -s) for e, s in reversed(up_a))
    if chain_boundary(m, chain):        # also when a and b lie in two trees
        raise TopologyError("fundamental cycle is not closed")
    return chain


def surface_cycle_basis(tc: TreeCotree) -> np.ndarray:
    """The closing edges of every fundamental cycle of the boundary tree:
    the cotree edges of each component of ``tc.mesh.boundary``, ascending,
    component after component from ``components[0]``.  Their cycles span
    H1 of the boundary; ``domain_homology_basis`` picks the sigma_n among
    them."""
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        tc.cotree_edges[np.isin(tc.cotree_edges, ce)]
        for ce in tc.mesh.boundary.component_edges])


def domain_homology_basis(tc: TreeCotree,
                          surface_closing: np.ndarray) -> HomologyBasis:
    """Domain generators sigma_n of ``tc.mesh``: of the boundary cycles
    closed by the edges ``surface_closing``, the first g, in order,
    independent in H1 of the domain, and rank C from the same sweep,
    gauged by ``tc``."""
    m = tc.mesh
    g = 1 + m.boundary.p - m.euler_characteristic
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    W, rank_C = _cocycles(m.face_edges, known)
    if W.shape[1] != g:
        raise TopologyError(
            f"inconsistent ranks: domain g = {g} but {W.shape[1]} cocycles")
    # a cycle whose row of W is zero bounds in the domain, and is no pivot
    cand = surface_closing[W[surface_closing].any(axis=1)]
    nc = len(cand)
    # the pivots of [W[cand]^T | W^T] are the cycles independent of those
    # before them, the closing edges, and its echelon form is B^-1 times it,
    # B = W[closing]^T: the second block is H^T, H = W W[closing]^-1 mod p.
    # Lifted to (-p/2, p/2], H is the integer solution, which is unique,
    # exactly when C H = 0 in the integers
    E, pivots = _echelon(np.hstack([W[cand].T, W.T]))
    if len(pivots) and pivots[-1] >= nc:
        raise TopologyError(
            f"only {np.count_nonzero(pivots < nc)} of {g} boundary cycles "
            "survive in the domain; mesh or topology bug")
    closing = cand[pivots]
    cycles = [fundamental_cycle(tc, int(e)) for e in closing]
    H = E[:, nc:].T.copy()
    H[H > _PRIME // 2] -= _PRIME
    periods = np.array([np.array(list(cyc.values())) @ H[list(cyc)]
                        for cyc in cycles], dtype=np.int64).reshape(g, g)
    if (np.einsum("fin,i->fn", H[m.face_edges], FACE_EDGE_SIGN).any()
            or not np.array_equal(periods, np.eye(g))):
        raise TopologyError("the harmonic cocycles are not curl-free integer "
                            "cochains with unit periods; mesh or topology bug")
    return HomologyBasis(cycles=cycles, closing_edges=closing,
                         rank_C=rank_C, cocycles=H, tree=tc)


def betti(hb: HomologyBasis):
    """Betti numbers (b0, b1, b2) of the mesh ``hb.tree.mesh`` from ranks
    of the incidence operators.

    rank G = n_v - 1, as build_mesh rejects disconnected complexes; rank C
    is ``hb.rank_C``, from the face sweep of domain_homology_basis (the
    rank does not depend on the spanning tree that gauges the sweep); rank
    D is n_t less the dual components (tets joined through shared faces)
    that touch no boundary face.
    """
    m, rank_C = hb.tree.mesh, hb.rank_C
    t0, t1 = m.face_tets.T
    interior = t1 >= 0
    label = connected_components(m.n_t, t0[interior], t1[interior])
    on_boundary = label[t0[~interior]]
    rD = m.n_t - len(np.unique(label)) + len(np.unique(on_boundary))
    rG = m.n_v - 1
    return (m.n_v - rG, m.n_e - rG - rank_C, m.n_f - rank_C - rD)
