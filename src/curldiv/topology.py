"""Tree-cotree structure and homology generators of the complex.

The boundary-first spanning tree restricts to a spanning tree of each
boundary component; the cotree is the rest of the edges, ascending, and
no later stage reorders it.  Surface cycles are fundamental cycles of
boundary cotree edges whose classes are independent in H1 of the
boundary; domain generators are the subset of those that survive in H1
of the domain.

The surface cycles close on the cotree edges off a spanning tree of the
surface's dual graph (tree-cotree, Eppstein, SODA 2003), from the Boruvka
loop that also builds the global tree.  The domain selection, and rank C
for the Betti numbers, come from a face sweep (Webb & Forghani, IEEE
Trans. Magn. 1989) from the tree edges, gauged to zero.
Carried modulo a large prime, it gives the tree-gauged cocycles exactly as
T ker(R): T holds each edge's value in terms of the k edges left free at
stalls, R the k-column residuals of the faces it did not use.  A surface
cycle pairs with them through its closing edge alone, so it is independent
of the face boundaries and of the cycles kept before it exactly when its
row of T ker(R) is.  What the sweep leaves, ker R and the rows independent
of the rows before them, goes through one dense reduced row echelon form
modulo p, ``_echelon``, which also turns the cocycles of the sigma_n into
the harmonic cocycles with periods delta_nm, exact integers that complete
the gradients to a basis of ker C.  Both lifts run the same sweep in
floating point, the Nedelec lift over the faces of C and the RT lift over
the tets of D.  The sweep reads C and D as the tables ``face_edges`` and
``tet_faces`` of the mesh, and the dual graph as ``Mesh.face_tets``.  Each
of its rounds finds the rows it solves and solves them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (FACE_EDGE_SIGN, Mesh, BoundaryStructure,
                   connected_components)


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


def _independent(rows: np.ndarray, need: int) -> np.ndarray:
    """Indices of the rows, in order, independent of the rows before them."""
    return _echelon(rows.T)[1][:need]


@dataclass(frozen=True)
class TreeCotree:
    tree_edges: np.ndarray          # (n_v - 1,) edge ids of the spanning tree
    cotree_edges: np.ndarray        # (n_Q,) remaining edge ids, ascending
    boundary_parent: np.ndarray     # (n_v,) edge to the parent in the
                                    # boundary tree, -1 at roots and inside

    @property
    def n_Q(self) -> int:
        return len(self.cotree_edges)


@dataclass(frozen=True)
class SurfaceCycleBasis:
    cycles: list                    # list of dict edge id -> int coefficient
    closing_edges: np.ndarray       # (2g,) the cotree edge closing each cycle


@dataclass(frozen=True)
class HomologyBasis:
    cycles: list                    # g domain generators, dict edge -> coeff
    closing_edges: np.ndarray       # (g,) closing edge of each, coeff +1
    rank_C: int                     # rank of the curl incidence operator
    cocycles: np.ndarray            # (n_e, g) ker C, period delta_nm on sigma_m

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


def _spanning_forest(n: int, u, v, in_tree: np.ndarray) -> None:
    """Extend the arcs ``in_tree`` (arc i joins u[i], v[i]) in place to a
    spanning forest of the n nodes: each round joins every component to its
    lowest-index outgoing arc (Boruvka), as a scan in index order would."""
    label = connected_components(n, u[in_tree], v[in_tree])
    while True:
        cross = np.flatnonzero(label[u] != label[v])
        if not len(cross):
            return
        best = np.full(n, len(u))
        np.minimum.at(best, label[u[cross]], cross)
        np.minimum.at(best, label[v[cross]], cross)
        new = best[best < len(u)]
        in_tree[new] = True
        label = connected_components(n, label[u[new]], label[v[new]])[label]


def build_boundary_first_tree(m: Mesh, b: BoundaryStructure) -> TreeCotree:
    """Spanning tree containing a BFS spanning tree of each boundary component."""
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

    _spanning_forest(m.n_v, *m.edges.T, in_tree)
    tree_edges = np.flatnonzero(in_tree)
    if len(tree_edges) != m.n_v - 1:
        raise TopologyError("vertex graph is disconnected")
    return TreeCotree(tree_edges=tree_edges,
                      cotree_edges=np.flatnonzero(~in_tree),
                      boundary_parent=bparent)


def fundamental_cycle(m: Mesh, parent, edge_id: int) -> dict:
    """Cycle formed by a non-tree edge plus the tree path between its ends,
    the tree given by each vertex's parent edge (-1 at the root): the edge
    a -> b, the path up from b, then the path from a, reversed."""
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


def surface_cycle_basis(m: Mesh, b: BoundaryStructure,
                        tc: TreeCotree) -> SurfaceCycleBasis:
    """Select 2g boundary cycles independent in H1 of the boundary surface,
    the first in cotree order: off the dual tree Kruskal builds from the last
    back.  On the cotree edges, which fix a cycle, the boundary of faces of
    an orientable surface is the cut around them in the dual graph, over any
    field: edges are dependent exactly when removing them splits it."""
    cycles, closing = [], []
    for r, comp in enumerate(b.components):
        # twice the genus: 2 - Euler characteristic of the closed surface
        need = 2 - (len(b.component_vertices[r]) - len(b.component_edges[r])
                    + len(comp))
        if need == 0:
            continue
        candidates = tc.cotree_edges[np.isin(tc.cotree_edges,
                                             b.component_edges[r])]
        # dual arcs: the two faces on each candidate, from the last back
        fe = m.face_edges[comp].ravel()
        by_edge = np.argsort(fe)
        at = np.searchsorted(fe[by_edge], candidates[::-1])
        f0, f1 = by_edge[at] // 3, by_edge[at + 1] // 3
        in_tree = np.zeros(len(candidates), dtype=bool)
        _spanning_forest(len(comp), f0, f1, in_tree)
        picked = candidates[~in_tree[::-1]]
        if len(picked) != need:
            raise TopologyError(
                f"boundary component {r}: found {len(picked)} of {need} "
                "independent cycles; mesh or topology bug")
        for e in picked:
            cycles.append(fundamental_cycle(m, tc.boundary_parent, int(e)))
            closing.append(int(e))
    return SurfaceCycleBasis(cycles=cycles,
                             closing_edges=np.array(closing, dtype=np.int64))


def domain_homology_basis(m: Mesh, tc: TreeCotree,
                          scb: SurfaceCycleBasis) -> HomologyBasis:
    """Domain generators sigma_n: the first g surface cycles, in order, that
    stay independent in H1 of the domain, and rank C from the same sweep."""
    g = 1 + m.boundary.p - m.euler_characteristic
    if g < 0 or 2 * g != len(scb.cycles):
        raise TopologyError(
            f"inconsistent ranks: domain g = {g} but surface rank = "
            f"{len(scb.cycles)}")
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    W, rank_C = _cocycles(m.face_edges, known)
    selected = _independent(W[scb.closing_edges], g)
    if len(selected) != g:
        raise TopologyError(
            f"only {len(selected)} of {g} surface cycles survive in the "
            "domain; mesh or topology bug")
    cycles = [dict(scb.cycles[q]) for q in selected]
    closing = scb.closing_edges[selected]
    # H = W B^-1 mod p, B = W[closing], the periods of W: the echelon form
    # of [B^T | W^T] is [I | H^T].  Lifted to (-p/2, p/2], H is the integer
    # solution, which is unique, exactly when C H = 0 in the integers
    H = _echelon(np.hstack([W[closing].T, W.T]))[0][:, g:].T.copy()
    H[H > _PRIME // 2] -= _PRIME
    periods = np.array([np.array(list(cyc.values())) @ H[list(cyc)]
                        for cyc in cycles], dtype=np.int64).reshape(g, g)
    if (np.einsum("fin,i->fn", H[m.face_edges], FACE_EDGE_SIGN).any()
            or not np.array_equal(periods, np.eye(g))):
        raise TopologyError("the harmonic cocycles are not curl-free integer "
                            "cochains with unit periods; mesh or topology bug")
    H.setflags(write=False)
    return HomologyBasis(cycles=cycles, closing_edges=closing,
                         rank_C=rank_C, cocycles=H)


def betti(m: Mesh, rank_C: int):
    """Betti numbers (b0, b1, b2) from ranks of the incidence operators.

    rank G = n_v - 1, as build_mesh rejects disconnected complexes; rank C
    is ``HomologyBasis.rank_C``, from the face sweep of
    domain_homology_basis (the rank does not depend on the spanning tree
    that gauges the sweep); rank D is n_t less the dual components (tets
    joined through shared faces) that touch no boundary face.
    """
    t0, t1 = m.face_tets.T
    interior = t1 >= 0
    label = connected_components(m.n_t, t0[interior], t1[interior])
    on_boundary = label[t0[~interior]]
    rD = m.n_t - len(np.unique(label)) + len(np.unique(on_boundary))
    rG = m.n_v - 1
    return (m.n_v - rG, m.n_e - rG - rank_C, m.n_f - rank_C - rD)
