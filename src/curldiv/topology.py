"""Tree-cotree structure and homology generators of the complex.

The boundary-first spanning tree restricts to a spanning tree of each
boundary component.  Surface cycles are fundamental cycles of boundary
cotree edges whose classes are independent in H1 of the boundary; domain
generators are the subset of those that survive in H1 of the domain.

Both selections, and the rank of C behind the Betti numbers, come from a
face sweep (Webb & Forghani, IEEE Trans. Magn. 1989) from the tree edges,
gauged to zero.
Carried modulo a large prime, it gives the tree-gauged cocycles exactly as
T ker(R): T holds each edge's value in terms of the k edges left free at
stalls, R the k-column residuals of the faces it did not use.  A surface
cycle pairs with them through its closing edge alone, so it is independent
of the face boundaries and of the cycles kept before it exactly when its
row of T ker(R) is.  What the sweep leaves, ker R and the rows independent
of the rows before them, goes through one dense reduced row echelon form
modulo p, ``_echelon``.  Both lifts run the same sweep in floating point,
the Nedelec lift over the faces of C and the RT lift over the tets of D.
The sweep reads C and D as the tables of the mesh, ``face_edges`` and
``tet_faces`` with their signs, and needs no sparse matrix.
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
    by_edge = np.argsort(fe.ravel(), kind="stable") // w
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
    cotree_edges: np.ndarray        # (n_Q,) remaining edge ids, ordered
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
    by_src = np.lexsort((arc, src))
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


def _dual_arcs(m: Mesh):
    """The interior faces, ascending, and the two tets each one joins,
    the lower first."""
    flat = m.tet_faces.ravel()
    count = np.bincount(flat, minlength=m.n_f)
    by_face = np.argsort(flat) // 4         # the tets of each face, grouped
    interior = np.flatnonzero(count == 2)
    at = (np.cumsum(count) - count)[interior]
    t0, t1 = by_face[at], by_face[at + 1]
    return interior, np.minimum(t0, t1), np.maximum(t0, t1)


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

    # extend to a global spanning tree: each round joins every component to
    # its lowest-index outgoing edge (Boruvka), which keeps exactly the edges
    # that a scan in index order would keep for merging two components
    u, v = m.edges.T
    while True:
        label = connected_components(m.n_v, u[in_tree], v[in_tree])
        cross = np.flatnonzero(label[u] != label[v])
        if not len(cross):
            break
        best = np.full(m.n_v, m.n_e)
        np.minimum.at(best, label[u[cross]], cross)
        np.minimum.at(best, label[v[cross]], cross)
        in_tree[best[best < m.n_e]] = True
    tree_edges = np.flatnonzero(in_tree)
    if len(tree_edges) != m.n_v - 1:
        raise TopologyError("vertex graph is disconnected")

    # cotree: boundary edges first (closing-edge candidates), then the rest
    cotree = np.flatnonzero(~in_tree)
    on_boundary = np.isin(cotree, np.concatenate(b.component_edges))
    return TreeCotree(tree_edges=tree_edges,
                      cotree_edges=np.concatenate([cotree[on_boundary],
                                                   cotree[~on_boundary]]),
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
    """Select 2g boundary cycles independent in H1 of the boundary surface."""
    cycles = []
    closing = []
    for r, comp in enumerate(b.components):
        # twice the genus: 2 - Euler characteristic of the closed surface
        need = 2 - (len(b.component_vertices[r]) - len(b.component_edges[r])
                    + len(comp))
        if need == 0:
            continue
        # cocycles of the surface, gauged on its boundary tree
        known = np.ones(m.n_e, dtype=bool)
        known[b.component_edges[r]] = False
        tree = tc.boundary_parent[b.component_vertices[r]]
        known[tree[tree >= 0]] = True
        W, _ = _cocycles(m.face_edges[comp], known)
        candidates = tc.cotree_edges[np.isin(tc.cotree_edges,
                                             b.component_edges[r])]
        picked = candidates[_independent(W[candidates], need)]
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
    return HomologyBasis(cycles=[dict(scb.cycles[q]) for q in selected],
                         closing_edges=scb.closing_edges[selected],
                         rank_C=rank_C)


def betti(m: Mesh, rank_C: int):
    """Betti numbers (b0, b1, b2) from ranks of the incidence operators.

    rank G = n_v - 1, as build_mesh rejects disconnected complexes; rank C
    is ``HomologyBasis.rank_C``, from the face sweep of
    domain_homology_basis (the rank does not depend on the spanning tree
    that gauges the sweep); rank D is n_t less the dual components (tets
    joined through shared faces) that touch no boundary face.
    """
    _, t0, t1 = _dual_arcs(m)
    label = connected_components(m.n_t, t0, t1)
    # a tet with fewer than four interior faces has a boundary face
    on_boundary = label[np.bincount(np.r_[t0, t1], minlength=m.n_t) < 4]
    rD = m.n_t - len(np.unique(label)) + len(np.unique(on_boundary))
    rG = m.n_v - 1
    return (m.n_v - rG, m.n_e - rG - rank_C, m.n_f - rank_C - rD)
