"""Tree-cotree structure and homology generators of the complex.

The boundary-first spanning tree restricts to a spanning tree of each
boundary component.  Surface cycles are fundamental cycles of boundary
cotree edges whose classes are independent in H1 of the boundary; domain
generators are the subset of those that survive in H1 of the domain.

Both selections and the Betti numbers come from one face sweep (Webb &
Forghani, IEEE Trans. Magn. 1989) from the tree edges, gauged to zero.
Carried modulo a large prime, it gives the tree-gauged cocycles exactly as
T ker(R): T holds each edge's value in terms of the k edges left free at
stalls, R the k-column residuals of the faces it did not use.  A surface
cycle pairs with them through its closing edge alone, so it is independent
of the face boundaries and of the cycles kept before it exactly when its
row of T ker(R) is.  The Nedelec lift runs the same sweep in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, BoundaryStructure, connected_components


class TopologyError(ValueError):
    pass


_PRIME = 2_147_483_647


class _RowBasis:
    """Incremental row-echelon basis over GF(p) for sparse integer rows."""

    def __init__(self, p: int = _PRIME):
        self.p = p
        self.pivots = {}        # pivot column -> reduced row (dict col -> val)

    def _reduce(self, row: dict) -> dict:
        p = self.p
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            if c not in self.pivots:
                return row
            piv = self.pivots[c]
            factor = row[c] * pow(piv[c], p - 2, p) % p
            for pc, pv in piv.items():
                nv = (row.get(pc, 0) - factor * pv) % p
                if nv:
                    row[pc] = nv
                else:
                    row.pop(pc, None)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; True if it increased the rank."""
        red = self._reduce(row)
        if not red:
            return False
        self.pivots[min(red)] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self, n: int) -> np.ndarray:
        """Rows spanning {x in GF(p)^n : r . x = 0 for every added row r}."""
        p = self.p
        free = [j for j in range(n) if j not in self.pivots]
        out = np.zeros((len(free), n), dtype=np.int64)
        for i, j in enumerate(free):
            x = {j: 1}
            # each pivot row involves only its pivot and later columns
            for c in sorted(self.pivots, reverse=True):
                row = self.pivots[c]
                s = sum(v * x.get(cc, 0) for cc, v in row.items() if cc != c)
                x[c] = -s * pow(row[c], p - 2, p) % p
            out[i, list(x)] = list(x.values())
        return out


def _modular_rank(mat) -> int:
    """Rank over GF(p) by elimination of whole rows (a reference for tests)."""
    mat = mat.tocsr()
    basis = _RowBasis()
    for i in range(mat.shape[0]):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        basis.add(dict(zip(map(int, mat.indices[sl]), map(int, mat.data[sl]))))
    return basis.rank


def _ranges(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The positions ptr[i] .. ptr[i + 1] - 1 of every i in ids, in turn."""
    lo, n = ptr[ids], ptr[ids + 1] - ptr[ids]
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def _face_sweep(C, known: np.ndarray, x0=None, rhs=None, p: int | None = None):
    """Sweep the face equations C x = rhs (three +-1 entries per row).

    ``known`` marks the edges ``x0`` gives (zero if omitted) and every edge
    no row touches.  Each round resolves every row with one unknown edge,
    the lowest row winning a shared edge; on a stall the lowest unknown
    edge becomes the next of k free parameters t.  Returns X (n_e, 1 + k)
    and R (unused rows, 1 + k): x = X[:, 0] + X[:, 1:] @ t solves the rows
    used, and the others iff R[:, 0] + R[:, 1:] @ t = 0.  With ``p`` the
    arithmetic is exact modulo p, otherwise float64.
    """
    n_e = len(known)
    fe = C.indices.reshape(-1, 3)
    fs = C.data.reshape(-1, 3)
    # the rows touching each edge, grouped by edge
    by_edge = np.argsort(fe.ravel(), kind="stable") // 3
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


def _cocycles(C, known: np.ndarray):
    """Basis W (n_e, d) mod p of {x : C x = 0, x = 0 on known edges}, and
    rank C if ``known`` is a spanning tree plus the edges C does not touch."""
    X, R = _face_sweep(C, known, p=_PRIME)
    T, R = X[:, 1:], R[:, 1:]
    k = T.shape[1]
    basis = _RowBasis()
    for row in np.unique(R[R.any(axis=1)], axis=0):
        if basis.rank == k:
            break
        basis.add({c: int(v) for c, v in enumerate(row) if v})
    K = basis.kernel(k)
    W = np.zeros((len(T), len(K)), dtype=np.int64)
    for j in range(k):                      # products stay below 2^62
        W = (W + T[:, j, None] * K[None, :, j] % _PRIME) % _PRIME
    return W, int(np.count_nonzero(~known)) - k + basis.rank


def _independent(rows: np.ndarray, need: int) -> list:
    """Indices of the rows, in order, independent of the rows before them."""
    basis = _RowBasis()
    picked = []
    for i, row in enumerate(rows):
        if len(picked) == need:
            break
        if basis.add({c: int(v) for c, v in enumerate(row) if v}):
            picked.append(i)
    return picked


@dataclass(frozen=True)
class TreeCotree:
    tree_edges: np.ndarray          # (n_v - 1,) edge ids of the spanning tree
    cotree_edges: np.ndarray        # (n_Q,) remaining edge ids, ordered
    boundary_parent_vertex: dict    # vertex -> parent within its boundary tree
    boundary_parent_edge: dict      # vertex -> edge id within its boundary tree
    closing_edges: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_Q(self) -> int:
        return len(self.cotree_edges)


@dataclass(frozen=True)
class SurfaceCycleBasis:
    cycles: list                    # list of dict edge id -> int coefficient
    closing_edges: np.ndarray       # (2g,) the cotree edge closing each cycle
    components: np.ndarray          # (2g,) boundary component of each cycle
    genus_per_component: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class HomologyBasis:
    cycles: list                    # g domain generators, dict edge -> coeff
    A: np.ndarray                   # (g, 2g) integer coefficients on gamma_q
    tree_parts: list                # per generator, dict tree edge -> coeff
    kernel_vectors: np.ndarray      # (g, 2g) basis of ker(A)
    g: int


def chain_boundary(m: Mesh, chain: dict) -> dict:
    """Signed vertex boundary of an integer edge chain (exact integers)."""
    out = {}
    for e, c in chain.items():
        a, b = (int(v) for v in m.edges[int(e)])
        out[a] = out.get(a, 0) - c
        out[b] = out.get(b, 0) + c
    return {v: c for v, c in out.items() if c}


def _bfs(m: Mesh, edge_ids, root: int):
    """Queue-order BFS from root over the given edges: the visit order and
    each vertex's parent (-1 if none).  Neighbours are scanned in ascending
    order, the edge order around a vertex as edges are sorted."""
    src, dst = m.edges[edge_ids].T
    src, dst = np.r_[src, dst], np.r_[dst, src]
    by_src = np.lexsort((dst, src))
    dst = dst[by_src]
    ptr = np.searchsorted(src[by_src], np.arange(m.n_v + 1))
    parent = np.full(m.n_v, -1, dtype=np.int64)
    seen = np.zeros(m.n_v, dtype=bool)
    seen[root] = True
    order = [np.array([root])]
    while len(order[-1]):
        front = order[-1]
        nbr = dst[_ranges(ptr, front)]
        via = np.repeat(front, ptr[front + 1] - ptr[front])
        fresh = np.flatnonzero(~seen[nbr])
        # a vertex joins the queue where the scan first meets it
        first = fresh[np.sort(np.unique(nbr[fresh], return_index=True)[1])]
        parent[nbr[first]] = via[first]
        seen[nbr[first]] = True
        order.append(nbr[first])
    return np.concatenate(order), parent


def build_boundary_first_tree(m: Mesh, b: BoundaryStructure) -> TreeCotree:
    """Spanning tree containing a BFS spanning tree of each boundary component."""
    in_tree = np.zeros(m.n_e, dtype=bool)
    bparent_v = {}
    bparent_e = {}
    for cv, ce in zip(b.component_vertices, b.component_edges):
        order, parent = _bfs(m, ce, int(cv.min()))
        if len(order) != len(cv):
            raise TopologyError("boundary component surface graph is disconnected")
        tree = m.edge_ids(order[1:], parent[order[1:]])
        in_tree[tree] = True
        bparent_v.update(zip(order.tolist(), parent[order].tolist()))
        bparent_e.update(zip(order.tolist(), [-1] + tree.tolist()))

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
                      boundary_parent_vertex=bparent_v,
                      boundary_parent_edge=bparent_e)


def _tree_path_chain(m: Mesh, parent_v, parent_e, start: int, stop: int) -> dict:
    """Oriented edge chain for the tree path start -> stop (common-root trees)."""

    def to_root(v):
        path = []
        while parent_v[v] != -1:
            path.append((v, parent_v[v], parent_e[v]))
            v = parent_v[v]
        return path, v

    pa, ra = to_root(start)
    pb, rb = to_root(stop)
    if ra != rb:
        raise TopologyError("vertices lie in different trees")
    chain = {}

    def add(u, v, e):
        # edge stored as [a, b], a < b, oriented a -> b
        a, bb = (int(x) for x in m.edges[e])
        sgn = 1 if (u, v) == (a, bb) else -1
        chain[e] = chain.get(e, 0) + sgn

    # walk start -> root -> stop; shared segments cancel in the chain sum
    for (child, par, e) in pa:
        add(child, par, e)
    for (child, par, e) in reversed(pb):
        add(par, child, e)
    return {e: c for e, c in chain.items() if c}


def fundamental_cycle(m: Mesh, parent_v, parent_e, edge_id: int) -> dict:
    """Cycle formed by a non-tree edge plus the tree path between its ends."""
    a, b = (int(x) for x in m.edges[int(edge_id)])
    chain = {int(edge_id): 1}           # oriented a -> b
    back = _tree_path_chain(m, parent_v, parent_e, b, a)
    for e, c in back.items():
        chain[e] = chain.get(e, 0) + c
    chain = {e: c for e, c in chain.items() if c}
    if chain_boundary(m, chain):
        raise TopologyError("fundamental cycle is not closed")
    return chain


def surface_cycle_basis(m: Mesh, b: BoundaryStructure,
                        tc: TreeCotree) -> SurfaceCycleBasis:
    """Select 2g boundary cycles independent in H1 of the boundary surface."""
    # boundary tree as arrays for path walking
    bpv = np.full(m.n_v, -1, dtype=np.int64)
    bpe = np.full(m.n_v, -1, dtype=np.int64)
    for v, pv in tc.boundary_parent_vertex.items():
        bpv[v] = pv
        bpe[v] = tc.boundary_parent_edge[v]

    C = m.incidence.C

    genus2 = []
    for comp, cv, ce in zip(b.components, b.component_vertices, b.component_edges):
        chi = len(cv) - len(ce) + len(comp)
        genus2.append(2 - chi)

    cycles = []
    closing = []
    comps = []
    for r, comp in enumerate(b.components):
        need = genus2[r]
        if need == 0:
            continue
        # cocycles of the surface, gauged on its boundary tree
        known = np.ones(m.n_e, dtype=bool)
        known[b.component_edges[r]] = False
        tree = bpe[b.component_vertices[r]]
        known[tree[tree >= 0]] = True
        W, _ = _cocycles(C[comp], known)
        candidates = tc.cotree_edges[np.isin(tc.cotree_edges,
                                             b.component_edges[r])]
        picked = candidates[_independent(W[candidates], need)]
        if len(picked) != need:
            raise TopologyError(
                f"boundary component {r}: found {len(picked)} of {need} "
                "independent cycles; mesh or topology bug")
        for e in picked:
            cycles.append(fundamental_cycle(m, bpv, bpe, int(e)))
            closing.append(int(e))
            comps.append(r)

    return SurfaceCycleBasis(cycles=cycles,
                             closing_edges=np.array(closing, dtype=np.int64),
                             components=np.array(comps, dtype=np.int64),
                             genus_per_component=np.array(
                                 [x // 2 for x in genus2], dtype=np.int64))


def domain_homology_basis(m: Mesh, tc: TreeCotree,
                          scb: SurfaceCycleBasis) -> HomologyBasis:
    """Domain generators sigma_n, the coefficient matrix A and ker(A)."""
    b = m.boundary
    p = b.p
    g = 1 + p - m.euler_characteristic
    if g < 0 or 2 * g != len(scb.cycles):
        raise TopologyError(
            f"inconsistent ranks: domain g = {g} but surface rank = "
            f"{len(scb.cycles)}")
    if g == 0:
        return HomologyBasis(cycles=[], A=np.zeros((0, 0), dtype=np.int64),
                             tree_parts=[],
                             kernel_vectors=np.zeros((0, 0)), g=0)

    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    W, _ = _cocycles(m.incidence.C, known)
    selected = _independent(W[scb.closing_edges], g)
    if len(selected) != g:
        raise TopologyError(
            f"only {len(selected)} of {g} surface cycles survive in the "
            "domain; mesh or topology bug")

    two_g = 2 * g
    A = np.zeros((g, two_g), dtype=np.int64)
    cycles = []
    tree_parts = []
    tree_set = set(int(e) for e in tc.tree_edges)
    for n, q in enumerate(selected):
        A[n, q] = 1
        cyc = scb.cycles[q]
        cycles.append(dict(cyc))
        tree_parts.append({e: c for e, c in cyc.items() if e in tree_set})

    unselected = [q for q in range(two_g) if q not in selected]
    kernel = np.zeros((g, two_g))
    for i, q in enumerate(unselected):
        kernel[i, q] = 1.0
    if np.abs(A @ kernel.T).max() != 0:
        raise TopologyError("kernel vectors do not annihilate A")
    return HomologyBasis(cycles=cycles, A=A, tree_parts=tree_parts,
                         kernel_vectors=kernel, g=g)


def betti(m: Mesh):
    """Betti numbers (b0, b1, b2) from ranks of the incidence operators.

    rank G = n_v - 1, as build_mesh rejects disconnected complexes; rank C
    comes from the face sweep; rank D is n_t less the dual components (tets
    joined through shared faces) that touch no boundary face.
    """
    inc = m.incidence
    order, pred = _bfs(m, np.arange(m.n_e), 0)
    known = np.zeros(m.n_e, dtype=bool)
    known[m.edge_ids(order[1:], pred[order[1:]])] = True
    _, rC = _cocycles(inc.C, known)
    D = inc.D.tocsc()
    n_tets = np.diff(D.indptr)
    pair = D.indptr[:-1][n_tets == 2]           # interior faces join two tets
    label = connected_components(m.n_t, D.indices[pair], D.indices[pair + 1])
    on_boundary = label[D.indices[D.indptr[:-1][n_tets == 1]]]
    rD = m.n_t - len(np.unique(label)) + len(np.unique(on_boundary))
    rG = m.n_v - 1
    return (m.n_v - rG, m.n_e - rG - rC, m.n_f - rC - rD)
