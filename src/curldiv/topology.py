"""Tree-cotree structure and homology generators of the complex.

The boundary-first spanning tree restricts to a spanning tree of each
boundary component.  Surface cycles are fundamental cycles of boundary
cotree edges whose classes are independent in H1 of the boundary; domain
generators are the subset of those that survive in H1 of the domain.
Independence is tested by incremental row elimination modulo a large prime,
which matches the rational rank for these small-entry incidence systems.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, BoundaryStructure


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


def _sparse_rows(mat) -> list:
    mat = mat.tocsr()
    out = []
    for i in range(mat.shape[0]):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        out.append(dict(zip(map(int, mat.indices[sl]), map(int, mat.data[sl]))))
    return out


def _modular_rank(mat) -> int:
    basis = _RowBasis()
    for row in _sparse_rows(mat):
        basis.add(row)
    return basis.rank


@dataclass
class TreeCotree:
    tree_edges: np.ndarray          # (n_v - 1,) edge ids of the spanning tree
    cotree_edges: np.ndarray        # (n_Q,) remaining edge ids, ordered
    parent_vertex: np.ndarray       # (n_v,) BFS parent vertex, -1 at roots
    parent_edge: np.ndarray         # (n_v,) edge id to parent, -1 at roots
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


def build_boundary_first_tree(m: Mesh, b: BoundaryStructure) -> TreeCotree:
    """Spanning tree containing a BFS spanning tree of each boundary component."""
    adj = [[] for _ in range(m.n_v)]
    for e, (u, v) in enumerate(m.edges):
        adj[int(u)].append((int(v), e))
        adj[int(v)].append((int(u), e))

    in_tree = np.zeros(m.n_e, dtype=bool)
    bparent_v = {}
    bparent_e = {}

    # BFS spanning tree of each boundary component's surface graph
    for cv, ce in zip(b.component_vertices, b.component_edges):
        comp_edges = set(int(e) for e in ce)
        comp_verts = set(int(v) for v in cv)
        root = min(comp_verts)
        bparent_v[root] = -1
        bparent_e[root] = -1
        seen = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for (v, e) in adj[u]:
                if e in comp_edges and v in comp_verts and v not in seen:
                    seen.add(v)
                    in_tree[e] = True
                    bparent_v[v] = u
                    bparent_e[v] = e
                    queue.append(v)
        if seen != comp_verts:
            raise TopologyError("boundary component surface graph is disconnected")

    # extend to a global spanning tree: scan edges in index order, keeping
    # those that merge distinct forest components (deterministic)
    parent = np.arange(m.n_v)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in np.where(in_tree)[0]:
        u, v = (int(x) for x in m.edges[e])
        parent[find(u)] = find(v)
    for e in range(m.n_e):
        if in_tree[e]:
            continue
        u, v = (int(x) for x in m.edges[e])
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            in_tree[e] = True

    tree_edges = np.where(in_tree)[0]
    if len(tree_edges) != m.n_v - 1:
        raise TopologyError("vertex graph is disconnected")

    # orient the global tree from vertex 0 for path lookups
    tadj = [[] for _ in range(m.n_v)]
    for e in tree_edges:
        u, v = (int(x) for x in m.edges[e])
        tadj[u].append((v, int(e)))
        tadj[v].append((u, int(e)))
    parent_vertex = np.full(m.n_v, -1, dtype=np.int64)
    parent_edge = np.full(m.n_v, -1, dtype=np.int64)
    seen = np.zeros(m.n_v, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for (v, e) in tadj[u]:
            if not seen[v]:
                seen[v] = True
                parent_vertex[v] = u
                parent_edge[v] = e
                queue.append(v)

    # cotree: boundary edges first (closing-edge candidates), then the rest
    cotree = [e for e in range(m.n_e) if not in_tree[e]]
    bedges = b.boundary_edges
    cotree.sort(key=lambda e: (0 if e in bedges else 1, e))
    return TreeCotree(tree_edges=tree_edges,
                      cotree_edges=np.array(cotree, dtype=np.int64),
                      parent_vertex=parent_vertex, parent_edge=parent_edge,
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
    cotree_set = set(int(e) for e in tc.cotree_edges)
    for r, comp in enumerate(b.components):
        need = genus2[r]
        if need == 0:
            continue
        basis = _RowBasis()
        for f in comp:
            sl = slice(C.indptr[f], C.indptr[f + 1])
            basis.add(dict(zip(map(int, C.indices[sl]), map(int, C.data[sl]))))
        comp_edge_set = set(int(x) for x in b.component_edges[r])
        found = 0
        for e in tc.cotree_edges:
            e = int(e)
            if e not in comp_edge_set:
                continue
            cyc = fundamental_cycle(m, bpv, bpe, e)
            if basis.add(dict(cyc)):
                cycles.append(cyc)
                closing.append(e)
                comps.append(r)
                found += 1
                if found == need:
                    break
        if found != need:
            raise TopologyError(
                f"boundary component {r}: found {found} of {need} independent "
                "cycles; mesh or topology bug")

    # reorder the cotree so closing edges occupy the first positions
    closing_arr = np.array(closing, dtype=np.int64)
    rest = [e for e in tc.cotree_edges if int(e) not in set(map(int, closing))]
    tc.cotree_edges = np.concatenate(
        [closing_arr, np.array(rest, dtype=np.int64)]).astype(np.int64)
    tc.closing_edges = closing_arr
    assert cotree_set == set(int(e) for e in tc.cotree_edges)
    return SurfaceCycleBasis(cycles=cycles, closing_edges=closing_arr,
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

    C = m.incidence.C
    basis = _RowBasis()
    for row in _sparse_rows(C):
        basis.add(row)
    selected = []
    for q, cyc in enumerate(scb.cycles):
        if basis.add(dict(cyc)):
            selected.append(q)
        if len(selected) == g:
            break
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
    """Betti numbers (b0, b1, b2) from ranks of the incidence operators."""
    inc = m.incidence
    rG = _modular_rank(inc.G)
    rC = _modular_rank(inc.C)
    rD = _modular_rank(inc.D)
    b0 = m.n_v - rG
    b1 = m.n_e - rG - rC
    b2 = m.n_f - rC - rD
    return (b0, b1, b2)
