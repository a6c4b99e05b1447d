import dataclasses
from collections import deque

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from curldiv import betti, build_mesh, topology
from curldiv.cli import compute_topology, topology_report
from curldiv.mesh import FACE_EDGE_SIGN, connected_components
from curldiv.topology import (_PRIME, TopologyError, _bfs, _cocycles,
                              _echelon, _face_sweep, _independent,
                              _kernel, build_boundary_first_tree,
                              chain_boundary, fundamental_cycle,
                              surface_cycle_basis)
from edge_lookup import edge_ids
from gauged import float_cocycles
import sweep_reference


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
    """Rank over GF(p) by elimination of whole rows."""
    mat = mat.tocsr()
    basis = _RowBasis()
    for i in range(mat.shape[0]):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        basis.add(dict(zip(map(int, mat.indices[sl]), map(int, mat.data[sl]))))
    return basis.rank


def test_single_tet_tree(tet1):
    topo = compute_topology(tet1)
    tc = topo.tree
    assert len(tc.tree_edges) == 3
    assert tc.n_Q == 3
    assert len(topo.homology.closing_edges) == 0


def test_cube_tree_counts(topo_cube1):
    tc = topo_cube1.tree
    assert len(tc.tree_edges) == 7
    assert tc.n_Q == 12
    assert len(topo_cube1.homology.closing_edges) == 0


def _surface_cycles(m, topo):
    return surface_cycle_basis(m, topo.boundary, topo.tree)


def test_torus_closing_edges(torus, topo_torus):
    scb = _surface_cycles(torus, topo_torus)
    assert len(scb.closing_edges) == 2
    assert len(scb.cycles) == 2
    assert len(topo_torus.homology.closing_edges) == 1


def test_hollow_no_cycles(hollow, topo_hollow):
    assert len(_surface_cycles(hollow, topo_hollow).cycles) == 0
    assert topo_hollow.homology.g == 0


@pytest.mark.parametrize("fixture", ["topo_cube1", "topo_cube2", "topo_torus",
                                     "topo_hollow"])
def test_n_Q_identity(fixture, request):
    topo = request.getfixturevalue(fixture)
    tc = topo.tree
    m_n_e = len(tc.tree_edges) + len(tc.cotree_edges)
    assert tc.n_Q == m_n_e - len(tc.tree_edges)


@pytest.mark.parametrize("fixture,mesh", [("topo_cube2", "cube2"),
                                          ("topo_torus", "torus"),
                                          ("topo_hollow", "hollow")])
def test_boundary_first_property(fixture, mesh, request):
    topo = request.getfixturevalue(fixture)
    m = request.getfixturevalue(mesh)
    tree = set(int(e) for e in topo.tree.tree_edges)
    for r, verts in enumerate(topo.boundary.component_vertices):
        comp_edges = topo.boundary.component_edges[r]
        sub = [e for e in comp_edges if e in tree]
        # spanning tree of the component surface graph: |V| - 1 edges, connected
        assert len(sub) == len(verts) - 1
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        for e in sub:
            a, b = m.edges[e]
            parent[find(int(a))] = find(int(b))
        assert len({find(v) for v in verts}) == 1


def test_closing_edges_on_boundary(torus, topo_torus):
    be = np.concatenate(topo_torus.boundary.component_edges)
    assert np.isin(_surface_cycles(torus, topo_torus).closing_edges, be).all()


@pytest.mark.parametrize("fixture,mesh", [("topo_torus", "torus")])
def test_cycles_are_exact_1cycles(fixture, mesh, request):
    topo = request.getfixturevalue(fixture)
    m = request.getfixturevalue(mesh)
    for cyc in _surface_cycles(m, topo).cycles:
        assert chain_boundary(m, cyc) == {}
    for cyc in topo.homology.cycles:
        assert chain_boundary(m, cyc) == {}


def test_torus_homology_closing_edge(torus, topo_torus):
    # sigma_1 is one of the two surface cycles; its closing edge is its one
    # edge off the tree and has coefficient +1
    hb = topo_torus.homology
    assert hb.g == 1
    (e,) = hb.closing_edges
    assert e in _surface_cycles(torus, topo_torus).closing_edges
    off_tree = set(hb.cycles[0]) - set(topo_torus.tree.tree_edges.tolist())
    assert off_tree == {e}
    assert hb.cycles[0][e] == 1


def test_cube_homology_trivial(topo_cube1):
    hb = topo_cube1.homology
    assert hb.g == 0
    assert hb.cycles == []
    assert len(hb.closing_edges) == 0


def test_betti_numbers(cube1, torus, hollow, topo_cube1, topo_torus,
                       topo_hollow):
    assert betti(cube1, topo_cube1.homology.rank_C) == (1, 0, 0)
    assert betti(torus, topo_torus.homology.rank_C) == (1, 1, 0)
    assert betti(hollow, topo_hollow.homology.rank_C) == (1, 0, 1)


def test_betti_matches_euler_and_genus(torus, hollow, topo_torus, topo_hollow):
    for m, topo in ((torus, topo_torus), (hollow, topo_hollow)):
        _, b1, b2 = betti(m, topo.homology.rank_C)
        assert b1 == topo.homology.g
        assert b2 == topo.boundary.p


def test_tree_deterministic(torus):
    t1 = compute_topology(torus)
    t2 = compute_topology(torus)
    assert np.array_equal(t1.tree.tree_edges, t2.tree.tree_edges)
    assert np.array_equal(t1.tree.cotree_edges, t2.tree.cotree_edges)
    assert t1.homology.cycles == t2.homology.cycles


def _deque_bfs(n, u, v, root):
    """Reference: queue-order BFS scanning each node's arcs by ascending id."""
    adj = [[] for _ in range(n)]
    for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        adj[a].append((b, i))
        adj[b].append((a, i))
    order, parent, queue = [root], [-1] * n, deque([root])
    while queue:
        for y, i in adj[queue.popleft()]:
            if y != root and parent[y] == -1:
                parent[y] = i
                order.append(y)
                queue.append(y)
    return order, parent


@pytest.mark.parametrize("seed", range(8))
def test_bfs_matches_deque_reference(seed):
    # a multigraph on n nodes, the last three of them isolated, with each of
    # its first k arcs repeated reversed; the root is never node 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    u, v = rng.integers(0, n - 3, size=(2, int(rng.integers(1, 3 * n))))
    k = int(rng.integers(0, len(u) + 1))
    u, v = np.r_[u, v[:k]], np.r_[v, u[:k]]
    root = int(rng.integers(1, n))
    order, parent = _bfs(n, u, v, root)
    want_order, want_parent = _deque_bfs(n, u, v, root)
    assert order.tolist() == want_order
    assert parent.tolist() == want_parent


# ---------------------------------------------------------------------------
# reference: the dict-based GF(p) elimination over whole rows of C, which the
# face sweep replaced; it must select the same cycles


def _rows_of(C, faces):
    return [dict(zip(map(int, C.indices[C.indptr[f]:C.indptr[f + 1]]),
                     map(int, C.data[C.indptr[f]:C.indptr[f + 1]])))
            for f in faces]


def _reference_surface_cycles(m, b, tc):
    """Closing edges and cycles, by elimination over all boundary face rows."""
    C = m.incidence.C
    cycles, closing = [], []
    for r, comp in enumerate(b.components):
        need = 2 - (len(b.component_vertices[r]) - len(b.component_edges[r])
                    + len(comp))
        if need == 0:
            continue
        basis = _RowBasis()
        for row in _rows_of(C, comp):
            basis.add(row)
        comp_edges = set(int(e) for e in b.component_edges[r])
        found = 0
        for e in tc.cotree_edges:
            if int(e) not in comp_edges:
                continue
            cyc = fundamental_cycle(m, tc.boundary_parent, int(e))
            if basis.add(dict(cyc)):
                cycles.append(cyc)
                closing.append(int(e))
                found += 1
                if found == need:
                    break
        assert found == need
    return cycles, closing


def _reference_domain_selection(m, cycles, g):
    """Indices of the surface cycles that survive in H1 of the domain."""
    basis = _RowBasis()
    for row in _rows_of(m.incidence.C, range(m.n_f)):
        basis.add(row)
    selected = []
    for q, cyc in enumerate(cycles):
        if basis.add(dict(cyc)):
            selected.append(q)
        if len(selected) == g:
            break
    return selected


TOPOLOGY_FIXTURES = [("cube2", "topo_cube2"), ("torus", "topo_torus"),
                     ("hollow", "topo_hollow"), ("genus2", "topo_genus2"),
                     ("handle_cavity", "topo_handle_cavity"),
                     ("torus_cavity", "topo_torus_cavity")]


@pytest.mark.parametrize("mesh,fixture", TOPOLOGY_FIXTURES)
def test_sweep_selects_reference_cycles(mesh, fixture, request):
    m = request.getfixturevalue(mesh)
    topo = request.getfixturevalue(fixture)
    tree = build_boundary_first_tree(m, m.boundary)
    # the topology keeps the tree as it was built, the cotree ascending
    for f in dataclasses.fields(tree):
        assert np.array_equal(getattr(topo.tree, f.name),
                              getattr(tree, f.name))
    assert np.array_equal(tree.cotree_edges,
                          np.setdiff1d(np.arange(m.n_e), tree.tree_edges))
    cycles, closing = _reference_surface_cycles(m, m.boundary, tree)
    scb = _surface_cycles(m, topo)
    assert scb.cycles == cycles
    assert scb.closing_edges.tolist() == closing
    hb = topo.homology
    selected = _reference_domain_selection(m, cycles, hb.g)
    assert hb.cycles == [cycles[q] for q in selected]
    assert hb.closing_edges.tolist() == [closing[q] for q in selected]


@pytest.mark.parametrize("mesh,expected", [
    ("tet1", (1, 0, 0)), ("cube2", (1, 0, 0)), ("torus", (1, 1, 0)),
    ("hollow", (1, 0, 1)), ("genus2", (1, 2, 0)),
    ("handle_cavity", (1, 1, 1)), ("torus_cavity", (1, 1, 1))])
def test_betti_matches_modular_ranks(mesh, expected, request):
    m = request.getfixturevalue(mesh)
    inc = m.incidence
    rG, rC, rD = (_modular_rank(x) for x in (inc.G, inc.C, inc.D))
    rank_C = compute_topology(m).homology.rank_C
    assert rank_C == rC
    assert betti(m, rank_C) == (m.n_v - rG, m.n_e - rG - rC, m.n_f - rC - rD)
    assert betti(m, rank_C) == expected


# ---------------------------------------------------------------------------
# reference: betti with rank C from its own sweep, gauged on a BFS spanning
# tree of the vertex graph, which the rank of the homology sweep replaced


def _reference_betti(m):
    order, arc = _bfs(m.n_v, *m.edges.T, 0)
    known = np.zeros(m.n_e, dtype=bool)
    known[arc[order[1:]]] = True
    _, rC = _cocycles(m.face_edges, known)
    t0, t1 = _reference_face_tets(m.incidence.D).T
    t0, t1 = t0[t1 >= 0], t1[t1 >= 0]
    label = connected_components(m.n_t, t0, t1)
    on_boundary = label[np.bincount(np.r_[t0, t1], minlength=m.n_t) < 4]
    rD = m.n_t - len(np.unique(label)) + len(np.unique(on_boundary))
    rG = m.n_v - 1
    return (m.n_v - rG, m.n_e - rG - rC, m.n_f - rC - rD)


@pytest.mark.parametrize("mesh,fixture", TOPOLOGY_FIXTURES)
def test_report_betti_matches_bfs_tree_reference(mesh, fixture, request):
    m = request.getfixturevalue(mesh)
    assert topology_report(m)["betti"] == list(_reference_betti(m))


def _renumbered(seed, which):
    """One of seven meshes with its vertices and tets in a random order:
    cube2, torus, hollow, genus2, handle_cavity, a torus at n = 5 and
    torus_cavity."""
    from curldiv.meshes import _grid_mesh, hollow_ball_mesh, solid_torus_mesh
    base = (lambda: _grid_mesh(2, 0.5, lambda i, j, k: True),
            solid_torus_mesh, hollow_ball_mesh,
            lambda: _grid_mesh(5, 0.2, lambda i, j, k: not (
                j == 2 and i in (1, 3))),
            lambda: _grid_mesh(5, 0.2, lambda i, j, k: not (
                (i, j) == (3, 3) or (i, j, k) == (1, 1, 2))),
            lambda: solid_torus_mesh(5),
            lambda: _grid_mesh(7, 1.0 / 7, lambda i, j, k: not (
                k == 3 and 2 <= i <= 4 and 2 <= j <= 4 and (i, j) != (3, 3))),
            )[which]()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.n_v)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    return build_mesh(vertices, perm[base.tets][rng.permutation(base.n_t)])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 5))
def test_report_betti_matches_reference_under_renumbering(seed, which):
    m = _renumbered(seed, which)
    assert topology_report(m)["betti"] == list(_reference_betti(m))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from([1, 3, 4, 6]))
def test_surface_cycles_match_reference_under_renumbering(seed, which):
    # torus, genus2, handle_cavity and torus_cavity: the dual spanning tree
    # picks what elimination over the boundary face rows picks
    m = _renumbered(seed, which)
    tree = build_boundary_first_tree(m, m.boundary)
    cycles, closing = _reference_surface_cycles(m, m.boundary, tree)
    topo = compute_topology(m)
    scb = _surface_cycles(m, topo)
    assert scb.cycles == cycles
    assert scb.closing_edges.tolist() == closing


def _check_cocycles(m, topo):
    """The exact cocycles are integer, curl-free in the integers, have the
    periods delta_nm, and equal the g float sweeps exactly (which write
    some zeros as -0.0)."""
    hb = topo.homology
    H = hb.cocycles
    assert H.dtype == np.int64 and H.shape == (m.n_e, hb.g)
    assert not H.flags.writeable
    assert not np.any(m.incidence.C @ H)
    periods = np.zeros((hb.g, hb.g), dtype=np.int64)
    for n, cyc in enumerate(hb.cycles):
        for e, c in cyc.items():
            periods[n] += c * H[e]
    assert np.array_equal(periods, np.eye(hb.g))
    assert np.array_equal(H, float_cocycles(m, topo.tree, hb))


@pytest.mark.parametrize("mesh", ["torus", "genus2", "handle_cavity",
                                  "torus_cavity"])
def test_cocycles_are_exact(mesh, request):
    _check_cocycles(request.getfixturevalue(mesh),
                    request.getfixturevalue(f"topo_{mesh}"))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cocycles_are_exact_under_renumbering(seed):
    m = _renumbered(seed, 5)                    # the torus at n = 5
    _check_cocycles(m, compute_topology(m))


# ---------------------------------------------------------------------------
# reference: C as the sparse matrix of the face cycles, built from edge
# lookups, and the tets of each face from the columns of D, which the tables
# ``face_edges``, ``tet_faces`` and ``face_tets`` replaced as the input of
# the sweeps


def _reference_C(m):
    import scipy.sparse as sp
    f = m.faces
    cols = edge_ids(m, f[:, [0, 1, 0]], f[:, [1, 2, 2]]).ravel()
    data = np.tile([1, 1, -1], m.n_f)
    return sp.csr_matrix((data, (np.repeat(np.arange(m.n_f), 3), cols)),
                         shape=(m.n_f, m.n_e))


def _reference_face_tets(D):
    """The rows of D^T: the tets of each face from D's columns, ascending,
    with -1 second on a face that D holds once."""
    D = D.tocsc()
    assert D.has_sorted_indices
    count, at = np.diff(D.indptr), D.indptr[:-1]
    ft = np.full((D.shape[1], 2), -1, dtype=np.int64)
    ft[:, 0] = D.indices[at]
    ft[count == 2, 1] = D.indices[at[count == 2] + 1]
    return ft


def _check_tables(m):
    C, D = _reference_C(m), m.incidence.D
    assert C.has_sorted_indices and D.has_sorted_indices
    for key in ("indptr", "indices", "data"):
        got = getattr(m.incidence.C, key)
        assert got.dtype == getattr(C, key).dtype
        assert np.array_equal(got, getattr(C, key))
    # one row of the table per row of the matrix, in the same order
    assert np.array_equal(C.indptr, 3 * np.arange(m.n_f + 1))
    assert np.array_equal(m.face_edges, C.indices.reshape(-1, 3))
    assert np.array_equal(np.broadcast_to(FACE_EDGE_SIGN, (m.n_f, 3)),
                          C.data.reshape(-1, 3))
    assert np.array_equal(D.indptr, 4 * np.arange(m.n_t + 1))
    assert np.array_equal(m.tet_faces, D.indices.reshape(-1, 4))
    assert np.array_equal(m.tet_face_sign, D.data.reshape(-1, 4))
    assert m.face_tets.dtype == np.int64
    assert np.array_equal(m.face_tets, _reference_face_tets(D))
    assert np.array_equal(m.face_tets[:, 1] < 0,
                          np.diff(D.tocsc().indptr) == 1)


@pytest.mark.parametrize("mesh", [m for m, _ in TOPOLOGY_FIXTURES])
def test_tables_are_the_rows_of_C_and_D(mesh, request):
    _check_tables(request.getfixturevalue(mesh))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 5))
def test_tables_are_the_rows_of_C_and_D_under_renumbering(seed, which):
    _check_tables(_renumbered(seed, which))


@pytest.mark.parametrize("mesh,fixture", [("cube1", "topo_cube1"),
                                          ("torus", "topo_torus"),
                                          ("hollow", "topo_hollow")])
def test_homology_rank_C_is_echelon_rank(mesh, fixture, request):
    m = request.getfixturevalue(mesh)
    rank_C = request.getfixturevalue(fixture).homology.rank_C
    assert rank_C == len(_echelon(m.incidence.C.toarray())[1])


@pytest.mark.parametrize("mesh,sweeps", [("cube1", 1), ("torus", 1)])
def test_topology_report_sweeps_C(mesh, sweeps, request, monkeypatch):
    # the surface cycles come from a dual spanning tree with no sweep, the
    # homology sweeps C once, and betti takes rank C from it
    m = request.getfixturevalue(mesh)
    calls = []
    sweep = topology._face_sweep

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return sweep(*args, **kwargs)
    monkeypatch.setattr(topology, "_face_sweep", counted)
    topology_report(m)
    assert len(calls) == sweeps
    assert calls[-1] == (m.n_f, 3)


def test_stalled_sweep_rank_is_exact(torus, topo_torus):
    # without the closing edges the sweep on a torus must stall at least
    # once; the rank of C it reports still has to be exact
    C = torus.incidence.C
    known = np.zeros(torus.n_e, dtype=bool)
    known[topo_torus.tree.tree_edges] = True
    X, R = _face_sweep(torus.face_edges, FACE_EDGE_SIGN, known, p=_PRIME)
    assert X.shape[1] - 1 >= 1
    W, rank = _cocycles(torus.face_edges, known)
    assert rank == _modular_rank(C)
    assert W.shape[1] == 1
    assert not np.any((C @ W) % _PRIME)


def test_tree_is_frozen_and_left_unchanged(torus):
    tree = build_boundary_first_tree(torus, torus.boundary)
    cotree = tree.cotree_edges.copy()
    topo = compute_topology(torus)
    surface_cycle_basis(torus, torus.boundary, tree)
    assert np.array_equal(tree.cotree_edges, cotree)
    # the cotree is the ascending complement of the tree, as built
    assert np.array_equal(cotree, np.flatnonzero(
        ~np.isin(np.arange(torus.n_e), tree.tree_edges)))
    assert np.array_equal(topo.tree.cotree_edges, cotree)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.cotree_edges = cotree[::-1]


# ---------------------------------------------------------------------------
# the one-pass round loops against the two-pass ones they replaced, compared
# as bytes so that a -0.0 where the reference has 0.0 fails


def _same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _same_sweep(*args, **kwargs):
    got = _face_sweep(*args, **kwargs)
    _same_bytes(got, sweep_reference.face_sweep(*args, **kwargs))
    return got


def _sparse_normal(rng, n):
    """Normal values, two thirds of them 0.0 or -0.0."""
    return rng.standard_normal(n) * (rng.random(n) < 1 / 3)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 6))
def test_round_loops_match_references_bitwise(seed, which):
    # the sweeps and BFS trees of compute_topology and both lifts, with
    # random data that is mostly 0.0 and -0.0
    m = _renumbered(seed, which)
    topo = compute_topology(m)
    rng = np.random.default_rng(seed)
    # the domain homology: C modulo p from the tree
    known = np.zeros(m.n_e, dtype=bool)
    known[topo.tree.tree_edges] = True
    _same_sweep(m.face_edges, FACE_EDGE_SIGN, known, p=_PRIME)
    # the Nedelec lift: C in float from the tree and the closing edges
    known[topo.homology.closing_edges] = True
    _same_sweep(m.face_edges, FACE_EDGE_SIGN, known,
                _sparse_normal(rng, m.n_e), _sparse_normal(rng, m.n_f))
    # the RT lift: D in float from the faces off the dual BFS tree
    interior = np.flatnonzero(m.face_tets[:, 1] >= 0)
    dual = (m.n_t, *m.face_tets[interior].T, 0)
    order, arc = _bfs(*dual)
    _same_bytes((order, arc), sweep_reference.bfs(*dual))
    known = np.ones(m.n_f, dtype=bool)
    known[interior[arc[order[1:]]]] = False
    X, _ = _same_sweep(m.tet_faces, m.tet_face_sign, known,
                       _sparse_normal(rng, m.n_f), _sparse_normal(rng, m.n_t))
    assert X.shape[1] == 1
    # with no data every float round writes a signed zero
    _same_sweep(m.tet_faces, m.tet_face_sign, known)
    # the BFS tree of each boundary component
    for cv, ce in zip(m.boundary.component_vertices,
                      m.boundary.component_edges):
        graph = (m.n_v, *m.edges[ce].T, int(cv.min()))
        _same_bytes(_bfs(*graph), sweep_reference.bfs(*graph))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 2),
       share=st.floats(0.0, 0.3))
def test_stalling_sweeps_match_reference(seed, which, share):
    # a random known set stalls the sweeps of C and D many times; on cube2,
    # torus and hollow, as on the larger fixtures D stalls up to 2,300 times
    # and each sweep takes a tenth of a second or more
    m = _renumbered(seed, which)
    rng = np.random.default_rng(seed)
    for fe, fs, n in ((m.face_edges, FACE_EDGE_SIGN, m.n_e),
                      (m.tet_faces, m.tet_face_sign, m.n_f)):
        known = rng.random(n) < share
        X, _ = _same_sweep(fe, fs, known, p=_PRIME)
        assert X.shape[1] > 2
        _same_sweep(fe, fs, known, rng.integers(0, _PRIME, n),
                    rng.integers(0, _PRIME, len(fe)), p=_PRIME)
        # in float the rounds before the first stall sum each row in
        # einsum's one-column order, where the reference, which knew k
        # already, used its many-column order: the last bits may differ,
        # and a parameter's column holds 0.0 where the reference has -0.0
        args = (fe, fs, known, rng.standard_normal(n),
                rng.standard_normal(len(fe)))
        for got, want in zip(_face_sweep(*args),
                             sweep_reference.face_sweep(*args)):
            assert got.shape == want.shape
            assert (np.abs(got - want).max(initial=0.0)
                    <= 64 * np.finfo(float).eps * np.abs(want).max(initial=1.0))


# ---------------------------------------------------------------------------
# the dense row reduction mod p against the dict elimination, and the tree
# walk of fundamental_cycle against the summed walks to the root


def _sparse(row) -> dict:
    return {c: int(v) for c, v in enumerate(row) if v}


def _greedy(rows) -> list:
    """Indices of the rows independent of the rows before them."""
    basis = _RowBasis()
    return [i for i, row in enumerate(rows) if basis.add(_sparse(row))]


def _matrices():
    """400 seeded matrices of up to 7 rows: full-range residues,
    rank-deficient integer products, and columns that repeat or vanish
    modulo p."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        r, c = (int(x) for x in rng.integers(0, 8, size=2))
        k = int(rng.integers(0, min(r, c) + 1))
        low = rng.integers(-3, 4, size=(r, k)) @ rng.integers(-3, 4, size=(k, c))
        yield rng.integers(0, _PRIME, size=(r, c))
        yield low
        yield (rng.integers(0, _PRIME, size=(r, k))
               @ rng.integers(0, 2, size=(k, c)) % _PRIME)
        yield np.column_stack([low, low[:, :1], _PRIME * low[:, -1:]])


def test_echelon_matches_row_basis():
    for A in _matrices():
        E, pivots = _echelon(A)
        rows = _RowBasis()
        for row in A:
            rows.add(_sparse(row))
        assert len(pivots) == rows.rank
        assert pivots.tolist() == _greedy(A.T)
        assert np.array_equal(E[:, pivots], np.eye(len(pivots)))
        # every row of A is the combination of E's rows given by its pivots
        assert not np.any((A.astype(object)
                           - A[:, pivots].astype(object) @ E) % _PRIME)
        K = _kernel(A)
        assert np.array_equal(K, rows.kernel(A.shape[1]))
        assert not np.any((A.astype(object) @ K.T.astype(object)) % _PRIME)


@pytest.mark.parametrize("need", [1, 3, 8])
def test_independent_matches_greedy_rows(need):
    for A in _matrices():
        assert _independent(A, need).tolist() == _greedy(A)[:need]


def _reference_cycle(m, parent, edge_id) -> dict:
    """The edge a -> b, plus the walk from b to its root, less the walk
    from a to its root taken backwards; shared edges cancel."""
    chain = {}

    def walk(v):
        steps = []
        while parent[v] != -1:
            e = int(parent[v])
            lo, hi = (int(x) for x in m.edges[e])
            steps.append((e, 1 if v == lo else -1))
            v = lo + hi - v
        return steps
    a, b = (int(x) for x in m.edges[edge_id])
    for e, s in [(edge_id, 1)] + walk(b) + [(e, -s) for e, s in walk(a)[::-1]]:
        chain[e] = chain.get(e, 0) + s
    return {e: c for e, c in chain.items() if c}


@pytest.mark.parametrize("mesh,fixture", TOPOLOGY_FIXTURES)
def test_fundamental_cycle_matches_summed_walks(mesh, fixture, request):
    m = request.getfixturevalue(mesh)
    tc = request.getfixturevalue(fixture).tree
    surface = np.concatenate(m.boundary.component_edges)
    for e in tc.cotree_edges[np.isin(tc.cotree_edges, surface)][:50].tolist():
        cycle = fundamental_cycle(m, tc.boundary_parent, e)
        # same entries in the same order, so periods sum in the same order
        assert list(cycle.items()) == list(
            _reference_cycle(m, tc.boundary_parent, e).items())


def test_fundamental_cycle_across_two_trees_raises(tet1):
    ids = {tuple(int(x) for x in e): i for i, e in enumerate(tet1.edges)}
    parent = np.array([-1, ids[0, 1], -1, ids[2, 3]])     # roots 0 and 2
    with pytest.raises(TopologyError, match="not closed"):
        fundamental_cycle(tet1, parent, ids[1, 2])
