import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from curldiv import betti, build_mesh, topology
from curldiv.cli import compute_topology, topology_report
from curldiv.mesh import FACE_EDGE_SIGN, connected_components
from curldiv.topology import (_PRIME, TopologyError, _bfs, _cocycles,
                              _dual_arcs, _echelon, _face_sweep, _independent,
                              _kernel, build_boundary_first_tree,
                              chain_boundary, fundamental_cycle,
                              surface_cycle_basis)


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


def test_torus_closing_edges(topo_torus):
    assert len(topo_torus.surface_cycles.closing_edges) == 2
    assert len(topo_torus.surface_cycles.cycles) == 2
    assert len(topo_torus.homology.closing_edges) == 1


def test_hollow_no_cycles(topo_hollow):
    assert len(topo_hollow.surface_cycles.cycles) == 0
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


def test_closing_edges_on_boundary(topo_torus):
    be = np.concatenate(topo_torus.boundary.component_edges)
    assert np.isin(topo_torus.surface_cycles.closing_edges, be).all()


@pytest.mark.parametrize("fixture,mesh", [("topo_torus", "torus")])
def test_cycles_are_exact_1cycles(fixture, mesh, request):
    topo = request.getfixturevalue(fixture)
    m = request.getfixturevalue(mesh)
    for cyc in topo.surface_cycles.cycles:
        assert chain_boundary(m, cyc) == {}
    for cyc in topo.homology.cycles:
        assert chain_boundary(m, cyc) == {}


def test_torus_homology_closing_edge(topo_torus):
    # sigma_1 is one of the two surface cycles; its closing edge is its one
    # edge off the tree and has coefficient +1
    hb = topo_torus.homology
    assert hb.g == 1
    (e,) = hb.closing_edges
    assert e in topo_torus.surface_cycles.closing_edges
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
    cycles, closing = _reference_surface_cycles(m, m.boundary, tree)
    assert topo.surface_cycles.cycles == cycles
    assert topo.surface_cycles.closing_edges.tolist() == closing
    assert topo.tree.cotree_edges[:len(closing)].tolist() == closing
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
    _, t0, t1 = _dual_arcs(m)
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
    """One of six meshes with its vertices and tets in a random order."""
    from curldiv.meshes import _grid_mesh, hollow_ball_mesh, solid_torus_mesh
    base = (lambda: _grid_mesh(2, 0.5, lambda i, j, k: True),
            solid_torus_mesh, hollow_ball_mesh,
            lambda: _grid_mesh(5, 0.2, lambda i, j, k: not (
                j == 2 and i in (1, 3))),
            lambda: _grid_mesh(5, 0.2, lambda i, j, k: not (
                (i, j) == (3, 3) or (i, j, k) == (1, 1, 2))),
            lambda: solid_torus_mesh(5))[which]()
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


# ---------------------------------------------------------------------------
# reference: C as the sparse matrix of the face cycles, built from edge
# lookups, and the dual arcs from the columns of D, which the tables
# ``face_edges`` and ``tet_faces`` replaced as the input of the sweeps


def _reference_C(m):
    import scipy.sparse as sp
    f = m.faces
    cols = m.edge_ids(f[:, [0, 1, 0]], f[:, [1, 2, 2]]).ravel()
    data = np.tile([1, 1, -1], m.n_f)
    return sp.csr_matrix((data, (np.repeat(np.arange(m.n_f), 3), cols)),
                         shape=(m.n_f, m.n_e))


def _reference_dual_arcs(D):
    """The interior faces and the two tets each one joins, from D's columns."""
    D = D.tocsc()
    interior = np.flatnonzero(np.diff(D.indptr) == 2)
    at = D.indptr[interior]
    return interior, D.indices[at], D.indices[at + 1]


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
    for got, want in zip(_dual_arcs(m), _reference_dual_arcs(D)):
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("mesh,sweeps", [("cube1", 1), ("torus", 2)])
def test_topology_report_sweeps_C(mesh, sweeps, request, monkeypatch):
    # the surface cycles sweep each boundary of genus > 0, the homology
    # sweeps C once, and betti takes rank C from it
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
    # the ordered tree puts the closing edges first
    closing = topo.surface_cycles.closing_edges
    assert np.array_equal(topo.tree.cotree_edges[:len(closing)], closing)
    assert sorted(topo.tree.cotree_edges.tolist()) == sorted(cotree.tolist())
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.cotree_edges = cotree[::-1]


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
