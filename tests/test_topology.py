import dataclasses

import numpy as np
import pytest

from curldiv import betti
from curldiv.cli import compute_topology
from curldiv.topology import (_PRIME, _RowBasis, _cocycles, _face_sweep,
                              _modular_rank, build_boundary_first_tree,
                              chain_boundary, fundamental_cycle,
                              surface_cycle_basis)


def test_single_tet_tree(tet1):
    topo = compute_topology(tet1)
    tc = topo.tree
    assert len(tc.tree_edges) == 3
    assert tc.n_Q == 3
    assert len(tc.closing_edges) == 0


def test_cube_tree_counts(topo_cube1):
    tc = topo_cube1.tree
    assert len(tc.tree_edges) == 7
    assert tc.n_Q == 12
    assert len(tc.closing_edges) == 0


def test_torus_closing_edges(topo_torus):
    assert len(topo_torus.tree.closing_edges) == 2
    assert len(topo_torus.surface_cycles.cycles) == 2


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
    be = topo_torus.boundary.boundary_edges
    for e in topo_torus.tree.closing_edges:
        assert int(e) in be


@pytest.mark.parametrize("fixture,mesh", [("topo_torus", "torus")])
def test_cycles_are_exact_1cycles(fixture, mesh, request):
    topo = request.getfixturevalue(fixture)
    m = request.getfixturevalue(mesh)
    for cyc in topo.surface_cycles.cycles:
        assert chain_boundary(m, cyc) == {}
    for cyc in topo.homology.cycles:
        assert chain_boundary(m, cyc) == {}


def test_torus_homology_matrices(topo_torus):
    hb = topo_torus.homology
    assert hb.g == 1
    assert hb.A.shape == (1, 2)
    assert np.linalg.matrix_rank(hb.A) == 1
    assert hb.kernel_vectors.shape == (1, 2)
    # A . c = 0 exactly
    assert np.all(hb.A @ hb.kernel_vectors.T == 0)


def test_cube_homology_trivial(topo_cube1):
    hb = topo_cube1.homology
    assert hb.g == 0
    assert hb.A.shape == (0, 0)
    assert len(hb.kernel_vectors) == 0


def test_betti_numbers(cube1, torus, hollow):
    assert betti(cube1) == (1, 0, 0)
    assert betti(torus) == (1, 1, 0)
    assert betti(hollow) == (1, 0, 1)


def test_betti_matches_euler_and_genus(torus, hollow, topo_torus, topo_hollow):
    for m, topo in ((torus, topo_torus), (hollow, topo_hollow)):
        _, b1, b2 = betti(m)
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
    bpv = np.full(m.n_v, -1, dtype=np.int64)
    bpe = np.full(m.n_v, -1, dtype=np.int64)
    for v, pv in tc.boundary_parent_vertex.items():
        bpv[v] = pv
        bpe[v] = tc.boundary_parent_edge[v]
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
            cyc = fundamental_cycle(m, bpv, bpe, int(e))
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
    assert topo.tree.closing_edges.tolist() == closing
    hb = topo.homology
    selected = _reference_domain_selection(m, cycles, hb.g)
    assert hb.cycles == [cycles[q] for q in selected]
    A = np.zeros((hb.g, 2 * hb.g), dtype=np.int64)
    A[np.arange(hb.g), selected] = 1
    kernel = np.zeros((hb.g, 2 * hb.g))
    kernel[np.arange(hb.g),
           [q for q in range(2 * hb.g) if q not in selected]] = 1.0
    assert np.array_equal(hb.A, A)
    assert np.array_equal(hb.kernel_vectors, kernel)


@pytest.mark.parametrize("mesh,expected", [
    ("tet1", (1, 0, 0)), ("cube2", (1, 0, 0)), ("torus", (1, 1, 0)),
    ("hollow", (1, 0, 1)), ("genus2", (1, 2, 0)),
    ("handle_cavity", (1, 1, 1)), ("torus_cavity", (1, 1, 1))])
def test_betti_matches_modular_ranks(mesh, expected, request):
    m = request.getfixturevalue(mesh)
    inc = m.incidence
    rG, rC, rD = (_modular_rank(x) for x in (inc.G, inc.C, inc.D))
    assert betti(m) == (m.n_v - rG, m.n_e - rG - rC, m.n_f - rC - rD)
    assert betti(m) == expected


def test_stalled_sweep_rank_is_exact(torus, topo_torus):
    # without the closing edges the sweep on a torus must stall at least
    # once; the rank of C it reports still has to be exact
    C = torus.incidence.C
    known = np.zeros(torus.n_e, dtype=bool)
    known[topo_torus.tree.tree_edges] = True
    X, R = _face_sweep(C, known, p=_PRIME)
    assert X.shape[1] - 1 >= 1
    W, rank = _cocycles(C, known)
    assert rank == _modular_rank(C)
    assert W.shape[1] == 1
    assert not np.any((C @ W) % _PRIME)


def test_tree_is_frozen_and_left_unchanged(torus):
    tree = build_boundary_first_tree(torus, torus.boundary)
    cotree = tree.cotree_edges.copy()
    topo = compute_topology(torus)
    surface_cycle_basis(torus, torus.boundary, tree)
    assert np.array_equal(tree.cotree_edges, cotree)
    assert len(tree.closing_edges) == 0
    # the ordered tree puts the closing edges first
    n_closing = len(topo.tree.closing_edges)
    assert np.array_equal(topo.tree.cotree_edges[:n_closing],
                          topo.tree.closing_edges)
    assert sorted(topo.tree.cotree_edges.tolist()) == sorted(cotree.tolist())
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.cotree_edges = cotree[::-1]
