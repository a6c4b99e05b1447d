import numpy as np
import pytest
import scipy.sparse as sp

from curldiv import (AssembledSystem, DivergenceData,
                     FEFunction, assemble_tangential,
                     build_L_star, build_N_star, component_fluxes,
                     consistent_load, harmonic_cocycles, interpolate,
                     recover_solution, rt_potential, solve_spd)
from curldiv.cli import compute_topology
from curldiv.mms import get_case
from curldiv.solver import (_edge_load, _tangential_boundary_load,
                            rt_mass_matrix)
from curldiv.topology import _cocycles, _independent


def _gauged(topo):
    return build_N_star(topo.tree, topo.homology)


def _curls(m, dofs):
    return m.incidence.C.tocsc()[:, dofs]


def _unselected_closing(topo):
    scb = topo.surface_cycles
    return scb.closing_edges[~np.isin(scb.closing_edges,
                                      topo.homology.closing_edges)]


def test_cube_gives_12_plain_fields(cube1, topo_cube1):
    assert len(_gauged(topo_cube1)) == 12
    assert len(topo_cube1.homology.closing_edges) == 0


def test_single_tet_gives_3_fields(tet1):
    topo = compute_topology(tet1)
    assert len(_gauged(topo)) == 3
    assert len(topo.homology.closing_edges) == 0


def test_torus_one_combined_field(torus, topo_torus):
    # ker A is spanned by the unit field on the closing edge of the surface
    # cycle A does not select: the basis keeps exactly that closing edge
    dofs = _gauged(topo_torus)
    assert len(dofs) == topo_torus.tree.n_Q - 1
    assert np.isin(dofs, topo_torus.surface_cycles.closing_edges).sum() == 1


def test_fields_supported_on_cotree_only(torus, topo_torus):
    dofs = _gauged(topo_torus)
    assert not np.isin(dofs, topo_torus.tree.tree_edges).any()
    assert np.isin(dofs, topo_torus.tree.cotree_edges).all()


def test_combined_field_supported_on_closing_edges(torus, topo_torus):
    g = topo_torus.homology.g
    dofs = _gauged(topo_torus)
    assert np.array_equal(dofs[:g], _unselected_closing(topo_torus))


@pytest.mark.parametrize("fixture,mesh", [("topo_cube1", "cube1"),
                                          ("topo_torus", "torus"),
                                          ("topo_hollow", "hollow")])
def test_curls_in_W0h(fixture, mesh, request):
    topo = request.getfixturevalue(fixture)
    m = request.getfixturevalue(mesh)
    S = _curls(m, _gauged(topo))
    # exact zero divergence (D.C = 0 in integers)
    div = (m.incidence.D @ S).toarray()
    assert np.all(div == 0)
    # zero flux through every boundary component
    dense = S.toarray()
    scale = 1.0 + np.abs(dense).max()
    for col in range(dense.shape[1]):
        v = FEFunction("face", m, dense[:, col])
        fluxes = component_fluxes(m, topo.boundary, v)
        assert np.abs(fluxes).max() <= 1e-12 * scale


@pytest.mark.parametrize("fixture,mesh", [("topo_cube1", "cube1"),
                                          ("topo_torus", "torus"),
                                          ("topo_hollow", "hollow")])
def test_dimension_identity_and_rank(fixture, mesh, request):
    topo = request.getfixturevalue(fixture)
    m = request.getfixturevalue(mesh)
    dofs = _gauged(topo)
    g = topo.homology.g
    p = topo.boundary.p
    assert len(dofs) == topo.tree.n_Q - g
    assert len(dofs) == m.n_f - m.n_t - p
    S = _curls(m, dofs).toarray()
    assert np.linalg.matrix_rank(S) == len(dofs)


def test_basis_fields_full_column_rank(torus, topo_torus):
    # unit edge fields are independent iff their edges are distinct
    dofs = _gauged(topo_torus)
    assert len(np.unique(dofs)) == len(dofs)


def _period_matrix(m, cycles):
    P = np.zeros((len(cycles), m.n_e))
    for n, cyc in enumerate(cycles):
        P[n, list(cyc)] = list(cyc.values())
    return P


@pytest.mark.parametrize("mesh", ["torus", "genus2", "handle_cavity",
                                  "torus_cavity"])
def test_basis_periods_vanish(mesh, request):
    # every basis edge has period 0 on every sigma_n, and sigma_n's own
    # closing edge has period 1 on it and 0 on the others
    topo = request.getfixturevalue(f"topo_{mesh}")
    hb = topo.homology
    assert hb.g > 0
    P = _period_matrix(request.getfixturevalue(mesh), hb.cycles)
    assert np.all(P[:, _gauged(topo)] == 0)
    assert np.array_equal(P[:, hb.closing_edges], np.eye(hb.g))


def test_plain_fields_have_zero_periods(torus, topo_torus):
    # plain cotree fields avoid the closing edges, so periods vanish on them
    dofs = _gauged(topo_torus)
    plain = dofs[topo_torus.homology.g:]
    assert not np.isin(plain, topo_torus.surface_cycles.closing_edges).any()


def test_L_star_counts(tet1, cube1):
    assert len(build_L_star(tet1)) == 3
    assert len(build_L_star(cube1)) == 7
    assert cube1.n_v - 1 not in build_L_star(cube1)


def test_L_star_gradients_full_rank(cube1):
    G = cube1.incidence.G.toarray()[:, build_L_star(cube1)]
    assert np.linalg.matrix_rank(G) == cube1.n_v - 1


# ---------------------------------------------------------------------------
# reference: the domain generators as the integer matrix A over the 2g
# surface cycles with a basis of ker A, and the gauged basis as sparse
# "combined fields" built from them, which the index set replaced


def _reference_homology(m, topo):
    """ker A (g, 2g), from A (g, 2g) and the per-generator tree parts, and
    the closing edge of each generator."""
    tc, scb = topo.tree, topo.surface_cycles
    g = len(scb.cycles) // 2
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    W, _ = _cocycles(m.face_edges, known)
    selected = _independent(W[scb.closing_edges], g)
    assert len(selected) == g
    A = np.zeros((g, 2 * g), dtype=np.int64)
    tree_set = set(int(e) for e in tc.tree_edges)
    tree_parts = []
    for n, q in enumerate(selected):
        A[n, q] = 1
        tree_parts.append({e: c for e, c in scb.cycles[q].items()
                           if e in tree_set})
    kernel = np.zeros((g, 2 * g))
    for i, q in enumerate(q for q in range(2 * g) if q not in selected):
        kernel[i, q] = 1.0
    assert np.abs(A @ kernel.T).max(initial=0) == 0
    # the closing edge of each generator: its one edge off the tree
    closing = [next(e for e in scb.cycles[q] if e not in tree_parts[n])
               for n, q in enumerate(selected)]
    return kernel, closing


def _reference_fields(tc, kernel, n_e):
    """The n_Q - g gauged fields as sparse columns, combined fields first."""
    g = len(kernel)
    rows, cols, data = [], [], []
    for lam in range(g):
        for q in range(2 * g):
            if kernel[lam, q] != 0.0:
                rows.append(int(tc.cotree_edges[q]))
                cols.append(lam)
                data.append(float(kernel[lam, q]))
    for col, pos in enumerate(range(2 * g, tc.n_Q), start=g):
        rows.append(int(tc.cotree_edges[pos]))
        cols.append(col)
        data.append(1.0)
    return sp.csc_matrix((data, (rows, cols)), shape=(n_e, tc.n_Q - g))


GAUGE_FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
                  "torus_cavity"]


@pytest.mark.parametrize("mesh", GAUGE_FIXTURES)
def test_tangential_system_matches_sparse_reference(mesh, request):
    m = request.getfixturevalue(mesh)
    topo = request.getfixturevalue(f"topo_{mesh}")
    b = topo.boundary
    kernel, closing = _reference_homology(m, topo)
    assert topo.homology.closing_edges.tolist() == closing

    case = get_case("mms1")
    prob = case.tangential(1.0)
    lift = rt_potential(m, b, DivergenceData(interpolate("cell", case.g, m),
                                             np.full(b.p, 0.25)))
    dofs = _gauged(topo)
    H = harmonic_cocycles(m, topo.tree, topo.homology)
    system = assemble_tangential(prob, m, dofs, lift, H)
    sol = recover_solution("tangential", solve_spd(system), dofs, lift)

    fields = _reference_fields(topo.tree, kernel, m.n_e)
    S = (m.incidence.C @ fields).tocsc()
    M = rt_mass_matrix(m, prob.eta)
    F, _ = consistent_load(
        m, _edge_load(m, prob.J) + _tangential_boundary_load(m, prob.a), H)
    rhs = np.asarray(fields.T @ F).ravel()
    rhs -= np.asarray(S.T @ (M @ lift.coeffs)).ravel()
    ref = AssembledSystem(K=(S.T @ M @ S).tocsr(), rhs=rhs)
    assert np.array_equal(system.K.toarray(), ref.K.toarray())
    assert np.array_equal(system.rhs, ref.rhs)
    u_ref = np.asarray(S @ solve_spd(ref)).ravel() + lift.coeffs
    assert np.array_equal(sol.u_h.coeffs, u_ref)
