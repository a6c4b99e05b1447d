import numpy as np
import pytest
import scipy.sparse as sp

from curldiv import (AssembledSystem, DivergenceData,
                     FEFunction, build_L_star, build_N_star,
                     component_fluxes, consistent_load, interpolate,
                     rt_potential, solve_spd)
from curldiv.cli import compute_topology
from curldiv.mms import get_case
from curldiv.solver import _edge_load, _tangential_boundary_load
from gauged import gauged_solution, gauged_system
from quadrature_mass import tensor_mass
from surface_cycles import (reference_domain_selection,
                            reference_surface_cycles)


def _gauged(topo):
    return build_N_star(topo.homology)


def _curls(m, dofs):
    return m.incidence.C.tocsc()[:, dofs]


def _surface_cycles(m, topo):
    """The 2g cycles of the reference basis of H1 of the boundary and
    their closing edges."""
    return reference_surface_cycles(m, topo.boundary, topo.tree)


def _unselected_closing(m, topo):
    closing = _surface_cycles(m, topo)[1]
    return closing[~np.isin(closing, topo.homology.closing_edges)]


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
    closing = _surface_cycles(torus, topo_torus)[1]
    assert np.isin(dofs, closing).sum() == 1


def test_fields_supported_on_cotree_only(torus, topo_torus):
    dofs = _gauged(topo_torus)
    assert not np.isin(dofs, topo_torus.tree.tree_edges).any()
    assert np.isin(dofs, topo_torus.tree.cotree_edges).all()


def test_combined_field_supported_on_closing_edges(torus, topo_torus):
    # the closing edges N*_h holds are those of the unselected cycles
    dofs = _gauged(topo_torus)
    held = dofs[np.isin(dofs, _surface_cycles(torus, topo_torus)[1])]
    assert set(held.tolist()) == set(_unselected_closing(torus,
                                                         topo_torus).tolist())
    assert len(held) == topo_torus.homology.g


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
        fluxes = component_fluxes(v)
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
    cycles, closing = _surface_cycles(torus, topo_torus)
    plain = dofs[~np.isin(dofs, _unselected_closing(torus, topo_torus))]
    assert len(plain) == topo_torus.tree.n_Q - len(closing)
    assert not np.isin(plain, closing).any()
    assert np.all(_period_matrix(torus, cycles)[:, plain] == 0)


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
    tc, (cycles, _) = topo.tree, _surface_cycles(m, topo)
    g = len(cycles) // 2
    selected = reference_domain_selection(m, cycles, g)
    assert len(selected) == g
    A = np.zeros((g, 2 * g), dtype=np.int64)
    tree_set = set(int(e) for e in tc.tree_edges)
    tree_parts = []
    for n, q in enumerate(selected):
        A[n, q] = 1
        tree_parts.append({e: c for e, c in cycles[q].items()
                           if e in tree_set})
    kernel = np.zeros((g, 2 * g))
    for i, q in enumerate(q for q in range(2 * g) if q not in selected):
        kernel[i, q] = 1.0
    assert np.abs(A @ kernel.T).max(initial=0) == 0
    # the closing edge of each generator: its one edge off the tree
    closing = [next(e for e in cycles[q] if e not in tree_parts[n])
               for n, q in enumerate(selected)]
    return kernel, closing


def _reference_fields(tc, surface_closing, kernel, n_e):
    """The n_Q - g gauged fields as sparse columns: a combined field per
    row of the kernel over the closing edges, and a plain field per other
    cotree edge.  Columns go in ascending order of the lowest edge of each
    field, the order of ``build_N_star``."""
    g = len(kernel)
    fields = [{int(surface_closing[q]): float(kernel[lam, q])
               for q in range(2 * g) if kernel[lam, q] != 0.0}
              for lam in range(g)]
    fields += [{int(e): 1.0} for e in tc.cotree_edges
               if e not in surface_closing]
    fields.sort(key=min)
    rows, cols, data = [], [], []
    for col, field in enumerate(fields):
        rows += field.keys()
        cols += [col] * len(field)
        data += field.values()
    return sp.csc_matrix((data, (rows, cols)), shape=(n_e, tc.n_Q - g))


GAUGE_FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
                  "torus_cavity"]


@pytest.mark.parametrize("mesh", GAUGE_FIXTURES)
def test_tangential_system_matches_sparse_reference(mesh, request):
    m = request.getfixturevalue(mesh)
    topo = request.getfixturevalue(f"topo_{mesh}")
    kernel, closing = _reference_homology(m, topo)
    assert topo.homology.closing_edges.tolist() == closing

    case = get_case("mms1")
    prob = case.tangential(1.0)
    lift = rt_potential(DivergenceData(interpolate("cell", case.g, m),
                                       np.full(m.boundary.p, 0.25)))
    dofs, system = gauged_system(prob, topo, lift)
    sol = gauged_solution(dofs, solve_spd(system), lift)

    H = topo.homology.cocycles
    fields = _reference_fields(topo.tree, _surface_cycles(m, topo)[1],
                               kernel, m.n_e)
    S = (m.incidence.C @ fields).tocsc()
    M = prob.eta * tensor_mass(m, "face")
    F, _ = consistent_load(
        m, _edge_load(m, prob.J) + _tangential_boundary_load(m, prob.a), H)
    rhs = np.asarray(fields.T @ F).ravel()
    rhs -= np.asarray(S.T @ (M @ lift.coeffs)).ravel()
    ref = AssembledSystem(K=(S.T @ M @ S).tocsr(), rhs=rhs)
    # the local curl-curl K and centroid lift sums agree with the products
    # of the RT mass to round-off, so the two CG runs to the tolerance
    K, K_ref = system.K.toarray(), ref.K.toarray()
    assert np.abs(K - K_ref).max() <= 1e-14 * np.abs(K_ref).max()
    assert (np.abs(system.rhs - ref.rhs).max()
            <= 1e-14 * np.abs(ref.rhs).max())
    u_ref = np.asarray(S @ solve_spd(ref)).ravel() + lift.coeffs
    assert np.abs(sol.u_h.coeffs - u_ref).max() <= 1e-9 * np.abs(u_ref).max()
