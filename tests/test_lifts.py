from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curldiv import (CurlData, DivergenceData, FEFunction, HomologyBasis,
                     LiftError, betti, build_mesh, clean_curl_data,
                     component_fluxes, cycle_period, interpolate,
                     nedelec_potential, rt_potential, solid_torus_mesh)
from curldiv import lifts
from curldiv.cli import compute_topology
from curldiv.meshes import _grid_mesh
from curldiv.mms import discrete_beta, get_case
from curldiv.topology import _bfs, _dual_arcs


def test_rt_constant_divergence_on_cube(cube2, topo_cube2):
    g_h = FEFunction("cell", cube2, np.ones(cube2.n_t))
    u = rt_potential(cube2, topo_cube2.boundary, DivergenceData(g_h, np.zeros(0)))
    resid = np.abs(cube2.incidence.D @ u.coeffs / cube2.volumes - 1.0).max()
    assert resid <= 1e-12


def test_rt_cavity_flux_on_hollow_ball(hollow, topo_hollow):
    b = topo_hollow.boundary
    g_h = FEFunction("cell", hollow, np.zeros(hollow.n_t))
    u = rt_potential(hollow, b, DivergenceData(g_h, np.array([1.0])))
    fluxes = component_fluxes(hollow, b, u)
    internal = b.internal_components()[0]
    assert abs(fluxes[internal] - 1.0) <= 1e-10
    assert np.abs(hollow.incidence.D @ u.coeffs).max() <= 1e-12


def test_rt_zero_data_returns_zero(cube1, topo_cube1):
    g_h = FEFunction("cell", cube1, np.zeros(cube1.n_t))
    u = rt_potential(cube1, topo_cube1.boundary, DivergenceData(g_h, np.zeros(0)))
    assert np.abs(u.coeffs).max() == 0.0


def test_rt_alpha_length_checked(cube1, topo_cube1):
    g_h = FEFunction("cell", cube1, np.zeros(cube1.n_t))
    with pytest.raises(LiftError):
        rt_potential(cube1, topo_cube1.boundary,
                     DivergenceData(g_h, np.array([1.0])))


def test_nedelec_zero_data_returns_zero(cube1, topo_cube1):
    J_h = FEFunction("face", cube1, np.zeros(cube1.n_f))
    u = nedelec_potential(cube1, topo_cube1.tree, topo_cube1.homology,
                          CurlData(J_h, np.zeros(0)))
    assert np.abs(u.coeffs).max() == 0.0


def test_nedelec_matches_interpolated_curl(cube2, topo_cube2):
    # u = (sin(pi y), 0, 0), curl u = (0, 0, -pi cos(pi y))
    def J(p):
        return np.column_stack([np.zeros(len(p)), np.zeros(len(p)),
                                -np.pi * np.cos(np.pi * p[:, 1])])
    J_h = interpolate("face", J, cube2)
    scale = 1.0 + np.abs(J_h.coeffs).max()
    assert np.abs(cube2.incidence.D @ J_h.coeffs).max() <= 1e-10 * scale
    u = nedelec_potential(cube2, topo_cube2.tree, topo_cube2.homology,
                          CurlData(J_h, np.zeros(0)))
    resid = np.abs(cube2.incidence.C @ u.coeffs - J_h.coeffs).max()
    assert resid <= 1e-10 * scale


def test_nedelec_torus_unit_period(torus, topo_torus):
    hb = topo_torus.homology
    J_h = FEFunction("face", torus, np.zeros(torus.n_f))
    u = nedelec_potential(torus, topo_torus.tree, hb,
                          CurlData(J_h, np.array([1.0])))
    assert np.abs(torus.incidence.C @ u.coeffs).max() <= 1e-10
    assert abs(cycle_period(hb.cycles[0], u.coeffs) - 1.0) <= 1e-10


def test_nedelec_beta_length_checked(torus, topo_torus):
    J_h = FEFunction("face", torus, np.zeros(torus.n_f))
    with pytest.raises(LiftError):
        nedelec_potential(torus, topo_torus.tree, topo_torus.homology,
                          CurlData(J_h, np.zeros(0)))


def test_nedelec_incompatible_curl_rejected(cube1, topo_cube1):
    # a single nonzero interior flux cannot be a curl
    J = np.zeros(cube1.n_f)
    interior = [f for f in range(cube1.n_f)
                if f not in set(int(x) for x in
                                topo_cube1.boundary.boundary_faces)]
    J[interior[0]] = 1.0
    with pytest.raises(LiftError):
        nedelec_potential(cube1, topo_cube1.tree, topo_cube1.homology,
                          CurlData(FEFunction("face", cube1, J), np.zeros(0)))


def test_clean_curl_data_restores_compatibility(cube2, topo_cube2):
    # trigonometric curl data pick up quadrature-level divergence defects
    def J(p):
        return np.column_stack([-np.pi * np.cos(np.pi * p[:, 2]),
                                -np.pi * np.cos(np.pi * p[:, 0]),
                                -np.pi * np.cos(np.pi * p[:, 1])])
    J_h = interpolate("face", J, cube2)
    cleaned = clean_curl_data(cube2, topo_cube2.boundary, J_h)
    assert np.abs(cube2.incidence.D @ cleaned.coeffs).max() <= 1e-12
    # the correction stays at quadrature-error size
    assert np.abs(cleaned.coeffs - J_h.coeffs).max() <= 1e-5


def test_lifts_deterministic(cube2, topo_cube2):
    g_h = FEFunction("cell", cube2, np.ones(cube2.n_t))
    dd = DivergenceData(g_h, np.zeros(0))
    u1 = rt_potential(cube2, topo_cube2.boundary, dd)
    u2 = rt_potential(cube2, topo_cube2.boundary, dd)
    assert np.array_equal(u1.coeffs, u2.coeffs)


def test_wrong_space_rejected(cube1):
    with pytest.raises(LiftError):
        DivergenceData(FEFunction("face", cube1, np.zeros(cube1.n_f)),
                       np.zeros(0))
    with pytest.raises(LiftError):
        CurlData(FEFunction("cell", cube1, np.zeros(cube1.n_t)), np.zeros(0))


# ---------------------------------------------------------------------------
# reference: the queue-driven face sweep with a dense least-squares fallback
# for the circulations it leaves free, which the seeded sweep replaced


def _reference_nedelec(m, tc, hb, J, beta):
    C = m.incidence.C.tocsr()
    circ = np.zeros(m.n_e)
    known = np.zeros(m.n_e, dtype=bool)
    known[tc.tree_edges] = True
    unknown = np.array([np.sum(~known[C.indices[C.indptr[f]:C.indptr[f + 1]]])
                        for f in range(m.n_f)])
    edge_faces = [[] for _ in range(m.n_e)]
    for f in range(m.n_f):
        for e in C.indices[C.indptr[f]:C.indptr[f + 1]]:
            edge_faces[int(e)].append(f)
    queue = deque(np.flatnonzero(unknown == 1).tolist())
    done = np.zeros(m.n_f, dtype=bool)
    while queue:
        f = queue.popleft()
        if done[f] or unknown[f] != 1:
            continue
        sl = slice(C.indptr[f], C.indptr[f + 1])
        resid, target, tsign = J[f], -1, 0
        for e, s in zip(C.indices[sl], C.data[sl]):
            if known[e]:
                resid -= s * circ[e]
            else:
                target, tsign = int(e), s
        circ[target] = resid / tsign
        known[target] = done[f] = True
        for f2 in edge_faces[target]:
            unknown[f2] -= 1
            if unknown[f2] == 1 and not done[f2]:
                queue.append(f2)
    free = np.flatnonzero(~known)
    if len(free):
        col = {int(e): i for i, e in enumerate(free)}
        rows, rhs = [], []
        for f in range(m.n_f):
            sl = slice(C.indptr[f], C.indptr[f + 1])
            if known[C.indices[sl]].all():
                continue
            row = np.zeros(len(free))
            r = J[f]
            for e, s in zip(C.indices[sl], C.data[sl]):
                if known[e]:
                    r -= s * circ[e]
                else:
                    row[col[int(e)]] = s
            rows.append(row)
            rhs.append(r)
        for n, cyc in enumerate(hb.cycles):
            row = np.zeros(len(free))
            r = beta[n]
            for e, c in cyc.items():
                if known[e]:
                    r -= c * circ[e]
                else:
                    row[col[int(e)]] = c
            rows.append(row)
            rhs.append(r)
        circ[free] = np.linalg.lstsq(np.array(rows), np.array(rhs),
                                     rcond=None)[0]
    return circ


LIFT_FIXTURES = [("torus", "topo_torus"), ("hollow", "topo_hollow"),
                 ("genus2", "topo_genus2"),
                 ("handle_cavity", "topo_handle_cavity"),
                 ("torus_cavity", "topo_torus_cavity")]


@pytest.mark.parametrize("mesh,fixture", LIFT_FIXTURES)
def test_nedelec_sweep_matches_reference_without_lstsq(mesh, fixture, request,
                                                       monkeypatch):
    m = request.getfixturevalue(mesh)
    topo = request.getfixturevalue(fixture)
    case = get_case("mms1")
    J_h = clean_curl_data(m, topo.boundary, interpolate("face", case.J, m))
    beta = discrete_beta(case, m, topo.homology) + 0.5
    expected = _reference_nedelec(m, topo.tree, topo.homology, J_h.coeffs,
                                  beta)
    def fail(*args, **kwargs):
        raise AssertionError("least squares called")
    monkeypatch.setattr(lifts.np.linalg, "lstsq", fail)
    u = nedelec_potential(m, topo.tree, topo.homology, CurlData(J_h, beta))
    assert np.abs(u.coeffs - expected).max() <= 1e-12


def test_nedelec_fits_circulations_the_sweep_leaves(torus, topo_torus,
                                                    monkeypatch):
    # with no period to seed, the sweep on a torus stalls; the free
    # circulations go to the small least-squares fit over the unused faces
    calls = []
    lstsq = np.linalg.lstsq

    def counted(A, b, **kwargs):
        calls.append(A.shape)
        return lstsq(A, b, **kwargs)
    monkeypatch.setattr(lifts.np.linalg, "lstsq", counted)
    no_periods = HomologyBasis(cycles=[],
                               closing_edges=np.zeros(0, dtype=np.int64),
                               rank_C=topo_torus.homology.rank_C)
    a = np.random.default_rng(0).standard_normal(torus.n_e)
    J = torus.incidence.C @ a
    u = nedelec_potential(torus, topo_torus.tree, no_periods,
                          CurlData(FEFunction("face", torus, J), np.zeros(0)))
    assert len(calls) == 1 and calls[0][1] >= 1
    assert np.abs(torus.incidence.C @ u.coeffs - J).max() <= 1e-12
    assert np.all(u.coeffs[topo_torus.tree.tree_edges] == 0.0)


# ---------------------------------------------------------------------------
# reference: the queue BFS over the dual graph and the leaf-to-root pass over
# the tets, which the sweep over the tet equations of D replaced


def _reference_rt(m, b, cell_int, alpha):
    """Dual-tree faces and fluxes of the RT lift, one tet at a time."""
    D = m.incidence.D
    face_tets = [[] for _ in range(m.n_f)]
    for t in range(m.n_t):
        for f in m.tet_faces[t]:
            face_tets[f].append(t)
    flux = np.zeros(m.n_f)
    target = dict(zip(b.internal_components(), alpha))
    target[b.external_index] = cell_int.sum() - alpha.sum()
    for r, comp in enumerate(b.components):
        areas = m.face_areas[comp]
        flux[comp] = b.face_sign[comp] * target[r] * areas / areas.sum()
    tet_adj = [[] for _ in range(m.n_t)]
    for f in range(m.n_f):
        if len(face_tets[f]) == 2:
            t0, t1 = face_tets[f]
            tet_adj[t0].append((t1, f))
            tet_adj[t1].append((t0, f))
    parent_face = np.full(m.n_t, -1)
    order, seen, queue = [], {0}, deque([0])
    while queue:
        t = queue.popleft()
        order.append(t)
        for t2, f in tet_adj[t]:
            if t2 not in seen:
                seen.add(t2)
                parent_face[t2] = f
                queue.append(t2)
    Drows = D.tocsr()
    for t in reversed(order[1:]):
        sl = slice(Drows.indptr[t], Drows.indptr[t + 1])
        pf = parent_face[t]
        resid, psign = cell_int[t], 0
        for f, s in zip(Drows.indices[sl], Drows.data[sl]):
            if f == pf:
                psign = s
            else:
                resid -= s * flux[f]
        flux[pf] = resid / psign
    return set(parent_face[order[1:]].tolist()), flux


RT_FIXTURES = ["tet1", "cube2", "torus", "hollow", "genus2", "handle_cavity",
               "torus_cavity"]


@pytest.mark.parametrize("mesh", RT_FIXTURES)
def test_rt_sweep_matches_reference(mesh, request):
    m = request.getfixturevalue(mesh)
    b = m.boundary
    rng = np.random.default_rng(3)
    g = rng.standard_normal(m.n_t)
    alpha = rng.standard_normal(b.p)
    tree, expected = _reference_rt(m, b, g * m.volumes, alpha)
    interior, t0, t1 = _dual_arcs(m)
    order, arc = _bfs(m.n_t, t0, t1, 0)
    assert set(interior[arc[order[1:]]].tolist()) == tree
    u = rt_potential(m, b, DivergenceData(FEFunction("cell", m, g), alpha))
    assert (np.abs(u.coeffs - expected).max()
            <= 1e-14 * np.abs(expected).max())


def _renumbered(m, seed):
    perm = np.random.default_rng(seed).permutation(m.n_v)
    vertices = np.empty_like(m.vertices)
    vertices[perm] = m.vertices
    return build_mesh(vertices, perm[m.tets])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from([0, 1]))
def test_topology_and_lift_invariant_under_renumbering(seed, which):
    base = (solid_torus_mesh(), _grid_mesh(
        5, 0.2, lambda i, j, k: not (j == 2 and i in (1, 3))))[which]
    m = _renumbered(base, seed)
    topo = compute_topology(m)
    assert betti(m, topo.homology.rank_C) == (1, which + 1, 0)
    assert (topo.boundary.p, topo.homology.g) == (0, which + 1)
    calls = []
    lstsq = lifts.np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)
    lifts.np.linalg.lstsq = counted
    try:
        J = FEFunction("face", m, np.zeros(m.n_f))
        beta = np.arange(1.0, topo.homology.g + 1)
        u = nedelec_potential(m, topo.tree, topo.homology, CurlData(J, beta))
    finally:
        lifts.np.linalg.lstsq = lstsq
    assert calls == []
    assert np.abs(m.incidence.C @ u.coeffs).max() <= 1e-12
    for cyc, b in zip(topo.homology.cycles, beta):
        assert abs(cycle_period(cyc, u.coeffs) - b) <= 1e-12
