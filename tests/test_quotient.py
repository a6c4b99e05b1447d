"""The tangential solve in the quotient space: Jacobi-CG on C^T M C over all
edges with the load made consistent against ker C.

Its u_h must not depend on the vertex numbering or the position of the
mesh, must equal the u_h of the gauged N*_h system with the same load, and
its CG must converge in far fewer iterations than the gauged one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curldiv import (CoefficientField, DivergenceData, TangentialProblem,
                     assemble_tangential, build_mesh, build_N_star,
                     consistent_load, harmonic_cocycles, interpolate, kernels,
                     recover_solution, rt_potential, solve_spd)
from curldiv import cli
from curldiv.meshes import structured_cube_mesh
from curldiv.mms import MMSCase, discrete_alpha, get_case
from curldiv.solver import _edge_load, _tangential_boundary_load

FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
            "torus_cavity"]
TOL = 1e-12


def _at_barycentres(sol) -> np.ndarray:
    """u_h at the barycentre of every tet, (n_t, 3)."""
    m = sol.u_h.mesh
    grads, _ = m.tet_geometry
    centre = np.full((1, 4), 0.25)
    if sol.kind == "tangential":
        basis = kernels.rt_basis_values(grads, centre)
        local = sol.u_h.coeffs[m.tet_faces]
    else:
        basis = kernels.edge_basis_values(grads, centre)
        local = sol.u_h.coeffs[m.tet_edges]
    return kernels.field_at_points(basis, local)[:, 0]


def _shifted(case: MMSCase, shift) -> MMSCase:
    """The case moved by ``shift``: every field taken at x - shift."""
    shift = np.asarray(shift, dtype=np.float64)

    def moved(fn):
        return lambda p: fn(np.asarray(p) - shift)
    return MMSCase(case.name, moved(case.u), moved(case.J), moved(case.g))


def _solve(m, formulation, shift=(0.0, 0.0, 0.0)):
    case = _shifted(get_case("mms1"), shift)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "get_case", lambda name: case)
        sol, rep = cli.solve_on_mesh(
            m, cli.ProblemConfig(formulation, "mms1", tol=TOL))
    assert rep["passed"]
    return _at_barycentres(sol)


@pytest.mark.parametrize("name", FIXTURES)
def test_u_h_invariant_under_renumbering_and_translation(name, request):
    m = request.getfixturevalue(name)
    g = request.getfixturevalue(f"topo_{name}").homology.g
    # the normal u_h moves by more than the CG tolerance when g > 0
    forms = ("tangential", "normal") if g == 0 else ("tangential",)
    ref = {f: _solve(m, f) for f in forms}

    @settings(max_examples=2, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shift=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def check(seed, shift):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(m.n_v)             # old vertex v is perm[v]
        vertices = np.empty_like(m.vertices)
        vertices[perm] = m.vertices + shift
        order = rng.permutation(m.n_t)            # new tet i is old order[i]
        tets = rng.permuted(perm[m.tets[order]], axis=1)
        moved = build_mesh(vertices, tets)
        for f in forms:
            vals = _solve(moved, f, shift)
            diff = np.abs(vals - ref[f][order]).max()
            assert diff <= 1e-10 * np.abs(ref[f]).max(), (f, diff)

    check()


@pytest.mark.parametrize("name", FIXTURES)
def test_quotient_u_h_matches_gauged_reference(name, request):
    m = request.getfixturevalue(name)
    topo = request.getfixturevalue(f"topo_{name}")
    sol, _ = cli.solve_on_mesh(m, cli.ProblemConfig("tangential", "mms1",
                                                    tol=TOL), topo)
    case = get_case("mms1")
    b = topo.boundary
    prob = TangentialProblem(CoefficientField.identity(), case.J, case.g,
                             case.a(), discrete_alpha(case, m, b))
    lift = rt_potential(m, b, DivergenceData(interpolate("cell", case.g, m),
                                             prob.alpha))
    dofs = build_N_star(topo.tree, topo.homology)
    system = assemble_tangential(prob, m, dofs, lift, harmonic_cocycles(
        m, topo.tree, topo.homology))
    ref = recover_solution("tangential", solve_spd(system, tol=TOL), dofs,
                           lift)
    u, u_ref = sol.u_h.coeffs, ref.u_h.coeffs
    assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()


def test_consistent_load_annihilates_ker_C(handle_cavity, topo_handle_cavity):
    m, topo = handle_cavity, topo_handle_cavity
    case = get_case("mms1")
    H = harmonic_cocycles(m, topo.tree, topo.homology)
    assert H.shape == (m.n_e, 1)
    assert np.abs(m.incidence.C @ H).max() == 0.0
    F = _edge_load(m, case.J) + _tangential_boundary_load(m, case.a())
    Fc, raw = consistent_load(m, F, H)
    G = m.incidence.G
    assert np.abs(G.T @ Fc).max() <= 1e-13 * np.abs(F).max()
    assert np.abs(H.T @ Fc).max() <= 1e-13 * np.abs(F).max()
    # the raw load is compatible only up to quadrature error
    assert set(raw) == {"gradient", "harmonic"}
    grad = np.linalg.norm(G[:, :-1].T @ F) / np.linalg.norm(F)
    assert raw["gradient"] == pytest.approx(grad, rel=1e-12)
    assert 0.0 < raw["gradient"] < 1e-3 and 0.0 < raw["harmonic"] < 1e-3


class _CountingMatrix:
    """Stand-in for a system matrix that counts its products, one per CG
    iteration."""

    def __init__(self, K):
        self.K = K
        self.shape = K.shape
        self.products = 0

    def diagonal(self):
        return self.K.diagonal()

    def __matmul__(self, x):
        self.products += 1
        return self.K @ x


def test_tangential_cg_iterations_on_cube8(monkeypatch):
    m = structured_cube_mesh(8)
    seen = []

    def counted(system, *args, **kwargs):
        system.K = _CountingMatrix(system.K)
        seen.append(system.K)
        return solve_spd(system, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_spd", counted)
    _, rep = cli.solve_on_mesh(m, cli.ProblemConfig("tangential", "mms1"))
    assert rep["passed"]
    (K,) = seen
    # the gauged system took 1,298 iterations here, the quotient one 131
    assert K.shape == (m.n_e, m.n_e)
    assert K.products <= 200
