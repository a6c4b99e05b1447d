"""The solves in the quotient space: Jacobi-CG on C^T M C over all edges,
and on G^T M G over all vertices, with the load made consistent against
the kernel.

Neither u_h may depend on the vertex numbering or the position of the
mesh, and both must turn with a rotation of it, also where the data's
quadrature leaves the normal load unbalanced.
The tangential u_h must equal the u_h of the gauged N*_h system with the
same load, and its CG must converge in far fewer iterations than the
gauged one."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from curldiv import (DivergenceData, build_mesh, consistent_load,
                     interpolate, rt_potential, solve_spd)
from curldiv import cli
from curldiv.elements import field_values
from curldiv.meshes import structured_cube_mesh
from curldiv.mms import MMSCase, discrete_alpha, get_case
from curldiv.solver import (AssembledSystem, _edge_load, _scaled,
                            _tangential_boundary_load)
from gauged import gauged_solve
from quadrature_mass import tensor_mass

FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
            "torus_cavity"]
TOL = 1e-12


def _at_barycentres(sol) -> np.ndarray:
    """u_h at the barycentre of every tet, (n_t, 3)."""
    return field_values(sol.u_h, np.full((1, 4), 0.25))[:, 0]


def _shifted(case: MMSCase, shift) -> MMSCase:
    """The case moved by ``shift``: every field taken at x - shift."""
    shift = np.asarray(shift, dtype=np.float64)

    def moved(fn):
        return lambda p: fn(np.asarray(p) - shift)
    return MMSCase(case.name, moved(case.u), moved(case.J), moved(case.g))


def _rotated(case: MMSCase, Q) -> MMSCase:
    """The case turned by the proper rotation Q: Q u(Q^T x), Q J(Q^T x)
    and g(Q^T x), so curl u = J and div u = g still hold."""
    def at(fn):
        return lambda p: fn(np.asarray(p) @ Q)

    def turned(fn):
        return lambda p: fn(np.asarray(p) @ Q) @ Q.T
    return MMSCase(case.name, turned(case.u), turned(case.J), at(case.g))


# on the Kuhn grids the quadrature of mms1 balances the normal load to
# 2e-16, as opposite faces are translates; that of this field does not
UNBALANCED = MMSCase(
    "unbalanced",
    lambda p: np.column_stack([p[:, 0] ** 2 * np.sin(np.pi * p[:, 1]),
                               np.exp(p[:, 2]), np.cos(p[:, 0])]),
    lambda p: np.column_stack([-np.exp(p[:, 2]), np.sin(p[:, 0]),
                               -np.pi * p[:, 0] ** 2
                               * np.cos(np.pi * p[:, 1])]),
    lambda p: 2.0 * p[:, 0] * np.sin(np.pi * p[:, 1]))
CASES = {"mms1": get_case("mms1"), "unbalanced": UNBALANCED}
# each fixture with each case; the mms1 runs keep the fixture as their id
FIXTURE_CASES = [pytest.param(name, case, id=name + ("" if case == "mms1"
                                                     else f"-{case}"))
                 for case in CASES for name in FIXTURES]


def _solve(m, formulation, case_name, shift=(0.0, 0.0, 0.0), Q=None):
    """u_h at the barycentres and the load compatibility of the report, for
    the case turned by Q, if given, then moved by ``shift``."""
    case = CASES[case_name] if Q is None else _rotated(CASES[case_name], Q)
    case = _shifted(case, shift)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "get_case", lambda name: case)
        sol, rep = cli.solve_on_mesh(
            m, cli.ProblemConfig(formulation, case_name, tol=TOL))
    assert rep["passed"]
    return _at_barycentres(sol), rep["checks"]["load_compatibility"]


@pytest.mark.parametrize("name,case_name", FIXTURE_CASES)
def test_u_h_invariant_under_renumbering_and_translation(name, case_name,
                                                         request):
    m = request.getfixturevalue(name)
    forms = ("tangential", "normal")
    ref = {f: _solve(m, f, case_name) for f in forms}

    @settings(max_examples=2, deadline=None, database=None,
              phases=[Phase.explicit, Phase.generate])
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
            vals, compat = _solve(moved, f, case_name, shift)
            diff = np.abs(vals - ref[f][0][order]).max()
            assert diff <= 1e-10 * np.abs(ref[f][0]).max(), (f, diff)
            assert compat == pytest.approx(ref[f][1], rel=1e-12), f

    check()


@pytest.mark.parametrize("name,case_name", FIXTURE_CASES)
def test_u_h_invariant_under_renumbering_and_rotation(name, case_name,
                                                      request):
    m = request.getfixturevalue(name)
    forms = ("tangential", "normal")
    ref = {f: _solve(m, f, case_name) for f in forms}

    @settings(max_examples=2, deadline=None, database=None,
              phases=[Phase.explicit, Phase.generate])
    @given(seed=st.integers(0, 2**32 - 1),
           shift=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def check(seed, shift):
        rng = np.random.default_rng(seed)
        Q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = Q * np.sign(np.diag(r))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]                    # proper: det Q = +1
        perm = rng.permutation(m.n_v)             # old vertex v is perm[v]
        vertices = np.empty_like(m.vertices)
        vertices[perm] = m.vertices @ Q.T + shift
        order = rng.permutation(m.n_t)            # new tet i is old order[i]
        tets = rng.permuted(perm[m.tets[order]], axis=1)
        moved = build_mesh(vertices, tets)
        for f in forms:
            vals, compat = _solve(moved, f, case_name, shift, Q)
            diff = np.abs(vals - ref[f][0][order] @ Q.T).max()
            assert diff <= 1e-10 * np.abs(ref[f][0]).max(), (f, diff)
            # the mms1 figures lie at round-off (about 1e-16), which the
            # rotation moves by a large factor: an absolute bound
            assert compat == pytest.approx(ref[f][1], rel=0, abs=1e-13), f

    check()


@pytest.mark.parametrize("name", FIXTURES)
def test_quotient_u_h_matches_gauged_reference(name, request):
    m = request.getfixturevalue(name)
    topo = request.getfixturevalue(f"topo_{name}")
    sol, _ = cli.solve_on_mesh(m, cli.ProblemConfig("tangential", "mms1",
                                                    tol=TOL), topo)
    case = get_case("mms1")
    prob = case.tangential(1.0)
    lift = rt_potential(DivergenceData(interpolate("cell", case.g, m),
                                       discrete_alpha(case, m)))
    ref = gauged_solve(prob, topo, lift, tol=TOL)
    u, u_ref = sol.u_h.coeffs, ref.u_h.coeffs
    assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()


def test_consistent_load_annihilates_ker_C(handle_cavity, topo_handle_cavity):
    m, topo = handle_cavity, topo_handle_cavity
    case = get_case("mms1")
    H = topo.homology.cocycles
    assert H.shape == (m.n_e, 1)
    assert np.abs(m.incidence.C @ H).max() == 0.0
    a = case.tangential(1.0).a
    F = _edge_load(m, case.J) + _tangential_boundary_load(m, a)
    Fc, raw = consistent_load(m, F, H)
    G = m.incidence.G
    assert np.abs(G.T @ Fc).max() <= 1e-13 * np.abs(F).max()
    assert np.abs(H.T @ Fc).max() <= 1e-13 * np.abs(F).max()
    # the raw load is compatible only up to quadrature error
    assert set(raw) == {"gradient", "harmonic"}
    grad = np.linalg.norm(G.T @ F) / np.linalg.norm(F)
    assert raw["gradient"] == pytest.approx(grad, rel=1e-12)
    assert 0.0 < raw["gradient"] < 1e-3 and 0.0 < raw["harmonic"] < 1e-3


def _assembled_consistent_load(m, F, cocycles):
    """``consistent_load`` on the assembled Nedelec mass of the quadrature
    path: F less M_e G phi and M_e H y, as products with the global M_e."""
    F, e = _scaled(F)
    norm = np.linalg.norm(F)
    M, G = tensor_mass(m, "edge"), m.incidence.G

    def grad_part(v):
        r = G.T @ v
        return G @ solve_spd(AssembledSystem(K=m.gradient_stiffness,
                                             rhs=r - r.mean()))

    H = np.array(cocycles, dtype=np.float64)
    for n in range(H.shape[1]):
        H[:, n] -= grad_part(M @ H[:, n])
    y = np.linalg.solve(H.T @ (M @ H), H.T @ F)
    Fc = np.ldexp(F - M @ (grad_part(F) + H @ y), e)
    QtF = np.linalg.qr(H)[0].T @ F
    return Fc, {"gradient": float(np.linalg.norm(G.T @ F) / norm),
                "harmonic": float(np.linalg.norm(QtF) / norm)}


@pytest.mark.parametrize("name", FIXTURES)
def test_consistent_load_matches_assembled_mass(name, request):
    # M_e applied per element against the assembled quadrature mass, on
    # the mms1 load, compatible up to quadrature, and on a random one; the
    # figures are over |F|, and their round-off is 1e-17 of it
    m = request.getfixturevalue(name)
    H = request.getfixturevalue(f"topo_{name}").homology.cocycles
    case = get_case("mms1")
    loads = {"compatible": _edge_load(m, case.J)
             + _tangential_boundary_load(m, case.tangential(1.0).a),
             "random": np.random.default_rng(5).standard_normal(m.n_e)}
    for kind, F in loads.items():
        Fc, compat = consistent_load(m, F, H)
        Fc_ref, compat_ref = _assembled_consistent_load(m, F, H)
        assert np.abs(Fc - Fc_ref).max() <= 1e-13 * np.abs(Fc_ref).max(), kind
        assert compat == pytest.approx(compat_ref, rel=1e-12,
                                       abs=1e-15), kind


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
