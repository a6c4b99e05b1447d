"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold; pytest
reports the FAIL case.  Tolerances are fixed by the criteria themselves.
"""

import time

import numpy as np

from curldiv import (CurlData, DivergenceData, FEFunction,
                     NormalProblem, TangentialProblem, assemble_normal,
                     build_N_star, component_fluxes, cycle_period,
                     differential, error_norms, interpolate,
                     nedelec_potential, rt_potential, solve_spd)
from curldiv.cli import ProblemConfig, run_convergence, solve_on_mesh
from curldiv.mms import get_case
from fe_eval import eval_at_points
from gauged import gauged_solve, gauged_system

FIXTURES = ["cube1", "torus", "hollow"]


def _zeros_v(p):
    return np.zeros((len(p), 3))


def _zeros_s(p):
    return np.zeros(len(p))


def _zeros_a(p, n):
    return np.zeros((len(p), 3))


def _zeros_b(p, n):
    return np.zeros(len(p))


def test_criterion_01_convergence_tangential():
    t0 = time.perf_counter()
    report = run_convergence("mms1", 3, formulations=("tangential",))
    elapsed = time.perf_counter() - t0
    rate = report["rates_tangential"][-1]
    assert isinstance(rate, float) and rate >= 0.85
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 (tangential H(div) convergence): PASS "
          f"(rate {rate:.3f}, {elapsed:.1f}s)")


def test_criterion_02_convergence_normal():
    t0 = time.perf_counter()
    report = run_convergence("mms1", 3, formulations=("normal",))
    elapsed = time.perf_counter() - t0
    rate = report["rates_normal"][-1]
    assert isinstance(rate, float) and rate >= 0.85
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2 (normal H(curl) convergence): PASS "
          f"(rate {rate:.3f}, {elapsed:.1f}s)")


def test_criterion_03_dimension_identity(request):
    for name in FIXTURES:
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        g = topo.homology.g
        p = topo.boundary.p
        n_Q = topo.tree.n_Q
        assert n_Q - g == m.n_f - m.n_t - p
        gb = build_N_star(topo.homology)
        S = m.incidence.C.toarray()[:, gb]
        assert np.linalg.matrix_rank(S) == n_Q - g
    print("\nACCEPTANCE 3 (dimension identity n_Q - g = n_f - n_t - p "
          "and curl rank): PASS")


def test_criterion_04_exact_complex_identities(request):
    for name in FIXTURES:
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        inc = m.incidence
        assert np.all((inc.C @ inc.G).toarray() == 0)
        assert np.all((inc.D @ inc.C).toarray() == 0)
        gb = build_N_star(topo.homology)
        S = inc.C.tocsc()[:, gb]
        assert np.all((inc.D @ S).toarray() == 0)
    print("\nACCEPTANCE 4 (exact complex identities C.G=0, D.C=0, "
          "div of basis curls = 0): PASS")


def test_criterion_05_W0h_membership(request):
    for name in FIXTURES:
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        gb = build_N_star(topo.homology)
        S = m.incidence.C.toarray()[:, gb]
        scale = 1.0 + np.abs(S).max()
        for col in range(S.shape[1]):
            v = FEFunction("face", m, S[:, col])
            fluxes = component_fluxes(v)
            assert np.abs(fluxes).max() <= 1e-12 * scale
        # every basis edge has period 0 on every sigma_n
        for cyc in topo.homology.cycles:
            for e in gb:
                unit = np.zeros(m.n_e)
                unit[e] = 1.0
                assert cycle_period(cyc, unit) == 0.0
    print("\nACCEPTANCE 5 (W0h membership: component fluxes <= 1e-12, "
          "basis periods on every sigma_n = 0): PASS")


def test_criterion_06_uniqueness_zero_data(request):
    for name in FIXTURES:
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        lift_t = FEFunction("face", m, np.zeros(m.n_f))
        prob_t = TangentialProblem(1.0, _zeros_v,
                                   _zeros_a)
        W = solve_spd(gauged_system(prob_t, topo, lift_t)[1])
        assert np.abs(W).max() <= 1e-10
        lift_n = FEFunction("edge", m, np.zeros(m.n_e))
        prob_n = NormalProblem(1.0, _zeros_s,
                               _zeros_b)
        V = solve_spd(assemble_normal(prob_n, lift_n))
        assert np.abs(V).max() <= 1e-10
    print("\nACCEPTANCE 6 (zero data gives zero coefficients on all "
          "fixtures): PASS")


def test_criterion_07_spd(request):
    rng = np.random.default_rng(314159)
    for name in ("cube2", "torus"):
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        for coef in (1.0, 2.5):
            lift_t = FEFunction("face", m, np.zeros(m.n_f))
            prob_t = TangentialProblem(coef, _zeros_v, _zeros_a)
            Kt = gauged_system(prob_t, topo, lift_t)[1].K
            lift_n = FEFunction("edge", m, np.zeros(m.n_e))
            prob_n = NormalProblem(coef, _zeros_s, _zeros_b)
            Kn = assemble_normal(prob_n, lift_n).K
            # the constants span ker Kn, and its principal submatrix on
            # L*_h, every vertex but the last, is positive definite
            ones = np.ones(m.n_v)
            assert np.abs(Kn @ ones).max() <= 1e-13 * abs(Kn).max()
            Kn = Kn[:-1, :-1]
            for K in (Kt, Kn):
                n = K.shape[0]
                for _ in range(100):
                    z = rng.standard_normal(n)
                    assert float(z @ (K @ z)) > 0.0
    # CG convergence without negative curvature, exercised on real data
    for name in ("cube2", "torus"):
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        for form in ("tangential", "normal"):
            sol, rep = solve_on_mesh(
                m, ProblemConfig(form, "mms2", tol=1e-10), topo)
            assert rep["passed"]
    print("\nACCEPTANCE 7 (SPD: 100 positive Rayleigh quotients per K; "
          "CG converges at 1e-10): PASS")


def test_criterion_08_commuting_interpolation(cube2):
    def u1(p):
        return np.column_stack([p[:, 0] ** 2, p[:, 1], np.zeros(len(p))])

    def div_u1(p):
        return 2.0 * p[:, 0] + 1.0
    lhs = differential(interpolate("face", u1, cube2))
    rhs = interpolate("cell", div_u1, cube2)
    div_err = np.abs(lhs.coeffs - rhs.coeffs).max()
    assert div_err <= 1e-10

    def u2(p):
        return np.column_stack([p[:, 0] ** 2 + p[:, 1] * p[:, 2],
                                p[:, 1] ** 2 + p[:, 0] * p[:, 2],
                                p[:, 2] ** 2 + p[:, 0] * p[:, 1]])

    def curl_u2(p):
        return np.zeros((len(p), 3))
    lhs2 = differential(interpolate("edge", u2, cube2))
    rhs2 = interpolate("face", curl_u2, cube2)
    curl_err = np.abs(lhs2.coeffs - rhs2.coeffs).max()
    assert curl_err <= 1e-10
    print(f"\nACCEPTANCE 8 (commuting interpolation: div {div_err:.2e}, "
          f"curl {curl_err:.2e} <= 1e-10): PASS")


def test_criterion_09_lift_contracts(request, cube2, topo_cube2, torus,
                                     topo_torus, hollow):
    case = get_case("mms1")
    # divergence lift on the hollow ball with a prescribed cavity flux
    g_h = interpolate("cell", case.g, hollow)
    alpha = np.array([0.5])
    lift = rt_potential(DivergenceData(g_h, alpha))
    scale = 1.0 + np.abs(g_h.coeffs).max()
    div = hollow.incidence.D @ lift.coeffs / hollow.volumes
    assert np.abs(div - g_h.coeffs).max() <= 1e-10 * scale
    fluxes = component_fluxes(lift)
    # component 0 is the external one, the cavity is component 1
    assert abs(fluxes[1] - 0.5) <= 1e-10 * (1.0 + 0.5)
    # curl lift on the torus with a prescribed period
    J_h = FEFunction("face", torus, np.zeros(torus.n_f))
    beta = np.array([2.0])
    nlift = nedelec_potential(topo_torus.homology, CurlData(J_h, beta))
    assert np.abs(torus.incidence.C @ nlift.coeffs).max() <= 1e-10
    per = cycle_period(topo_torus.homology.cycles[0], nlift.coeffs)
    assert abs(per - 2.0) <= 1e-10 * 3.0
    # end-to-end invariance under lift replacement by lift + kernel element
    g_h2 = interpolate("cell", case.g, cube2)
    base = rt_potential(DivergenceData(g_h2, np.zeros(0)))
    rng = np.random.default_rng(9)
    kernel = np.asarray(cube2.incidence.C @ rng.standard_normal(cube2.n_e))
    shifted = FEFunction("face", cube2, base.coeffs + kernel.ravel())
    prob = case.tangential(1.0)
    probes = rng.uniform(0.1, 0.9, size=(10, 3))
    vals = []
    for lf in (base, shifted):
        sol = gauged_solve(prob, topo_cube2, lf, tol=1e-12)
        vals.append(eval_at_points(sol.u_h, probes))
    pscale = 1.0 + np.abs(vals[0]).max()
    assert np.abs(vals[0] - vals[1]).max() <= 1e-8 * pscale
    print("\nACCEPTANCE 9 (potential-lift contracts and lift independence): "
          "PASS")


def test_criterion_10_constants_reproduction(request):
    case = get_case("constant")
    worst = 0.0
    for name in ["cube1", "cube2", "torus", "hollow"]:
        m = request.getfixturevalue(name)
        topo = request.getfixturevalue(f"topo_{name}")
        for form in ("tangential", "normal"):
            cfg = ProblemConfig(form, "constant", tol=1e-12)
            sol, rep = solve_on_mesh(m, cfg, topo)
            exact_diff = case.g if form == "tangential" else case.J
            l2, graph = error_norms(sol, case.u, exact_diff)
            worst = max(worst, graph)
            assert graph <= 1e-8, (name, form, graph)
    print(f"\nACCEPTANCE 10 (constants reproduced on every fixture, worst "
          f"graph error {worst:.2e}): PASS")
