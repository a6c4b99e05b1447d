import numpy as np
import pytest

from curldiv import cycle_period, interpolate
from curldiv.mms import (MMSCase, MMSError, REGISTRY, discrete_alpha,
                         discrete_beta, get_case, register)


def test_registry_contents():
    assert {"constant", "mms1", "mms2"} <= set(REGISTRY)
    with pytest.raises(MMSError):
        get_case("nope")


def test_mms1_formulas():
    case = get_case("mms1")
    p = np.array([[0.25, 0.5, 0.75]])
    u = case.u(p)[0]
    pi = np.pi
    assert np.allclose(u, [np.sin(pi * 0.5) + 0.25, np.sin(pi * 0.75),
                           np.sin(pi * 0.25)], atol=1e-14)
    J = case.J(p)[0]
    assert np.allclose(J, [-pi * np.cos(pi * 0.75), -pi * np.cos(pi * 0.25),
                           -pi * np.cos(pi * 0.5)], atol=1e-14)
    assert case.g(p)[0] == 1.0


def test_registration_rejects_inconsistent_case():
    bad = MMSCase(name="bad",
                  u=lambda p: np.column_stack([p[:, 0], p[:, 1], p[:, 2]]),
                  J=lambda p: np.ones((len(p), 3)),       # true curl is 0
                  g=lambda p: 3.0 * np.ones(len(p)))
    with pytest.raises(MMSError):
        register(bad)
    assert "bad" not in REGISTRY


def test_boundary_data_normal_aware():
    case = get_case("mms1")
    a = case.tangential(1.0).a
    b = case.normal(1.0).b
    pts = np.array([[0.5, 0.5, 1.0]])
    nrm = np.array([[0.0, 0.0, 1.0]])
    u = case.u(pts)[0]
    assert np.allclose(a(pts, nrm)[0], np.cross(u, nrm[0]), atol=1e-14)
    assert abs(b(pts, nrm)[0] - u @ nrm[0]) < 1e-14


def test_a_with_scalar_eta():
    case = get_case("mms2")
    prob = case.tangential(2.0)
    pts = np.array([[0.5, 0.5, 1.0]])
    nrm = np.array([[0.0, 0.0, 1.0]])
    u = case.u(pts)[0]
    assert np.allclose(prob.a(pts, nrm)[0], np.cross(2.0 * u, nrm[0]),
                       atol=1e-14)
    assert np.array_equal(prob.J(pts), 2.0 * case.J(pts))


def test_normal_data_with_scalar_mu():
    case = get_case("mms1")
    prob = case.normal(2.0)
    pts = np.array([[0.5, 0.5, 1.0]])
    nrm = np.array([[0.0, 0.0, 1.0]])
    u = case.u(pts)[0]
    assert abs(prob.b(pts, nrm)[0] - 2.0 * u @ nrm[0]) < 1e-14
    assert np.array_equal(prob.g(pts), 2.0 * case.g(pts))


def test_discrete_alpha_on_hollow(hollow):
    # constant field has zero net flux through the closed cavity surface
    alpha = discrete_alpha(get_case("constant"), hollow)
    assert alpha.shape == (1,)
    assert abs(alpha[0]) <= 1e-12


def test_discrete_beta_on_torus(torus, topo_torus):
    beta = discrete_beta(get_case("constant"), topo_torus.homology)
    assert beta.shape == (1,)
    # circulations of a constant field along a closed cycle vanish
    assert abs(beta[0]) <= 1e-12


def test_discrete_alpha_empty_on_cube(cube1):
    alpha = discrete_alpha(get_case("mms1"), cube1)
    assert alpha.shape == (0,)


@pytest.mark.parametrize("name", ["torus", "genus2", "handle_cavity"])
def test_discrete_beta_is_the_period_of_the_edge_interpolant(name, request):
    # beta integrates u on the cycle edges only; the values are those of
    # the interpolant on every edge, bit for bit
    m = request.getfixturevalue(name)
    hb = request.getfixturevalue(f"topo_{name}").homology
    case = get_case("mms1")
    u_I = interpolate("edge", case.u, m).coeffs
    want = np.array([cycle_period(cyc, u_I) for cyc in hb.cycles])
    assert len(want) == hb.g > 0
    assert np.array_equal(discrete_beta(case, hb), want)

