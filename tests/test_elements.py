import numpy as np
import pytest

from curldiv import (ElementError, FEFunction, build_mesh, differential,
                     interpolate, structured_cube_mesh, zero_function)
from curldiv.elements import centroid_values, eval_field, field_values
from curldiv.mms import get_case
from curldiv.quadrature import make_quadrature
from fe_eval import eval_at_points, eval_fe
from whitney import edge_basis_values, rt_basis_values


def _edge_dof_of(m, f, edge):
    """Quadrature of the tangential component along a mesh edge."""
    rule = make_quadrature("edge", 4)
    a, b = m.vertices[m.edges[edge]]
    vals = []
    for lam in rule.points:
        p = lam[0] * a + lam[1] * b
        # evaluate inside some adjacent tet
        for t in range(m.n_t):
            if edge in m.tet_edges[t]:
                vals.append(eval_fe(f, t, p))
                break
    vals = np.array(vals)
    return float(np.einsum("qx,x,q->", vals, b - a, rule.weights))


def _face_dof_of(m, f, face):
    rule = make_quadrature("tri", 4)
    tri = m.vertices[m.faces[face]]
    t = [t for t in range(m.n_t) if face in m.tet_faces[t]][0]
    vals = np.array([eval_fe(f, t, lam @ tri) for lam in rule.points])
    nvec = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    return float(np.einsum("qx,x,q->", vals, nvec, rule.weights))


def test_hat_function_delta(tet1):
    for i in range(4):
        coeffs = np.zeros(4)
        coeffs[i] = 1.0
        f = FEFunction("lagrange", tet1, coeffs)
        for j in range(4):
            val = eval_fe(f, 0, tet1.vertices[j])
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_edge_basis_duality(tet1):
    for i in range(tet1.n_e):
        coeffs = np.zeros(tet1.n_e)
        coeffs[i] = 1.0
        f = FEFunction("edge", tet1, coeffs)
        for j in range(tet1.n_e):
            dof = _edge_dof_of(tet1, f, j)
            assert abs(dof - (1.0 if i == j else 0.0)) < 1e-12


def test_rt_basis_duality(tet1):
    for i in range(tet1.n_f):
        coeffs = np.zeros(tet1.n_f)
        coeffs[i] = 1.0
        f = FEFunction("face", tet1, coeffs)
        for j in range(tet1.n_f):
            dof = _face_dof_of(tet1, f, j)
            assert abs(dof - (1.0 if i == j else 0.0)) < 1e-12


def test_edge_basis_duality_on_cube(cube1):
    rng = np.random.default_rng(7)
    for i in rng.choice(cube1.n_e, size=5, replace=False):
        coeffs = np.zeros(cube1.n_e)
        coeffs[i] = 1.0
        f = FEFunction("edge", cube1, coeffs)
        for j in rng.choice(cube1.n_e, size=5, replace=False):
            dof = _edge_dof_of(cube1, f, int(j))
            assert abs(dof - (1.0 if i == j else 0.0)) < 1e-12


def test_partition_of_unity(cube1):
    f = FEFunction("lagrange", cube1, np.ones(cube1.n_v))
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, size=(10, 3))
    vals = eval_at_points(f, pts)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_differential_complex_exact(cube2):
    rng = np.random.default_rng(11)
    phi = FEFunction("lagrange", cube2, rng.standard_normal(cube2.n_v))
    curl_grad = differential(differential(phi))
    assert np.abs(curl_grad.coeffs).max() < 1e-14
    w = FEFunction("edge", cube2, rng.standard_normal(cube2.n_e))
    div_curl = differential(differential(w))
    # the matrix identity D.C = 0 is exact (see test_mesh); composing the
    # float evaluations leaves only rounding noise scaled by 1/vol
    assert np.abs(div_curl.coeffs).max() < 1e-12
    c = FEFunction("cell", cube2, rng.standard_normal(cube2.n_t))
    with pytest.raises(ElementError):
        differential(c)


def test_constant_field_interpolation(cube2):
    def u(p):
        return np.broadcast_to(np.array([1.0, 0.0, 0.0]), (len(p), 3)).copy()
    w = interpolate("edge", u, cube2)
    curl = differential(w)
    assert np.abs(curl.coeffs).max() < 1e-12
    r = interpolate("face", u, cube2)
    div = differential(r)
    assert np.abs(div.coeffs).max() < 1e-12


def test_pc_interpolation_of_one(cube2):
    g = interpolate("cell", lambda p: np.ones(len(p)), cube2)
    assert np.allclose(g.coeffs, 1.0, atol=1e-14)


def test_commuting_div_interpolation(cube2):
    def u(p):
        return np.column_stack([p[:, 0] ** 2, p[:, 1], np.zeros(len(p))])

    def div_u(p):
        return 2.0 * p[:, 0] + 1.0
    lhs = differential(interpolate("face", u, cube2))
    rhs = interpolate("cell", div_u, cube2)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def test_commuting_curl_interpolation(cube2, torus):
    # C I_N u = I_RT curl u: the curl data and the periods that the normal
    # solve takes from one field agree
    def grad_xyz(p):
        return np.column_stack([p[:, 1] * p[:, 2], p[:, 2] * p[:, 0],
                                p[:, 0] * p[:, 1]])

    def zero(p):
        return np.zeros((len(p), 3))
    mms1 = get_case("mms1")
    for m, u, curl_u in [(cube2, grad_xyz, zero), (cube2, mms1.u, mms1.J),
                         (torus, mms1.u, mms1.J)]:
        lhs = differential(interpolate("edge", u, m)).coeffs
        rhs = interpolate("face", curl_u, m).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_eval_outside_point_raises(tet1):
    f = zero_function("edge", tet1)
    with pytest.raises(ElementError):
        eval_fe(f, 0, np.array([2.0, 2.0, 2.0]))


def test_eval_roundtrip_rt(cube1):
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(cube1.n_f)
    f = FEFunction("face", cube1, coeffs)
    for j in rng.choice(cube1.n_f, size=6, replace=False):
        assert abs(_face_dof_of(cube1, f, int(j)) - coeffs[j]) < 1e-12


def test_wrong_coefficient_length_raises(tet1):
    with pytest.raises(ElementError):
        FEFunction("edge", tet1, np.zeros(5))


@pytest.mark.parametrize("fn,vector", [
    (lambda p: np.array([p[0], p[1], p[2]]), True),   # one point at a time
    (lambda p: np.zeros((len(p), 1)), False),
])
def test_eval_field_requires_vectorized_shape(fn, vector):
    points = np.random.default_rng(0).random((5, 3))
    with pytest.raises(ElementError):
        eval_field(fn, points, vector)


AFFINE_FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
                   "torus_cavity", "handle_torus_cavity"]


def _jittered_cube():
    """Cube n=6, each interior vertex moved by up to 0.2h per coordinate."""
    m = structured_cube_mesh(6)
    v = m.vertices.copy()
    inner = np.all((v > 0.0) & (v < 1.0), axis=1)
    rng = np.random.default_rng(7)
    v[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 3)) / 6.0
    return build_mesh(v, m.tets)


def _moved_cube():
    """Cube n=6 moved by 1e3: x - x_c taken from absolute coordinates
    loses about 1e-12 of it to cancellation."""
    m = structured_cube_mesh(6)
    return build_mesh(m.vertices + 1e3, m.tets)


@pytest.fixture(params=AFFINE_FIXTURES + ["jittered_cube", "moved_cube"])
def affine_mesh(request):
    if request.param == "jittered_cube":
        return _jittered_cube()
    if request.param == "moved_cube":
        return _moved_cube()
    return request.getfixturevalue(request.param)


def test_affine_form_matches_whitney_basis_values(affine_mesh):
    # centroid_values and field_values against the contraction of the
    # Whitney basis values, at the centroid, the degree-4 tet points and
    # random barycentric points, for random edge and face coefficients
    m = affine_mesh
    rng = np.random.default_rng(11)
    grads = m.tet_geometry[0]
    centre = np.full((1, 4), 0.25)
    for space, n, basis, conn in (("edge", m.n_e, edge_basis_values,
                                   m.tet_edges),
                                  ("face", m.n_f, rt_basis_values,
                                   m.tet_faces)):
        u = FEFunction(space, m, rng.standard_normal(n))
        for bary in (centre, make_quadrature("tet", 4).points,
                     rng.dirichlet(np.ones(4), 5)):
            want = np.einsum("tqix,ti->tqx", basis(grads, bary),
                             u.coeffs[conn])
            tol = 1e-14 * np.abs(want).max()
            assert np.abs(field_values(u, bary) - want).max() <= tol
            if bary is centre:
                assert np.abs(centroid_values(u) - want[:, 0]).max() <= tol
