import tracemalloc

import numpy as np
import pytest

from curldiv import build_mesh, error_norms, kernels, mesh, solver, write_vtk
from curldiv.cli import (ProblemConfig, compute_topology,
                         solution_residual_field, solve_on_mesh)
from curldiv.elements import FEFunction, face_fluxes, zero_function
from curldiv.meshes import structured_cube_mesh
from curldiv.mms import get_case
from curldiv.quadrature import make_quadrature
from curldiv.vtk import _barycenter_values
from quadrature_mass import tensor_mass
from whitney import edge_basis_values

FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
            "torus_cavity"]
# the local edges [a, b] of a sorted tet, lexicographic
_EA, _EB = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).T


def test_geometry_volumes(cube1):
    _, det = kernels.tet_geometry(cube1.vertices, cube1.tets)
    assert np.allclose(np.abs(det) / 6.0, cube1.volumes, atol=1e-15)


def test_barycentric_gradients_sum_to_zero(cube1):
    grads, _ = kernels.tet_geometry(cube1.vertices, cube1.tets)
    assert np.abs(grads.sum(axis=1)).max() < 1e-12


def test_geometry_kernel_runs_once_per_mesh(handle_cavity, tmp_path,
                                            monkeypatch):
    m = build_mesh(handle_cavity.vertices, handle_cavity.tets)
    calls = []
    kernel = kernels.tet_geometry
    monkeypatch.setattr(kernels, "tet_geometry",
                        lambda *args: calls.append(1) or kernel(*args))
    topo = compute_topology(m)
    for f in ("tangential", "normal"):
        sol, _ = solve_on_mesh(m, ProblemConfig(f, "mms1"), topo)
        write_vtk(m, sol.u_h, tmp_path / f"{f}.vtk",
                  residual=solution_residual_field(sol))
    assert len(calls) == 1


def test_each_mass_matrix_built_once_per_mesh(handle_cavity, monkeypatch):
    # a tangential and a normal solve build each matrix once: the
    # tangential load the P1 stiffness, which the normal K shares, before
    # the curl-curl K; no solve builds a mass matrix, RT or Nedelec
    m = build_mesh(handle_cavity.vertices, handle_cavity.tets)
    built = []
    build = mesh._global_matrix
    monkeypatch.setattr(mesh, "_global_matrix", lambda m, conn, dim, local:
                        built.append(local.__name__)
                        or build(m, conn, dim, local))
    topo = compute_topology(m)
    for f in ("tangential", "normal"):
        _, rep = solve_on_mesh(m, ProblemConfig(f, "mms1"), topo)
        assert rep["passed"]
    assert built == ["stiffness", "curl_curl"]
    for M in (m.curl_curl, m.gradient_stiffness):                # cached
        assert not any(a.flags.writeable
                       for a in (M.data, M.indices, M.indptr))
    assert built == ["stiffness", "curl_curl"]


def test_normal_K_is_the_stiffness_product_bitwise(handle_cavity):
    # K = mu A, A the cached P1 stiffness, which is G^T M_e G to round-off
    # (``_quadrature_matrices``)
    m = handle_cavity
    lift = zero_function("edge", m)
    A = m.gradient_stiffness
    for mu in (1.0, 2.5):
        K = solver.assemble_normal(get_case("mms1").normal(mu), lift).K
        for a, b in ((K.indptr, A.indptr), (K.indices, A.indices),
                     (K.data, mu * A.data)):
            assert np.array_equal(a, b)
        assert K.data.flags.writeable
    assert not A.data.flags.writeable


def _edge_basis_by_index(grads, lam):
    """Whitney edge functions at per-tet points (n, nq, 4), written out
    with the two barycentric coordinates of each edge taken separately."""
    la, lb = lam[:, :, _EA], lam[:, :, _EB]
    ga, gb = grads[:, _EA], grads[:, _EB]
    return la[:, :, :, None] * gb[:, None] - lb[:, :, :, None] * ga[:, None]


def test_edge_basis_values_per_tet_and_shared_points(handle_cavity):
    grads, _ = handle_cavity.tet_geometry
    lam = np.random.default_rng(0).dirichlet(np.ones(4), (len(grads), 5))
    assert np.array_equal(edge_basis_values(grads, lam),
                          _edge_basis_by_index(grads, lam))
    shared = make_quadrature("tet", 2).points
    per_tet = np.broadcast_to(shared, (len(grads),) + shared.shape)
    assert np.array_equal(edge_basis_values(grads, shared),
                          _edge_basis_by_index(grads, per_tet))


def _add_at(idx, local, n):
    out = np.zeros(n)
    np.add.at(out, idx.ravel(), local.ravel())
    return out


def _volume_points(m):
    """The degree VOLUME_DEGREE tet rule, the gradients and |6 volume| of
    every tet, inverted again, and the rule's points in them, flat."""
    rule = make_quadrature("tet", solver.VOLUME_DEGREE)
    grads, det = kernels.tet_geometry(m.vertices, m.tets)
    pts = np.einsum("qi,tix->tqx", rule.points, m.vertices[m.tets])
    return rule, grads, np.abs(det)[:, None], pts.reshape(-1, 3)


def _boundary_points(m):
    """The degree BOUNDARY_DEGREE tri rule on the boundary faces, its
    points (nbf, nq, 3), the outward normals, the 2*area scales, the owner
    tets of the faces, and their gradients, inverted again, and
    barycentric coords at the points."""
    b = m.boundary
    faces = b.boundary_faces
    frule = make_quadrature("tri", solver.BOUNDARY_DEGREE)
    fpts = np.einsum("qi,fix->fqx", frule.points, m.vertices[m.faces[faces]])
    nrm = m.face_normals[faces] * b.face_sign[faces, None]
    owners = m.face_tets[faces, 0]
    ograds, _ = kernels.tet_geometry(m.vertices, m.tets[owners])
    lam = np.einsum("fix,fqx->fqi", ograds,
                    fpts - m.vertices[m.tets[owners][:, 0]][:, None, :])
    lam[:, :, 0] += 1.0
    return (frule, fpts, nrm, 2.0 * m.face_areas[faces], owners, ograds,
            lam)


def _eval_a(a_fn, fpts, nrm):
    nbf, nq = fpts.shape[:2]
    return a_fn(fpts.reshape(-1, 3),
                np.repeat(nrm, nq, axis=0)).reshape(nbf, nq, 3)


def _reference_loads(m, J, g, a_fn, b_fn):
    """The edge, nodal, tangential boundary and scalar boundary loads with
    np.add.at scatters, over the whole mesh at once, the owner tets of the
    boundary faces inverted again; the edge loads from the vertex moments
    of the data (``kernels.edge_pairings``)."""
    rule, grads, vol, pts = _volume_points(m)
    moments = ((rule.points * rule.weights[:, None]).T
               @ J(pts).reshape(m.n_t, -1, 3))
    edge = _add_at(m.tet_edges, kernels.edge_pairings(grads, moments) * vol,
                   m.n_e)
    nodal = _add_at(m.tets, np.einsum(
        "qi,tq,q->ti", rule.points, g(pts).reshape(m.n_t, -1),
        rule.weights) * vol, m.n_v)

    frule, fpts, nrm, scale, owners, ograds, lam = _boundary_points(m)
    moments = lam.transpose(0, 2, 1) @ (_eval_a(a_fn, fpts, nrm) * (
        frule.weights[:, None] * scale[:, None, None]))
    moments -= (np.einsum("fix,fx->fi", moments, nrm)[:, :, None]
                * nrm[:, None, :])
    tangential = _add_at(m.tet_edges[owners],
                         kernels.edge_pairings(ograds, moments), m.n_e)
    nbf, nq = fpts.shape[:2]
    bvals = b_fn(fpts.reshape(-1, 3),
                 np.repeat(nrm, nq, axis=0)).reshape(nbf, nq)
    scalar = _add_at(m.faces[m.boundary.boundary_faces], np.einsum(
        "fq,qi,q,f->fi", bvals, frule.points, frule.weights, scale), m.n_v)
    return edge, nodal, tangential, scalar


@pytest.mark.parametrize("name", FIXTURES)
def test_loads_match_add_at_reference_bitwise(name, request):
    m = request.getfixturevalue(name)
    case = get_case("mms1")
    a_fn, b_fn = case.tangential(1.0).a, case.normal(1.0).b
    loads = (solver._edge_load(m, case.J), solver._nodal_load(m, case.g),
             solver._tangential_boundary_load(m, a_fn),
             solver._scalar_boundary_load(m, b_fn))
    for got, want in zip(loads, _reference_loads(m, case.J, case.g,
                                                 a_fn, b_fn)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", FIXTURES)
def test_edge_loads_match_basis_value_contraction(name, request):
    # the vertex moments against the edge functions evaluated at every
    # point, shared points in the tets and per-face ones on the boundary,
    # the data projected onto the tangent plane pointwise
    m = request.getfixturevalue(name)
    case = get_case("mms1")
    a_fn = case.tangential(1.0).a
    rule, grads, vol, pts = _volume_points(m)
    edge = _add_at(m.tet_edges, np.einsum(
        "tqix,tqx,q->ti", edge_basis_values(grads, rule.points),
        case.J(pts).reshape(m.n_t, -1, 3), rule.weights) * vol, m.n_e)
    frule, fpts, nrm, scale, owners, ograds, lam = _boundary_points(m)
    avals = _eval_a(a_fn, fpts, nrm)
    avals = avals - (np.einsum("fqx,fx->fq", avals, nrm)[:, :, None]
                     * nrm[:, None, :])
    tangential = _add_at(m.tet_edges[owners], np.einsum(
        "fqix,fqx,q,f->fi", _edge_basis_by_index(ograds, lam), avals,
        frule.weights, scale), m.n_e)
    _assert_close(solver._edge_load(m, case.J), edge)
    _assert_close(solver._tangential_boundary_load(m, a_fn), tangential)


def test_cross_matches_numpy_bitwise():
    # broadcast shapes as the package uses them, on values from 1e-300 to
    # 1e300, whose products overflow, underflow and subtract inf from inf
    rng = np.random.default_rng(5)
    for sa, sb in (((3,), (3,)), ((40, 3), (40, 3)), ((40, 3, 3), (40, 1, 3)),
                   ((40, 1, 3), (7, 3)), ((5, 6, 3), (3,))):
        a, b = (rng.standard_normal(s) * 10.0 ** rng.integers(-300, 300, s)
                for s in (sa, sb))
        with np.errstate(all="ignore"):
            got, want = kernels.cross(a, b), np.cross(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def _assert_matches(got, want):
    """got stores a subset of the entries of want, and equals it to
    round-off: the entries it does not store are round-off in want."""
    g, w = got.tocoo(), want.tocoo()
    assert set(zip(g.row, g.col)) <= set(zip(w.row, w.col))
    assert abs(got - want).max() <= 1e-14 * abs(want).max()


def _quadrature_matrices(m):
    """The curl-curl and P1 stiffness matrices of m, each with its oracle
    from the quadrature masses."""
    C, G = m.incidence.C, m.incidence.G
    return ((m.curl_curl, C.T @ tensor_mass(m, "face") @ C),
            (m.gradient_stiffness, G.T @ tensor_mass(m, "edge") @ G))


# the matrices have the unit coefficient; eta and mu scale them in the
# assembly, so the identity is the one tensor case left.  The closed forms
# keep the pattern of the quadrature path less the sums that cancel to
# 0.0 exactly, and its values to round-off.
@pytest.mark.parametrize("kind", ["identity"])
@pytest.mark.parametrize("name", FIXTURES)
def test_mass_matrices_match_tensor_coefficient_bitwise(name, kind, request):
    m = request.getfixturevalue(name)
    for got, want in _quadrature_matrices(m):
        _assert_matches(got, want)


@pytest.mark.parametrize("name", FIXTURES)
def test_stiffness_matrices_store_no_round_off(name, request):
    # on the Kuhn grids every zero of the exact K cancels to 0.0 from the
    # one determinant of each tet, and is not stored
    m = request.getfixturevalue(name)
    for K in (m.curl_curl, m.gradient_stiffness):
        a = np.abs(K.data)
        assert a.min() >= 1e-12 * a.max()


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


_UNIT = np.eye(4, 3, -1)                      # 0 and the unit vectors
_SLIVER = np.array([[0.0, 0, 0], [1, 1, 0], [1, 0, 1e-3], [0, 1, 1e-3]])
ONE_TETS = {"positive": (_UNIT, 1), "negative": (_UNIT[[0, 2, 1, 3]], -1),
            "sliver": (_SLIVER, -1),
            "negative sliver": (_SLIVER[[0, 2, 1, 3]], 1),
            "far sliver": (1e-3 * _SLIVER + [1e3, -2e3, 5e2], -1)}


@pytest.mark.parametrize("name", ONE_TETS)
def test_closed_form_masses_match_quadrature_on_one_tet(name):
    # the closed forms and the curl-free products against the degree 2
    # rule on tets of either orientation, flat ones, and a small one far
    # from the origin
    coords, orient = ONE_TETS[name]
    m = build_mesh(coords, [[0, 1, 2, 3]])
    assert m.tet_orient[0] == orient
    for got, want in _quadrature_matrices(m):
        _assert_close(got.toarray(), want.toarray())
    _check_curl_free_products(m, np.zeros((m.n_e, 0)))


def _check_curl_free_products(m, cocycles):
    """M_e u for the curl-free u = G phi (random phi) and each cocycle, and
    the lift loads of random RT and Nedelec lifts, against products with
    the quadrature masses."""
    rng = np.random.default_rng(0)
    C, G = m.incidence.C, m.incidence.G
    M_e = tensor_mass(m, "edge")
    for u in [G @ rng.standard_normal(m.n_v), *cocycles.T]:
        _assert_close(solver._curl_free_mass(m, u), M_e @ u)
    for space, n, want in (("face", m.n_f,
                            lambda v: C.T @ (tensor_mass(m, "face") @ v)),
                           ("edge", m.n_e, lambda v: G.T @ (M_e @ v))):
        lift = FEFunction(space, m, rng.standard_normal(n))
        _assert_close(solver._lift_load(lift), want(lift.coeffs))


@pytest.mark.parametrize("name", FIXTURES)
def test_curl_free_products_match_quadrature(name, request):
    hb = request.getfixturevalue(f"topo_{name}").homology
    _check_curl_free_products(request.getfixturevalue(name), hb.cocycles)


# tracemalloc peaks on structured_cube_mesh(8), 3,072 tets, at about 1.3
# times those measured with numpy 2.4 and scipy 1.17; the assembled edge
# mass that consistent_load built before it applied M_e per element peaked
# at 3.0 MB, and the quadrature edge mass before that and the whole-mesh
# passes that the last five replaced at 7.2, 4.9, 0.65, 1.7, 7.2 and 11.8
# MB.  The face passes peaked at 1.84 and 1.93 MB with the 36-point
# collapsed Gauss rule, and the edge loads at 1.27 and 1.20 MB with basis
# values at every point.  The error norms and the VTK centroid values
# peaked at 1.52, 2.17, 1.68 and 1.69 MB contracting Whitney basis values
# (tangential, normal, face, edge); their bounds are 1.3 times the peaks
# of the affine form.
PASS_PEAK_MB = {"curl_curl": 4.0, "gradient_stiffness": 1.9,
                "consistent_load": 1.0, "edge_load": 0.48,
                "nodal_load": 0.3, "tangential_boundary_load": 0.63,
                "face_fluxes": 1.72, "validate_tangential": 1.91,
                "tangential_error": 0.92, "normal_error": 1.08,
                "lift_load_rt": 0.85, "lift_load_nedelec": 0.6,
                "vtk_values_face": 0.81, "vtk_values_edge": 0.31}


def _element_passes(m):
    case = get_case("mms1")
    sols = {f: solver.Solution(FEFunction(s, m, np.ones(n)),
                               zero_function(s, m))
            for f, s, n in (("tangential", "face", m.n_f),
                            ("normal", "edge", m.n_e))}
    # the cube has no cocycle; the ones column stands in for one, so that
    # the M_e H pass runs too.  It is not in ker C (C 1 != 0), so its
    # M_e H is not the Nedelec mass product: this entry measures memory
    # only
    F, H = solver._edge_load(m, case.J), np.ones((m.n_e, 1))
    return {
        "curl_curl": lambda: m.curl_curl,
        "gradient_stiffness": lambda: m.gradient_stiffness,
        "consistent_load": lambda: solver.consistent_load(m, F, H),
        "edge_load": lambda: solver._edge_load(m, case.J),
        "nodal_load": lambda: solver._nodal_load(m, case.g),
        "tangential_boundary_load": lambda: solver._tangential_boundary_load(
            m, case.tangential(1.0).a),
        "face_fluxes": lambda: face_fluxes(case.J, m, np.arange(m.n_f)),
        "validate_tangential": lambda: solver.validate_tangential(
            case.tangential(1.0), m),
        "tangential_error": lambda: error_norms(sols["tangential"], case.u,
                                                case.g),
        "normal_error": lambda: error_norms(sols["normal"], case.u, case.J),
        "lift_load_rt": lambda: solver._lift_load(sols["tangential"].u_h),
        "lift_load_nedelec": lambda: solver._lift_load(sols["normal"].u_h),
        "vtk_values_face": lambda: _barycenter_values(sols["tangential"].u_h),
        "vtk_values_edge": lambda: _barycenter_values(sols["normal"].u_h)}


def test_element_passes_stay_within_memory_bounds():
    for run in _element_passes(structured_cube_mesh(1)).values():
        run()                               # the quadrature rules are cached
    m = structured_cube_mesh(8)
    m.tet_geometry, m.boundary, m.incidence, m.face_normals, m.face_areas
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in _element_passes(m).items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()
    assert all(peaks[k] <= PASS_PEAK_MB[k] for k in PASS_PEAK_MB), peaks


def test_normal_residual_field_matches_add_at_bitwise(handle_cavity):
    # the per-tet sum of |curl| over the four faces, against the np.add.at
    # scatter it replaced, on coefficients spanning 1e-300 to 1e300
    m = handle_cavity
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(m.n_e) * 10.0 ** rng.integers(-300, 300,
                                                                m.n_e)
    sol = solver.Solution(FEFunction("edge", m, coeffs),
                          zero_function("edge", m))
    curl = np.abs(m.incidence.C @ coeffs)[m.tet_faces]
    want = _add_at(np.repeat(np.arange(m.n_t), 4), curl, m.n_t)
    assert np.array_equal(solution_residual_field(sol), want)
