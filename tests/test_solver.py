import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from curldiv import (AssembledSystem, CurlData, DivergenceData,
                     ElementError, FEFunction, LiftError, MMSCase,
                     NormalProblem, SolverError, TangentialProblem,
                     assemble_normal, assemble_tangential, build_mesh, cli,
                     clean_curl_data, discrete_alpha, discrete_beta,
                     error_norms, interpolate, nedelec_potential,
                     recover_solution, rt_potential, solve_spd, solver,
                     validate_tangential, write_gmsh)
from curldiv.cli import (ConfigError, ProblemConfig, compute_topology,
                         parse_config, solve_on_mesh)
from curldiv.elements import FACE_DEGREE, eval_field
from curldiv.meshes import structured_cube_mesh
from curldiv.mms import get_case
from curldiv.quadrature import make_quadrature
from curldiv.solver import (_eval_boundary, _scalar_boundary_load,
                            _tangential_boundary_load)
from fe_eval import eval_at_points
from gauged import gauged_solution, gauged_solve, gauged_system


def _zeros_v(p):
    return np.zeros((len(p), 3))


def _zeros_s(p):
    return np.zeros(len(p))


def _zeros_a(p, n):
    return np.zeros((len(p), 3))


def _zeros_b(p, n):
    return np.zeros(len(p))


def _oracle_rt_mass(m):
    """Dense RT mass matrix for eta = I from the analytic integral
    int_T lam_m lam_n = V (1 + delta_mn) / 20, independent of the kernels."""
    local_faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    M = np.zeros((m.n_f, m.n_f))
    for t in range(m.n_t):
        verts = m.vertices[m.tets[t]]
        A = np.vstack([np.ones(4), verts.T])
        inv = np.linalg.inv(A)
        grads = inv[:, 1:]                    # rows: barycentric gradients
        V = m.volumes[t]
        terms = []
        for (a, b, c) in local_faces:
            terms.append([(a, np.cross(grads[b], grads[c])),
                          (b, np.cross(grads[c], grads[a])),
                          (c, np.cross(grads[a], grads[b]))])
        for i in range(4):
            for j in range(4):
                s = 0.0
                for (mi, wi) in terms[i]:
                    for (nj, wj) in terms[j]:
                        s += (1.0 + (mi == nj)) / 20.0 * (wi @ wj)
                gi = m.tet_faces[t][i]
                gj = m.tet_faces[t][j]
                M[gi, gj] += 4.0 * V * s
    return M


def test_tangential_K_matches_dense_oracle(cube1, topo_cube1):
    lift = FEFunction("face", cube1, np.zeros(cube1.n_f))
    prob = TangentialProblem(1.0, _zeros_v,
                             _zeros_a)
    gb, system = gauged_system(prob, topo_cube1, lift)
    S = cube1.incidence.C.toarray()[:, gb]
    K_oracle = S.T @ _oracle_rt_mass(cube1) @ S
    K = system.K.toarray()
    assert np.abs(K - K_oracle).max() <= 1e-12 * np.abs(K_oracle).max()


def test_tangential_K_symmetric(cube2, topo_cube2):
    lift = FEFunction("face", cube2, np.zeros(cube2.n_f))
    prob = TangentialProblem(2.0, _zeros_v,
                             _zeros_a)
    K = gauged_system(prob, topo_cube2, lift)[1].K
    assert abs(K - K.T).max() <= 1e-12 * abs(K).max()


def test_tangential_zero_data_zero_rhs(cube1, topo_cube1):
    lift = FEFunction("face", cube1, np.zeros(cube1.n_f))
    prob = TangentialProblem(1.0, _zeros_v,
                             _zeros_a)
    system = gauged_system(prob, topo_cube1, lift)[1]
    assert np.abs(system.rhs).max() == 0.0


def test_normal_single_tet_is_p1_stiffness(tet1):
    lift = FEFunction("edge", tet1, np.zeros(tet1.n_e))
    prob = NormalProblem(1.0, _zeros_s, _zeros_b)
    K = assemble_normal(prob, lift).K.toarray()
    verts = tet1.vertices[tet1.tets[0]]
    A = np.vstack([np.ones(4), verts.T])
    grads = np.linalg.inv(A)[:, 1:]
    expect = tet1.volumes[0] * (grads @ grads.T)
    assert np.abs(K - expect).max() <= 1e-12 * np.abs(expect).max()


def test_normal_zero_data_zero_rhs(cube1):
    lift = FEFunction("edge", cube1, np.zeros(cube1.n_e))
    prob = NormalProblem(1.0, _zeros_s, _zeros_b)
    system = assemble_normal(prob, lift)
    assert np.abs(system.rhs).max() == 0.0


def test_solve_identity_system():
    rhs = np.array([3.0, -1.0, 2.0])
    s = AssembledSystem(K=sp.eye(3, format="csr"), rhs=rhs)
    assert np.allclose(solve_spd(s), rhs, atol=1e-12)


def test_solve_random_spd():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((10, 10))
    K = sp.csr_matrix(B @ B.T + 10.0 * np.eye(10))
    x = rng.standard_normal(10)
    s = AssembledSystem(K=K, rhs=K @ x)
    assert np.abs(solve_spd(s, tol=1e-12) - x).max() <= 1e-9


def test_solve_zero_rhs_returns_zero():
    K = sp.eye(5, format="csr") * 2.0
    s = AssembledSystem(K=K, rhs=np.zeros(5))
    assert np.all(solve_spd(s) == 0.0)


def test_negative_curvature_detected():
    K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))   # indefinite
    s = AssembledSystem(K=K, rhs=np.array([1.0, -1.0]))
    with pytest.raises(SolverError):
        solve_spd(s)


def test_nonpositive_diagonal_detected():
    K = sp.csr_matrix(np.diag([1.0, -1.0]))
    s = AssembledSystem(K=K, rhs=np.ones(2))
    with pytest.raises(SolverError):
        solve_spd(s)


def test_overflowing_curvature_raises_solver_error():
    # an SPD K of normal floats on which r.z = 4e307 stays finite and d.Kd
    # overflows; a zero r.z once ended in a bare ZeroDivisionError
    K = sp.csr_matrix(1e-307 * (0.001 * np.eye(16) + 0.999))
    with pytest.raises(SolverError, match="d.Kd = inf at iteration 0"):
        solve_spd(AssembledSystem(K=K, rhs=np.ones(16)))


def test_galerkin_residual_after_solve(cube2, topo_cube2):
    # the residual equation rhs - K.W = 0 holds for every test function
    from curldiv.mms import get_case
    case = get_case("mms1")
    g_h = interpolate("cell", case.g, cube2)
    lift = rt_potential(DivergenceData(g_h, np.zeros(0)))
    prob = case.tangential(1.0)
    system = gauged_system(prob, topo_cube2, lift)[1]
    W = solve_spd(system, tol=1e-12)
    resid = np.abs(system.rhs - system.K @ W).max()
    assert resid <= 1e-10 * (1.0 + np.abs(system.rhs).max())


def test_recovered_solution_contracts(cube2, topo_cube2):
    cfg = ProblemConfig("tangential", "mms1")
    sol, rep = solve_on_mesh(cube2, cfg, topo_cube2)
    g_h = interpolate("cell",
                      lambda p: np.ones(len(p)), cube2)
    div = cube2.incidence.D @ sol.u_h.coeffs / cube2.volumes
    scale = 1.0 + np.abs(sol.u_h.coeffs).max()
    assert np.abs(div - g_h.coeffs).max() <= 1e-10 * scale
    cfgn = ProblemConfig("normal", "mms1")
    soln, repn = solve_on_mesh(cube2, cfgn, topo_cube2)
    assert repn["passed"]


def test_validate_smooth_data_passes(cube2):
    from curldiv.mms import get_case
    case = get_case("mms1")
    prob = case.tangential(1.0)
    rep = validate_tangential(prob, cube2)
    assert rep["warnings"] == []
    assert rep["div_check"] <= 1e-8
    assert rep["trace_check"] <= 1e-8


def test_validate_flags_bad_divergence(cube1):
    def Jbad(p):
        return np.column_stack([p[:, 0], np.zeros(len(p)), np.zeros(len(p))])
    prob = TangentialProblem(1.0, Jbad, _zeros_a)
    rep = validate_tangential(prob, cube1)
    assert rep["div_check"] > 1e-8
    assert rep["warnings"]


def test_scaling_equivariance(cube1, topo_cube1):
    from curldiv.mms import get_case
    case = get_case("mms2")
    c = 3.0
    g_h = interpolate("cell", case.g, cube1)
    lift = rt_potential(DivergenceData(g_h, np.zeros(0)))

    gb, s1 = gauged_system(case.tangential(1.0), topo_cube1, lift)
    _, s2 = gauged_system(case.tangential(c), topo_cube1, lift)
    assert np.abs(s2.K.toarray() - c * s1.K.toarray()).max() <= \
        1e-12 * abs(s1.K).max() * c
    u1 = gauged_solution(gb, solve_spd(s1, tol=1e-12), lift)
    u2 = gauged_solution(gb, solve_spd(s2, tol=1e-12), lift)
    scale = np.abs(u1.u_h.coeffs).max()
    assert np.abs(u1.u_h.coeffs - u2.u_h.coeffs).max() <= 1e-8 * scale


def test_mesh_numbering_invariance():
    m1 = structured_cube_mesh(1)
    rng = np.random.default_rng(17)
    perm = rng.permutation(m1.n_v)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(m1.n_v)
    m2 = build_mesh(m1.vertices[perm], inv[m1.tets])
    probes = rng.uniform(0.1, 0.9, size=(10, 3))
    vals = []
    for m in (m1, m2):
        topo = compute_topology(m)
        sol, _ = solve_on_mesh(m, ProblemConfig("tangential", "mms2"), topo)
        vals.append(eval_at_points(sol.u_h, probes))
    scale = 1.0 + np.abs(vals[0]).max()
    assert np.abs(vals[0] - vals[1]).max() <= 1e-8 * scale


def _topology_of_a_copy(m):
    """The topology of m with its vertices renumbered: the counts, p and g
    of m, its cocycles and cycles on other edge ids."""
    perm = np.random.default_rng(3).permutation(m.n_v)
    vertices = np.empty_like(m.vertices)
    vertices[perm] = m.vertices
    return compute_topology(build_mesh(vertices, perm[m.tets]))


def test_tangential_assembly_rejects_topology_of_another_mesh(torus):
    case = get_case("mms1")
    lift = rt_potential(DivergenceData(interpolate("cell", case.g, torus),
                                       np.zeros(0)))
    hb = _topology_of_a_copy(torus).homology
    with pytest.raises(SolverError, match="another mesh than the lift"):
        assemble_tangential(case.tangential(1.0), lift, hb)


@pytest.mark.parametrize("formulation,error", [("tangential", SolverError),
                                               ("normal", LiftError)])
def test_solve_rejects_topology_of_another_mesh(torus, formulation, error):
    topo = _topology_of_a_copy(torus)
    with pytest.raises(error, match="another mesh"):
        solve_on_mesh(torus, ProblemConfig(formulation, "mms1"), topo)


def test_error_norms_of_representable_field(cube1, topo_cube1):
    # constants live in RT_h: the interpolant fed back gives zero error
    def u(p):
        return np.broadcast_to(np.array([1.0, 0.0, 0.0]), (len(p), 3)).copy()
    u_I = interpolate("face", u, cube1)
    lift = FEFunction("face", cube1, np.zeros(cube1.n_f))
    from curldiv.solver import Solution
    sol = Solution(u_h=u_I, lift=lift)
    l2, graph = error_norms(sol, u, _zeros_s)
    assert l2 <= 1e-12 and graph <= 1e-12


def test_lift_independence_tangential(cube2, topo_cube2):
    # adding a curl field to the lift leaves the recovered solution unchanged
    from curldiv.mms import get_case
    case = get_case("mms2")
    g_h = interpolate("cell", case.g, cube2)
    lift = rt_potential(DivergenceData(g_h, np.zeros(0)))
    rng = np.random.default_rng(23)
    z = rng.standard_normal(cube2.n_e)
    kernel = np.asarray(cube2.incidence.C @ z).ravel()
    lift2 = FEFunction("face", cube2, lift.coeffs + kernel)
    prob = case.tangential(1.0)
    sols = [gauged_solve(prob, topo_cube2, lf, tol=1e-12)
            for lf in (lift, lift2)]
    scale = 1.0 + np.abs(sols[0].u_h.coeffs).max()
    diff = np.abs(sols[0].u_h.coeffs - sols[1].u_h.coeffs).max()
    assert diff <= 1e-8 * scale


def _reference_validate(p, m, b, tol=1e-8):
    """Face-by-face validator: one flux per face by the face rule of the RT
    interpolant, then for each boundary face a second flux and a Stokes
    circulation in a Python loop, with the scalar D[owner, f] as outward
    sign; both residuals over 1 + the largest flux."""
    report = {"warnings": [], "div_check": None, "trace_check": None}
    frule = make_quadrature("tri", FACE_DEGREE)
    fverts = m.vertices[m.faces]
    fpts = np.einsum("qi,fix->fqx", frule.points, fverts)
    Jv = eval_field(p.J, fpts.reshape(-1, 3), vector=True)
    Jv = Jv.reshape(m.n_f, -1, 3)
    nvec = np.cross(fverts[:, 1] - fverts[:, 0], fverts[:, 2] - fverts[:, 0])
    flux = np.einsum("fqx,fx,q->f", Jv, nvec, frule.weights)
    scale = 1.0 + np.abs(flux).max()
    div_resid = float(np.abs(m.incidence.D @ flux).max() / scale)
    report["div_check"] = div_resid
    if div_resid > tol:
        report["warnings"].append(
            f"J is not divergence free (face-flux residual {div_resid:.3e})")
    erule = make_quadrature("edge", 15)
    worst = 0.0
    for f in np.asarray(b.boundary_faces, dtype=np.int64):
        t = int(m.face_tets[f, 0])
        sign = m.incidence.D[t, int(f)]
        tri = m.vertices[m.faces[f]]
        Jv = eval_field(p.J, frule.points @ tri, vector=True)
        nvec = np.cross(tri[1] - tri[0], tri[2] - tri[0]) * sign
        fluxJ = float(np.einsum("qx,x,q->", Jv, nvec, frule.weights))
        nrm = nvec / np.linalg.norm(nvec)
        circ = 0.0
        loop = [(0, 1), (1, 2), (2, 0)] if sign > 0 else [(0, 2), (2, 1), (1, 0)]
        for i, j in loop:
            epts = np.outer(1.0 - erule.points[:, 0], tri[i]) + \
                np.outer(erule.points[:, 0], tri[j])
            nq = np.broadcast_to(nrm, (len(epts), 3))
            av = _eval_boundary(p.a, epts, nq, vector=True)
            circ += float(np.einsum("qx,x,q->", np.cross(nrm, av),
                                    tri[j] - tri[i], erule.weights))
        worst = max(worst, abs(fluxJ - circ) / scale)
    report["trace_check"] = worst
    if worst > tol:
        report["warnings"].append(
            f"J.n does not match the surface divergence of a "
            f"(worst face residual {worst:.3e})")
    return report


def _mms1_tangential(a=None):
    prob = get_case("mms1").tangential(1.0)
    return prob if a is None else TangentialProblem(prob.eta, prob.J, a)


@pytest.mark.parametrize("name", ["cube2", "torus", "hollow"])
def test_validate_matches_per_face_oracle(name, request):
    m = request.getfixturevalue(name)
    prob = _mms1_tangential()
    rep = validate_tangential(prob, m)
    ref = _reference_validate(prob, m, m.boundary)
    # points from a matmul differ from the einsum ones in the last ulp, so
    # the round-off-level residuals agree to round-off, not bit for bit
    assert abs(rep["div_check"] - ref["div_check"]) <= 1e-14
    assert abs(rep["trace_check"] - ref["trace_check"]) <= 1e-12
    assert rep["warnings"] == ref["warnings"]
    assert set(rep) == {"warnings", "div_check", "trace_check"}


# on cube2 (h = 1/2) the face fluxes of the degree-10 face rule err by
# about 1.2e-13, as div_check reads there too; the circulations are exact
@pytest.mark.parametrize("name, bound", [("cube2", 1e-12), ("torus", 1e-14),
                                         ("hollow", 1e-14)])
def test_trace_check_of_consistent_data_is_quadrature_error(name, bound,
                                                            request):
    # the edge points lie on the face edges: a moved loop, such as one
    # shrunk by 1e-9 towards the centroid, reads 1e-10 here
    m = request.getfixturevalue(name)
    assert validate_tangential(_mms1_tangential(), m)["trace_check"] <= bound


@pytest.mark.parametrize("name", ["cube2", "torus", "hollow"])
def test_face_sign_matches_incidence(name, request):
    m = request.getfixturevalue(name)
    b = m.boundary
    faces = b.boundary_faces
    # the boundary faces are the columns of D with one entry, its sign
    D = m.incidence.D.tocsc()
    assert np.array_equal(np.flatnonzero(np.diff(D.indptr) == 1), faces)
    assert np.array_equal(b.face_sign[faces], D.data[D.indptr[faces]])
    assert set(np.unique(b.face_sign[faces])) == {-1, 1}
    interior = np.setdiff1d(np.arange(m.n_f), faces)
    assert np.all(b.face_sign[interior] == 0)


def test_validate_flags_wrong_tangential_datum(cube2):
    a = _mms1_tangential().a

    def a_twice(points, normals):
        return 2.0 * a(points, normals)
    rep = validate_tangential(_mms1_tangential(a_twice), cube2)
    assert rep["div_check"] <= 1e-8
    assert rep["trace_check"] > 1e-8
    assert any("surface divergence" in w for w in rep["warnings"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_counts_non_finite_data(cube2, bad):
    # a that is not finite on the boundary face edges at x = 1/2: the
    # trace check takes its max over the other faces, warns with their
    # count and the first of them, and the report stays valid JSON
    a = _mms1_tangential().a

    def a_bad(points, normals):
        return np.where(np.isclose(points[:, :1], 0.5), bad,
                        a(points, normals))
    rep = validate_tangential(_mms1_tangential(a_bad), cube2)
    ok = validate_tangential(_mms1_tangential(), cube2)
    faces = cube2.boundary.boundary_faces
    on_line = faces[np.isclose(cube2.vertices[cube2.faces[faces], 0],
                               0.5).sum(axis=1) >= 2]
    assert len(on_line) and rep["div_check"] == ok["div_check"]
    assert 0.0 <= rep["trace_check"] <= ok["trace_check"]
    assert rep["warnings"] == [
        f"trace_check leaves out {len(on_line)} faces with non-finite data "
        f"(first face {on_line[0]})"]
    json.dumps(rep, allow_nan=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_counts_non_finite_fluxes(cube2, bad):
    # J not finite at x > 3/4: the fluxes of the faces there leave both
    # checks, and each check warns once
    J = _mms1_tangential().J

    def J_bad(points):
        return np.where(points[:, :1] > 0.75, bad, J(points))
    rep = validate_tangential(
        TangentialProblem(1.0, J_bad, _mms1_tangential().a), cube2)
    assert np.isfinite(rep["div_check"]) and np.isfinite(rep["trace_check"])
    assert [w.split(" leaves out")[0] for w in rep["warnings"]] == [
        "div_check", "trace_check"]
    json.dumps(rep, allow_nan=False)


def test_validate_memory_stays_blocked():
    m = structured_cube_mesh(8)
    b, _ = m.boundary, m.incidence              # cached outside the trace
    prob = _mms1_tangential()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        validate_tangential(prob, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 < 40.0


def _a_flat(points, normals):
    return np.zeros(len(points))


def _b_vector(points, normals):
    return np.zeros((len(points), 3))


@pytest.mark.parametrize("use", ["tangential_load", "scalar_load",
                                 "validate"])
def test_boundary_datum_of_wrong_shape_raises(cube2, use):
    # every boundary datum goes through the shape check of eval_field
    with pytest.raises(ElementError, match="expected"):
        if use == "tangential_load":
            _tangential_boundary_load(cube2, _a_flat)
        elif use == "scalar_load":
            _scalar_boundary_load(cube2, _b_vector)
        else:
            prob = TangentialProblem(1.0, _zeros_v,
                                     _a_flat)
            validate_tangential(prob, cube2)


def test_scalar_coefficient_mms_converges_like_identity():
    # the built-in cases scale their data by a constant coefficient, so the
    # solution is that of the identity and the MMS error falls at order 1
    case = get_case("mms1")
    graph = {"tangential": [], "normal": []}
    for n in (2, 4, 8):
        m = structured_cube_mesh(n)
        topo = compute_topology(m)
        for f, diff in (("tangential", case.g), ("normal", case.J)):
            sol, rep = solve_on_mesh(m, ProblemConfig(
                f, "mms1", coefficient=2.5), topo)
            ref, _ = solve_on_mesh(m, ProblemConfig(f, "mms1"), topo)
            assert rep["passed"]
            assert rep.get("validation", {}).get("warnings", []) == []
            u, u_ref = sol.u_h.coeffs, ref.u_h.coeffs
            assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
            graph[f].append(error_norms(sol, case.u, diff)[1])
    for f, errs in graph.items():
        rates = np.log2(np.array(errs[:-1]) / errs[1:])     # h halves
        assert rates.min() >= 0.85, (f, errs)


@pytest.mark.parametrize("coef", [1e-200, 1e-165, 1e155, 1e200])
def test_scalar_coefficient_far_from_1_solves_like_identity(coef):
    # |rhs|^2 once overflowed or underflowed here: CG stopped after one
    # step or returned zeros, the tangential load skipped its projection,
    # and the report still passed with an L2 error near 1.5
    m = structured_cube_mesh(3)
    topo = compute_topology(m)
    for f in ("tangential", "normal"):
        sol, rep = solve_on_mesh(m, ProblemConfig(f, "mms1",
                                                  coefficient=coef), topo)
        ref, ref_rep = solve_on_mesh(m, ProblemConfig(f, "mms1"), topo)
        assert rep["passed"]
        u, u_ref = sol.u_h.coeffs, ref.u_h.coeffs
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        want = ref_rep["checks"].get("load_compatibility", {})
        for part, value in want.items():
            got = rep["checks"]["load_compatibility"][part]
            assert abs(got - value) <= 1e-12


@pytest.mark.parametrize("end", [0, 1])
def test_coefficient_range_is_pinned_at_both_ends(end, tmp_path, capsys):
    # each end of the range gives the c = 1 u_h; the next float beyond it
    # is a package error, and exit code 1 from ``curldiv solve``.  Before
    # the range, c = 5e-324 passed with a tangential u_h 0.93 off
    inside = solver.COEFFICIENT_RANGE[end]
    outside = np.nextafter(inside, (0.0, np.inf)[end])
    m = structured_cube_mesh(3)
    topo = compute_topology(m)
    for f in ("tangential", "normal"):
        sol, rep = solve_on_mesh(m, ProblemConfig(f, "mms1",
                                                  coefficient=inside), topo)
        ref, _ = solve_on_mesh(m, ProblemConfig(f, "mms1"), topo)
        assert rep["passed"]
        u, u_ref = sol.u_h.coeffs, ref.u_h.coeffs
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    for make in (TangentialProblem, NormalProblem):
        with pytest.raises(SolverError, match=r"\[2\*\*-768, 2\*\*768\]"):
            make(outside, None, None)
    config = {"formulation": "tangential", "case": "mms1",
              "coefficient": {"kind": "scalar", "value": float(outside)}}
    with pytest.raises(ConfigError, match="finite and > 0"):
        parse_config(config)
    write_gmsh(tmp_path / "cube.msh", m.vertices, m.tets)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["solve", "--mesh", str(tmp_path / "cube.msh"),
                     "--config", str(tmp_path / "config.json")]) == 1
    assert "2**-768" in capsys.readouterr().err


@pytest.mark.parametrize("coef", [100.0, 1e100])
def test_validate_residuals_scale_with_the_data(coef):
    # both residuals are relative to the fluxes of J, which scale with c:
    # consistent data passes at any c (the absolute trace residual warned
    # here from c = 100 on), and a wrong datum warns at any c
    m = structured_cube_mesh(3)
    prob = get_case("mms1").tangential(coef)
    assert validate_tangential(prob, m)["warnings"] == []

    def a_twice(points, normals):
        return 2.0 * prob.a(points, normals)
    rep = validate_tangential(TangentialProblem(coef, prob.J, a_twice), m)
    assert any("surface divergence" in w for w in rep["warnings"])


def _scaled_mms1_u_h(m, topo, formulation, c, s):
    """u_h of mms1 at coefficient c with every datum, J, g, a, b, alpha and
    beta, times s: the steps of ``solve_on_mesh`` on the case s u."""
    base = get_case("mms1")
    case = MMSCase("scaled", u=lambda x: s * base.u(x),
                   J=lambda x: s * base.J(x), g=lambda x: s * base.g(x))
    hb = topo.homology
    if formulation == "tangential":
        lift = rt_potential(DivergenceData(
            interpolate("cell", case.g, m), discrete_alpha(case, m)))
        system = assemble_tangential(case.tangential(c), lift, hb)
    else:
        J_h = clean_curl_data(interpolate("face", case.J, m))
        lift = nedelec_potential(hb, CurlData(J_h, discrete_beta(case, hb)))
        system = assemble_normal(case.normal(c), lift)
    return recover_solution(solve_spd(system), lift).u_h.coeffs


@settings(max_examples=8, deadline=None)
@given(k=st.integers(-40, 40))
def test_u_h_is_covariant_under_power_of_two_scaling(k, handle_cavity,
                                                     topo_handle_cavity):
    # a power of two scales every float of the pipeline exactly, so c
    # times 2^k gives the same u_h bit for bit, and the data times 2^k
    # give u_h times 2^k bit for bit (p = g = 1, so alpha and beta count)
    m, topo = handle_cavity, topo_handle_cavity
    for f in ("tangential", "normal"):
        u = _scaled_mms1_u_h(m, topo, f, 2.5, 1.0)
        assert _scaled_mms1_u_h(m, topo, f, 2.5 * 2.0**k,
                                1.0).tobytes() == u.tobytes()
        assert _scaled_mms1_u_h(m, topo, f, 2.5,
                                2.0**k).tobytes() == (u * 2.0**k).tobytes()


@pytest.mark.parametrize("name", ["cube2", "torus", "handle_cavity"])
def test_curl_data_defect_reported(name, request):
    # the clean_curl_data correction of I_RT J is at round-off for smooth J,
    # and exactly 0.0 when I_RT J = 0
    m = request.getfixturevalue(name)
    topo = request.getfixturevalue(f"topo_{name}")
    _, rep = solve_on_mesh(m, ProblemConfig("normal", "mms1"), topo)
    assert 0.0 <= rep["checks"]["curl_data_defect"] <= 1e-12
    _, rep = solve_on_mesh(m, ProblemConfig("normal", "constant"), topo)
    assert rep["checks"]["curl_data_defect"] == 0.0


@pytest.mark.parametrize("coef", [0.0, -1.0, float("inf"), float("nan")])
def test_bad_coefficient_rejected_before_cg(cube1, topo_cube1, monkeypatch,
                                            coef):
    # one check, when the problem is made: no lift, assembly or CG runs
    def no_cg(*args, **kwargs):
        raise AssertionError("CG ran on a bad coefficient")
    monkeypatch.setattr(solver, "solve_spd", no_cg)
    monkeypatch.setattr(cli, "solve_spd", no_cg)
    for f in ("tangential", "normal"):
        with pytest.raises(SolverError, match="finite and > 0"):
            solve_on_mesh(cube1, ProblemConfig(f, "mms1", coefficient=coef),
                          topo_cube1)
    with pytest.raises(SolverError, match="finite and > 0"):
        TangentialProblem(coef, _zeros_v, _zeros_a)
    with pytest.raises(SolverError, match="finite and > 0"):
        NormalProblem(coef, _zeros_s, _zeros_b)
