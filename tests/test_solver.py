import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from curldiv import (AssembledSystem, CoefficientField, CurlData,
                     DivergenceData, FEFunction, NormalProblem, SolverError,
                     TangentialProblem, assemble_normal, assemble_tangential,
                     build_L_star, build_N_star, build_mesh, component_fluxes,
                     curl_image_basis, cycle_period, error_norms, interpolate,
                     nedelec_potential, recover_solution, rt_potential,
                     solve_spd, validate_tangential)
from curldiv.cli import ProblemConfig, compute_topology, solve_on_mesh
from curldiv.elements import eval_at_points, eval_field
from curldiv.meshes import structured_cube_mesh
from curldiv.mms import get_case, normal_aware
from curldiv.quadrature import make_quadrature, subdivided_tri_rule
from curldiv.solver import _eval_boundary


def _zeros_v(p):
    return np.zeros((len(p), 3))


def _zeros_s(p):
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
    gb = build_N_star(topo_cube1.tree, topo_cube1.homology, cube1.n_e)
    lift = FEFunction("face", cube1, np.zeros(cube1.n_f))
    prob = TangentialProblem(CoefficientField.identity(), _zeros_v, _zeros_s,
                             _zeros_v, np.zeros(0))
    system = assemble_tangential(prob, cube1, gb, lift)
    S = curl_image_basis(gb, cube1).toarray()
    K_oracle = S.T @ _oracle_rt_mass(cube1) @ S
    K = system.K.toarray()
    assert np.abs(K - K_oracle).max() <= 1e-12 * np.abs(K_oracle).max()


def test_tangential_K_symmetric(cube2, topo_cube2):
    gb = build_N_star(topo_cube2.tree, topo_cube2.homology, cube2.n_e)
    lift = FEFunction("face", cube2, np.zeros(cube2.n_f))
    prob = TangentialProblem(CoefficientField.scalar(2.0), _zeros_v, _zeros_s,
                             _zeros_v, np.zeros(0))
    K = assemble_tangential(prob, cube2, gb, lift).K
    assert abs(K - K.T).max() <= 1e-12 * abs(K).max()


def test_tangential_zero_data_zero_rhs(cube1, topo_cube1):
    gb = build_N_star(topo_cube1.tree, topo_cube1.homology, cube1.n_e)
    lift = FEFunction("face", cube1, np.zeros(cube1.n_f))
    prob = TangentialProblem(CoefficientField.identity(), _zeros_v, _zeros_s,
                             _zeros_v, np.zeros(0))
    system = assemble_tangential(prob, cube1, gb, lift)
    assert np.abs(system.rhs).max() == 0.0


def test_normal_single_tet_is_p1_stiffness(tet1):
    topo = compute_topology(tet1)
    rb = build_L_star(tet1)
    lift = FEFunction("edge", tet1, np.zeros(tet1.n_e))
    prob = NormalProblem(CoefficientField.identity(), _zeros_v, _zeros_s,
                         _zeros_s, np.zeros(0))
    K = assemble_normal(prob, tet1, rb, lift).K.toarray()
    verts = tet1.vertices[tet1.tets[0]]
    A = np.vstack([np.ones(4), verts.T])
    grads = np.linalg.inv(A)[:, 1:]
    stiff = tet1.volumes[0] * (grads @ grads.T)
    expect = stiff[np.ix_(rb.retained, rb.retained)]
    assert np.abs(K - expect).max() <= 1e-12 * np.abs(expect).max()


def test_normal_zero_data_zero_rhs(cube1):
    rb = build_L_star(cube1)
    lift = FEFunction("edge", cube1, np.zeros(cube1.n_e))
    prob = NormalProblem(CoefficientField.identity(), _zeros_v, _zeros_s,
                         _zeros_s, np.zeros(0))
    system = assemble_normal(prob, cube1, rb, lift)
    assert np.abs(system.rhs).max() == 0.0


def test_solve_identity_system():
    rhs = np.array([3.0, -1.0, 2.0])
    s = AssembledSystem(K=sp.eye(3, format="csr"), rhs=rhs,
                        dof_map=np.arange(3))
    assert np.allclose(solve_spd(s), rhs, atol=1e-12)


def test_solve_random_spd():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((10, 10))
    K = sp.csr_matrix(B @ B.T + 10.0 * np.eye(10))
    x = rng.standard_normal(10)
    s = AssembledSystem(K=K, rhs=K @ x, dof_map=np.arange(10))
    assert np.abs(solve_spd(s, tol=1e-12) - x).max() <= 1e-9


def test_solve_zero_rhs_returns_zero():
    K = sp.eye(5, format="csr") * 2.0
    s = AssembledSystem(K=K, rhs=np.zeros(5), dof_map=np.arange(5))
    assert np.all(solve_spd(s) == 0.0)


def test_negative_curvature_detected():
    K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))   # indefinite
    s = AssembledSystem(K=K, rhs=np.array([1.0, -1.0]), dof_map=np.arange(2))
    with pytest.raises(SolverError):
        solve_spd(s)


def test_nonpositive_diagonal_detected():
    K = sp.csr_matrix(np.diag([1.0, -1.0]))
    s = AssembledSystem(K=K, rhs=np.ones(2), dof_map=np.arange(2))
    with pytest.raises(SolverError):
        solve_spd(s)


def test_galerkin_residual_after_solve(cube2, topo_cube2):
    # the residual equation rhs - K.W = 0 holds for every test function
    from curldiv.mms import get_case
    case = get_case("mms1")
    gb = build_N_star(topo_cube2.tree, topo_cube2.homology, cube2.n_e)
    g_h = interpolate("cell", case.g, cube2)
    lift = rt_potential(cube2, topo_cube2.boundary,
                        DivergenceData(g_h, np.zeros(0)))
    prob = TangentialProblem(CoefficientField.identity(), case.J, case.g,
                             case.a(), np.zeros(0))
    system = assemble_tangential(prob, cube2, gb, lift)
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


def test_validate_smooth_data_passes(cube2, topo_cube2):
    from curldiv.mms import get_case
    case = get_case("mms1")
    prob = TangentialProblem(CoefficientField.identity(), case.J, case.g,
                             case.a(), np.zeros(0))
    rep = validate_tangential(prob, cube2, topo_cube2.boundary)
    assert rep["warnings"] == []
    assert rep["div_check"] <= 1e-8
    assert rep["trace_check"] <= 1e-8
    assert any("harmonic" in s for s in rep["unchecked"])


def test_validate_flags_bad_divergence(cube1, topo_cube1):
    def Jbad(p):
        return np.column_stack([p[:, 0], np.zeros(len(p)), np.zeros(len(p))])
    prob = TangentialProblem(CoefficientField.identity(), Jbad, _zeros_s,
                             _zeros_v, np.zeros(0))
    rep = validate_tangential(prob, cube1, topo_cube1.boundary)
    assert rep["div_check"] > 1e-8
    assert rep["warnings"]


def test_scaling_equivariance(cube1, topo_cube1):
    from curldiv.mms import get_case
    case = get_case("mms2")
    c = 3.0
    gb = build_N_star(topo_cube1.tree, topo_cube1.homology, cube1.n_e)
    g_h = interpolate("cell", case.g, cube1)
    lift = rt_potential(cube1, topo_cube1.boundary,
                        DivergenceData(g_h, np.zeros(0)))

    def scaled_J(p):
        return c * case.J(p)
    a1 = case.a()
    prob1 = TangentialProblem(CoefficientField.identity(), case.J, case.g,
                              a1, np.zeros(0))
    a2 = case.a(CoefficientField.scalar(c))
    prob2 = TangentialProblem(CoefficientField.scalar(c), scaled_J, case.g,
                              a2, np.zeros(0))
    s1 = assemble_tangential(prob1, cube1, gb, lift)
    s2 = assemble_tangential(prob2, cube1, gb, lift)
    assert np.abs(s2.K.toarray() - c * s1.K.toarray()).max() <= \
        1e-12 * abs(s1.K).max() * c
    u1 = recover_solution("tangential", solve_spd(s1, tol=1e-12), gb, lift)
    u2 = recover_solution("tangential", solve_spd(s2, tol=1e-12), gb, lift)
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


def test_error_norms_of_representable_field(cube1, topo_cube1):
    # constants live in RT_h: the interpolant fed back gives zero error
    def u(p):
        return np.broadcast_to(np.array([1.0, 0.0, 0.0]), (len(p), 3)).copy()
    u_I = interpolate("face", u, cube1)
    lift = FEFunction("face", cube1, np.zeros(cube1.n_f))
    from curldiv.solver import Solution
    sol = Solution(kind="tangential", u_h=u_I, homogeneous=u_I, lift=lift,
                   reduced_coeffs=np.zeros(0))
    l2, graph = error_norms(sol, u, _zeros_s)
    assert l2 <= 1e-12 and graph <= 1e-12


def test_lift_independence_tangential(cube2, topo_cube2):
    # adding a curl field to the lift leaves the recovered solution unchanged
    from curldiv.mms import get_case
    case = get_case("mms2")
    gb = build_N_star(topo_cube2.tree, topo_cube2.homology, cube2.n_e)
    g_h = interpolate("cell", case.g, cube2)
    lift = rt_potential(cube2, topo_cube2.boundary,
                        DivergenceData(g_h, np.zeros(0)))
    rng = np.random.default_rng(23)
    z = rng.standard_normal(cube2.n_e)
    kernel = np.asarray(cube2.incidence.C @ z).ravel()
    lift2 = FEFunction("face", cube2, lift.coeffs + kernel)
    prob = TangentialProblem(CoefficientField.identity(), case.J, case.g,
                             case.a(), np.zeros(0))
    sols = []
    for lf in (lift, lift2):
        s = assemble_tangential(prob, cube2, gb, lf)
        sols.append(recover_solution("tangential",
                                     solve_spd(s, tol=1e-12), gb, lf))
    scale = 1.0 + np.abs(sols[0].u_h.coeffs).max()
    diff = np.abs(sols[0].u_h.coeffs - sols[1].u_h.coeffs).max()
    assert diff <= 1e-8 * scale


def _reference_validate(p, m, b, tol=1e-8):
    """Face-by-face validator: one refined flux per face, then for each
    boundary face a second flux and a Stokes circulation in a Python loop,
    with the scalar D[owner, f] as outward sign."""
    report = {"warnings": [], "div_check": None, "trace_check": None}
    frule = subdivided_tri_rule(4, 3)
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
        t = int(b.face_owner[int(f)])
        sign = m.incidence.D[t, int(f)]
        tri = m.vertices[m.faces[f]]
        Jv = eval_field(p.J, frule.points @ tri, vector=True)
        nvec = np.cross(tri[1] - tri[0], tri[2] - tri[0]) * sign
        fluxJ = float(np.einsum("qx,x,q->", Jv, nvec, frule.weights))
        nrm = nvec / np.linalg.norm(nvec)
        circ = 0.0
        loop = [(0, 1), (1, 2), (2, 0)] if sign > 0 else [(0, 2), (2, 1), (1, 0)]
        centroid = tri.mean(axis=0)
        for i, j in loop:
            epts = np.outer(1.0 - erule.points[:, 0], tri[i]) + \
                np.outer(erule.points[:, 0], tri[j])
            epts = epts + 1e-9 * (centroid - epts)
            nq = np.broadcast_to(nrm, (len(epts), 3))
            av = _eval_boundary(p.a, epts, nq, vector=True)
            circ += float(np.einsum("qx,x,q->", np.cross(nrm, av),
                                    tri[j] - tri[i], erule.weights))
        worst = max(worst, abs(fluxJ - circ))
    report["trace_check"] = worst
    if worst > tol:
        report["warnings"].append(
            f"J.n does not match the surface divergence of a "
            f"(worst face residual {worst:.3e})")
    return report


def _mms1_tangential(a=None):
    case = get_case("mms1")
    return TangentialProblem(CoefficientField.identity(), case.J, case.g,
                             case.a() if a is None else a, np.zeros(0))


@pytest.mark.parametrize("name", ["cube2", "torus", "hollow"])
def test_validate_matches_per_face_oracle(name, request):
    m = request.getfixturevalue(name)
    prob = _mms1_tangential()
    rep = validate_tangential(prob, m, m.boundary)
    ref = _reference_validate(prob, m, m.boundary)
    # points from a matmul differ from the einsum ones in the last ulp, so
    # the round-off-level residuals agree to round-off, not bit for bit
    assert abs(rep["div_check"] - ref["div_check"]) <= 1e-14
    assert abs(rep["trace_check"] - ref["trace_check"]) <= 1e-12
    assert rep["warnings"] == ref["warnings"]
    assert set(rep) == {"warnings", "div_check", "trace_check", "unchecked"}


@pytest.mark.parametrize("name", ["cube2", "torus", "hollow"])
def test_face_sign_matches_incidence(name, request):
    m = request.getfixturevalue(name)
    b = m.boundary
    faces = b.boundary_faces
    scalar = [m.incidence.D[int(b.face_owner[f]), int(f)] for f in faces]
    assert np.array_equal(b.face_sign[faces], scalar)
    assert set(np.unique(b.face_sign[faces])) == {-1, 1}
    interior = np.setdiff1d(np.arange(m.n_f), faces)
    assert np.all(b.face_sign[interior] == 0)


def test_validate_flags_wrong_tangential_datum(cube2):
    a = get_case("mms1").a()

    @normal_aware
    def a_twice(points, normals):
        return 2.0 * a(points, normals)
    rep = validate_tangential(_mms1_tangential(a_twice), cube2, cube2.boundary)
    assert rep["div_check"] <= 1e-8
    assert rep["trace_check"] > 1e-8
    assert any("surface divergence" in w for w in rep["warnings"])


def test_validate_memory_stays_blocked():
    m = structured_cube_mesh(8)
    b, _ = m.boundary, m.incidence              # cached outside the trace
    prob = _mms1_tangential()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        validate_tangential(prob, m, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 < 40.0
