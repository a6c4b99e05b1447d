import numpy as np
import pytest

from curldiv import build_mesh, kernels, solver, write_vtk
from curldiv.cli import (ProblemConfig, compute_topology,
                         solution_residual_field, solve_on_mesh)
from curldiv.elements import CoefficientField
from curldiv.mesh import LOCAL_EDGES
from curldiv.mms import get_case
from curldiv.quadrature import make_quadrature

FIXTURES = ["cube2", "torus", "hollow", "genus2", "handle_cavity",
            "torus_cavity"]
_EA, _EB = np.array(LOCAL_EDGES).T


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


def _edge_basis_by_index(grads, lam):
    """Whitney edge functions at per-tet points (n, nq, 4), written out
    with the two barycentric coordinates of each edge taken separately."""
    la, lb = lam[:, :, _EA], lam[:, :, _EB]
    ga, gb = grads[:, _EA], grads[:, _EB]
    return la[:, :, :, None] * gb[:, None] - lb[:, :, :, None] * ga[:, None]


def test_edge_basis_values_per_tet_and_shared_points(handle_cavity):
    grads, _ = handle_cavity.tet_geometry
    lam = np.random.default_rng(0).dirichlet(np.ones(4), (len(grads), 5))
    assert np.array_equal(kernels.edge_basis_values(grads, lam),
                          _edge_basis_by_index(grads, lam))
    shared = make_quadrature("tet", 2).points
    per_tet = np.broadcast_to(shared, (len(grads),) + shared.shape)
    assert np.array_equal(kernels.edge_basis_values(grads, shared),
                          _edge_basis_by_index(grads, per_tet))


def _add_at(idx, local, n):
    out = np.zeros(n)
    np.add.at(out, idx.ravel(), local.ravel())
    return out


def _reference_loads(m, J, g, a_fn, b_fn):
    """The edge, nodal, tangential boundary and scalar boundary loads with
    np.add.at scatters, the owner tets of the boundary faces inverted
    again and their edge functions written out index by index."""
    rule = make_quadrature("tet", solver.VOLUME_DEGREE)
    grads, det = kernels.tet_geometry(m.vertices, m.tets)
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    pts = pts.reshape(-1, 3)
    basis = kernels.edge_basis_values(grads, rule.points)
    edge = _add_at(m.tet_edges, kernels.local_vector_load(
        basis, det, rule.weights, J(pts).reshape(m.n_t, -1, 3)), m.n_e)
    nodal = _add_at(m.tets, kernels.local_scalar_load(
        rule.points, det, rule.weights, g(pts).reshape(m.n_t, -1)), m.n_v)

    b = m.boundary
    faces = b.boundary_faces
    frule = make_quadrature("tri", solver.BOUNDARY_DEGREE)
    fpts = np.einsum("qi,fix->fqx", frule.points, m.vertices[m.faces[faces]])
    nbf, nq = fpts.shape[:2]
    nrm = m.face_normals[faces] * b.face_sign[faces, None]
    nrm_q = np.repeat(nrm, nq, axis=0)
    scale = 2.0 * m.face_areas[faces]
    avals = a_fn(fpts.reshape(-1, 3), nrm_q).reshape(nbf, nq, 3)
    avals = avals - (np.einsum("fqx,fx->fq", avals, nrm)[:, :, None]
                     * nrm[:, None, :])
    owners = b.face_owner[faces]
    ograds, _ = kernels.tet_geometry(m.vertices, m.tets[owners])
    lam = np.einsum("fix,fqx->fqi", ograds,
                    fpts - m.vertices[m.tets[owners][:, 0]][:, None, :])
    lam[:, :, 0] += 1.0
    tangential = _add_at(m.tet_edges[owners], np.einsum(
        "fqix,fqx,q,f->fi", _edge_basis_by_index(ograds, lam), avals,
        frule.weights, scale), m.n_e)
    bvals = b_fn(fpts.reshape(-1, 3), nrm_q).reshape(nbf, nq)
    scalar = _add_at(m.faces[faces], np.einsum(
        "fq,qi,q,f->fi", bvals, frule.points, frule.weights, scale), m.n_v)
    return edge, nodal, tangential, scalar


@pytest.mark.parametrize("name", FIXTURES)
def test_loads_match_add_at_reference_bitwise(name, request):
    m = request.getfixturevalue(name)
    case = get_case("mms1")
    a_fn, b_fn = case.a(CoefficientField.identity()), case.b()
    loads = (solver._edge_load(m, case.J), solver._nodal_load(m, case.g),
             solver._tangential_boundary_load(m, a_fn),
             solver._scalar_boundary_load(m, b_fn))
    for got, want in zip(loads, _reference_loads(m, case.J, case.g,
                                                 a_fn, b_fn)):
        assert np.array_equal(got, want)
