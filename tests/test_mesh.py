import numpy as np
import pytest

from curldiv import MeshError, build_mesh
from curldiv.meshes import single_tet_mesh, structured_cube_mesh


def test_single_tet_counts(tet1):
    assert (tet1.n_v, tet1.n_e, tet1.n_f, tet1.n_t) == (4, 6, 4, 1)


def test_cube_counts_and_euler(cube1):
    assert (cube1.n_v, cube1.n_e, cube1.n_f, cube1.n_t) == (8, 19, 18, 6)
    assert cube1.euler_characteristic == 1


def test_euler_characteristic_fixtures(cube2, torus, hollow):
    # 1 - g + p: cube 1, solid torus 0, hollow ball 2
    assert cube2.euler_characteristic == 1
    assert torus.euler_characteristic == 0
    assert hollow.euler_characteristic == 2


def test_degenerate_tet_rejected():
    coords = np.eye(4, 3)
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 2]])
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(MeshError):
        build_mesh(flat, [[0, 1, 2, 3]])


def test_bad_indices_and_duplicates_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 4]])
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 3], [0, 1, 3, 2]])


def test_nonmanifold_face_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                       [0, 0, 1], [0, 0, -1], [1, 1, 1]])
    # three tets share face (0,1,2)
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])


def test_sorted_index_convention(cube2):
    assert np.all(cube2.edges[:, 0] < cube2.edges[:, 1])
    assert np.all(cube2.faces[:, 0] < cube2.faces[:, 1])
    assert np.all(cube2.faces[:, 1] < cube2.faces[:, 2])
    assert np.all(np.diff(cube2.tets, axis=1) > 0)


@pytest.mark.parametrize("fixture", ["tet1", "cube1", "cube2", "torus",
                                     "hollow"])
def test_complex_identities_exact(fixture, request):
    m = request.getfixturevalue(fixture)
    inc = m.incidence
    CG = (inc.C @ inc.G).toarray()
    DC = (inc.D @ inc.C).toarray()
    assert CG.dtype.kind == "i" and np.all(CG == 0)
    assert DC.dtype.kind == "i" and np.all(DC == 0)


def test_G_row_signs(tet1):
    # edge [v0, v1] -> -1 at v0, +1 at v1
    G = tet1.incidence.G.toarray()
    e01 = tet1.edge_index[(0, 1)]
    assert list(G[e01]) == [-1, 1, 0, 0]


def test_C_row_matches_face_cycle(tet1):
    # face [v0, v1, v2]: +1 on [0,1] and [1,2], -1 on [0,2]
    C = tet1.incidence.C.toarray()
    f = tet1.face_index[(0, 1, 2)]
    row = C[f]
    assert row[tet1.edge_index[(0, 1)]] == 1
    assert row[tet1.edge_index[(1, 2)]] == 1
    assert row[tet1.edge_index[(0, 2)]] == -1


def test_D_sign_is_outward(tet1):
    D = tet1.incidence.D.toarray()[0]
    centroid = tet1.vertices.mean(axis=0)
    for f in range(tet1.n_f):
        fc = tet1.vertices[tet1.faces[f]].mean(axis=0)
        outward = fc - centroid
        assert D[f] * (tet1.face_normals[f] @ outward) > 0


def test_boundary_components(cube1, torus, hollow):
    assert cube1.boundary.p == 0
    assert torus.boundary.p == 0
    assert hollow.boundary.p == 1
    b = hollow.boundary
    ext = b.components[b.external_index]
    internal = [c for r, c in enumerate(b.components) if r != b.external_index]
    ext_pts = hollow.vertices[np.unique(hollow.faces[ext])]
    int_pts = hollow.vertices[np.unique(hollow.faces[internal[0]])]
    assert ext_pts.min() < int_pts.min() and ext_pts.max() > int_pts.max()


def test_boundary_edges_shared_by_two_component_faces(torus):
    b = torus.boundary
    for comp in b.components:
        count = {}
        for f in comp:
            fa, fb, fc = torus.faces[f]
            for e in ((fa, fb), (fa, fc), (fb, fc)):
                count[e] = count.get(e, 0) + 1
        assert all(v == 2 for v in count.values())


def test_face_normals_unit_and_rhr(cube1):
    norms = np.linalg.norm(cube1.face_normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-14)
    f0 = cube1.faces[0]
    v = cube1.vertices[f0]
    expect = np.cross(v[1] - v[0], v[2] - v[0])
    expect /= np.linalg.norm(expect)
    assert np.allclose(cube1.face_normals[0], expect, atol=1e-14)


def test_build_deterministic():
    a = structured_cube_mesh(2)
    b = structured_cube_mesh(2)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.tets, b.tets)


def test_volumes_positive_and_sum(cube2):
    assert np.all(cube2.volumes > 0)
    assert abs(cube2.volumes.sum() - 1.0) < 1e-12


def test_disconnected_mesh_rejected():
    coords = np.vstack([np.eye(4, 3), np.eye(4, 3) + 10.0])
    coords[0] = [0.1, 0.1, 0.1]
    coords[4] = [10.1, 10.1, 10.1]
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 3], [4, 5, 6, 7]])


def _reference_sub_simplices(tets):
    """Edges, faces, tet_edges and tet_faces by the dict loop over tets."""
    from curldiv.mesh import LOCAL_EDGES, LOCAL_FACES
    edge_set, face_set = {}, {}
    for row in tets.tolist():
        for (i, j) in LOCAL_EDGES:
            edge_set[(row[i], row[j])] = None
        for (i, j, k) in LOCAL_FACES:
            face_set[(row[i], row[j], row[k])] = None
    edges = np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    faces = np.array(sorted(face_set), dtype=np.int64).reshape(-1, 3)
    eidx = {e: i for i, e in enumerate(map(tuple, edges.tolist()))}
    fidx = {f: i for i, f in enumerate(map(tuple, faces.tolist()))}
    tet_edges = np.array([[eidx[(r[i], r[j])] for (i, j) in LOCAL_EDGES]
                          for r in tets.tolist()], dtype=np.int64)
    tet_faces = np.array([[fidx[(r[i], r[j], r[k])] for (i, j, k) in LOCAL_FACES]
                          for r in tets.tolist()], dtype=np.int64)
    return edges, faces, tet_edges, tet_faces


@pytest.mark.parametrize("fixture", ["tet1", "cube2", "torus", "hollow",
                                     "torus_cavity"])
@pytest.mark.parametrize("seed", [None, 3])
def test_sub_simplices_match_reference(fixture, seed, request):
    m = request.getfixturevalue(fixture)
    if seed is not None:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(m.n_v)
        coords = np.empty_like(m.vertices)
        coords[perm] = m.vertices
        m = build_mesh(coords, rng.permuted(perm[m.tets], axis=1))
    for got, want in zip((m.edges, m.faces, m.tet_edges, m.tet_faces),
                         _reference_sub_simplices(m.tets)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_boundary_that_is_not_a_closed_surface_rejected():
    # two tets sharing only the edge (0, 1): four boundary faces meet there
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [0, -1, 0], [0, 0, -1]])
    m = build_mesh(coords, [[0, 1, 2, 3], [0, 1, 4, 5]])
    with pytest.raises(MeshError, match="not a closed surface"):
        m.boundary
