import itertools
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from curldiv import (MeshError, build_mesh, hollow_ball_mesh,
                     solid_torus_mesh)
from curldiv.mesh import connected_components
from curldiv.meshes import _KUHN_PATHS, _grid_mesh, structured_cube_mesh
from edge_lookup import edge_ids

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


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


def test_bad_indices_and_duplicates_rejected(cube2):
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 4]])
    with pytest.raises(MeshError):
        build_mesh(coords, [[0, 1, 2, 3], [0, 1, 3, 2]])
    # the lowest repeated tet and its first copy, whatever else is wrong
    tets = cube2.tets.tolist()
    tets.insert(20, tets[5][::-1])
    tets.insert(48, tets[5])
    with pytest.raises(MeshError, match=r"^duplicate tet 20 \(same vertices "
                                        r"as 5\)$"):
        build_mesh(cube2.vertices, tets)
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [0, 0, -1], [1, 1, 1], [1, 1, 0]])
    # with a face of four tets
    with pytest.raises(MeshError, match=r"^duplicate tet 3 \(same vertices "
                                        r"as 1\)$"):
        build_mesh(coords, [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5],
                            [4, 2, 1, 0]])
    # of a flat tet
    with pytest.raises(MeshError, match=r"^duplicate tet 2 \(same vertices "
                                        r"as 1\)$"):
        build_mesh(coords, [[0, 1, 2, 3], [6, 1, 2, 0], [0, 2, 6, 1]])


@pytest.mark.parametrize("tets", [
    [[0, 1, 2, 3.7]], [["0", "1", "2", "3"]], [[0, 1, 2, np.nan]],
    [[0, 1, 2, 2**70]], [[0.0, 1.0, 2.0, np.inf]]],
    ids=["fraction", "string", "nan", "huge", "inf"])
def test_tet_indices_must_be_integers(tets):
    with pytest.raises(MeshError, match="integers|out of range"):
        build_mesh(np.eye(4, 3), tets)


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.float64,
                                   np.float32])
def test_integral_tet_indices_of_any_dtype_accepted(cube1, dtype):
    m = build_mesh(cube1.vertices, cube1.tets.astype(dtype))
    assert m.tets.dtype == np.int64 and np.array_equal(m.tets, cube1.tets)
    assert np.array_equal(m.faces, cube1.faces)


@pytest.mark.parametrize("coords", [
    np.eye(4, 3) + 1e-3j, np.eye(4, 3).astype(complex),
    np.eye(4, 3).astype(str)], ids=["complex", "complex-real", "string"])
def test_coordinates_must_be_real(coords):
    with pytest.raises(MeshError, match="real numbers"):
        build_mesh(coords, [[0, 1, 2, 3]])


def test_ragged_tet_list_rejected():
    with pytest.raises(MeshError, match="ragged"):
        build_mesh(np.eye(4, 3), [[0, 1, 2], [0, 1, 2, 3]])


def test_ragged_coordinate_list_rejected():
    with pytest.raises(MeshError, match="ragged"):
        build_mesh([[0, 0, 0], [1, 0, 0], [0, 1], [0, 0, 1]], [[0, 1, 2, 3]])


def test_mesh_owns_read_only_arrays():
    v = structured_cube_mesh(1).vertices.copy()
    m = build_mesh(v, structured_cube_mesh(1).tets)
    before = m.vertices.copy()
    v[0] += 0.3
    assert np.array_equal(m.vertices, before)
    for name in ("vertices", "tets", "tet_orient", "edges", "faces",
                 "tet_edges", "tet_faces", "volumes"):
        assert not getattr(m, name).flags.writeable, name


def test_derived_arrays_are_read_only():
    # every array a mesh derives, and those of its boundary, tree and
    # homology basis: a write would change what later stages read
    from curldiv.cli import compute_topology
    m = solid_torus_mesh(3)
    topo = compute_topology(m)
    b, tc, hb = topo.boundary, topo.tree, topo.homology
    arrays = {name: getattr(m, name) for name in (
        "face_edges", "tet_face_sign", "face_areas", "face_normals",
        "edge_lengths")}
    arrays["grads"], arrays["det"] = m.tet_geometry
    for op in ("G", "C", "D"):
        for key in ("data", "indices", "indptr"):
            arrays[f"{op}.{key}"] = getattr(getattr(m.incidence, op), key)
    for name in ("components", "component_vertices", "component_edges"):
        for r, a in enumerate(getattr(b, name)):
            arrays[f"{name}[{r}]"] = a
    arrays["face_sign"] = b.face_sign
    arrays["boundary_faces"] = b.boundary_faces
    for name in ("tree_edges", "cotree_edges", "boundary_parent"):
        arrays[name] = getattr(tc, name)
    arrays["closing_edges"] = hb.closing_edges
    arrays["cocycles"] = hb.cocycles
    for name, a in arrays.items():
        assert a.size, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(-1,) * a.ndim]


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
    e01 = edge_ids(tet1, 0, 1)
    assert list(G[e01]) == [-1, 1, 0, 0]


def test_C_row_matches_face_cycle(tet1):
    # face [v0, v1, v2]: +1 on [0,1] and [1,2], -1 on [0,2]
    C = tet1.incidence.C.toarray()
    f = np.flatnonzero((tet1.faces == [0, 1, 2]).all(axis=1))[0]
    row = C[f]
    e01, e12, e02 = edge_ids(tet1, np.array([0, 1, 0]),
                             np.array([1, 2, 2]))
    assert row[e01] == 1
    assert row[e12] == 1
    assert row[e02] == -1


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
    ext, cavity = hollow.boundary.components
    ext_pts = hollow.vertices[np.unique(hollow.faces[ext])]
    int_pts = hollow.vertices[np.unique(hollow.faces[cavity])]
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


def _deque_components(n, u, v):
    """Reference: BFS from each unlabelled node in ascending order."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    for root in range(n):
        if label[root] != -1:
            continue
        label[root] = root
        queue = deque([root])
        while queue:
            for y in adj[queue.popleft()]:
                if label[y] == -1:
                    label[y] = root
                    queue.append(y)
    return label


def _random_graph(seed):
    """A multigraph with self loops and parallel edges on up to 80 nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    return (n, *rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n)))))


def _shuffled_path(n):
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    u, v = perm[:-1], perm[1:]
    swap = rng.random(n - 1) < 0.5
    order = rng.permutation(n - 1)
    return n, np.where(swap, v, u)[order], np.where(swap, u, v)[order]


_NONE = np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("graph", [_random_graph(seed) for seed in range(8)]
                         + [_shuffled_path(5000),
                            (9, np.full(6, 7), np.array([0, 8, 3, 5, 1, 2])),
                            (5, np.array([3]), np.array([1])),
                            (4, _NONE, _NONE), (0, _NONE, _NONE)],
                         ids=[f"random-{s}" for s in range(8)]
                         + ["path", "star", "isolated", "no-edges", "empty"])
def test_connected_components_matches_deque_reference(graph):
    n, u, v = graph
    assert connected_components(n, u, v).tolist() == _deque_components(n, u, v)


def _reference_sub_simplices(tets):
    """Edges, faces, tet_edges and tet_faces by the dict loop over tets."""
    # the local edges and faces of a sorted tet, lexicographic
    LOCAL_EDGES = list(itertools.combinations(range(4), 2))
    LOCAL_FACES = list(itertools.combinations(range(4), 3))
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


_FIXTURES = ["tet1", "cube2", "torus", "hollow", "torus_cavity", "genus2",
             "handle_cavity"]


@pytest.mark.parametrize("source, seed", [
    *[pytest.param(f, s, id=f"{s}-{f}") for s in (None, 3) for f in _FIXTURES],
    *[pytest.param(w, s, id=f"{s}-{w}") for w in WORKLOADS for s in (1, 2)]])
def test_sub_simplices_match_reference(source, seed, request, monkeypatch):
    if source in WORKLOADS:
        # the benchmark input at its timed size, as the seed renumbers it
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        w = workloads.WORKLOADS[source]
        m = build_mesh(*workloads.inputs.renumbered(w.domain(w.n), seed))
    else:
        m = request.getfixturevalue(source)
        if seed is not None:
            rng = np.random.default_rng(seed)
            perm = rng.permutation(m.n_v)
            coords = np.empty_like(m.vertices)
            coords[perm] = m.vertices
            m = build_mesh(coords, rng.permuted(perm[m.tets], axis=1))
    for got, want in zip((m.edges, m.faces, m.tet_edges, m.tet_faces),
                         _reference_sub_simplices(m.tets)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# the largest face key, with n_v and n_f at the bound of the module docstring
_TOP = (2**31 - 1) ** 2


@pytest.mark.parametrize("keys", [
    np.zeros(0, dtype=np.int64), np.array([7]),
    np.random.default_rng(1).integers(0, 6, size=500),
    np.random.default_rng(2).integers(0, 9, size=(70, 4)),
    _TOP - 1 - np.random.default_rng(3).integers(0, 40, size=300)],
    ids=["empty", "one", "repeats", "table", "near-bound"])
def test_number_keys_matches_unique(keys):
    from curldiv.mesh import _number_keys
    got, number, count, order = _number_keys(keys)
    want, want_number, want_count = np.unique(
        keys, return_inverse=True, return_counts=True)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(number, want_number.reshape(keys.shape))
    assert np.array_equal(count, want_count)
    # the order sorts the flattened keys: the entries of a key are adjacent
    assert np.array_equal(np.sort(order), np.arange(keys.size))
    assert np.array_equal(keys.ravel()[order], np.repeat(want, want_count))


def test_boundary_that_is_not_a_closed_surface_rejected():
    # two tets sharing only the edge (0, 1): four boundary faces meet there
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [0, -1, 0], [0, 0, -1]])
    m = build_mesh(coords, [[0, 1, 2, 3], [0, 1, 4, 5]])
    with pytest.raises(MeshError, match="not a closed surface"):
        m.boundary


def _two_cavities():
    """A 5^3 grid less two interior cells (p = 2), renumbered so that a
    cavity holds the lowest boundary face."""
    base = _grid_mesh(5, 0.2, lambda i, j, k: (i, j, k) not in (
        (1, 1, 1), (3, 3, 3)))
    perm = np.random.default_rng(4).permutation(base.n_v)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    m = build_mesh(vertices, perm[base.tets])
    assert m.boundary.components[0].min() > m.boundary.boundary_faces.min()
    return m


@pytest.mark.parametrize("fixture", ["hollow", "handle_cavity",
                                     "torus_cavity", "two_cavities"])
def test_external_component_encloses_the_only_positive_volume(fixture,
                                                              request):
    m = (_two_cavities() if fixture == "two_cavities"
         else request.getfixturevalue(fixture))
    b = m.boundary
    enclosed = []
    for comp in b.components:
        p = m.vertices[m.faces[comp]]
        det = np.einsum("fi,fi->f", p[:, 0], np.cross(p[:, 1], p[:, 2]))
        enclosed.append(b.face_sign[comp] @ det / 6.0)
    enclosed = np.array(enclosed)
    assert abs(enclosed.sum() - m.volumes.sum()) <= 1e-14
    # component 0 is the external one; the internal ones follow in
    # ascending order of their lowest face
    assert np.flatnonzero(enclosed > 0).tolist() == [0]
    lowest = [int(comp.min()) for comp in b.components[1:]]
    assert lowest == sorted(lowest) and b.p == len(lowest) >= 1


def _grid_mesh_loop(n, spacing, keep):
    """Reference: a vertex dict filled cell by cell, in first appearance."""
    vid, coords, tets = {}, [], []
    for i, j, k in itertools.product(range(n), repeat=3):
        if not keep(i, j, k):
            continue
        for path in _KUHN_PATHS:
            tet = []
            for key in map(tuple, path + (i, j, k)):
                if key not in vid:
                    vid[key] = len(coords)
                    coords.append(tuple(x * spacing for x in key))
                tet.append(vid[key])
            tets.append(tet)
    return build_mesh(np.array(coords), tets)


@pytest.mark.parametrize("build, n, keep", [
    *[(structured_cube_mesh, n, lambda i, j, k: True) for n in (1, 2, 3, 4)],
    *[(solid_torus_mesh, n, lambda i, j, k, c=n // 2: (i, j) != (c, c))
      for n in (3, 5)],
    (hollow_ball_mesh, 3, lambda i, j, k: (i, j, k) != (1, 1, 1)),
], ids=["cube1", "cube2", "cube3", "cube4", "torus3", "torus5", "hollow3"])
def test_grid_mesh_matches_loop_reference(build, n, keep):
    got, want = build(n), _grid_mesh_loop(n, 1.0 / n, keep)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.tets, want.tets)
