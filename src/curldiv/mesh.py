"""Oriented tetrahedral complex and its signed incidence operators.

Orientation conventions: vertices carry a global total order; each edge is
stored as [a, b] with a < b (tangent from a to b), each face as [a, b, c]
with a < b < c (normal by the right-hand rule on that cycle).  Tetrahedra
are stored with sorted vertex indices plus a +-1 orientation sign so local
Whitney bases line up with the global degrees of freedom without sign maps.
C and D are tables of signed ids per row, ``face_edges`` and ``tet_faces``,
which the sweeps read, as they read the rows of D^T, ``face_tets``: the
two tets of each face.  With scipy, for the solve, ``incidence`` builds
G, C and D as sparse matrices, and ``curl_curl`` (C^T M_f C) and
``gradient_stiffness`` (G^T M_e G over all vertices) are summed from
closed-form local matrices, unit coefficient, with no stored 0.0.  No
mass matrix is assembled: the solver applies the Nedelec mass M_e element
by element.
The arrays of a ``Mesh``, those it derives and caches included, are
read-only, as are those of its ``BoundaryStructure``.

``build_mesh`` numbers each level by sorting one int64 key per simplex,
from the ids of the level below: a*n_v + b for edge [a, b], id([a, b])*n_v
+ c for face [a, b, c] and id([a, b, c])*n_v + d for tet [a, b, c, d].  The
keys stay below n_v**2, n_e*n_v and n_f*n_v: int64 while each is < 2**31.
``face_tets`` is read from the sort of the face keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

if TYPE_CHECKING:
    import scipy.sparse as sp


class MeshError(ValueError):
    pass


# D entry of local face i, which omits vertex 3 - i, of a positive sorted tet
_LOCAL_FACE_SIGN = (-1) ** (3 - np.arange(4, dtype=np.int64))
# C entry of each edge of a face in ``Mesh.face_edges`` order: the cycle
# a->b->c->a runs along [a, b] and [b, c] and against [a, c]
FACE_EDGE_SIGN = np.array([1, -1, 1], dtype=np.int64)

DEGENERACY_TOL = 1e-14


def read_only(*arrays: np.ndarray) -> np.ndarray:
    """Make the arrays read-only; return the first."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0]


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray        # (n_v, 3) float64
    tets: np.ndarray            # (n_t, 4) int64, each row strictly increasing
    tet_orient: np.ndarray      # (n_t,) +-1, sign of det of the sorted tet
    edges: np.ndarray           # (n_e, 2) int64, lexicographically ordered
    faces: np.ndarray           # (n_f, 3) int64, lexicographically ordered
    tet_edges: np.ndarray       # (n_t, 6) global edge ids, local order
    tet_faces: np.ndarray       # (n_t, 4) global face ids, local order
    face_tets: np.ndarray       # (n_f, 2) the tets of each face, lower
                                # first; -1 second on a boundary face
    volumes: np.ndarray         # (n_t,)

    def __post_init__(self):
        read_only(*vars(self).values())

    @property
    def n_v(self) -> int:
        return len(self.vertices)

    @property
    def n_e(self) -> int:
        return len(self.edges)

    @property
    def n_f(self) -> int:
        return len(self.faces)

    @property
    def n_t(self) -> int:
        return len(self.tets)

    @property
    def euler_characteristic(self) -> int:
        return self.n_v - self.n_e + self.n_f - self.n_t

    @cached_property
    def face_edges(self) -> np.ndarray:
        """(n_f, 3) ids of the edges [a, b], [a, c], [b, c] of each face
        [a, b, c], ascending: the rows of C, with signs FACE_EDGE_SIGN."""
        fe = np.empty((self.n_f, 3), dtype=np.int64)
        fe[self.tet_faces.ravel()] = self.tet_edges[
            :, kernels._LOCAL_FACE_EDGES].reshape(-1, 3)
        return read_only(fe)

    @cached_property
    def tet_face_sign(self) -> np.ndarray:
        """(n_t, 4) D entry of each face of ``tet_faces``: +1 iff the face
        normal points out of the tet.  With ``tet_faces`` the rows of D."""
        return read_only(self.tet_orient[:, None] * _LOCAL_FACE_SIGN)

    @cached_property
    def face_areas(self) -> np.ndarray:
        p = self.vertices[self.faces]
        return read_only(0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1))

    @cached_property
    def face_normals(self) -> np.ndarray:
        """Unit normals by the right-hand rule on the sorted vertex cycle."""
        p = self.vertices[self.faces]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return read_only(n / np.linalg.norm(n, axis=1)[:, None])

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        p = self.vertices[self.edges]
        return read_only(np.linalg.norm(p[:, 1] - p[:, 0], axis=1))

    @cached_property
    def tet_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric gradients (n_t, 4, 3) and signed 6*volume (n_t,)."""
        return tuple(map(read_only, kernels.tet_geometry(self.vertices,
                                                         self.tets)))

    @cached_property
    def incidence(self) -> "IncidenceOperators":
        """G, C and D as sparse matrices, for linear algebra; the sweeps
        read the tables ``face_edges`` and ``tet_faces`` instead."""
        return derive_incidence(self)

    @cached_property
    def curl_curl(self) -> "sp.csr_matrix":
        """C^T M_f C (M_f the RT mass), unit coefficient, read-only."""
        return _global_matrix(self, self.tet_edges, self.n_e,
                              kernels.curl_curl)

    @cached_property
    def gradient_stiffness(self) -> "sp.csr_matrix":
        """G^T M_e G, the P1 stiffness, unit coefficient, read-only; its
        kernel is the constants."""
        return _global_matrix(self, self.tets, self.n_v, kernels.stiffness)

    @cached_property
    def boundary(self) -> "BoundaryStructure":
        return extract_boundary(self)


@dataclass(frozen=True)
class IncidenceOperators:
    """Signed integer matrices realizing grad, curl and div at the DOF level."""
    G: sp.csr_matrix            # (n_e, n_v) edge-vertex
    C: sp.csr_matrix            # (n_f, n_e) face-edge
    D: sp.csr_matrix            # (n_t, n_f) tet-face


@dataclass(frozen=True)
class BoundaryStructure:
    components: list            # face id arrays: the external component,
                                # then the internal ones by lowest face
    component_vertices: list    # vertex id arrays, one per component
    component_edges: list       # edge id arrays, one per component
    face_sign: np.ndarray       # (n_f,) D entry of each boundary face in
                                # its tet, +1 outward; 0 inside

    def __post_init__(self):
        read_only(self.face_sign, *self.components,
                  *self.component_vertices, *self.component_edges)

    @property
    def p(self) -> int:
        """Number of internal boundary components."""
        return len(self.components) - 1

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        return read_only(np.sort(np.concatenate(self.components)))


def connected_components(n: int, u, v) -> np.ndarray:
    """Label each of n nodes joined by edges (u[i], v[i]) with the lowest
    node of its component, hooking roots to the lower and jumping pointers."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, label[u], low)
        np.minimum.at(new, label[v], low)
        while not np.array_equal(jump := new[new], new):
            new = jump
        if np.array_equal(new, label):
            return label
        label = new


def _number_keys(keys: np.ndarray):
    """The distinct keys ascending, the number of each key among them, in
    the shape of ``keys``, the count of each, and the order that sorts the
    flattened keys, in which the entries of each key are adjacent."""
    flat = keys.ravel()
    order = np.argsort(flat)
    ranked = flat[order]
    new = np.ones(len(flat), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    number = np.empty(len(flat), dtype=np.int64)
    number[order] = np.cumsum(new) - 1
    return ranked[new], number.reshape(keys.shape), np.bincount(number), order


def build_mesh(coords, tet_list) -> Mesh:
    """Assemble the oriented complex from vertex coordinates and tet tuples."""
    try:
        vertices, tets_in = np.asarray(coords), np.asarray(tet_list)
    except ValueError:                  # a ragged list
        raise MeshError("coords and tets must be arrays, not ragged lists"
                        ) from None
    if vertices.dtype.kind not in "iuf":
        raise MeshError("vertex coordinates must be real numbers")
    vertices = vertices.astype(np.float64)          # a copy of the input
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError("coords must be an (n_v, 3) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex coordinates must be finite")
    if tets_in.ndim != 2 or tets_in.shape[1] != 4:
        raise MeshError("tets must be an (n_t, 4) array")
    if not (tets_in.dtype.kind in "iu" or tets_in.dtype.kind == "f"
            and np.all(np.floor(tets_in) == tets_in)):
        raise MeshError("tet vertex indices must be integers")
    n_v = len(vertices)
    if tets_in.size and (tets_in.min() < 0 or tets_in.max() >= n_v):
        raise MeshError("tet vertex index out of range")

    tets = np.sort(tets_in.astype(np.int64), axis=1)
    if np.any(np.diff(tets, axis=1) == 0):
        bad = int(np.where(np.any(np.diff(tets, axis=1) == 0, axis=1))[0][0])
        raise MeshError(f"degenerate tet {bad}: repeated vertex")

    # int64 keys below n_v**2, n_e*n_v and n_f*n_v (module docstring)
    ekeys, tet_edges, _, _ = _number_keys(tets[:, kernels._EDGE_A] * n_v
                                          + tets[:, kernels._EDGE_B])
    edges = np.stack(np.divmod(ekeys, n_v), axis=1)
    # the local edge [a, b] and the vertex c of each local face [a, b, c]
    ab, _, bc = kernels._LOCAL_FACE_EDGES.T
    fkeys, tet_faces, count, order = _number_keys(
        tet_edges[:, ab] * n_v + tets[:, kernels._EDGE_B[bc]])
    faces = np.column_stack([edges[fkeys // n_v], fkeys % n_v])
    tkeys, number, _, _ = _number_keys(tet_faces[:, 0] * n_v + tets[:, 3])
    if len(tkeys) < len(tets):
        first = np.unique(number, return_index=True)[1][number]
        dup = np.flatnonzero(first != np.arange(len(tets)))[0]
        raise MeshError(f"duplicate tet {dup} (same vertices as {first[dup]})")

    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    svol = kernels.tet_edge_vectors(vertices, tets)[1] / 6.0
    if np.any(np.abs(svol) < DEGENERACY_TOL * diag ** 3):
        bad = int(np.argmin(np.abs(svol)))
        raise MeshError(f"degenerate tet {bad}: volume below tolerance")
    tet_orient = np.where(svol > 0, 1, -1).astype(np.int64)
    volumes = np.abs(svol)

    if np.any(count > 2):
        f = int(np.argmax(count > 2))
        raise MeshError(f"non-manifold face {tuple(map(int, faces[f]))}: "
                        f"shared by {count[f]} tets")
    # the tets of each face: its first and last entry in the sorted keys
    at = np.cumsum(count) - count
    face_tets = np.sort(order[np.c_[at, at + count - 1]] // 4, axis=1)
    face_tets[count == 1, 1] = -1

    if len(tets) and np.any(connected_components(n_v, *edges.T)):
        raise MeshError("complex is not connected")

    return Mesh(vertices=vertices, tets=tets, tet_orient=tet_orient,
                edges=edges, faces=faces, tet_edges=tet_edges,
                tet_faces=tet_faces, face_tets=face_tets, volumes=volumes)


def derive_incidence(m: Mesh) -> IncidenceOperators:
    """Signed incidence matrices G, C, D with C.G = 0 and D.C = 0 exactly."""
    import scipy.sparse as sp           # only the solve path needs scipy

    n_e = m.n_e
    rows = np.repeat(np.arange(n_e), 2)
    cols = m.edges.ravel()
    data = np.tile(np.array([-1, 1], dtype=np.int64), n_e)
    G = sp.csr_matrix((data, (rows, cols)), shape=(n_e, m.n_v))

    n_f = m.n_f
    crows = np.repeat(np.arange(n_f), 3)
    cdata = np.tile(FACE_EDGE_SIGN, n_f)
    C = sp.csr_matrix((cdata, (crows, m.face_edges.ravel())), shape=(n_f, n_e))

    drows = np.repeat(np.arange(m.n_t), 4)
    D = sp.csr_matrix((m.tet_face_sign.ravel(), (drows, m.tet_faces.ravel())),
                      shape=(m.n_t, m.n_f))
    for M in (G, C, D):
        read_only(M.data, M.indices, M.indptr)
    return IncidenceOperators(G=G, C=C, D=D)


def _global_matrix(m: Mesh, conn: np.ndarray, dim: int,
                   local) -> sp.csr_matrix:
    """The dim x dim sum of local(grads, volumes) on the ids conn, read-only."""
    import scipy.sparse as sp           # only the solve path needs scipy

    nb = conn.shape[1]
    data = np.empty((m.n_t, nb, nb))
    for blk in kernels.blocks(m.n_t):
        data[blk] = local(m.tet_geometry[0][blk], m.volumes[blk])
    conn = conn.astype(np.int32)        # ids < 2**31 (module docstring)
    M = sp.coo_matrix((data.ravel(), (np.repeat(conn, nb, axis=1).ravel(),
                                      np.tile(conn, (1, nb)).ravel())),
                      shape=(dim, dim)).tocsr()
    # drop the sums that are exactly 0.0, and nothing else; then copy out the
    # nnz, as tocsr keeps the arrays of the COO entries, 36 per tet for edges
    del data
    M.eliminate_zeros()
    M = M.copy()
    read_only(M.data, M.indices, M.indptr)
    return M


def extract_boundary(m: Mesh) -> BoundaryStructure:
    """Group boundary faces into connected components, the external first."""
    bfaces = np.flatnonzero(m.face_tets[:, 1] < 0)
    if len(bfaces) == 0:
        raise MeshError("closed complex: empty boundary is unsupported")
    tet = m.face_tets[bfaces, 0]
    sign = np.zeros(m.n_f, dtype=np.int64)
    sign[bfaces] = m.tet_face_sign[tet][m.tet_faces[tet] == bfaces[:, None]]

    # closed-surface check: each boundary edge borders exactly two faces
    face_edges = m.face_edges[bfaces]
    count = np.bincount(face_edges.ravel(), minlength=m.n_e)
    bad = np.flatnonzero((count != 0) & (count != 2))
    if len(bad):
        raise MeshError(
            f"boundary edge {bad[0]} belongs to {count[bad[0]]} boundary "
            "faces; boundary is not a closed surface")

    # components of boundary faces joined through shared edges, numbered
    # by their lowest face
    pairs = np.argsort(face_edges.ravel()).reshape(-1, 2) // 3
    _, comp_index = np.unique(connected_components(len(bfaces), *pairs.T),
                              return_inverse=True)

    # the volume each component encloses, signed by the outward normals of
    # the domain: the external one is the only positive one (taken about
    # the centroid, so that the determinants do not cancel far from 0).
    # It becomes component 0; the internal ones keep their order.
    p = m.vertices[m.faces[bfaces]] - m.vertices.mean(axis=0)
    det = np.einsum("fi,fi->f", p[:, 0], np.cross(p[:, 1], p[:, 2]))
    enclosed = np.bincount(comp_index, weights=sign[bfaces] * det / 6.0)
    external = np.argmax(enclosed)
    comp_index = np.where(comp_index == external, 0,
                          comp_index + (comp_index < external))

    components = [bfaces[comp_index == r] for r in range(len(enclosed))]
    return BoundaryStructure(
        components=components,
        component_vertices=[np.unique(m.faces[comp]) for comp in components],
        component_edges=[np.unique(face_edges[comp_index == r])
                         for r in range(len(components))],
        face_sign=sign)
