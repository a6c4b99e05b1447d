"""Oriented tetrahedral complex and its signed incidence operators.

Orientation conventions: vertices carry a global total order; each edge is
stored as [a, b] with a < b (tangent from a to b), each face as [a, b, c]
with a < b < c (normal by the right-hand rule on that cycle).  Tetrahedra
are stored with sorted vertex indices plus a +-1 orientation sign so local
Whitney bases line up with the global degrees of freedom without sign maps.
C and D are tables of signed ids per row, ``face_edges`` and ``tet_faces``,
which the sweeps read; ``incidence`` builds G, C and D as sparse matrices,
with scipy, for the linear algebra of the solve.
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


# Local sub-simplices of a tet with sorted vertices; both lists are in
# lexicographic order so local numbering matches the global convention.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# local edges [a, b], [a, c], [b, c] of each local face [a, b, c]
_LOCAL_FACE_EDGES = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))
# index of the vertex omitted by each local face
_OMITTED = (3, 2, 1, 0)
# D entry of each local face of a positively oriented sorted tet
_LOCAL_FACE_SIGN = np.array([(-1) ** k for k in _OMITTED], dtype=np.int64)
# C entry of each edge of a face in ``Mesh.face_edges`` order: the cycle
# a->b->c->a runs along [a, b] and [b, c] and against [a, c]
FACE_EDGE_SIGN = np.array([1, -1, 1], dtype=np.int64)

DEGENERACY_TOL = 1e-14


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray        # (n_v, 3) float64
    tets: np.ndarray            # (n_t, 4) int64, each row strictly increasing
    tet_orient: np.ndarray      # (n_t,) +-1, sign of det of the sorted tet
    edges: np.ndarray           # (n_e, 2) int64, lexicographically ordered
    faces: np.ndarray           # (n_f, 3) int64, lexicographically ordered
    tet_edges: np.ndarray       # (n_t, 6) global edge ids, local order
    tet_faces: np.ndarray       # (n_t, 4) global face ids, local order
    volumes: np.ndarray         # (n_t,)

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

    def edge_ids(self, u, v) -> np.ndarray:
        """Ids of the edges joining vertices u and v (arrays, either order)."""
        keys = self.edges[:, 0] * self.n_v + self.edges[:, 1]
        return np.searchsorted(keys, np.minimum(u, v) * self.n_v
                               + np.maximum(u, v))

    @cached_property
    def face_edges(self) -> np.ndarray:
        """(n_f, 3) ids of the edges [a, b], [a, c], [b, c] of each face
        [a, b, c], ascending: the rows of C, with signs FACE_EDGE_SIGN."""
        fe = np.empty((self.n_f, 3), dtype=np.int64)
        fe[self.tet_faces.ravel()] = self.tet_edges[:, _LOCAL_FACE_EDGES
                                                    ].reshape(-1, 3)
        return fe

    @cached_property
    def tet_face_sign(self) -> np.ndarray:
        """(n_t, 4) D entry of each face of ``tet_faces``: +1 iff the face
        normal points out of the tet.  With ``tet_faces`` the rows of D."""
        return self.tet_orient[:, None] * _LOCAL_FACE_SIGN

    @cached_property
    def face_areas(self) -> np.ndarray:
        p = self.vertices[self.faces]
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)

    @cached_property
    def face_normals(self) -> np.ndarray:
        """Unit normals by the right-hand rule on the sorted vertex cycle."""
        p = self.vertices[self.faces]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return n / np.linalg.norm(n, axis=1)[:, None]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        p = self.vertices[self.edges]
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)

    @cached_property
    def tet_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric gradients (n_t, 4, 3) and signed 6*volume (n_t,)."""
        return kernels.tet_geometry(self.vertices, self.tets)

    @cached_property
    def incidence(self) -> "IncidenceOperators":
        """G, C and D as sparse matrices, for linear algebra; the sweeps
        read the tables ``face_edges`` and ``tet_faces`` instead."""
        return derive_incidence(self)

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
    components: list            # list of int arrays of face ids
    external_index: int
    component_vertices: list    # list of int arrays
    component_edges: list       # list of int arrays
    face_owner: np.ndarray      # (n_f,) owning tet for boundary faces, -1 else
    face_sign: np.ndarray       # (n_f,) D[owner, f] on boundary faces, 0 else

    @property
    def p(self) -> int:
        """Number of internal boundary components."""
        return len(self.components) - 1

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        return np.sort(np.concatenate(self.components))

    def internal_components(self):
        return [r for r in range(len(self.components)) if r != self.external_index]


def connected_components(n: int, u, v) -> np.ndarray:
    """Label each of n nodes joined by edges (u[i], v[i]) with the lowest
    node of its component, by min-label propagation and pointer jumping."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _number_rows(keys: np.ndarray):
    """The distinct rows of an integer array in lexicographic order, the
    number of each row among them, the first row with each and its count."""
    order = np.lexsort(keys.T[::-1])         # stable: ties keep row order
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    number = np.empty(len(keys), dtype=np.int64)
    number[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return ranked[new], number, order[starts], np.diff(starts, append=len(keys))


def build_mesh(coords, tet_list) -> Mesh:
    """Assemble the oriented complex from vertex coordinates and tet tuples."""
    vertices = np.asarray(coords, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError("coords must be an (n_v, 3) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex coordinates must be finite")
    tets_in = np.asarray(tet_list, dtype=np.int64)
    if tets_in.ndim != 2 or tets_in.shape[1] != 4:
        raise MeshError("tets must be an (n_t, 4) array")
    n_v = len(vertices)
    if tets_in.size and (tets_in.min() < 0 or tets_in.max() >= n_v):
        raise MeshError("tet vertex index out of range")

    tets = np.sort(tets_in, axis=1)
    if np.any(np.diff(tets, axis=1) == 0):
        bad = int(np.where(np.any(np.diff(tets, axis=1) == 0, axis=1))[0][0])
        raise MeshError(f"degenerate tet {bad}: repeated vertex")
    _, number, first, _ = _number_rows(tets)
    first = first[number]                   # first tet with the same vertices
    dup = np.flatnonzero(first != np.arange(len(tets)))
    if len(dup):
        raise MeshError(f"duplicate tet {dup[0]} (same vertices as "
                        f"{first[dup[0]]})")

    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    svol = np.linalg.det(kernels.tet_jacobian(vertices, tets)) / 6.0
    if np.any(np.abs(svol) < DEGENERACY_TOL * diag ** 3):
        bad = int(np.argmin(np.abs(svol)))
        raise MeshError(f"degenerate tet {bad}: volume below tolerance")
    tet_orient = np.where(svol > 0, 1, -1).astype(np.int64)
    volumes = np.abs(svol)

    # sub-simplex keys of sorted tets are sorted, so they are numbered in
    # lexicographic order
    edges, tet_edges, _, _ = _number_rows(tets[:, LOCAL_EDGES].reshape(-1, 2))
    faces, tet_faces, _, count = _number_rows(
        tets[:, LOCAL_FACES].reshape(-1, 3))
    if np.any(count > 2):
        f = int(np.argmax(count > 2))
        raise MeshError(f"non-manifold face {tuple(map(int, faces[f]))}: "
                        f"shared by {count[f]} tets")
    tet_edges = tet_edges.reshape(-1, 6)
    tet_faces = tet_faces.reshape(-1, 4)

    if len(tets) and np.any(connected_components(n_v, *edges.T)):
        raise MeshError("complex is not connected")

    return Mesh(vertices=vertices, tets=tets, tet_orient=tet_orient,
                edges=edges, faces=faces, tet_edges=tet_edges,
                tet_faces=tet_faces, volumes=volumes)


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
    return IncidenceOperators(G=G, C=C, D=D)


def extract_boundary(m: Mesh) -> BoundaryStructure:
    """Group boundary faces into connected components; identify the external one."""
    flat = m.tet_faces.ravel()
    once = np.bincount(flat, minlength=m.n_f)[flat] == 1
    bfaces = flat[once]
    if len(bfaces) == 0:
        raise MeshError("closed complex: empty boundary is unsupported")
    tet_of, local = np.divmod(np.flatnonzero(once), 4)
    owner = np.full(m.n_f, -1, dtype=np.int64)
    owner[bfaces] = tet_of
    sign = np.zeros(m.n_f, dtype=np.int64)
    sign[bfaces] = m.tet_face_sign[tet_of, local]
    bfaces = np.sort(bfaces)

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
    pairs = np.argsort(face_edges.ravel(), kind="stable").reshape(-1, 2) // 3
    _, comp_index = np.unique(connected_components(len(bfaces), *pairs.T),
                              return_inverse=True)
    components = [bfaces[comp_index == r] for r in range(comp_index.max() + 1)]
    comp_vertices = [np.unique(m.faces[comp]) for comp in components]
    comp_edges = [np.unique(face_edges[comp_index == r])
                  for r in range(len(components))]

    # the volume each component encloses, signed by the outward normals of
    # the domain: the external one is the only positive one (taken about
    # the centroid, so that the determinants do not cancel far from 0)
    p = m.vertices[m.faces[bfaces]] - m.vertices.mean(axis=0)
    det = np.einsum("fi,fi->f", p[:, 0], np.cross(p[:, 1], p[:, 2]))
    enclosed = np.bincount(comp_index, weights=sign[bfaces] * det / 6.0)
    external = int(np.argmax(enclosed))

    return BoundaryStructure(components=components, external_index=external,
                             component_vertices=comp_vertices,
                             component_edges=comp_edges, face_owner=owner,
                             face_sign=sign)
