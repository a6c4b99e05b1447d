"""Seeded benchmark inputs: structured tetrahedral domains written as MSH.

Every domain is a union of cells of an n x n x n grid on the unit cube,
each cell cut into the six Kuhn tetrahedra that share its main diagonal.
Before the file is written the vertices are renumbered by the fixed
``NUMBERING_SEED``, and the seed of the run reorders the tetrahedra and
permutes the vertices inside each tetrahedron.  The vertex numbering fixes
the work: it orders the edges and faces, and so the tree-cotree gauge, the
fill of the GF(p) eliminations and the Nedelec least squares.  The seed
then gives every run a different file for the same work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# The vertex numbering of every input.  Lexicographic grid order would make
# the homology eliminations about twice as slow as a random numbering.
NUMBERING_SEED = 1

# One tet per ordering of the axes: the monotone path 000 -> 111.
_KUHN = np.array([[[0, 0, 0]] + [list(np.eye(3, dtype=int)[list(p[:k + 1])].sum(0))
                                 for k in range(3)]
                  for p in itertools.permutations(range(3))])   # (6, 4, 3)


@dataclass(frozen=True)
class Domain:
    """A grid domain with its expected topology."""
    vertices: np.ndarray            # (n_v, 3), lexicographic grid order
    tets: np.ndarray                # (n_t, 4)
    p: int                          # internal boundary components
    g: int                          # handles
    column: tuple                   # (x, y) axis of the removed column


def _grid(n: int, removed) -> tuple[np.ndarray, np.ndarray]:
    """Kuhn tetrahedra of the grid cells (i, j, k) not in ``removed``."""
    cells = np.array([c for c in itertools.product(range(n), repeat=3)
                      if c not in removed], dtype=np.int64)
    corners = cells[:, None, None, :] + _KUHN[None]             # (c, 6, 4, 3)
    gid = (corners[..., 0] * (n + 1) + corners[..., 1]) * (n + 1) + corners[..., 2]
    tets = gid.reshape(-1, 4)
    used, tets = np.unique(tets, return_inverse=True)
    ijk = np.stack(np.unravel_index(used, (n + 1,) * 3), axis=1)
    return ijk / n, tets.reshape(-1, 4)


def solid_torus(n: int) -> Domain:
    """The grid less its central vertical column of cells (n odd): g = 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the solid torus grid needs odd n >= 3")
    c = n // 2
    v, t = _grid(n, {(c, c, k) for k in range(n)})
    return Domain(v, t, p=0, g=1,
                  column=((c + 0.5) / n, (c + 0.5) / n))


def handle_cavity(n: int) -> Domain:
    """The grid less a vertical column and one interior cell: p = g = 1.

    The column (n - 2, n - 2, *) and the cavity cell (1, 1, n // 2) share
    no vertex with each other or with the outer surface for any n >= 5.
    """
    if n < 5:
        raise ValueError("the handle-cavity grid needs n >= 5")
    removed = {(n - 2, n - 2, k) for k in range(n)} | {(1, 1, n // 2)}
    v, t = _grid(n, removed)
    return Domain(v, t, p=1, g=1,
                  column=((n - 1.5) / n, (n - 1.5) / n))


def renumbered(d: Domain, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The domain's vertices and tets, renumbered; the seed orders the tets."""
    perm = np.random.default_rng(NUMBERING_SEED).permutation(len(d.vertices))
    vertices = np.empty_like(d.vertices)
    vertices[perm] = d.vertices                 # perm: new id of each old vertex
    rng = np.random.default_rng(seed)
    tets = perm[d.tets][rng.permutation(len(d.tets))]
    return vertices, rng.permuted(tets, axis=1)
