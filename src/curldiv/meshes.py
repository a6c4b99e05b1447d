"""Built-in structured meshes used for convergence studies and fixtures."""

from __future__ import annotations

import itertools

import numpy as np

from .mesh import Mesh, build_mesh

# Kuhn split of the unit cell: each tet follows a monotone vertex path
# 000 -> 111, one per permutation of the axes, all sharing the body diagonal.
_KUHN_PATHS = np.array([np.cumsum(np.vstack([[0, 0, 0]] + [
    np.eye(3, dtype=int)[list(p)][i] for i in range(3)]), axis=0)
    for p in itertools.permutations(range(3))])             # (6, 4, 3)


def _grid_mesh(n: int, spacing: float, keep) -> Mesh:
    """Tetrahedralize the cells (i, j, k) of an n^3 grid for which keep() is
    true.  Cells go in lexicographic order and vertices are numbered by
    first appearance in the tets."""
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
    cells = np.array([c for c in itertools.product(range(n), repeat=3)
                      if keep(*c)], dtype=np.int64).reshape(-1, 3)
    corners = (cells[:, None, None] + _KUHN_PATHS).reshape(-1, 3)
    gid = (corners[:, 0] * (n + 1) + corners[:, 1]) * (n + 1) + corners[:, 2]
    _, first, inv = np.unique(gid, return_index=True, return_inverse=True)
    order = np.argsort(first)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    return build_mesh(corners[first[order]] * spacing,
                      new_id[inv].reshape(-1, 4))


def structured_cube_mesh(n: int) -> Mesh:
    """Unit cube split into n^3 subcubes of 6 tets each (Kuhn split)."""
    return _grid_mesh(n, 1.0 / n, lambda i, j, k: True)


def solid_torus_mesh(n: int = 3) -> Mesh:
    """Square donut: an n^3 grid with the central vertical column removed.

    Genus 1, single boundary component.  n must be >= 3 and odd so the
    removed column is well defined.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("solid torus grid needs odd n >= 3")
    c = n // 2
    return _grid_mesh(n, 1.0 / n, lambda i, j, k: not (i == c and j == c))


def hollow_ball_mesh(n: int = 3) -> Mesh:
    """An n^3 grid with the central cell removed: one internal cavity (p = 1)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("hollow ball grid needs odd n >= 3")
    c = n // 2
    return _grid_mesh(n, 1.0 / n,
                      lambda i, j, k: not (i == c and j == c and k == c))


def single_tet_mesh() -> Mesh:
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return build_mesh(coords, [[0, 1, 2, 3]])
