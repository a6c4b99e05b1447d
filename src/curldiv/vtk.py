"""Legacy ASCII VTK writer for solution fields.

The solution is sampled at cell barycenters, its ``centroid_values``
(a cell function as (c, 0, 0)), and written as CELL_DATA vectors,
together with the per-cell divergence or curl residual against the
discrete data.  Numbers carry 17 significant digits.
"""

from __future__ import annotations

import numpy as np

from .elements import ElementError, FEFunction, Space, centroid_values
from .mesh import Mesh


def _barycenter_values(u: FEFunction) -> np.ndarray:
    if u.space == Space.CELL:
        return np.column_stack([u.coeffs, np.zeros((u.mesh.n_t, 2))])
    return centroid_values(u)


def _rows(fmt: str, a: np.ndarray) -> str:
    """One line of ``fmt`` per row of ``a``."""
    return fmt * len(a) % tuple(a.ravel().tolist())


def write_vtk(m: Mesh, u: FEFunction, path,
              residual: np.ndarray | None = None) -> None:
    """Write ``u`` and the per-tet ``residual`` on the mesh ``m``, which
    must be the mesh of ``u``; nothing is opened when it is not."""
    if u.mesh is not m:
        raise ElementError("the field is on another mesh than the one to "
                           "write")
    vals = _barycenter_values(u)
    if residual is not None:
        residual = np.asarray(residual, dtype=np.float64)
        if residual.shape != (m.n_t,):
            raise ElementError(f"residual has shape {residual.shape}, "
                               f"expected ({m.n_t},), one value per tet")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("curl-div solution\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {m.n_v} double\n")
        fh.write(_rows("%.17g %.17g %.17g\n", m.vertices))
        fh.write(f"CELLS {m.n_t} {5 * m.n_t}\n")
        fh.write(_rows("4 %d %d %d %d\n", m.tets))
        fh.write(f"CELL_TYPES {m.n_t}\n")
        fh.write("10\n" * m.n_t)                 # VTK_TETRA
        fh.write(f"CELL_DATA {m.n_t}\n")
        fh.write("VECTORS u_h double\n")
        fh.write(_rows("%.17g %.17g %.17g\n", vals))
        if residual is not None:
            fh.write("SCALARS residual double 1\nLOOKUP_TABLE default\n")
            fh.write(_rows("%.17g\n", residual))
