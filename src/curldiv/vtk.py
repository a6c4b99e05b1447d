"""Legacy ASCII VTK writer for solution fields.

The solution is sampled at cell barycenters and written as CELL_DATA
vectors, together with the per-cell divergence or curl residual against
the discrete data.  Numbers carry 17 significant digits.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .elements import FEFunction, Space
from .mesh import Mesh


def _barycenter_values(u: FEFunction) -> np.ndarray:
    m = u.mesh
    if u.space == Space.CELL:
        return np.column_stack([u.coeffs, np.zeros((m.n_t, 2))])
    grads, _ = m.tet_geometry
    bary = np.full((1, 4), 0.25)
    if u.space == Space.FACE:
        basis = kernels.rt_basis_values(grads, bary)
        local = u.coeffs[m.tet_faces]
    elif u.space == Space.EDGE:
        basis = kernels.edge_basis_values(grads, bary)
        local = u.coeffs[m.tet_edges]
    else:
        raise ValueError("VTK export expects a vector-valued FE function")
    return kernels.field_at_points(basis, local)[:, 0, :]


def _rows(fmt: str, a: np.ndarray) -> str:
    """One line of ``fmt`` per row of ``a``."""
    return fmt * len(a) % tuple(a.ravel().tolist())


def write_vtk(m: Mesh, u: FEFunction, path,
              residual: np.ndarray | None = None) -> None:
    vals = _barycenter_values(u)
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
            fh.write(_rows("%.17g\n", np.asarray(residual, dtype=np.float64)))


def read_vtk_cell_count(path) -> int:
    """Cheap round-trip check used by the tests."""
    with open(path) as fh:
        for line in fh:
            if line.startswith("CELLS "):
                return int(line.split()[1])
    raise ValueError(f"no CELLS section in {path}")
