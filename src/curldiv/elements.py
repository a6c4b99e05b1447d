"""Lowest-order Whitney element spaces and their degree-of-freedom maps.

Spaces: nodal P1 ("lagrange"), Nedelec edge of degree 1 ("edge"),
Raviart-Thomas of degree 1 ("face") and piecewise constants ("cell").
Coefficients are the DOF functionals of the represented field: vertex
value, edge tangential integral, face normal flux, cell value.  The
material coefficient eta or mu of a problem (``CoefficientField``) is one
positive scalar per tet.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .mesh import Mesh
from .quadrature import make_quadrature


class Space(str, Enum):
    LAGRANGE = "lagrange"
    EDGE = "edge"
    FACE = "face"
    CELL = "cell"


_SPACE_DIM = {
    Space.LAGRANGE: lambda m: m.n_v,
    Space.EDGE: lambda m: m.n_e,
    Space.FACE: lambda m: m.n_f,
    Space.CELL: lambda m: m.n_t,
}


class ElementError(ValueError):
    pass


@dataclass
class FEFunction:
    space: Space
    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        self.space = Space(self.space)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        expect = _SPACE_DIM[self.space](self.mesh)
        if self.coeffs.shape != (expect,):
            raise ElementError(
                f"{self.space.value} function needs {expect} coefficients, "
                f"got {self.coeffs.shape}")


def zero_function(space, mesh) -> FEFunction:
    space = Space(space)
    return FEFunction(space, mesh, np.zeros(_SPACE_DIM[space](mesh)))


@dataclass(frozen=True)
class CoefficientField:
    """Coefficient eta or mu: one positive scalar on each tet."""
    kind: str                   # identity | scalar | per_region
    value: object               # float, or the (n_t,) values of per_region

    @staticmethod
    def identity() -> "CoefficientField":
        return CoefficientField("identity", 1.0)

    @staticmethod
    def scalar(c: float) -> "CoefficientField":
        if not c > 0:
            raise ValueError("scalar coefficient must be positive")
        return CoefficientField("scalar", float(c))

    @staticmethod
    def per_region(values: np.ndarray) -> "CoefficientField":
        """One positive scalar per tet (e.g. mapped from region tags)."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("per-region coefficients must be a flat list")
        if not np.all(vals > 0):
            raise ValueError("per-region coefficients must be positive")
        return CoefficientField("per_region", vals)

    def per_tet(self, n_t: int) -> np.ndarray:
        """The value on each of n_t tets: (n_t,)."""
        if self.kind != "per_region":
            return np.full(n_t, self.value)
        if len(self.value) != n_t:
            raise ElementError(f"per_region needs one value per tet ({n_t}), "
                               f"got {len(self.value)}")
        return self.value


def eval_field(fn, points, vector: bool) -> np.ndarray:
    """Evaluate a vectorized user field at an (n, 3) point array: fn must
    return (n, 3) values if ``vector``, else (n,)."""
    points = np.asarray(points, dtype=np.float64)
    out = np.asarray(fn(points), dtype=np.float64)
    want = (len(points), 3) if vector else (len(points),)
    if out.shape != want:
        raise ElementError(f"field returned shape {out.shape} at "
                           f"{len(points)} points, expected {want}")
    return out


def differential(f: FEFunction) -> FEFunction:
    """grad, curl or div of an FE function via the incidence operators."""
    m = f.mesh
    inc = m.incidence
    if f.space == Space.LAGRANGE:
        return FEFunction(Space.EDGE, m, inc.G @ f.coeffs)
    if f.space == Space.EDGE:
        return FEFunction(Space.FACE, m, inc.C @ f.coeffs)
    if f.space == Space.FACE:
        return FEFunction(Space.CELL, m, (inc.D @ f.coeffs) / m.volumes)
    raise ElementError("piecewise constants have no differential here")


def interpolate(space, fn, m: Mesh) -> FEFunction:
    """Canonical interpolant: DOF functionals evaluated by quadrature."""
    space = Space(space)
    if space == Space.LAGRANGE:
        vals = eval_field(fn, m.vertices, vector=False)
        return FEFunction(space, m, vals)
    if space == Space.EDGE:
        rule = make_quadrature("edge", 3)
        p = m.vertices[m.edges]                         # (n_e, 2, 3)
        pts = np.einsum("qi,eix->eqx", rule.points, p)
        vals = eval_field(fn, pts.reshape(-1, 3), vector=True)
        vals = vals.reshape(m.n_e, -1, 3)
        tang = p[:, 1] - p[:, 0]
        dofs = np.einsum("eqx,ex,q->e", vals, tang, rule.weights)
        return FEFunction(space, m, dofs)
    if space == Space.FACE:
        rule = make_quadrature("tri", 3)
        p = m.vertices[m.faces]                         # (n_f, 3, 3)
        pts = np.einsum("qi,fix->fqx", rule.points, p)
        vals = eval_field(fn, pts.reshape(-1, 3), vector=True)
        vals = vals.reshape(m.n_f, -1, 3)
        nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])  # 2*area*normal
        dofs = np.einsum("fqx,fx,q->f", vals, nvec, rule.weights)
        return FEFunction(space, m, dofs)
    rule = make_quadrature("tet", 2)
    pts = kernels.physical_points(m.vertices, m.tets, rule.points)
    vals = eval_field(fn, pts.reshape(-1, 3), vector=False).reshape(m.n_t, -1)
    dofs = 6.0 * vals @ rule.weights                    # cell averages
    return FEFunction(Space.CELL, m, dofs)
