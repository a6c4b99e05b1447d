"""Manufactured solution cases for the convergence harness.

Each case fixes an exact field u together with its curl J and divergence
g.  ``MMSCase.tangential`` and ``MMSCase.normal`` turn a case into the
problem data for a constant coefficient c: J := c curl u and the boundary
datum a = (c u) x n, or g := c div u and b = c u.n, both taking the
mesh's outward normals as fn(points, normals).  Flux and period data
(alpha, beta) are the DOF functionals of u, taken only on the faces of the
internal components and the edges of the sigma_n cycles, so they are
consistent on any fixture topology.

Every registered case is verified at registration time: curl and
divergence are checked against central finite differences of u at random
interior points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .elements import edge_integrals, face_fluxes
from .lifts import cycle_period
from .mesh import Mesh
from .solver import NormalProblem, TangentialProblem
from .topology import HomologyBasis


FD_STEP = 1e-5
FD_TOL = 1e-8
FD_POINTS = 20


class MMSError(ValueError):
    pass


@dataclass(frozen=True)
class MMSCase:
    name: str
    u: object                       # exact field, (n, 3) -> (n, 3)
    J: object                       # curl u
    g: object                       # div u

    def tangential(self, c: float) -> TangentialProblem:
        """curl(c u) = J and (c u) x n = a for eta = c."""
        u, J = self.u, self.J
        return TangentialProblem(c, J=lambda x: c * J(x),
                                 a=lambda x, n: kernels.cross(c * u(x), n))

    def normal(self, c: float) -> NormalProblem:
        """div(c u) = g and c u.n = b for mu = c."""
        u, g = self.u, self.g
        return NormalProblem(
            c, g=lambda x: c * g(x),
            b=lambda x, n: c * np.einsum("qx,qx->q", u(x), n))


REGISTRY: dict[str, MMSCase] = {}


def _fd_check(case: MMSCase) -> None:
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(0.1, 0.9, size=(FD_POINTS, 3))
    h = FD_STEP
    grad = np.zeros((FD_POINTS, 3, 3))      # grad[i, k, :] = d u / d x_k
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        grad[:, k] = (case.u(pts + dp) - case.u(pts - dp)) / (2.0 * h)
    curl = np.stack([grad[:, 1, 2] - grad[:, 2, 1],
                     grad[:, 2, 0] - grad[:, 0, 2],
                     grad[:, 0, 1] - grad[:, 1, 0]], axis=1)
    div = grad[:, 0, 0] + grad[:, 1, 1] + grad[:, 2, 2]
    cerr = np.abs(curl - case.J(pts)).max()
    derr = np.abs(div - case.g(pts)).max()
    if cerr > FD_TOL or derr > FD_TOL:
        raise MMSError(f"case {case.name!r} fails the finite-difference "
                       f"self-check: curl {cerr:.3e}, div {derr:.3e}")


def register(case: MMSCase) -> MMSCase:
    _fd_check(case)
    REGISTRY[case.name] = case
    return case


def get_case(name: str) -> MMSCase:
    try:
        return REGISTRY[name]
    except KeyError:
        raise MMSError(f"unknown MMS case {name!r}; "
                       f"available: {sorted(REGISTRY)}") from None


def discrete_alpha(case: MMSCase, m: Mesh) -> np.ndarray:
    """Fluxes of the RT interpolant of u through the internal components
    of ``m.boundary``."""
    b = m.boundary
    return np.array([b.face_sign[c] @ face_fluxes(case.u, m, c)
                     for c in b.components[1:]])


def discrete_beta(case: MMSCase, hb: HomologyBasis) -> np.ndarray:
    """Periods of the Nedelec interpolant of u over the sigma_n cycles of
    ``hb``, on its mesh ``hb.tree.mesh``."""
    m = hb.tree.mesh
    u_I = np.zeros(m.n_e)
    edges = np.array(sorted({int(e) for cyc in hb.cycles for e in cyc}),
                     dtype=np.int64)
    u_I[edges] = edge_integrals(case.u, m, edges)
    return np.array([cycle_period(cyc, u_I) for cyc in hb.cycles])


_PI = np.pi

# a constant field, reproduced exactly by both spaces
register(MMSCase(
    name="constant",
    u=lambda p: np.broadcast_to(np.array([1.0, 2.0, 3.0]), (len(p), 3)).copy(),
    J=lambda p: np.zeros((len(p), 3)),
    g=lambda p: np.zeros(len(p)),
))

# a trigonometric field with unit divergence and a smooth curl
register(MMSCase(
    name="mms1",
    u=lambda p: np.column_stack([np.sin(_PI * p[:, 1]) + p[:, 0],
                                 np.sin(_PI * p[:, 2]),
                                 np.sin(_PI * p[:, 0])]),
    J=lambda p: np.column_stack([-_PI * np.cos(_PI * p[:, 2]),
                                 -_PI * np.cos(_PI * p[:, 0]),
                                 -_PI * np.cos(_PI * p[:, 1])]),
    g=lambda p: np.ones(len(p)),
))

# a polynomial field with constant curl, exact data and lifts
register(MMSCase(
    name="mms2",
    u=lambda p: np.column_stack([p[:, 1] * p[:, 2],
                                 p[:, 0] * p[:, 2] + p[:, 0],
                                 p[:, 0] * p[:, 1]]),
    J=lambda p: np.column_stack([np.zeros(len(p)), np.zeros(len(p)),
                                 np.ones(len(p))]),
    g=lambda p: np.zeros(len(p)),
))
