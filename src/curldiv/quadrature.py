"""Quadrature rules on the reference simplices (edge, triangle, tetrahedron).

Points are stored in barycentric coordinates, weights sum to the reference
measure (1 for the unit segment, 1/2 for the unit triangle, 1/6 for the unit
tetrahedron).  Every rule is checked against monomial integrals at
construction time.  Rules are built once per process and shared, so their
arrays are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    kind: str                 # "edge" | "tri" | "tet"
    degree: int               # polynomial exactness
    points: np.ndarray        # (nq, d+1) barycentric coordinates
    weights: np.ndarray       # (nq,), sum = reference measure

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def cartesian(self) -> np.ndarray:
        """Points on the reference simplex with vertices 0, e1, ..., ed."""
        return self.points[:, 1:]


_REF_MEASURE = {"edge": 1.0, "tri": 0.5, "tet": 1.0 / 6.0}
_DIM = {"edge": 1, "tri": 2, "tet": 3}

MAX_DEGREE = 4


def _tet_rule(degree):
    if degree <= 1:
        pts = np.full((1, 4), 0.25)
        w = np.array([1.0])
    elif degree == 2:
        a, b = 0.5854101966249685, 0.1381966011250105
        pts = np.full((4, 4), b)
        np.fill_diagonal(pts, a)
        w = np.full(4, 0.25)
    elif degree == 3:
        pts = np.vstack([np.full((1, 4), 0.25), np.full((4, 4), 1.0 / 6.0)])
        np.fill_diagonal(pts[1:], 0.5)
        w = np.array([-0.8, 0.45, 0.45, 0.45, 0.45])
    elif degree == 4:
        # Keast 11-point rule
        pts = [np.full(4, 0.25)]
        w = [-0.078933333333333333]
        a, b = 1.0 / 14.0, 11.0 / 14.0
        for i in range(4):
            p = np.full(4, a)
            p[i] = b
            pts.append(p)
            w.append(0.045733333333333333)
        c = 0.3994035761667992
        d = 0.1005964238332008
        for (i, j) in itertools.combinations(range(4), 2):
            p = np.full(4, d)
            p[i] = c
            p[j] = c
            pts.append(p)
            w.append(0.14933333333333333)
        pts = np.array(pts)
        w = np.array(w)
    else:
        raise QuadratureError(f"tet rule of degree {degree} not supported")
    return pts, w / 6.0


def _tri_rule(degree):
    if degree <= 1:
        pts = np.full((1, 3), 1.0 / 3.0)
        w = np.array([1.0])
    elif degree == 2:
        pts = np.full((3, 3), 1.0 / 6.0)
        np.fill_diagonal(pts, 2.0 / 3.0)
        w = np.full(3, 1.0 / 3.0)
    elif degree == 3:
        pts = np.vstack([np.full((1, 3), 1.0 / 3.0), np.full((3, 3), 0.2)])
        np.fill_diagonal(pts[1:], 0.6)
        w = np.array([-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0])
    elif degree == 4:
        # Dunavant 6-point rule
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = []
        w = []
        for (a, wt) in [(a1, w1), (a2, w2)]:
            for i in range(3):
                p = np.full(3, a)
                p[i] = 1.0 - 2.0 * a
                pts.append(p)
                w.append(wt)
        pts = np.array(pts)
        w = np.array(w)
    else:
        raise QuadratureError(f"tri rule of degree {degree} not supported")
    return pts, w * 0.5


def _edge_rule(degree):
    n = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    pts = np.column_stack([1.0 - t, t])
    return pts, 0.5 * w


def _monomial_integral(kind, powers):
    # exact integral of prod(bary[1:]**powers) over the reference simplex
    d = _DIM[kind]
    num = 1
    for p in powers:
        num *= math.factorial(p)
    return num / math.factorial(sum(powers) + d)


def _verify(rule: QuadratureRule):
    d = _DIM[rule.kind]
    xs = rule.cartesian
    for total in range(rule.degree + 1):
        for powers in _compositions(total, d):
            vals = np.prod(xs ** np.array(powers), axis=1)
            approx = float(rule.weights @ vals)
            exact = _monomial_integral(rule.kind, powers)
            if abs(approx - exact) > 1e-13 * (1.0 + abs(exact)):
                raise QuadratureError(
                    f"{rule.kind} rule degree {rule.degree} fails on monomial "
                    f"{powers}: {approx} vs {exact}"
                )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.cache
def make_quadrature(kind: str, degree: int) -> QuadratureRule:
    """Return a verified rule exact for polynomials up to ``degree``."""
    if kind not in _REF_MEASURE:
        raise QuadratureError(f"unknown simplex kind {kind!r}")
    if kind != "edge" and degree > MAX_DEGREE:
        raise QuadratureError(f"{kind} rule of degree {degree} not supported")
    if degree < 0:
        raise QuadratureError("degree must be non-negative")
    if kind == "edge":
        pts, w = _edge_rule(degree)
    elif kind == "tri":
        pts, w = _tri_rule(degree)
    else:
        pts, w = _tet_rule(degree)
    rule = QuadratureRule(kind, degree, np.ascontiguousarray(pts),
                          np.ascontiguousarray(w))
    _verify(rule)
    return rule


@functools.cache
def subdivided_tri_rule(degree: int, depth: int) -> QuadratureRule:
    """Composite triangle rule: uniform 4-way subdivision applied ``depth``
    times to a base rule.  Used for high-accuracy data validation integrals."""
    base = make_quadrature("tri", degree)
    tris = [np.eye(3)]
    for _ in range(depth):
        nxt = []
        for t in tris:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m02 = 0.5 * (t[0] + t[2])
            nxt += [np.array([t[0], m01, m02]), np.array([m01, t[1], m12]),
                    np.array([m02, m12, t[2]]), np.array([m01, m12, m02])]
        tris = nxt
    scale = 1.0 / len(tris)
    pts = np.vstack([base.points @ t for t in tris])
    w = np.tile(base.weights * scale, len(tris))
    return QuadratureRule("tri", degree, pts, w)
