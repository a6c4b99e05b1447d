"""Quadrature rules on the reference simplices (edge, triangle, tetrahedron).

Points are stored in barycentric coordinates, weights sum to the reference
measure (1 for the unit segment, 1/2 for the unit triangle, 1/6 for the unit
tetrahedron).  Tet rules go to degree 4 and triangle rules to degree 10;
every triangle rule is symmetric in the vertices, so no integral depends
on how a face numbers them.  A triangle rule of degree 5 to 10 is
Dunavant's 25-point rule of degree 10 (Dunavant, IJNME 21, 1985).  Every
rule is checked against monomial integrals at construction time.  Rules
are built once per process and shared, so their arrays are read-only.
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
        pts, w = _symmetric_tri_rule(
            None, [(0.445948490915965, 0.223381589678011),
                   (0.091576213509771, 0.109951743655322)], [])
    elif degree <= 10:
        pts, w = _symmetric_tri_rule(
            0.090817990382754,
            [(0.485577633383657, 0.036725957756467),
             (0.109481575485037, 0.045321059435528)],
            [(0.141707219414880, 0.307939838764121, 0.072757916845420),
             (0.025003534762686, 0.246672560639903, 0.028327242531057),
             (0.009540815400299, 0.066803251012200, 0.009421666963733)])
    else:
        raise QuadratureError(f"tri rule of degree {degree} not supported")
    return pts, w * 0.5


def _symmetric_tri_rule(centroid, s21, s111):
    """A Dunavant rule from its orbits, weights summing to 1: the centroid
    weight (None if the rule has no centroid point), (a, w) for each orbit
    of the 3 points (a, a, 1 - 2a) and (a, b, w) for each orbit of the 6
    permutations of (a, b, 1 - a - b)."""
    pts, w = [], []
    if centroid is not None:
        pts.append(np.full(3, 1.0 / 3.0))
        w.append(centroid)
    for (a, wt) in s21:
        for i in range(3):
            p = np.full(3, a)
            p[i] = 1.0 - 2.0 * a
            pts.append(p)
            w.append(wt)
    for (a, b, wt) in s111:
        pts.extend(itertools.permutations((a, b, 1.0 - a - b)))
        w.extend([wt] * 6)
    return np.array(pts), np.array(w)


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

