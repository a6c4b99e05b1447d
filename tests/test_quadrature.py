import math

import numpy as np
import pytest

from curldiv.quadrature import (QuadratureError, make_quadrature,
                                subdivided_tri_rule)


def _monomial_tet(i, j, k):
    # reference tet {x,y,z>=0, x+y+z<=1}: i! j! k! / (i+j+k+3)!
    return (math.factorial(i) * math.factorial(j) * math.factorial(k)
            / math.factorial(i + j + k + 3))


def _monomial_tri(i, j):
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def test_weights_sum_to_reference_measure():
    assert abs(make_quadrature("tet", 2).weights.sum() - 1.0 / 6.0) < 1e-14
    assert abs(make_quadrature("tri", 3).weights.sum() - 0.5) < 1e-14
    assert abs(make_quadrature("edge", 3).weights.sum() - 1.0) < 1e-14


def test_tet_degree2_integrates_xy():
    rule = make_quadrature("tet", 2)
    xyz = rule.cartesian
    val = float(np.sum(rule.weights * xyz[:, 0] * xyz[:, 1]))
    assert abs(val - 1.0 / 120.0) < 1e-14


def test_edge_degree3_integrates_t_cubed():
    rule = make_quadrature("edge", 3)
    t = rule.cartesian[:, 0]
    assert abs(float(np.sum(rule.weights * t ** 3)) - 0.25) < 1e-14


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_tet_monomial_exactness(degree):
    rule = make_quadrature("tet", degree)
    xyz = rule.cartesian
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                val = float(np.sum(rule.weights * xyz[:, 0] ** i
                                   * xyz[:, 1] ** j * xyz[:, 2] ** k))
                assert abs(val - _monomial_tet(i, j, k)) < 1e-13


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_tri_monomial_exactness(degree):
    rule = make_quadrature("tri", degree)
    xy = rule.cartesian
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            val = float(np.sum(rule.weights * xy[:, 0] ** i * xy[:, 1] ** j))
            assert abs(val - _monomial_tri(i, j)) < 1e-13


def test_subdivided_tri_rule_exact_and_refining():
    rule = subdivided_tri_rule(4, 2)
    xy = rule.cartesian
    val = float(np.sum(rule.weights * xy[:, 0] ** 2 * xy[:, 1] ** 2))
    assert abs(val - _monomial_tri(2, 2)) < 1e-13
    assert abs(rule.weights.sum() - 0.5) < 1e-13
    assert len(rule.weights) > len(make_quadrature("tri", 4).weights)


def test_unsupported_degree_raises():
    with pytest.raises(QuadratureError):
        make_quadrature("tet", 9)
    with pytest.raises(QuadratureError):
        make_quadrature("tri", 5)
    with pytest.raises(QuadratureError):
        make_quadrature("prism", 2)


def test_barycentric_points_sum_to_one():
    for kind in ("tet", "tri", "edge"):
        rule = make_quadrature(kind, 2)
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_rules_built_once_and_read_only():
    assert make_quadrature("tet", 2) is make_quadrature("tet", 2)
    assert subdivided_tri_rule(4, 3) is subdivided_tri_rule(4, 3)
    rule = make_quadrature("tri", 3)
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0
