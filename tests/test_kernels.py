import numpy as np

from curldiv import kernels


def test_geometry_volumes(cube1):
    _, det = kernels.tet_geometry(cube1.vertices, cube1.tets)
    assert np.allclose(np.abs(det) / 6.0, cube1.volumes, atol=1e-15)


def test_barycentric_gradients_sum_to_zero(cube1):
    grads, _ = kernels.tet_geometry(cube1.vertices, cube1.tets)
    assert np.abs(grads.sum(axis=1)).max() < 1e-12
