import pytest

from curldiv import (hollow_ball_mesh, single_tet_mesh, solid_torus_mesh,
                     structured_cube_mesh)
from curldiv.cli import compute_topology
from curldiv.meshes import _grid_mesh


@pytest.fixture(scope="session")
def tet1():
    return single_tet_mesh()


@pytest.fixture(scope="session")
def cube1():
    return structured_cube_mesh(1)


@pytest.fixture(scope="session")
def cube2():
    return structured_cube_mesh(2)


@pytest.fixture(scope="session")
def torus():
    return solid_torus_mesh()


@pytest.fixture(scope="session")
def hollow():
    return hollow_ball_mesh()


@pytest.fixture(scope="session")
def topo_cube1(cube1):
    return compute_topology(cube1)


@pytest.fixture(scope="session")
def topo_cube2(cube2):
    return compute_topology(cube2)


@pytest.fixture(scope="session")
def topo_torus(torus):
    return compute_topology(torus)


@pytest.fixture(scope="session")
def topo_hollow(hollow):
    return compute_topology(hollow)


@pytest.fixture(scope="session")
def genus2():
    """Two vertical columns removed: g = 2, p = 0."""
    return _grid_mesh(5, 0.2, lambda i, j, k: not (j == 2 and i in (1, 3)))


@pytest.fixture(scope="session")
def handle_cavity():
    """One vertical column and one interior cell removed: g = p = 1."""
    return _grid_mesh(5, 0.2, lambda i, j, k: not (
        (i, j) == (3, 3) or (i, j, k) == (1, 1, 2)))


@pytest.fixture(scope="session")
def torus_cavity():
    """A ring of eight cells removed: the cavity is a solid torus, so the
    internal boundary has genus 1 (g = p = 1)."""
    return _grid_mesh(7, 1.0 / 7, lambda i, j, k: not (
        k == 3 and 2 <= i <= 4 and 2 <= j <= 4 and (i, j) != (3, 3)))


@pytest.fixture(scope="session")
def handle_torus_cavity():
    """A vertical column and a ring of eight cells removed: both boundary
    components are tori (g = 2, p = 1)."""
    return _grid_mesh(7, 1.0 / 7, lambda i, j, k: not (
        (i, j) == (1, 1) or k == 3 and 3 <= i <= 5 and 3 <= j <= 5
        and (i, j) != (4, 4)))


@pytest.fixture(scope="session")
def topo_genus2(genus2):
    return compute_topology(genus2)


@pytest.fixture(scope="session")
def topo_handle_cavity(handle_cavity):
    return compute_topology(handle_cavity)


@pytest.fixture(scope="session")
def topo_torus_cavity(torus_cavity):
    return compute_topology(torus_cavity)


@pytest.fixture(scope="session")
def topo_handle_torus_cavity(handle_torus_cavity):
    return compute_topology(handle_torus_cavity)
