"""Output checks, computed from vertex coordinates apart from the program.

Orientation and size of every face and tet come from the coordinates.
The program's incidence matrices and its own residual report are not used
here, except that ``report["passed"]`` must be true.  The documented DOF
conventions are: edge [a, b] with a < b runs from a to b, and face
[a, b, c] with a < b < c has its normal by the right-hand rule on a, b, c.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9              # on values scaled by 1 + max |coefficient|
MIN_ORDER = 0.85        # the paper's first-order convergence, with margin
CONSTANT = np.array([1.0, 2.0, 3.0])    # the "constant" case's field

# Degree-2 rule on a tet: four points in barycentric coordinates, equal weights.
_A, _B = 0.5854101966249685, 0.1381966011250105
_TET_POINTS = np.full((4, 4), _B) + (_A - _B) * np.eye(4)


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def same_input(m, vertices: np.ndarray, n_t: int) -> None:
    """The mesh the program read is the one the benchmark wrote."""
    require(np.array_equal(m.vertices, vertices),
            "vertex coordinates differ from the written input")
    require(m.n_t == n_t, f"read {m.n_t} tets, wrote {n_t}")


def tangential_balance(m, u: np.ndarray, g) -> None:
    """The outward face fluxes of u sum over each tet to the integral of g."""
    tv = m.vertices[m.tets]                                   # (n_t, 4, 3)
    volume = np.abs(np.linalg.det(tv[:, 1:] - tv[:, :1])) / 6.0
    points = np.einsum("qi,tix->tqx", _TET_POINTS, tv)
    integral = volume * g(points.reshape(-1, 3)).reshape(-1, 4).mean(axis=1)
    fv = m.vertices[m.faces[m.tet_faces]]                     # (n_t, 4, 3, 3)
    normal = np.cross(fv[..., 1, :] - fv[..., 0, :], fv[..., 2, :] - fv[..., 0, :])
    away = fv.mean(axis=2) - tv.mean(axis=1)[:, None, :]
    outward = np.sign(np.einsum("tfx,tfx->tf", normal, away))
    net = (outward * u[m.tet_faces]).sum(axis=1)
    err = float(np.abs(net - integral).max())
    require(err <= TOL * (1.0 + np.abs(u).max()),
            f"tangential u_h: tet flux balance off by {err:.3e}")


def constant_reproduced(m, face_flux: np.ndarray, edge_circ: np.ndarray) -> None:
    """Both formulations reproduce the constant field (1, 2, 3) exactly."""
    f = m.vertices[m.faces]
    area = 0.5 * np.cross(f[:, 1] - f[:, 0], f[:, 2] - f[:, 0])
    e = m.vertices[m.edges]
    for name, got, want in (("face fluxes", face_flux, area @ CONSTANT),
                            ("edge circulations", edge_circ,
                             (e[:, 1] - e[:, 0]) @ CONSTANT)):
        err = float(np.abs(got - want).max())
        require(err <= TOL * (1.0 + np.abs(want).max()),
                f"constant case: {name} off by {err:.3e}")


def mesh_size(m) -> float:
    e = m.vertices[m.edges]
    return float(np.linalg.norm(e[:, 1] - e[:, 0], axis=1).max())


def convergence_order(name: str, coarse: tuple, fine: tuple) -> float:
    """Observed order from (h, error) on a coarse and a fine mesh."""
    (hc, ec), (hf, ef) = coarse, fine
    order = float(np.log(ec / ef) / np.log(hc / hf))
    require(order >= MIN_ORDER,
            f"{name}: convergence order {order:.3f} < {MIN_ORDER} "
            f"(errors {ec:.3e} -> {ef:.3e})")
    return order


def cycles(m, chains, axis, g: int) -> None:
    """g closed edge cycles, each winding once around the vertical axis."""
    require(len(chains) == g, f"{len(chains)} homology cycles, expected {g}")
    angle = np.arctan2(m.vertices[:, 1] - axis[1], m.vertices[:, 0] - axis[0])
    for k, chain in enumerate(chains):
        edges = np.array([e for e, _ in chain], dtype=np.int64)
        coef = np.array([c for _, c in chain], dtype=np.float64)
        a, b = m.edges[edges, 0], m.edges[edges, 1]
        boundary = np.zeros(m.n_v)
        np.add.at(boundary, a, -coef)
        np.add.at(boundary, b, coef)
        require(not boundary.any(), f"cycle {k} has a nonzero boundary")
        turn = np.angle(np.exp(1j * (angle[b] - angle[a])))   # in (-pi, pi]
        winding = float(coef @ turn) / (2.0 * np.pi)
        require(abs(abs(winding) - 1.0) < 1e-6,
                f"cycle {k} winds {winding:.6f} times around the column")


def topology_counts(rep: dict, d, n_v: int, n_t: int) -> None:
    """A topology report agrees with the domain's construction."""
    require(rep["n_v"] == n_v and rep["n_t"] == n_t,
            f"report counts {rep['n_v']} vertices / {rep['n_t']} tets, "
            f"wrote {n_v} / {n_t}")
    require(rep["p"] == d.p and rep["g"] == d.g,
            f"p, g = {rep['p']}, {rep['g']}, domain has {d.p}, {d.g}")
    require(rep["betti"] == [1, d.g, d.p],
            f"Betti numbers {rep['betti']}, domain has [1, {d.g}, {d.p}]")
    chi = rep["n_v"] - rep["n_e"] + rep["n_f"] - rep["n_t"]
    require(chi == 1 - d.g + d.p, f"Euler characteristic {chi}")
    require(rep["dim_W0h"] == rep["n_e"] - rep["n_v"] + 1 - d.g,
            f"dim_W0h = {rep['dim_W0h']} != n_e - n_v + 1 - g")


def vtk_cells(path, n_t: int) -> None:
    """A written VTK file holds one cell and one vector per tet."""
    with open(path) as fh:
        text = fh.read()
    for key in ("CELLS", "CELL_TYPES", "CELL_DATA"):
        at = text.find(f"\n{key} ")
        require(at >= 0, f"{path}: no {key} section")
        count = int(text[at + len(key) + 2:].split(None, 1)[0])
        require(count == n_t, f"{path}: {key} {count}, mesh has {n_t} tets")
