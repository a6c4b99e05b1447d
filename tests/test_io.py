import json

import numpy as np
import pytest

from curldiv import (FEFunction, MeshError, MshParseError, build_mesh,
                     interpolate, read_gmsh, write_gmsh, write_vtk)
from curldiv.cli import main, parse_config, ConfigError
from curldiv.meshes import (hollow_ball_mesh, single_tet_mesh,
                            structured_cube_mesh)
from curldiv.mms import get_case
from curldiv.vtk import _barycenter_values, read_vtk_cell_count

MINIMAL_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 7 1 1 2 3 4
$EndElements
"""


def test_read_minimal_tet(tmp_path):
    p = tmp_path / "tet.msh"
    p.write_text(MINIMAL_MSH)
    data = read_gmsh(p)
    assert data.mesh.n_t == 1
    assert data.tet_tags.tolist() == [7]


def test_roundtrip_cube(tmp_path):
    m = structured_cube_mesh(1)
    p = tmp_path / "cube.msh"
    write_gmsh(p, m.vertices, m.tets, tet_tags=np.full(m.n_t, 3))
    data = read_gmsh(p)
    assert (data.mesh.n_v, data.mesh.n_e, data.mesh.n_f, data.mesh.n_t) == \
        (8, 19, 18, 6)
    assert np.allclose(data.mesh.vertices, m.vertices, atol=1e-15)
    assert np.array_equal(data.mesh.tets, m.tets)
    assert np.all(data.tet_tags == 3)


def test_truncated_file_names_section(tmp_path):
    p = tmp_path / "trunc.msh"
    p.write_text(MINIMAL_MSH.split("$EndNodes")[0])
    with pytest.raises(MshParseError) as err:
        read_gmsh(p)
    assert "Nodes" in str(err.value)


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "v4.msh"
    p.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(MshParseError):
        read_gmsh(p)


def test_binary_rejected(tmp_path):
    p = tmp_path / "bin.msh"
    p.write_text("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
    with pytest.raises(MshParseError):
        read_gmsh(p)


def test_no_tets_rejected(tmp_path):
    p = tmp_path / "empty.msh"
    p.write_text(MINIMAL_MSH.replace(
        "$Elements\n1\n1 4 2 7 1 1 2 3 4\n$EndElements",
        "$Elements\n0\n$EndElements"))
    with pytest.raises(MshParseError):
        read_gmsh(p)


def test_triangle_element_reads_the_same_mesh(tmp_path):
    txt = MINIMAL_MSH.replace(
        "$Elements\n1\n1 4 2 7 1 1 2 3 4\n$EndElements",
        "$Elements\n2\n1 4 2 7 1 1 2 3 4\n2 2 2 5 1 1 2 3\n$EndElements")
    p, q = tmp_path / "tri.msh", tmp_path / "tet.msh"
    p.write_text(txt)
    q.write_text(MINIMAL_MSH)
    with_tri, tet_only = read_gmsh(p), read_gmsh(q)
    assert np.array_equal(with_tri.mesh.vertices, tet_only.mesh.vertices)
    assert np.array_equal(with_tri.mesh.tets, tet_only.mesh.tets)
    assert with_tri.tet_tags.tolist() == [7]


def test_triangle_with_wrong_node_count_rejected(tmp_path):
    p = tmp_path / "tri.msh"
    p.write_text(MINIMAL_MSH.replace(
        "$Elements\n1\n1 4 2 7 1 1 2 3 4\n$EndElements",
        "$Elements\n2\n1 4 2 7 1 1 2 3 4\n2 2 2 5 1 1 2\n$EndElements"))
    with pytest.raises(MshParseError, match="line 14: triangle needs 3"):
        read_gmsh(p)


@pytest.mark.parametrize("old, new, message", [
    ("1 4 2 7 1 1 2 3 4", "1 4 2 7 1 1 2 3 9",
     "line 13: tetrahedron names undeclared node id 9"),
    ("2 1 0 0\n", "2 1 0\n", "line 7: bad node record"),
    ("4 0 0 1\n", "3 0 0 1\n", "line 9: node id 3 declared twice"),
], ids=["undeclared_node", "two_coordinates", "node_declared_twice"])
def test_malformed_msh_exit_2(tmp_path, capsys, old, new, message):
    p = tmp_path / "bad.msh"
    p.write_text(MINIMAL_MSH.replace(old, new))
    with pytest.raises(MshParseError, match=message):
        read_gmsh(p)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"formulation": "tangential",
                                    "case": "mms1"}))
    assert main(["topology", "--mesh", str(p)]) == 2
    assert main(["solve", "--mesh", str(p), "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_vtk_single_tet_zero_field(tmp_path):
    m = single_tet_mesh()
    u = FEFunction("face", m, np.zeros(m.n_f))
    p = tmp_path / "zero.vtk"
    write_vtk(m, u, p)
    assert read_vtk_cell_count(p) == 1
    lines = p.read_text().splitlines()
    vec = lines[lines.index("VECTORS u_h double") + 1].split()
    assert [float(x) for x in vec] == [0.0, 0.0, 0.0]


def test_vtk_constant_field(tmp_path):
    m = structured_cube_mesh(1)

    def u(pts):
        return np.broadcast_to(np.array([1.0, 0.0, 0.0]),
                               (len(pts), 3)).copy()
    u_h = interpolate("face", u, m)
    p = tmp_path / "const.vtk"
    write_vtk(m, u_h, p, residual=np.zeros(m.n_t))
    assert read_vtk_cell_count(p) == m.n_t
    lines = p.read_text().splitlines()
    start = lines.index("VECTORS u_h double") + 1
    for ln in lines[start:start + m.n_t]:
        vals = [float(x) for x in ln.split()]
        assert np.allclose(vals, [1.0, 0.0, 0.0], atol=1e-12)


def _write_vtk_per_row(m, u, path, residual=None):
    """Reference writer: one formatted write per row."""
    vals = _barycenter_values(u)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("curl-div solution\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {m.n_v} double\n")
        for v in m.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write(f"CELLS {m.n_t} {5 * m.n_t}\n")
        for t in m.tets:
            fh.write(f"4 {t[0]} {t[1]} {t[2]} {t[3]}\n")
        fh.write(f"CELL_TYPES {m.n_t}\n")
        fh.write("10\n" * m.n_t)
        fh.write(f"CELL_DATA {m.n_t}\n")
        fh.write("VECTORS u_h double\n")
        for row in vals:
            fh.write(f"{row[0]:.17g} {row[1]:.17g} {row[2]:.17g}\n")
        if residual is not None:
            fh.write("SCALARS residual double 1\nLOOKUP_TABLE default\n")
            for r in np.asarray(residual, dtype=np.float64):
                fh.write(f"{r:.17g}\n")


@pytest.mark.parametrize("space", ["face", "edge"])
@pytest.mark.parametrize("with_residual", [False, True])
def test_vtk_bytes_match_per_row_writer(handle_cavity, tmp_path, space,
                                        with_residual):
    m = handle_cavity
    u = interpolate(space, get_case("mms1").u, m)
    residual = None
    if with_residual:
        rng = np.random.default_rng(0)
        residual = (rng.standard_normal(m.n_t)
                    * 10.0 ** rng.integers(-300, 300, m.n_t))
        residual[:3] = [0.0, -0.0, np.inf]
    write_vtk(m, u, tmp_path / "block.vtk", residual=residual)
    _write_vtk_per_row(m, u, tmp_path / "row.vtk", residual=residual)
    assert ((tmp_path / "block.vtk").read_bytes()
            == (tmp_path / "row.vtk").read_bytes())


def test_parse_config_validation():
    with pytest.raises(ConfigError):
        parse_config({"formulation": "sideways", "case": "mms1"})
    with pytest.raises(ConfigError):
        parse_config({"formulation": "tangential"})
    cfg = parse_config({"formulation": "normal", "case": "mms1",
                        "coefficient": {"kind": "scalar", "value": 2.0},
                        "tol": 1e-9})
    assert cfg.formulation == "normal"
    assert cfg.coefficient == 2.0
    for value in ("1e400", "-1e400", "NaN", "0.0"):
        with pytest.raises(ConfigError, match="finite and > 0"):
            parse_config(json.loads(
                '{"formulation": "normal", "case": "mms1", '
                f'"coefficient": {{"kind": "scalar", "value": {value}}}}}'))
    assert cfg.tol == 1e-9
    assert parse_config({"formulation": "normal", "case": "mms1",
                         "coefficient": {"kind": "identity"}}).coefficient \
        == 1.0
    # each of these used to solve with coefficient 1.0 or tolerance 1.0
    for data, message in (
            ({"coeficient": {"kind": "scalar", "value": 2.5}},
             "unknown config key 'coeficient'"),
            ({"coefficient": {"kind": "identity", "value": 3.0}},
             "unknown coefficient key 'value' for kind 'identity'"),
            ({"coefficient": {"kind": "scalar", "value": True}},
             "coefficient value must be a number, got True"),
            ({"tol": True}, "tol must be finite and > 0, got True")):
        with pytest.raises(ConfigError, match=message):
            parse_config({"formulation": "normal", "case": "mms1", **data})


def test_cli_solve_roundtrip(tmp_path, capsys):
    m = structured_cube_mesh(1)
    mesh_path = tmp_path / "cube.msh"
    write_gmsh(mesh_path, m.vertices, m.tets)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"formulation": "tangential",
                                    "case": "mms1"}))
    out_path = tmp_path / "out.vtk"
    rc = main(["solve", "--mesh", str(mesh_path), "--config", str(cfg_path),
               "--out", str(out_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert out_path.exists()
    report = json.loads(captured.out)
    assert report["passed"] is True


def test_cli_topology(tmp_path, capsys):
    from curldiv.meshes import solid_torus_mesh
    m = solid_torus_mesh()
    mesh_path = tmp_path / "torus.msh"
    write_gmsh(mesh_path, m.vertices, m.tets)
    rc = main(["topology", "--mesh", str(mesh_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["g"] == 1 and report["p"] == 0
    assert report["dim_W0h"] == report["n_f"] - report["n_t"]


def test_cli_missing_file_exit_2(capsys):
    rc = main(["topology", "--mesh", "/nonexistent/mesh.msh"])
    assert rc == 2


def test_cli_bad_config_exit_1(tmp_path, capsys):
    m = single_tet_mesh()
    mesh_path = tmp_path / "tet.msh"
    write_gmsh(mesh_path, m.vertices, m.tets)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"formulation": "sideways",
                                    "case": "mms1"}))
    rc = main(["solve", "--mesh", str(mesh_path), "--config", str(cfg_path)])
    assert rc == 1
    # a misspelt key used to solve with the default in its place
    cfg_path.write_text(json.dumps({"formulation": "tangential",
                                    "case": "mms1", "coeficient": {
                                        "kind": "scalar", "value": 2.5}}))
    rc = main(["solve", "--mesh", str(mesh_path), "--config", str(cfg_path)])
    assert rc == 1
    assert "unknown config key 'coeficient'" in capsys.readouterr().err


def test_cli_convergence(tmp_path, capsys):
    out = tmp_path / "conv.json"
    rc = main(["convergence", "--case", "mms2", "--levels", "2",
               "--json-out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["levels"]) == 2
    assert report["levels"][0]["n"] == 2 and report["levels"][1]["n"] == 4
    text = capsys.readouterr().out
    assert "tangential" in text and "normal" in text


def test_cli_topology_error_exit_1(tmp_path, capsys, monkeypatch):
    from curldiv import cli
    from curldiv.topology import TopologyError

    def broken(m):
        raise TopologyError("inconsistent ranks")
    monkeypatch.setattr(cli, "topology_report", broken)
    mesh_path = tmp_path / "tet.msh"
    m = single_tet_mesh()
    write_gmsh(mesh_path, m.vertices, m.tets)
    assert main(["topology", "--mesh", str(mesh_path)]) == 1
    assert "inconsistent ranks" in capsys.readouterr().err


def test_cli_bug_is_not_a_data_failure(tmp_path, monkeypatch):
    from curldiv import cli

    def buggy(m):
        raise ValueError("a bug, not bad data")
    monkeypatch.setattr(cli, "topology_report", buggy)
    mesh_path = tmp_path / "tet.msh"
    m = single_tet_mesh()
    write_gmsh(mesh_path, m.vertices, m.tets)
    with pytest.raises(ValueError, match="a bug"):
        main(["topology", "--mesh", str(mesh_path)])


@pytest.mark.parametrize("coefficient", [
    {"kind": "scalar"},
    {"kind": "scalar", "value": "x"},
    {"kind": "scalar", "value": -1.0},
    {"kind": "scalar", "value": 0},
    {"kind": "scalar", "value": 1e400},             # JSON 1e400 reads as inf
    {"kind": "scalar", "value": float("nan")},
    {"kind": "per_region", "values": [2.0]},
    {"kind": "identity", "value": 3.0},
    {"kind": "scalar", "value": True},
    {"kind": "scalar", "value": 2.5, "valeu": 3.0},
    {"kind": ["scalar"], "value": 2.5},
])
def test_cli_bad_coefficient_exit_1(tmp_path, capsys, monkeypatch,
                                    coefficient):
    # a ConfigError before any assembly, in both formulations
    from curldiv import cli

    def no_assembly(*args, **kwargs):
        raise AssertionError("the solve ran on a bad coefficient")
    monkeypatch.setattr(cli, "solve_on_mesh", no_assembly)
    for formulation in ("tangential", "normal"):
        assert _solve_exit_code(tmp_path, mesh=structured_cube_mesh(2),
                                formulation=formulation,
                                coefficient=coefficient) == 1
        assert "coefficient" in capsys.readouterr().err


def _solve_exit_code(tmp_path, mesh=None, **config):
    m = single_tet_mesh() if mesh is None else mesh
    mesh_path = tmp_path / "tet.msh"
    write_gmsh(mesh_path, m.vertices, m.tets)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"formulation": "tangential",
                                    "case": "mms1", **config}))
    return main(["solve", "--mesh", str(mesh_path),
                 "--config", str(cfg_path)])


def test_cli_non_object_coefficient_exit_1(tmp_path, capsys):
    assert _solve_exit_code(tmp_path, coefficient="scalar") == 1
    assert "coefficient must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("maxit", ["many", 2.5, 0, -3, True])
def test_cli_bad_maxit_exit_1(tmp_path, capsys, maxit):
    assert _solve_exit_code(tmp_path, maxit=maxit) == 1
    assert "maxit must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [-1, 0, float("inf"), float("nan"), True])
def test_cli_bad_tol_exit_1(tmp_path, capsys, tol):
    assert _solve_exit_code(tmp_path, tol=tol) == 1
    assert "tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("output", [["x.vtk"], 3, 1, True, {"file": "x"}])
def test_cli_bad_output_exit_1(tmp_path, capsys, output):
    assert _solve_exit_code(tmp_path, output=output) == 1
    assert "output must be a file name or null" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[[0.0]], 0.5], ids=["2d", "scalar"])
@pytest.mark.parametrize("name, formulation", [("alpha", "tangential"),
                                               ("beta", "normal")])
def test_cli_alpha_beta_not_flat_exit_1(tmp_path, capsys, name, formulation,
                                        value):
    # a 2-D alpha of the right length ended in a TypeError
    assert _solve_exit_code(tmp_path, mesh=hollow_ball_mesh(),
                            formulation=formulation, **{name: value}) == 1
    assert f"{name} must be a flat list of finite numbers" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
@pytest.mark.parametrize("name, formulation", [("alpha", "tangential"),
                                               ("beta", "normal")])
def test_cli_alpha_beta_not_finite_exit_1(tmp_path, capsys, name, formulation,
                                          value):
    # a NaN alpha ran CG to its iteration limit before failing, and
    # [true] was read as [1.0]
    assert _solve_exit_code(tmp_path, mesh=hollow_ball_mesh(),
                            formulation=formulation, **{name: [value]}) == 1
    assert f"{name} must be a flat list of finite numbers" in \
        capsys.readouterr().err


def test_closed_complex_rejected(tmp_path, capsys):
    """The five tets of the boundary of a 4-simplex: every face is shared
    by two tets, so the complex has no boundary."""
    coords = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.3, 0.4, 0.45]]
    tets = [[j for j in range(5) if j != i] for i in range(5)]
    m = build_mesh(coords, tets)
    with pytest.raises(MeshError, match="closed complex"):
        m.boundary
    assert _solve_exit_code(tmp_path, mesh=m) == 1
    assert "closed complex" in capsys.readouterr().err
