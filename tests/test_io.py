import json

import numpy as np
import pytest

from curldiv import (FEFunction, MshParseError, interpolate, read_gmsh,
                     write_gmsh, write_vtk)
from curldiv.cli import main, parse_config, ConfigError
from curldiv.meshes import single_tet_mesh, structured_cube_mesh
from curldiv.vtk import read_vtk_cell_count

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


def test_triangle_tags_collected(tmp_path):
    txt = MINIMAL_MSH.replace(
        "$Elements\n1\n1 4 2 7 1 1 2 3 4\n$EndElements",
        "$Elements\n2\n1 4 2 7 1 1 2 3 4\n2 2 2 5 1 1 2 3\n$EndElements")
    p = tmp_path / "tri.msh"
    p.write_text(txt)
    data = read_gmsh(p)
    assert data.triangle_tags == {(0, 1, 2): 5}


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


def test_parse_config_validation():
    with pytest.raises(ConfigError):
        parse_config({"formulation": "sideways", "case": "mms1"})
    with pytest.raises(ConfigError):
        parse_config({"formulation": "tangential"})
    cfg = parse_config({"formulation": "normal", "case": "mms1",
                        "coefficient": {"kind": "scalar", "value": 2.0},
                        "tol": 1e-9})
    assert cfg.formulation == "normal"
    assert cfg.coefficient.kind == "scalar"
    assert cfg.tol == 1e-9


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


@pytest.mark.parametrize("coefficient", [{"kind": "scalar"},
                                         {"kind": "scalar", "value": "x"},
                                         {"kind": "scalar", "value": -1.0}])
def test_cli_bad_coefficient_exit_1(tmp_path, coefficient):
    m = single_tet_mesh()
    mesh_path = tmp_path / "tet.msh"
    write_gmsh(mesh_path, m.vertices, m.tets)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"formulation": "tangential",
                                    "case": "mms1",
                                    "coefficient": coefficient}))
    assert main(["solve", "--mesh", str(mesh_path),
                 "--config", str(cfg_path)]) == 1
