"""The block MSH reader and writer against the per-record ones they
replaced: the same meshes, tags and file bytes, and the same error on the
same line."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curldiv import MshParseError, build_mesh, read_gmsh, write_gmsh
from curldiv.msh import GmshData


class _Lines:
    def __init__(self, path):
        with open(path, "r") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, section):
        if self.pos >= len(self.lines):
            raise MshParseError(
                f"unexpected end of file inside section {section}")
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    @property
    def lineno(self):
        return self.pos


def _read_gmsh_per_record(path) -> GmshData:
    """Reference reader: one split and conversion per record."""
    ln = _Lines(path)
    nodes = {}
    tets, tet_tags, tet_lines = [], [], []
    seen_nodes = seen_elements = False
    while ln.pos < len(ln.lines):
        line = ln.next("top level")
        if line == "$MeshFormat":
            fmt = ln.next("MeshFormat").split()
            if not fmt or not fmt[0].startswith("2.2"):
                raise MshParseError(
                    f"line {ln.lineno}: unsupported MSH version "
                    f"{fmt[0] if fmt else '?'}; need 2.2 ASCII")
            if len(fmt) > 1 and fmt[1] != "0":
                raise MshParseError(
                    f"line {ln.lineno}: binary MSH is not supported")
            if ln.next("MeshFormat") != "$EndMeshFormat":
                raise MshParseError(
                    f"line {ln.lineno}: missing $EndMeshFormat")
        elif line == "$Nodes":
            seen_nodes = True
            try:
                n = int(ln.next("Nodes"))
            except ValueError:
                raise MshParseError(
                    f"line {ln.lineno}: bad node count in $Nodes") from None
            for _ in range(n):
                parts = ln.next("Nodes").split()
                try:
                    nid = int(parts[0])
                    x, y, z = map(float, parts[1:4])
                except (ValueError, IndexError):
                    raise MshParseError(
                        f"line {ln.lineno}: bad node record") from None
                if nid in nodes:
                    raise MshParseError(
                        f"line {ln.lineno}: node id {nid} declared twice")
                nodes[nid] = [x, y, z]
            if ln.next("Nodes") != "$EndNodes":
                raise MshParseError(f"line {ln.lineno}: missing $EndNodes")
        elif line == "$Elements":
            seen_elements = True
            try:
                n = int(ln.next("Elements"))
            except ValueError:
                raise MshParseError(
                    f"line {ln.lineno}: bad element count") from None
            for _ in range(n):
                parts = ln.next("Elements").split()
                try:
                    etype = int(parts[1])
                    ntags = int(parts[2])
                    tags = [int(x) for x in parts[3:3 + ntags]]
                    conn = [int(x) for x in parts[3 + ntags:]]
                except (ValueError, IndexError):
                    raise MshParseError(
                        f"line {ln.lineno}: bad element record") from None
                phys = tags[0] if tags else 0
                if etype == 4:                      # tetrahedron
                    if len(conn) != 4:
                        raise MshParseError(
                            f"line {ln.lineno}: tetrahedron needs 4 nodes")
                    tets.append(conn)
                    tet_tags.append(phys)
                    tet_lines.append(ln.lineno)
                elif etype == 2 and len(conn) != 3:     # triangle
                    raise MshParseError(
                        f"line {ln.lineno}: triangle needs 3 nodes")
            if ln.next("Elements") != "$EndElements":
                raise MshParseError(f"line {ln.lineno}: missing $EndElements")
        elif line.startswith("$"):
            end = "$End" + line[1:]
            while ln.next(line) != end:
                pass
    if not seen_nodes or not nodes:
        raise MshParseError("no $Nodes section found")
    if not seen_elements or not tets:
        raise MshParseError("no tetrahedra found in $Elements")

    ids = sorted(nodes)
    remap = {i: k for k, i in enumerate(ids)}
    coords = np.array([nodes[i] for i in ids])
    try:
        tet_arr = np.array([[remap[v] for v in t] for t in tets],
                           dtype=np.int64)
    except KeyError as exc:
        k = next(k for k, t in enumerate(tets) if exc.args[0] in t)
        raise MshParseError(f"line {tet_lines[k]}: tetrahedron names "
                            f"undeclared node id {exc.args[0]}") from None
    mesh = build_mesh(coords, tet_arr)
    return GmshData(mesh=mesh, tet_tags=np.array(tet_tags, dtype=np.int64))


def _write_gmsh_per_line(path, vertices, tets, tet_tags=None) -> None:
    """Reference writer: one formatted write per record."""
    vertices = np.asarray(vertices, dtype=np.float64)
    tets = np.asarray(tets, dtype=np.int64)
    if tet_tags is None:
        tet_tags = np.ones(len(tets), dtype=np.int64)
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(vertices)}\n")
        for i, v in enumerate(vertices):
            fh.write(f"{i + 1} {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{len(tets)}\n")
        for i, (t, tag) in enumerate(zip(tets, tet_tags)):
            fh.write(f"{i + 1} 4 2 {tag} {tag} "
                     f"{t[0] + 1} {t[1] + 1} {t[2] + 1} {t[3] + 1}\n")
        fh.write("$EndElements\n")


def _assert_same_read(path):
    new, ref = read_gmsh(path), _read_gmsh_per_record(path)
    assert np.array_equal(new.mesh.vertices, ref.mesh.vertices)
    assert new.mesh.vertices.flags.c_contiguous
    assert np.array_equal(new.mesh.tets, ref.mesh.tets)
    assert np.array_equal(new.mesh.tet_orient, ref.mesh.tet_orient)
    assert np.array_equal(new.tet_tags, ref.tet_tags)
    assert new.tet_tags.dtype == ref.tet_tags.dtype == np.int64


def _read_gmsh_default_filters(path):
    # outside pytest, whose filterwarnings turns every warning into an
    # error, a DeprecationWarning raised inside numpy is dropped: the
    # reader must reject "1.5" without the filter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return read_gmsh(path)


def _assert_same_error(path):
    with pytest.raises(MshParseError) as ref:
        _read_gmsh_per_record(path)
    with pytest.raises(MshParseError) as new:
        _read_gmsh_default_filters(path)
    assert str(new.value) == str(ref.value)


FIXTURES = ["tet1", "cube1", "cube2", "torus", "hollow", "genus2",
            "handle_cavity", "torus_cavity"]


@pytest.mark.parametrize("mesh", FIXTURES)
def test_writer_bytes_and_reader_match_per_record(mesh, request, tmp_path):
    m = request.getfixturevalue(mesh)
    tags = np.random.default_rng(0).integers(-5, 1000, m.n_t)
    for i, t in enumerate((None, tags)):
        block, line = tmp_path / f"block{i}.msh", tmp_path / f"line{i}.msh"
        write_gmsh(block, m.vertices, m.tets, tet_tags=t)
        _write_gmsh_per_line(line, m.vertices, m.tets, tet_tags=t)
        assert block.read_bytes() == line.read_bytes()
        _assert_same_read(block)


@pytest.mark.parametrize("workload", ["torus-topology", "handle-cavity-solve"])
def test_benchmark_inputs_match_per_record(workload, tmp_path, monkeypatch):
    # the timed input of each workload, renumbered by seeds 1-10
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import inputs
    import workloads
    domain = workloads.WORKLOADS[workload].domain(
        {"torus-topology": 9, "handle-cavity-solve": 7}[workload])
    for seed in range(1, 11):
        vertices, tets = inputs.renumbered(domain, seed)
        block, line = tmp_path / "block.msh", tmp_path / "line.msh"
        write_gmsh(block, vertices, tets)
        _write_gmsh_per_line(line, vertices, tets)
        assert block.read_bytes() == line.read_bytes()
        _assert_same_read(block)


def _renumbered(m, seed):
    """The vertices, the tets and the vertices inside each tet permuted."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m.n_v)
    vertices = np.empty_like(m.vertices)
    vertices[perm] = m.vertices
    tets = rng.permuted(perm[m.tets][rng.permutation(m.n_t)], axis=1)
    return vertices, tets


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 3))
def test_renumbered_fixtures_match_per_record(seed, which, tmp_path_factory):
    from curldiv.meshes import (hollow_ball_mesh, single_tet_mesh,
                                solid_torus_mesh, structured_cube_mesh)
    base = (single_tet_mesh, lambda: structured_cube_mesh(2),
            solid_torus_mesh, hollow_ball_mesh)[which]()
    vertices, tets = _renumbered(base, seed)
    tags = np.random.default_rng(seed).integers(0, 9, len(tets))
    path = tmp_path_factory.mktemp("msh") / "renumbered.msh"
    write_gmsh(path, vertices, tets, tet_tags=tags)
    _assert_same_read(path)


HEADER = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
NODES = ["1 0 0 0", "2 1 0 0", "3 0 1 0", "4 0 0 1", "5 1 1 1"]
# a point, a line, two triangles with two tags, tets with two and three tags
ELEMENTS = ["1 15 2 0 1 1", "2 1 2 0 1 1 2", "3 2 2 5 1 1 2 3",
            "4 4 2 7 1 1 2 3 4", "5 2 2 6 2 2 3 5", "6 4 3 8 2 9 2 3 4 5",
            "7 1 2 0 1 4 5"]


def _msh(nodes=NODES, elements=ELEMENTS, node_sections=1):
    parts = [HEADER]
    for chunk in np.array_split(np.arange(len(nodes)), node_sections):
        parts.append(f"$Nodes\n{len(chunk)}\n"
                     + "".join(nodes[i] + "\n" for i in chunk) + "$EndNodes\n")
    parts.append(f"$Elements\n{len(elements)}\n"
                 + "".join(e + "\n" for e in elements) + "$EndElements\n")
    return "".join(parts)


@pytest.mark.parametrize("text", [
    _msh(),
    _msh(node_sections=2),
    _msh(nodes=NODES[::-1], node_sections=3),
    _msh(elements=ELEMENTS[::-1]),
    _msh(nodes=["1 0 0 0 # the origin"] + NODES[1:]),
    _msh(nodes=["  1\t0 0 0 "] + NODES[1:]),
    _msh(nodes=[f"{10 * i + 3} {v}" for i, v in enumerate(
        n.split(" ", 1)[1] for n in NODES)],
         elements=["1 4 0 3 13 23 33", "2 4 1 4 13 23 33 43"]),
    _msh(nodes=NODES[:4], elements=["x 4 2 7 1 1 2 3 4"]),
    _msh(nodes=["+1 0 0 0", "2 1e0 0 0", "3 0 1.0 -0", "4 0 0 .1e1",
                "5 1 1 1"]),
], ids=["mixed", "two_node_sections", "three_node_sections_reversed",
        "elements_reversed", "trailing_hash", "whitespace", "ids_not_dense",
        "element_id_unread", "number_forms"])
def test_block_reader_matches_per_record(text, tmp_path):
    p = tmp_path / "m.msh"
    p.write_text(text)
    _assert_same_read(p)


@pytest.mark.parametrize("text", [
    _msh(nodes=NODES[:2] + ["# 3 0 1 0"] + NODES[3:]),
    _msh(nodes=NODES[:2] + ["3 0 # 1 0"] + NODES[3:]),
    _msh(nodes=NODES[:2] + ["1.5 0 1 0"] + NODES[3:]),
    _msh(nodes=NODES[:2] + ["1e0 0 1 0"] + NODES[3:]),
    _msh(nodes=NODES[:2] + ["3 0 1"] + NODES[3:]),
    _msh(nodes=NODES[:2] + [""] + NODES[3:]),
    _msh(elements=ELEMENTS[:3] + ["4 4 2 7 1 1 2 a 4"] + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:3] + ["4 4 2 7 1 1 2.7 3 4"] + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:3] + ["4 4 2 7 1 1 2 3 4 #"] + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:3] + ["4 4"] + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:3] + ["4 4 0"] + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:3] + ["4 4 2 7 1 1 2 3"] + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:3] + ["4 4 9223372036854775807 1 2 3 4"]
         + ELEMENTS[4:]),
    _msh(elements=ELEMENTS[:2] + ["3 2 2 5 1 1 2"] + ELEMENTS[3:]),
    # the earlier of two errors in groups of different token counts
    _msh(elements=ELEMENTS[:2] + ["3 2 2 5 1 1 2 3 4"] + ELEMENTS[3:5]
         + ["6 4 3 8 2 9 2 3 4 x"] + ELEMENTS[6:]),
    _msh(elements=ELEMENTS[:2] + ["3 2 2 5 1 1 x 3"] + ELEMENTS[3:5]
         + ["6 4 3 8 2 9 2 3 4"] + ELEMENTS[6:]),
    # a duplicate before a bad record, and a bad record before a duplicate
    _msh(nodes=NODES[:2] + ["1 0 1 0", "4 0 x 1"] + NODES[4:]),
    _msh(nodes=NODES[:2] + ["3 0 x 0", "1 0 0 1"] + NODES[4:]),
    _msh(nodes=NODES[:3] + ["2 0 0 1"] + NODES[4:], node_sections=2),
    _msh(elements=ELEMENTS[:3] + ["4 4 2 7 1 1 2 3 6"] + ELEMENTS[4:]),
    HEADER + "$Nodes\n5\n" + "\n".join(NODES[:3]) + "\n",
    HEADER + "$Nodes\n3\n" + "\n".join(NODES) + "\n$EndNodes\n",
    HEADER + "$Nodes\n-2\n$EndNodes\n",
    _msh(elements=["1 4 2 7 1 1 2 3 4"]).replace("$EndElements\n", ""),
    _msh(elements=["1 2 2 5 1 1 2 3"]),
], ids=["hash_first", "hash_inside", "id_1.5", "id_1e0", "short_node",
        "empty_node_line", "letter_in_element", "tet_node_2.7",
        "hash_in_element", "short_element", "tet_no_nodes", "tet_three_nodes",
        "tag_count_int64_max", "triangle_two_nodes",
        "wrong_triangle_before_bad_tet", "bad_triangle_before_tet",
        "duplicate_before_bad", "bad_before_duplicate",
        "duplicate_across_sections", "undeclared_node",
        "truncated_nodes", "node_count_short", "negative_node_count",
        "missing_end_elements", "no_tets"])
def test_block_reader_errors_match_per_record(text, tmp_path):
    p = tmp_path / "bad.msh"
    p.write_text(text)
    _assert_same_error(p)


@pytest.mark.parametrize("text, message", [
    (_msh(elements=ELEMENTS[:1] + ["2 1 -1 1 2"] + ELEMENTS[2:]),
     "line 15: bad element record"),
    (_msh(nodes=NODES[:2] + ["99999999999999999999 0 1 0"] + NODES[3:]),
     "line 8: bad node record"),
    (_msh(nodes=NODES[:2] + ["3 0 1_0 0"] + NODES[3:]),
     "line 8: bad node record"),
], ids=["negative_tag_count", "id_beyond_int64", "digit_separator"])
def test_block_reader_rejects_what_per_record_misread(text, message,
                                                      tmp_path):
    # the per-record reader sliced a record by a negative tag count, took
    # node ids beyond int64 and Python's "1_0"
    p = tmp_path / "bad.msh"
    p.write_text(text)
    with pytest.raises(MshParseError, match=message):
        _read_gmsh_default_filters(p)
