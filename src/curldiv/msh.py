"""Gmsh MSH 2.2 ASCII reader and writer.

Only what the solver needs: node coordinates and tetrahedra with their
physical region tag.  Triangle records are checked for three nodes and
skipped; other element types are skipped.  Parse failures (bad records,
node ids declared twice or never) report the offending line number and
section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, build_mesh


class MshParseError(RuntimeError):
    pass


@dataclass
class GmshData:
    mesh: Mesh
    tet_tags: np.ndarray                     # physical region per tet


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


def read_gmsh(path) -> GmshData:
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
                # triangles and other element types are skipped
            if ln.next("Elements") != "$EndElements":
                raise MshParseError(f"line {ln.lineno}: missing $EndElements")
        elif line.startswith("$"):
            # skip unknown section up to its matching end marker
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


def write_gmsh(path, vertices, tets, tet_tags=None) -> None:
    """Write an MSH 2.2 ASCII file (used for fixtures and round trips)."""
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
