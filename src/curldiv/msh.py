"""Gmsh MSH 2.2 ASCII reader and writer.

Only what the solver needs: node coordinates and tetrahedra with their
physical region tag.  Triangle records are checked for three nodes and
skipped; other element types are skipped.  The records of a $Nodes or
$Elements block are parsed in bulk, one ``np.loadtxt`` per group of records
with the same token count; ``#`` is a token like any other, not a comment.
Parse failures (bad records, node ids declared twice or never) report the
offending line number and section.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, build_mesh
from .vtk import _rows


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

    def block(self, n):
        """The next n lines, or as many as are left, and the number of the
        first."""
        first = self.pos + 1
        lines = self.lines[self.pos:self.pos + max(n, 0)]
        self.pos += len(lines)
        return lines, first

    @property
    def lineno(self):
        return self.pos


_NODE = np.dtype([("id", np.int64), ("x", np.float64, 3)])


def _node_rows(lines, ntok):
    # a node record is its id and three coordinates; later tokens are ignored
    return np.loadtxt(lines, dtype=_NODE, comments=None, usecols=range(4),
                      ndmin=1)


def _element_rows(lines, ntok):
    # the element id (token 0) is not read
    return np.loadtxt(lines, dtype=np.int64, comments=None,
                      usecols=range(1, ntok), ndmin=2)


def _records(block, min_tokens, parse):
    """Parse a block's records in groups of equal token count: the block
    positions and the rows of each group, and the position of the first
    record with fewer than ``min_tokens`` tokens or that does not parse
    (``len(block)`` if there is none)."""
    ntok = np.fromiter(map(len, map(str.split, block)), dtype=np.int64,
                       count=len(block))
    groups, bad = [], [len(block)]
    with warnings.catch_warnings():
        # numpy releases that parse an integer such as "1.5" or "1e0"
        # through a float only warn, and drop the warning by default; as an
        # error it makes np.loadtxt raise ValueError
        warnings.simplefilter("error", DeprecationWarning)
        for c in np.unique(ntok).tolist():
            pos = np.flatnonzero(ntok == c)
            if c < min_tokens:
                bad.append(pos[0])
                continue
            lines = [block[i] for i in pos]
            try:
                groups.append((pos, c, parse(lines, c)))
            except ValueError:
                # name the first record of the group that fails on its own
                for i, line in zip(pos, lines):
                    try:
                        parse([line], c)
                    except ValueError:
                        bad.append(i)
                        break
    return groups, int(min(bad))


def _nodes(block, first, declared):
    """The node records of one $Nodes block whose first record is on line
    ``first``; ``declared`` holds the ids of earlier blocks."""
    groups, bad = _records(block, 4, _node_rows)
    if bad < len(block):
        _nodes(block[:bad], first, declared)    # a duplicate comes first
        raise MshParseError(f"line {first + bad}: bad node record")
    rows = np.empty(len(block), dtype=_NODE)
    for pos, _, r in groups:
        rows[pos] = r
    ids = np.concatenate([declared, rows["id"]])
    once = np.zeros(len(ids), dtype=bool)
    once[np.unique(ids, return_index=True)[1]] = True
    if not once.all():
        k = int(np.argmin(once))
        raise MshParseError(f"line {first + k - len(declared)}: "
                            f"node id {ids[k]} declared twice")
    return rows


def _elements(block, first):
    """Node ids, physical tags and line numbers of the tetrahedra of one
    $Elements block whose first record is on line ``first``, in file order."""
    groups, bad = _records(block, 3, _element_rows)
    if bad < len(block):
        _elements(block[:bad], first)           # an earlier error first
        raise MshParseError(f"line {first + bad}: bad element record")
    errors = []
    tets = [(np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64),
             np.zeros(0, dtype=np.int64))]
    for pos, c, A in groups:                    # A[:, j] is token j + 1
        etype, ntags = A[:, 0], A[:, 1]
        n_nodes = c - 3 - np.clip(ntags, 0, c - 3)  # tokens after the tags
        for what, wrong in (
                ("bad element record", ntags < 0),
                ("tetrahedron needs 4 nodes", (etype == 4) & (n_nodes != 4)),
                ("triangle needs 3 nodes", (etype == 2) & (n_nodes != 3))):
            if wrong.any():
                errors.append((pos[np.argmax(wrong)], what))
        tet = etype == 4
        if tet.any():
            # the physical tag is the first tag: with 4 nodes, a record
            # has tags iff it has more than 7 tokens
            phys = A[tet, 2] if c > 7 else np.zeros(np.count_nonzero(tet),
                                                    dtype=np.int64)
            tets.append((pos[tet], A[tet, -4:], phys))
    if errors:
        at, what = min(errors)
        raise MshParseError(f"line {first + at}: {what}")
    pos, conn, phys = (np.concatenate(x) for x in zip(*tets))
    order = np.argsort(pos)
    return conn[order], phys[order], first + pos[order]


def read_gmsh(path) -> GmshData:
    ln = _Lines(path)
    nodes = np.zeros(0, dtype=_NODE)
    tets, tet_tags, tet_lines = [], [], []
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
            try:
                n = int(ln.next("Nodes"))
            except ValueError:
                raise MshParseError(
                    f"line {ln.lineno}: bad node count in $Nodes") from None
            block, first = ln.block(n)
            nodes = np.concatenate([nodes, _nodes(block, first, nodes["id"])])
            if ln.next("Nodes") != "$EndNodes":
                raise MshParseError(f"line {ln.lineno}: missing $EndNodes")
        elif line == "$Elements":
            try:
                n = int(ln.next("Elements"))
            except ValueError:
                raise MshParseError(
                    f"line {ln.lineno}: bad element count") from None
            block, first = ln.block(n)
            for out, x in zip((tets, tet_tags, tet_lines),
                              _elements(block, first)):
                out.append(x)
            if ln.next("Elements") != "$EndElements":
                raise MshParseError(f"line {ln.lineno}: missing $EndElements")
        elif line.startswith("$"):
            # skip unknown section up to its matching end marker
            end = "$End" + line[1:]
            while ln.next(line) != end:
                pass
    if not len(nodes):
        raise MshParseError("no $Nodes section found")
    tets = np.concatenate(tets or [np.zeros((0, 4), dtype=np.int64)])
    if not len(tets):
        raise MshParseError("no tetrahedra found in $Elements")

    order = np.argsort(nodes["id"])
    ids, coords = nodes["id"][order], nodes["x"][order]
    # searching sorted keys is several times faster than unsorted ones
    flat = tets.ravel()
    by_id = np.argsort(flat)
    at = np.empty_like(flat)
    at[by_id] = np.minimum(np.searchsorted(ids, flat[by_id]), len(ids) - 1)
    at = at.reshape(tets.shape)
    undeclared = (ids[at] != tets).ravel()
    if undeclared.any():
        k = int(np.argmax(undeclared))
        raise MshParseError(f"line {np.concatenate(tet_lines)[k // 4]}: "
                            "tetrahedron names undeclared node id "
                            f"{tets.ravel()[k]}")
    mesh = build_mesh(coords, at)
    return GmshData(mesh=mesh, tet_tags=np.concatenate(tet_tags))


def write_gmsh(path, vertices, tets, tet_tags=None) -> None:
    """Write an MSH 2.2 ASCII file (used for fixtures and round trips)."""
    vertices = np.asarray(vertices, dtype=np.float64)
    tets = np.asarray(tets, dtype=np.int64)
    if tet_tags is None:
        tet_tags = np.ones(len(tets), dtype=np.int64)
    tet_tags = np.asarray(tet_tags, dtype=np.int64)
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(vertices)}\n")
        # ids as float64 are exact below 2^53
        fh.write(_rows("%d %.17g %.17g %.17g\n", np.column_stack(
            [np.arange(1, len(vertices) + 1), vertices])))
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{len(tets)}\n")
        fh.write(_rows("%d 4 2 %d %d %d %d %d %d\n", np.column_stack(
            [np.arange(1, len(tets) + 1), tet_tags, tet_tags, tets + 1])))
        fh.write("$EndElements\n")
