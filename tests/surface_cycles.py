"""Reference selection of the domain generators in two steps, by dict-based
GF(p) elimination over whole rows of C: a basis of H1 of each boundary
surface, then the first g of those cycles that stay independent in the
domain.  ``domain_homology_basis`` must pick the same cycles in one step."""

import numpy as np

from curldiv.topology import _PRIME, fundamental_cycle


class RowBasis:
    """Incremental row-echelon basis over GF(p) for sparse integer rows."""

    def __init__(self, p: int = _PRIME):
        self.p = p
        self.pivots = {}        # pivot column -> reduced row (dict col -> val)

    def _reduce(self, row: dict) -> dict:
        p = self.p
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            if c not in self.pivots:
                return row
            piv = self.pivots[c]
            factor = row[c] * pow(piv[c], p - 2, p) % p
            for pc, pv in piv.items():
                nv = (row.get(pc, 0) - factor * pv) % p
                if nv:
                    row[pc] = nv
                else:
                    row.pop(pc, None)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; True if it increased the rank."""
        red = self._reduce(row)
        if not red:
            return False
        self.pivots[min(red)] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self, n: int) -> np.ndarray:
        """Rows spanning {x in GF(p)^n : r . x = 0 for every added row r}."""
        p = self.p
        free = [j for j in range(n) if j not in self.pivots]
        out = np.zeros((len(free), n), dtype=np.int64)
        for i, j in enumerate(free):
            x = {j: 1}
            # each pivot row involves only its pivot and later columns
            for c in sorted(self.pivots, reverse=True):
                row = self.pivots[c]
                s = sum(v * x.get(cc, 0) for cc, v in row.items() if cc != c)
                x[c] = -s * pow(row[c], p - 2, p) % p
            out[i, list(x)] = list(x.values())
        return out


def rows_of(C, faces):
    return [dict(zip(map(int, C.indices[C.indptr[f]:C.indptr[f + 1]]),
                     map(int, C.data[C.indptr[f]:C.indptr[f + 1]])))
            for f in faces]


def reference_surface_cycles(m, b, tc):
    """The 2g cycles of a basis of H1 of the boundary and their closing
    edges: per component, from ``components[0]``, the fundamental cycles
    of its cotree edges, ascending, independent of its face rows and of
    the cycles before them."""
    C = m.incidence.C
    cycles, closing = [], []
    for r, comp in enumerate(b.components):
        need = 2 - (len(b.component_vertices[r]) - len(b.component_edges[r])
                    + len(comp))
        if need == 0:
            continue
        basis = RowBasis()
        for row in rows_of(C, comp):
            basis.add(row)
        comp_edges = set(int(e) for e in b.component_edges[r])
        found = 0
        for e in tc.cotree_edges:
            if int(e) not in comp_edges:
                continue
            cyc = fundamental_cycle(tc, int(e))
            if basis.add(dict(cyc)):
                cycles.append(cyc)
                closing.append(int(e))
                found += 1
                if found == need:
                    break
        assert found == need
    return cycles, np.array(closing, dtype=np.int64)


def reference_domain_selection(m, cycles, g):
    """Indices of the first g surface cycles independent of all face rows
    and of the cycles before them: those that survive in H1 of the domain."""
    basis = RowBasis()
    for row in rows_of(m.incidence.C, range(m.n_f)):
        basis.add(row)
    selected = []
    for q, cyc in enumerate(cycles):
        if basis.add(dict(cyc)):
            selected.append(q)
        if len(selected) == g:
            break
    return selected
