"""The 2g surface cycles of the boundary, walked from their closing edges."""

from curldiv.topology import fundamental_cycle, surface_cycle_basis


def surface_cycles(m, topo):
    """The fundamental cycles, in the boundary tree, of the closing edges
    ``surface_cycle_basis`` picks, and those edges."""
    closing = surface_cycle_basis(m, topo.boundary, topo.tree)
    return ([fundamental_cycle(m, topo.tree.boundary_parent, int(e))
             for e in closing], closing)
