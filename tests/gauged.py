"""The tree-cotree gauged reference of the tangential solve.

The unit fields of the N*_h edges (``build_N_star``: the cotree less the
sigma_n closing edges) have independent curls that span the curls of all
edges, so the principal submatrix on N*_h of the quotient system is
positive definite and gives the same u_h = C[:, N*_h] x + lift.
"""

from curldiv import (AssembledSystem, FEFunction, Solution,
                     assemble_tangential, build_N_star, harmonic_cocycles,
                     solve_spd)


def gauged_system(prob, m, topo, lift):
    """N*_h and the principal submatrix on it of the quotient system, with
    sorted column indices, so that CG sums each row in column order."""
    full = assemble_tangential(prob, m, lift, harmonic_cocycles(
        m, topo.tree, topo.homology))
    gb = build_N_star(topo.tree, topo.homology)
    return gb, AssembledSystem(K=full.K[gb][:, gb].sorted_indices(),
                               rhs=full.rhs[gb],
                               load_compatibility=full.load_compatibility)


def gauged_solution(m, gb, x, lift):
    """u_h = C[:, N*_h] x + lift."""
    return Solution(lift=lift, u_h=FEFunction(
        "face", m, m.incidence.C.tocsc()[:, gb] @ x + lift.coeffs))


def gauged_solve(prob, m, topo, lift, tol=1e-10):
    """The tangential solution of the gauged system."""
    gb, system = gauged_system(prob, m, topo, lift)
    return gauged_solution(m, gb, solve_spd(system, tol=tol), lift)
