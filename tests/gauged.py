"""The tree-cotree gauged reference of the tangential solve, and the g float
sweeps over C that are the reference of the exact harmonic cocycles.

The unit fields of the N*_h edges (``build_N_star``: the cotree less the
sigma_n closing edges) have independent curls that span the curls of all
edges, so the principal submatrix on N*_h of the quotient system is
positive definite and gives the same u_h = C[:, N*_h] x + lift.
"""

import numpy as np

from curldiv import (AssembledSystem, CurlData, FEFunction, Solution,
                     assemble_tangential, build_N_star, nedelec_potential,
                     solve_spd)


def float_cocycles(hb):
    """(n_e, g) Nedelec lifts with zero curl and a unit period on one
    sigma_n: ``HomologyBasis.cocycles`` by g float sweeps over C."""
    m = hb.tree.mesh
    zero = FEFunction("face", m, np.zeros(m.n_f))
    H = np.zeros((m.n_e, hb.g))
    for n, beta in enumerate(np.eye(hb.g)):
        H[:, n] = nedelec_potential(hb, CurlData(zero, beta)).coeffs
    return H


def gauged_system(prob, topo, lift):
    """N*_h and the principal submatrix on it of the quotient system, with
    sorted column indices, so that CG sums each row in column order."""
    full = assemble_tangential(prob, lift, topo.homology)
    gb = build_N_star(topo.homology)
    return gb, AssembledSystem(K=full.K[gb][:, gb].sorted_indices(),
                               rhs=full.rhs[gb],
                               load_compatibility=full.load_compatibility)


def gauged_solution(gb, x, lift):
    """u_h = C[:, N*_h] x + lift, on the mesh of the lift."""
    m = lift.mesh
    return Solution(lift=lift, u_h=FEFunction(
        "face", m, m.incidence.C.tocsc()[:, gb] @ x + lift.coeffs))


def gauged_solve(prob, topo, lift, tol=1e-10):
    """The tangential solution of the gauged system."""
    gb, system = gauged_system(prob, topo, lift)
    return gauged_solution(gb, solve_spd(system, tol=tol), lift)
