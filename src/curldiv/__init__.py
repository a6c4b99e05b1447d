"""Finite element solver for 3-D curl-div boundary value problems.

Two single-field formulations on tetrahedral meshes: a divergence-free
Raviart-Thomas subspace with tangential boundary data, and a curl-free
Nedelec subspace with normal boundary data.  A boundary-first
tree-cotree decomposition with explicit homology generators gives the
topology and the lifts; both systems are solved in a quotient space with
a consistent load.
"""

from .mesh import Mesh, MeshError, build_mesh
from .meshes import (hollow_ball_mesh, single_tet_mesh, solid_torus_mesh,
                     structured_cube_mesh)
from .topology import (HomologyBasis, TopologyError, TreeCotree, betti,
                       build_boundary_first_tree, domain_homology_basis,
                       fundamental_cycle, surface_cycle_basis)
from .elements import (ElementError, FEFunction, Space, differential,
                       interpolate, zero_function)
from .lifts import (CurlData, DivergenceData, LiftError, clean_curl_data,
                    component_fluxes, cycle_period, nedelec_potential,
                    rt_potential)
from .solver import (AssembledSystem, NormalProblem, Solution, SolverError,
                     TangentialProblem, assemble_normal, assemble_tangential,
                     build_L_star, build_N_star, consistent_load, error_norms,
                     recover_solution, solve_spd, validate_tangential)
from .mms import MMSCase, MMSError, REGISTRY, discrete_alpha, discrete_beta, get_case
from .msh import GmshData, MshParseError, read_gmsh, write_gmsh
from .vtk import write_vtk
from .cli import (ProblemConfig, compute_topology, parse_config,
                  run_convergence, solve_on_mesh, topology_report)
from .quadrature import QuadratureError, QuadratureRule, make_quadrature

__version__ = "0.1.0"
