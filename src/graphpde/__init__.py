"""PDEs on quantum (metric) graphs with constraint-row vertex conditions.

Workflow: build a graph (templates or explicit edge lists), discretize it
(uniform ghost-point differences or Chebyshev rectangular collocation),
then solve Poisson problems, compute spectra, find standing waves, trace
solution branches, or integrate evolution equations.
"""
from .graphs import (DIRICHLET, Edge, GraphError, MetricGraph, PlotCoords,
                     VertexCondition, build_graph, from_template, set_plot_coords)
from .discretize import (CHEBYSHEV, UNIFORM, Grid, OperatorBundle,
                         apply_function_to_edges, apply_graphical_function,
                         column_to_graph, discretize, graph_to_column)
from .functionals import (FunctionalContext, energy_nls, inner_product, integral,
                          make_context, mass, momentum, norm_lp)
from .linalg import factorize, generalized_eigs, solve
from .stationary import (NLSProblem, eigenvalue_count, eigs, find_spectrum_secular,
                         nls_jacobian, nls_problem, nls_residual, secular_det,
                         secular_matrix, solve_newton, solve_poisson)
from .continuation import (Branch, BranchPoint, ContinuationOptions,
                           bifurcation_diagram, continue_branch,
                           continue_from_branch_point, continue_from_eig,
                           continue_from_end, continue_from_saved, create_run,
                           load_branch, nls_system, save_branch,
                           save_eigenfunctions, save_standing_wave)
from .evolution import (EvolutionProblem, conservation_trace, crank_nicolson_heat,
                        imex_euler, leapfrog_klein_gordon, sdirk443)

__version__ = "0.1.0"
