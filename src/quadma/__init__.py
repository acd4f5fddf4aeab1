"""Monotone quadrature-based finite difference solvers for the
two-dimensional Monge-Ampere equation with Dirichlet boundary conditions.

Two grid backends are provided: a hexagon-vertex mesh paired with the
trapezoid rule over six uniform directions, and a Cartesian mesh with
width-growing L1-circle stencils paired with a non-uniform Simpson rule.
Both yield monotone schemes solved by a damped Newton iteration.
"""

from .angles import AngularDiscretization, filter_angles, hex_angles, l1_angles, uniform_angles
from .benchmarks import (BENCHMARKS, BenchmarkProblem, ConvergenceRow, StudyResult,
                         convergence_study, ex1, ex2, ex3, ex4, fit_order, max_error,
                         solve_problem)
from .domains import ConvexDomain, disc, make_domain, rectangle, square
from .meshing import (Grid, build_grid, cartesian_mesh, default_stencil_depth,
                      grid_diagnostics, grid_to_jsonable, hexagonal_mesh)
from .operator import (SchemeParams, assemble_jacobian, default_epsilon, default_params,
                       scheme_apply, sdd_matrix)
from .quadrature import QuadratureRule, integrate, simpson_weights, trapezoid_weights
from .solver import NewtonConfig, SolveReport, coarse_to_fine, damped_newton, poisson_init

__version__ = "0.1.0"

__all__ = [
    "AngularDiscretization", "uniform_angles", "hex_angles", "l1_angles",
    "filter_angles",
    "QuadratureRule", "trapezoid_weights", "simpson_weights", "integrate",
    "ConvexDomain", "rectangle", "square", "disc", "make_domain",
    "Grid", "cartesian_mesh", "hexagonal_mesh", "build_grid", "default_stencil_depth",
    "grid_to_jsonable", "grid_diagnostics",
    "SchemeParams", "default_epsilon", "default_params", "sdd_matrix",
    "scheme_apply", "assemble_jacobian",
    "NewtonConfig", "SolveReport", "poisson_init", "damped_newton", "coarse_to_fine",
    "BenchmarkProblem", "ex1", "ex2", "ex3", "ex4", "BENCHMARKS", "max_error",
    "solve_problem", "ConvergenceRow", "StudyResult", "fit_order", "convergence_study",
    "__version__",
]
