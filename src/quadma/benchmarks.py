"""Benchmark problems with known solutions, plus convergence-order studies.

Four standard Dirichlet test problems of decreasing regularity, each posed
on a square, with closed-form solution, right-hand side and boundary data:

* ``ex1`` -- smooth radially symmetric exponential, infinitely
  differentiable;
* ``ex2`` -- a once continuously differentiable cone-like solution that is
  flat (fully degenerate Hessian) on an inner disc;
* ``ex3`` -- smooth inside but with the gradient blowing up toward one
  corner of the domain;
* ``ex4`` -- a rank-one quadratic, semi-degenerate everywhere (one Hessian
  eigenvalue identically zero) with vanishing right-hand side.

``convergence_study`` runs one problem across a list of grid sizes,
recording max errors and runtimes and fitting the convergence order by
least squares in log-log coordinates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domains import ConvexDomain, rectangle
from .meshing import Grid, build_grid, default_stencil_depth
from .operator import SchemeParams, default_params
from .solver import NewtonConfig, SolveReport, coarse_to_fine, damped_newton, poisson_init

__all__ = [
    "BenchmarkProblem",
    "ex1", "ex2", "ex3", "ex4",
    "BENCHMARKS",
    "max_error",
    "solve_problem",
    "ConvergenceRow",
    "StudyResult",
    "fit_order",
    "convergence_study",
]


@dataclass(frozen=True)
class BenchmarkProblem:
    """Exact solution, right-hand side and boundary data on a convex domain.

    All three callables are vectorized over point arrays of shape
    ``(..., 2)``; ``g`` is the restriction of ``u_exact`` to the boundary.
    """

    name: str
    domain: ConvexDomain
    u_exact: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    g: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _sq_norm(p):
    return p[..., 0] ** 2 + p[..., 1] ** 2


def ex1() -> BenchmarkProblem:
    """Smooth radial solution ``exp(|x|^2 / 2)`` on (-1, 1)^2."""
    def u(p):
        return np.exp(0.5 * _sq_norm(p))

    def f(p):
        r2 = _sq_norm(p)
        return (1.0 + r2) * np.exp(r2)

    return BenchmarkProblem("ex1", rectangle((-1.0, -1.0), 2.0), u, f, u)


def ex2() -> BenchmarkProblem:
    """C^1 solution, flat on the disc of radius 0.2 around (0.5, 0.5), on (0, 1)^2."""
    x0 = np.array([0.5, 0.5])

    def u(p):
        rr = np.sqrt(_sq_norm(p - x0))
        return 0.5 * np.maximum(rr - 0.2, 0.0) ** 2

    def f(p):
        rr = np.sqrt(_sq_norm(p - x0))
        # (1 - 0.2/r)^+ vanishes for r <= 0.2, including the center r = 0.
        return np.where(rr > 0.2, 1.0 - 0.2 / np.maximum(rr, 0.2), 0.0)

    return BenchmarkProblem("ex2", rectangle((0.0, 0.0), 1.0), u, f, u)


def ex3() -> BenchmarkProblem:
    """Solution ``-sqrt(2 - |x|^2)`` on (0, 1)^2; gradient blows up at (1, 1)."""
    def u(p):
        return -np.sqrt(np.maximum(2.0 - _sq_norm(p), 0.0))

    def f(p):
        return 2.0 / (2.0 - _sq_norm(p)) ** 2

    return BenchmarkProblem("ex3", rectangle((0.0, 0.0), 1.0), u, f, u)


def ex4() -> BenchmarkProblem:
    """Rank-one quadratic ``(0.6 x + 0.4 y)^2`` on (-1, 1)^2: f = 0 everywhere."""
    gamma = np.array([0.6, 0.4])

    def u(p):
        return (p @ gamma) ** 2

    def f(p):
        return np.zeros(p.shape[:-1])

    return BenchmarkProblem("ex4", rectangle((-1.0, -1.0), 2.0), u, f, u)


BENCHMARKS = {"ex1": ex1, "ex2": ex2, "ex3": ex3, "ex4": ex4}


def max_error(grid: Grid, computed: np.ndarray, problem: BenchmarkProblem) -> float:
    """Max-norm error against the exact solution over all grid points."""
    return float(np.abs(np.asarray(computed) - problem.u_exact(grid.points)).max())


def solve_problem(problem: BenchmarkProblem, backend: str, n: int, *,
                  K: int | None = None, epsilon: float | None = None,
                  cfg: NewtonConfig = NewtonConfig(), warm_start: bool = False,
                  coarse_n: int | None = None):
    """Build the grid and parameters for a benchmark and run the solver.

    Newton starts from the Poisson initial guess, or with ``warm_start``
    from ``coarse_to_fine`` on a coarse grid of size ``coarse_n`` (its
    default rule if None), which must be below ``n``.  A ``coarse_n``
    without ``warm_start`` is a ValueError.  Returns
    ``(grid, values, report, params)``.
    """
    if coarse_n is not None and not warm_start:
        raise ValueError("coarse_n sets the coarse grid of a warm start; it needs warm_start")
    grid = build_grid(problem.domain, backend, n, K)
    params = default_params(grid, epsilon)
    if warm_start:
        u0 = coarse_to_fine(problem, grid, coarse_n, K=K, epsilon=epsilon, cfg=cfg)
    else:
        u0 = poisson_init(grid, problem.f, problem.g)
    values, report = damped_newton(grid, params, problem.f, problem.g, u0, cfg)
    return grid, values, report, params


@dataclass
class ConvergenceRow:
    """One grid size of a convergence study."""

    n: int
    h: float
    max_error: float
    runtime_seconds: float
    newton_iters: int
    converged: bool
    message: str = ""


@dataclass
class StudyResult:
    problem: str
    backend: str
    rows: list[ConvergenceRow]
    order: float            # headline fit (coarsest row dropped if transient)
    order_all_rows: float
    excluded_coarsest: bool


def fit_order(ns, errors):
    """Least-squares convergence order from errors over grid sizes.

    Fits ``log(error) = c - p * log(n)`` and returns
    ``(order, order_all_rows, excluded_coarsest)``.  The coarsest row is
    treated as a pre-asymptotic transient and dropped from the headline
    fit when it deviates from the line through the remaining rows by more
    than three of their residual standard deviations (a same-fit variance
    test cannot flag an outlier among only a handful of rows, since the
    outlier inflates the variance it is tested against).  Errors at
    rounding level make the fit meaningless and yield NaN.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > 0.0)
    ns, errors = ns[keep], errors[keep]
    if len(ns) < 2 or np.all(errors < 1e-13):
        return float("nan"), float("nan"), False

    logn, loge = np.log(ns), np.log(errors)
    slope, intercept = np.polyfit(logn, loge, 1)
    order_all = -float(slope)

    excluded = False
    order = order_all
    if len(ns) >= 4:
        slope1, intercept1 = np.polyfit(logn[1:], loge[1:], 1)
        resid1 = loge[1:] - (slope1 * logn[1:] + intercept1)
        sigma = max(float(resid1.std()), 0.05)  # floor guards collinear rows
        dev0 = abs(loge[0] - (slope1 * logn[0] + intercept1))
        if dev0 > 3.0 * sigma:
            order = -float(slope1)
            excluded = True
    return order, order_all, excluded


def convergence_study(problem: BenchmarkProblem, backend: str, n_list, *,
                      K: int | None = None, c_K: float | None = None,
                      epsilon: float | None = None,
                      cfg: NewtonConfig = NewtonConfig(),
                      warm_start: bool = False) -> StudyResult:
    """Solve a benchmark over strictly increasing grid sizes and fit the order.

    ``K`` fixes the Cartesian stencil depth for every row; by default the
    depth follows the ``round(n**(1/3))`` schedule (scaled by ``c_K`` if
    given).  A ``c_K`` beside ``K``, or on the hex backend, which has no
    depth, is a ValueError.  Solver failures (``RuntimeError``) are recorded
    per row (NaN error) and do not abort the remaining rows; a
    ``ValueError``, a size or depth the library rejects, propagates.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if c_K is not None and K is not None:
        raise ValueError(f"c_K scales the depth schedule that K={K} replaces; give one of them")
    if c_K is not None and backend in ("hex", "hexagonal"):
        raise ValueError("c_K scales the Cartesian stencil depth; the hex backend has none")

    rows = []
    for n in n_list:
        depth = K if c_K is None else default_stencil_depth(n, c_K)
        start = time.perf_counter()
        try:
            grid, values, report, _ = solve_problem(
                problem, backend, n, K=depth, epsilon=epsilon, cfg=cfg,
                warm_start=warm_start)
            err = max_error(grid, values, problem)
            rows.append(ConvergenceRow(n, grid.h, err, time.perf_counter() - start,
                                       report.iterations, report.converged))
        except RuntimeError as exc:
            rows.append(ConvergenceRow(n, float("nan"), float("nan"),
                                       time.perf_counter() - start, 0, False,
                                       message=str(exc)))

    good = [r for r in rows if r.converged and np.isfinite(r.max_error)]
    order, order_all, excluded = fit_order([r.n for r in good], [r.max_error for r in good])
    return StudyResult(problem.name, backend, rows, order, order_all, excluded)
