"""Damped Newton solution of the discrete system, with Poisson warm starts.

The nonlinear system is solved by Newton's method with a backtracking step
length chosen so the max-norm residual strictly decreases at every accepted
step, stopping once the residual falls below ``threshold_factor * h**2``.
The boundary values are set to the Dirichlet data at entry and never move,
so each Newton step solves only for the interior unknowns: the interior
block of the Jacobian, an M-matrix, by Jacobi-preconditioned BiCGSTAB.  A
linear solve that fails ends the iteration as a failed solve; no other
solver stands in for it.  The step is inexact: BiCGSTAB stops at a
relative residual ``eta`` (the forcing term) chosen from the outer progress
by Eisenstat and Walker's choice 2 (SISC 17, 1996), loose while the
residual is large and tight as Newton closes in, while the stopping test
stays on the true nonlinear residual.  The initial guess solves a linear
Dirichlet problem for the discrete Laplacian with right-hand side
``2 sqrt(f)``, which matches the scheme on an isotropic Hessian: on
``u = c |x|**2 / 2`` every second difference is ``c``, and since both
quadrature rules' weights sum to pi the scheme's determinant term is
``c**2`` where ``Lap u = 2 c``.  That Laplacian is the negative of a
nonsingular M-matrix, so its sparse LU needs no pivoting and takes its
pivots on the diagonal, in a fill-reducing symmetric order.  A
coarse-to-fine warm start (solve small, prolong, then polish) is
available for larger runs; its prolongation takes, at every fine
interior point, the second-order Taylor polynomial about the nearest
coarse interior node, with the gradient and Hessian fitted to that node's
stencil differences, so it reproduces quadratics and keeps the curvature
the scheme acts on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .angles import _is_integer, _is_real
from .meshing import Grid, build_grid
from .operator import SchemeParams, _evaluate, _laplacian_system, assemble_jacobian, \
    default_params, scheme_apply, sdd_matrix

__all__ = ["NewtonConfig", "SolveReport", "poisson_init", "damped_newton", "coarse_to_fine"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping and damping policy for the Newton iteration.

    ``residual_threshold_factor`` multiplies ``h**2`` to give the stopping
    threshold on the max-norm residual, and ``max_iterations``, a
    nonnegative integer, caps the Newton steps.  Backtracking multiplies the step
    length by ``DAMPING_BETA`` until the residual decreases, failing once
    the step drops below ``ALPHA_MIN``.
    """

    residual_threshold_factor: float = 1.0
    max_iterations: int = 50

    def __post_init__(self):
        if not _is_real(self.residual_threshold_factor):
            raise ValueError("residual_threshold_factor must be a real number, "
                             f"got {self.residual_threshold_factor!r}")
        if not 0.0 < self.residual_threshold_factor < np.inf:
            raise ValueError("residual_threshold_factor must be finite and positive")
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 0):
            raise ValueError("max_iterations must be a nonnegative integer, "
                             f"got {self.max_iterations}")


@dataclass(kw_only=True)
class SolveReport:
    """Outcome of one damped Newton run.

    The fields are in the order of the ``report`` keys of ``quadma solve
    --output``, which writes ``dataclasses.asdict(report)``.
    ``linear_iterations`` counts the BiCGSTAB iterations of each Newton
    linear solve (see ``_solve_linear``), as scipy's BiCGSTAB would
    count them: the full ones, plus one for an iteration that stopped or
    broke down after its first half step.  ``forcing`` holds the relative
    tolerance ``eta`` it was given.  Both have one entry per iteration,
    plus one for the step whose linear solve failed or whose line search
    stalled, if any.
    """

    converged: bool = False
    iterations: int
    final_residual: float
    alpha_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    message: str = ""
    linear_iterations: list[int] = field(default_factory=list)
    forcing: list[float] = field(default_factory=list)


def _field_values(grid: Grid, f, g) -> tuple[np.ndarray, np.ndarray]:
    """``f`` at the interior points and ``g`` at the boundary points; a
    non-finite value of either is a ValueError naming the field."""
    ni = grid.n_interior
    fv = _evaluate(f, grid.points[:ni], "f")
    gv = _evaluate(g, grid.points[ni:], "g")
    for name, values, where in (("f", fv, "interior"), ("g", gv, "boundary")):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite at the {where} points")
    return fv, gv


def poisson_init(grid: Grid, f, g) -> np.ndarray:
    """Initial guess from the linear problem ``Lap u = 2 sqrt(f)``, ``u = g`` on the boundary.

    On ``u = c |x|**2 / 2 + a . x + b`` the scheme's determinant term is
    ``c**2`` and the Laplacian is ``2 c``, so for ``f = c**2`` and that
    ``u`` as ``g`` the start is ``u`` itself, to roundoff: the isotropic
    solution of the scheme, up to its ``eps`` floor.  Solves ``A x = 2
    sqrt(f) - B g`` on the interior block directly.  ``-A`` is a
    nonsingular M-matrix, which Gaussian elimination factors in any
    symmetric order without pivoting (Berman and Plemmons, *Nonnegative
    Matrices in the Mathematical Sciences*, 1994, ch. 6), so the LU takes
    its pivots on the diagonal in a minimum-degree order of ``A' + A``,
    with less fill than partial pivoting in a column order.  A non-finite
    or negative ``f``, or a non-finite ``g``, is a ValueError.
    """
    fv, gv = _field_values(grid, f, g)
    if np.any(fv < -1e-13):
        raise ValueError("poisson_init requires f >= 0 on interior nodes")
    A, B = _laplacian_system(grid)
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    x = lu.solve(2.0 * np.sqrt(np.maximum(fv, 0.0)) - B @ gv)
    if not np.all(np.isfinite(x)):
        raise RuntimeError("linear solve for the Poisson initialization failed")
    return np.concatenate([x, gv])


# BiCGSTAB iteration cap per Newton step.  On ex1-ex4 from the Poisson start,
# both backends, one BLAS thread, no step took more than 73 iterations at
# n=128 (ex3 on hex) or 175 at n=256 (ex2 on hex, 28178 interior unknowns);
# a solve that reaches the cap fails, and so does its Newton iteration.
BICGSTAB_MAXITER = 2000

# BiCGSTAB breaks down where |rho| or |omega| falls below this; scipy's
# thresholds, kept so that the iterations stop where scipy's stop.
BREAKDOWN_TOL = np.finfo(float).eps ** 2

# Eisenstat-Walker choice 2 (alpha = 2, gamma = 0.9) for the forcing terms:
# eta_0 = ETA_MAX, then eta_k = gamma * (|F_k| / |F_{k-1}|)**2 in the max
# norm, clipped to [ETA_MIN, ETA_MAX].  Their safeguard, raising eta_k to
# gamma * eta_{k-1}**2 when that exceeds 0.1, never applies under
# ETA_MAX = 0.1 (gamma * 0.1**2 < 0.1), so it is left out.  A smaller
# ETA_MAX (0.01) saved Newton steps on ex4 at Cartesian n=256 but cost
# more at n=128, so no cap was better on every case.
ETA_MAX = 0.1
ETA_MIN = 1e-8
ETA_GAMMA = 0.9

# Line search: step length factor per backtrack, and the length at which it stalls.
DAMPING_BETA = 0.5
ALPHA_MIN = 2.0 ** -20


def _forcing_term(residual_history: list[float]) -> float:
    """Relative BiCGSTAB tolerance of the Newton step from the last iterate."""
    if len(residual_history) < 2:
        return ETA_MAX
    ratio = residual_history[-1] / residual_history[-2]
    return max(ETA_MIN, min(ETA_MAX, ETA_GAMMA * ratio ** 2))


def _solve_linear(A, b: np.ndarray, rtol: float) -> tuple[np.ndarray | None, int, str]:
    """Solve the Newton system ``A x = b`` for the interior block ``A`` of the Jacobian.

    The scheme is monotone, so ``A`` is an M-matrix, and it is solved by
    Jacobi-preconditioned BiCGSTAB (van der Vorst, SISSC 13, 1992) from
    ``x = 0`` to ``|A x - b| <= rtol * |b|``.  The loop takes the steps of
    scipy 1.17's BiCGSTAB in its order, with its float operations: inner
    products by ``np.dot``, norms as ``sqrt(r . r)``, products ``A @ v``;
    so it gives scipy's iterates bit for bit, without scipy's operator
    wrappers.  As scipy's does, it stops at the top of an iteration, or
    halfway through one, after the update along the preconditioned search
    direction; it breaks down at the top of an iteration when ``|rho|`` or
    ``|omega|`` falls below ``eps**2``, or halfway when ``dot(rtilde, v)``
    is zero.  Returns ``(x, iterations, failure)``: ``iterations`` counts
    the full iterations, plus one for an iteration that stopped or broke
    down halfway, also when the solve fails; ``failure`` is empty, or names
    the cause when there is no step ``x``: a zero or non-finite diagonal
    entry, a breakdown and its quantity, the iteration cap, or a non-finite
    solution.
    """
    diag = A.diagonal()
    if not np.all(np.isfinite(diag) & (diag != 0.0)):
        return None, 0, "BiCGSTAB cannot run: the Jacobian has a zero or non-finite diagonal entry"
    inv_diag = 1.0 / diag
    bnorm = np.sqrt(np.dot(b, b))
    if bnorm == 0.0:
        return b.copy(), 0, ""
    atol = rtol * bnorm
    x = np.zeros(len(b))
    r, rtilde = b.copy(), b
    for k in range(BICGSTAB_MAXITER):
        if np.sqrt(np.dot(r, r)) < atol:
            iterations = k
            break
        rho = np.dot(rtilde, r)
        if np.abs(rho) < BREAKDOWN_TOL:
            return None, k, "BiCGSTAB broke down: |rho| = |dot(rtilde, r)| fell below eps**2"
        if k == 0:
            p = r.copy()
        else:
            if np.abs(omega) < BREAKDOWN_TOL:
                return None, k, "BiCGSTAB broke down: |omega| fell below eps**2"
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        phat = inv_diag * p
        v = A @ phat
        rv = np.dot(rtilde, v)
        if rv == 0.0:
            return None, k + 1, "BiCGSTAB broke down: dot(rtilde, v) = 0"
        alpha = rho / rv
        r -= alpha * v
        if np.sqrt(np.dot(r, r)) < atol:
            x += alpha * phat
            iterations = k + 1
            break
        shat = inv_diag * r
        t = A @ shat
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    else:
        return None, BICGSTAB_MAXITER, (f"BiCGSTAB did not reach rtol = {rtol:.3e} within its "
                                        f"cap of {BICGSTAB_MAXITER} iterations")
    if not np.all(np.isfinite(x)):
        return None, iterations, "BiCGSTAB returned a non-finite step"
    return x, iterations, ""


def damped_newton(grid: Grid, params: SchemeParams, f, g, u0: np.ndarray,
                  cfg: NewtonConfig = NewtonConfig()):
    """Inexact Newton iteration with residual-decreasing backtracking.

    The boundary values of ``u0`` are replaced by ``g``, so the boundary
    residual is exactly zero throughout and each step moves only the
    interior unknowns.  Each step's linear solve stops at the
    Eisenstat-Walker forcing term (see ``_forcing_term``); the stopping
    test is on the true residual.  Returns ``(u, report)``.
    ``report.converged`` is False when the iteration budget runs out, a
    linear solve fails (``report.message`` names BiCGSTAB and the cause), or
    the line search stalls at ``ALPHA_MIN`` without decreasing the residual;
    the recorded residual history is strictly decreasing across accepted
    steps by construction.  Each accepted step logs one DEBUG record on the
    ``quadma.solver`` logger.  A ``u0`` of a shape other than ``(n_points,)``
    and a non-finite ``u0``, ``f`` or ``g`` are ValueErrors.
    """
    u = np.array(u0, dtype=float)
    if u.shape != (grid.n_points,):
        raise ValueError(f"expected an initial guess of shape ({grid.n_points},), got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial guess must be finite")
    ni = grid.n_interior
    # f and g are fixed on the grid: every residual reuses these values
    fv, gv = _field_values(grid, f, g)
    u[ni:] = gv
    threshold = cfg.residual_threshold_factor * grid.h ** 2

    res = scheme_apply(grid, u, params, fv, gv)
    rnorm = float(np.abs(res).max())
    report = SolveReport(final_residual=rnorm, iterations=0, residual_history=[rnorm])

    while rnorm >= threshold and report.iterations < cfg.max_iterations:
        eta = _forcing_term(report.residual_history)
        A = assemble_jacobian(grid, u, params)
        step, krylov_its, failure = _solve_linear(A, -res[:ni], eta)
        report.linear_iterations.append(krylov_its)
        report.forcing.append(eta)
        if failure:
            report.message = f"linear solve failed: {failure}"
            break

        alpha = 1.0
        while alpha >= ALPHA_MIN:
            trial = u.copy()
            trial[:ni] += alpha * step
            res_trial = scheme_apply(grid, trial, params, fv, gv)
            rnorm_trial = float(np.abs(res_trial).max())
            if rnorm_trial < rnorm:
                break
            alpha *= DAMPING_BETA
        else:
            report.message = ("line search stalled: residual not decreasing "
                              f"at alpha_min = {ALPHA_MIN:.2e}")
            break

        u, res, rnorm = trial, res_trial, rnorm_trial
        report.iterations += 1
        report.alpha_history.append(alpha)
        report.residual_history.append(rnorm)
        log.debug("iter %d: residual=%.6e, alpha=%.6e, krylov_its=%d, eta=%.3e",
                  report.iterations, rnorm, alpha, krylov_its, eta)

    report.final_residual = rnorm
    report.converged = rnorm < threshold
    if not report.converged and not report.message:
        report.message = f"iteration budget exhausted ({cfg.max_iterations})"
    return u, report


def _nearest_node(nodes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the node nearest to each query point, ties to the smallest index.

    ``nodes`` are distinct and in lexicographic ``(y, x)`` order, as a
    grid's interior points are, so they fall into rows of equal y.  The
    squared distance is ``dx*dx + dy*dy``.  Each pass visits, for every
    query, the next row above and the next row below it, until no row left
    on either side has ``dy*dy`` within the best squared distance so far.
    In a row the nearest nodes are the two beside the query in x (a farther
    node could only tie them by roundoff, where ``dy*dy`` swamps ``dx*dx``);
    one search over the keys ``(row, rank of x)``, exact integers sorted
    like the nodes, finds them in every row at once.
    """
    x, y = nodes[:, 0], nodes[:, 1]
    qx, qy = queries[:, 0], queries[:, 1]
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    row_y = y[starts]
    row = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(y)]))
    xs, rank = np.unique(np.concatenate([x, qx]), return_inverse=True)
    keys = row * len(xs) + rank[:len(x)]
    q_keys = rank[len(x):]

    best = np.full(len(queries), np.inf)
    nearest = np.zeros(len(queries), dtype=np.int64)
    up = np.searchsorted(row_y, qy)  # rows up, up + 1, ... lie at or above the query
    down = up - 1
    todo = np.arange(len(queries))
    while todo.size:
        visited = np.zeros(len(todo), dtype=bool)
        for side in (up, down):
            r = side[todo]
            near = (r >= 0) & (r < len(row_y))
            near[near] = (qy[todo[near]] - row_y[r[near]]) ** 2 <= best[todo[near]]
            visited |= near
            q, r = todo[near], r[near]
            right = np.searchsorted(keys, r * len(xs) + q_keys[q])
            for c in (right - 1, right):  # the smaller index first
                ok = (c >= 0) & (c < len(x))
                ok[ok] = row[c[ok]] == r[ok]
                qo, co = q[ok], c[ok]
                d2 = (x[co] - qx[qo]) ** 2 + (y[co] - qy[qo]) ** 2
                better = (d2 < best[qo]) | ((d2 == best[qo]) & (co < nearest[qo]))
                best[qo[better]] = d2[better]
                nearest[qo[better]] = co[better]
        up[todo] += 1
        down[todo] -= 1
        todo = todo[visited]
    return nearest


def _taylor_coefficients(grid: Grid, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``(ux, uy)`` and Hessian ``(uxx, uxy, uyy)`` of ``u`` at every interior node.

    Along each stencil angle ``e_j`` the arms give the first difference
    ``(h-**2 (u+ - u0) + h+**2 (u0 - u-)) / (h+ h- (h+ + h-))`` and the
    second difference ``D_j``, exact on quadratics for ``grad u . e_j`` and
    ``e_j' H e_j``; both are fitted by least squares over the angles.  With
    only the two axis angles (Cartesian K = 1) the cross term ``uxy`` is
    not determined, and the minimum-norm fit sets it to 0.
    """
    ni = grid.n_interior
    uc = u[:ni, None]
    up, um = u[grid.plus_index] - uc, u[grid.minus_index] - uc
    hp, hm = grid.h_plus, grid.h_minus
    first = (hm ** 2 * up - hp ** 2 * um) / (hp * hm * (hp + hm))
    c, s = grid.angles.directions().T
    gradient = first @ np.linalg.pinv(np.column_stack([c, s])).T
    hessian = sdd_matrix(grid, u) @ np.linalg.pinv(np.column_stack([c * c, 2 * c * s, s * s])).T
    return gradient, hessian


def interpolate_to_grid(coarse_grid: Grid, coarse_values: np.ndarray, fine_grid: Grid,
                        g) -> np.ndarray:
    """Values on ``fine_grid``: ``g`` on its boundary, prolonged from the coarse grid inside.

    Every fine interior point takes the second-order Taylor polynomial of
    the coarse values about its nearest coarse interior node, with the
    gradient and Hessian fitted to that node's stencil differences (see
    ``_taylor_coefficients``).  The prolongation reproduces quadratics, and
    so keeps the curvature the scheme acts on; on a Cartesian K = 1 coarse
    grid, whose two angles cannot fit the cross term, it reproduces the
    quadratics without an ``xy`` term.  ``coarse_values`` holds one value
    per coarse point, else ValueError.
    """
    coarse_values = np.asarray(coarse_values, dtype=float)
    if coarse_values.shape != (coarse_grid.n_points,):
        raise ValueError(f"coarse_values has shape {coarse_values.shape}, "
                         f"expected ({coarse_grid.n_points},)")
    ni = fine_grid.n_interior
    inner = fine_grid.points[:ni]
    nodes = coarse_grid.points[:coarse_grid.n_interior]
    k = _nearest_node(nodes, inner)
    gradient, hessian = _taylor_coefficients(coarse_grid, coarse_values)
    dx, dy = (inner - nodes[k]).T
    ux, uy = gradient[k].T
    uxx, uxy, uyy = hessian[k].T
    vals = (coarse_values[k] + ux * dx + uy * dy
            + 0.5 * (uxx * dx * dx + 2.0 * uxy * dx * dy + uyy * dy * dy))
    return np.concatenate([vals, _evaluate(g, fine_grid.points[ni:], "g")])


def coarse_to_fine(problem, fine_grid: Grid, coarse_n: int | None = None, *,
                   K: int | None = None, epsilon: float | None = None,
                   cfg: NewtonConfig = NewtonConfig()) -> np.ndarray:
    """Initial guess on ``fine_grid`` from a converged coarse solve.

    Solves on a grid of size ``coarse_n`` with the fine grid's backend
    (Poisson start + Newton) and prolongs the solution onto the fine
    interior by Taylor polynomials (``interpolate_to_grid``); the fine
    boundary gets ``problem.g``.  ``coarse_n`` of None defaults to
    ``ceil(n / 4)``, at least 8 on hex grids and ``4 * (K or 2) + 4`` on
    Cartesian ones, for the fine size ``n``.  A coarse size not below ``n``
    is a ValueError; a coarse solve that fails, a RuntimeError.
    """
    n, backend = fine_grid.params["n"], fine_grid.kind
    if coarse_n is None:
        coarse_n = max(-(-n // 4), 8 if backend != "cartesian" else 4 * (K or 2) + 4)
    if coarse_n >= n:
        raise ValueError(f"a warm start's coarse grid size must be below n = {n}, "
                         f"got {coarse_n}")

    coarse_grid = build_grid(problem.domain, backend, coarse_n, K)
    coarse_params = default_params(coarse_grid, epsilon)
    u0 = poisson_init(coarse_grid, problem.f, problem.g)
    u_c, rep = damped_newton(coarse_grid, coarse_params, problem.f, problem.g, u0, cfg)
    if not rep.converged:
        raise RuntimeError(f"coarse solve at n={coarse_n} did not converge: {rep.message}")
    return interpolate_to_grid(coarse_grid, u_c, fine_grid, problem.g)
