"""Discrete convexified Monge-Ampere operator and its generalized Jacobian.

At an interior node the operator combines the aligned second directional
differences ``D_j`` of the grid function along every stencil angle into

    F = -(1/pi * sum_j w_j / max(D_j, eps))**(-2) - min_j min(D_j, eps)

where ``w_j`` are quadrature weights over the angles and ``eps > 0`` is a
regularization floor that keeps the sum finite when a difference
degenerates.  The first term is a quadrature approximation of a reciprocal
integral representation of the Hessian determinant; the second selects
convex solutions by penalizing negative curvature directions.  The residual
of the discrete problem is ``F + f`` at interior nodes and ``u - g`` at
boundary nodes, so a residual of zero solves the Dirichlet problem.

Both terms are nonincreasing in each neighbor value and nondecreasing in
the center value, so the scheme is monotone; the Jacobian assembly
differentiates the branch active at the current iterate (ties resolved
toward the constant ``eps`` branch), the standard semismooth convention.
The Jacobian is assembled on the interior unknowns only, an M-matrix by
monotonicity, on a sparsity pattern each grid computes once; every step
refills only its values.  The discrete Laplacian of the Poisson start is
the same weighted sum of second differences with fixed weights, on its
own blocks of the same stencil table.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .angles import _is_real
from .meshing import Grid
from .quadrature import QuadratureRule, simpson_weights, trapezoid_weights

__all__ = [
    "SchemeParams",
    "default_params",
    "sdd_matrix",
    "scheme_apply",
    "assemble_jacobian",
]


# Below sqrt(tiny), eps**2 underflows and the Jacobian's discarded entries
# compute 0/0; above cbrt(max / 2), its 2 * S**-3 overflows on a row whose
# differences all lie below eps, where S = 1/eps.  The bound spares a factor 2.
EPSILON_MIN = float(np.sqrt(np.finfo(float).tiny))
EPSILON_MAX = float(np.cbrt(np.finfo(float).max / 4))


@dataclass(frozen=True)
class SchemeParams:
    """Regularization floor, in ``[EPSILON_MIN, EPSILON_MAX]`` (about
    ``[1.5e-154, 3.6e102]``), and quadrature rule used by the scheme."""

    epsilon: float
    quadrature: QuadratureRule

    def __post_init__(self):
        if not _is_real(self.epsilon):
            raise ValueError(f"epsilon must be a real number, got {self.epsilon!r}")
        if not EPSILON_MIN <= self.epsilon <= EPSILON_MAX:
            raise ValueError(f"epsilon must be finite and in [{EPSILON_MIN:.3g}, "
                             f"{EPSILON_MAX:.3g}], got {self.epsilon}")


def default_params(grid: Grid, epsilon: float | None = None) -> SchemeParams:
    """Standard scheme parameters for a grid: Simpson weights on the L1
    angle set and ``epsilon = r**2`` on Cartesian grids, trapezoid weights
    on the uniform hex set and ``epsilon = h**2`` on hexagonal ones."""
    if grid.kind == "cartesian":
        rule, default = simpson_weights(grid.angles), grid.r ** 2
    else:
        rule, default = trapezoid_weights(grid.angles), grid.h ** 2
    return SchemeParams(default if epsilon is None else epsilon, rule)


def _evaluate(func, pts: np.ndarray, name: str) -> np.ndarray:
    """Evaluate a (possibly scalar-returning) field on a point array.

    ``func`` may also be the field's values there already, which pass
    through unchanged.  Values of another shape than ``(len(pts),)`` or a
    scalar are a ValueError that names the field ``name``.
    """
    vals = np.asarray(func(pts) if callable(func) else func, dtype=float)
    # values of the right shape, which a Newton solve passes to every residual, need no view
    if vals.shape == (len(pts),):
        return vals
    if vals.shape != ():
        raise ValueError(f"{name} gave values of shape {vals.shape} at {len(pts)} points, "
                         f"expected ({len(pts)},) or a scalar")
    return np.broadcast_to(vals, (len(pts),))


def sdd_matrix(grid: Grid, u: np.ndarray) -> np.ndarray:
    """All second directional differences, shape ``(n_interior, n_angles)``, of a
    grid function ``u`` of shape ``(n_points,)`` (another shape is a ValueError)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_points,):
        raise ValueError(f"expected a grid function of shape ({grid.n_points},), got {u.shape}")
    # the center values repeated along each row, so that every pass below
    # runs over whole contiguous arrays, not row by row
    uc = np.repeat(u[: grid.n_interior], grid.cp.shape[1]).reshape(grid.cp.shape)
    D = u.take(grid.plus_index)
    D -= uc
    D *= grid.cp
    minus = u.take(grid.minus_index)
    minus -= uc
    minus *= grid.cm
    D += minus
    return D


def _stencil_data(grid: Grid, G: np.ndarray, angles=None) -> np.ndarray:
    """Entries of the rows ``sum_j G[..., j] * D_j`` as the stencil table
    ``[G*cp | G*cm | diagonal]``, raveled, which the grid's blocks index.

    With an angle mask ``angles``, the table spans only the angles it marks,
    as do the blocks that ``Grid._stencil_block`` builds with that mask.
    """
    cp, cm = grid.cp, grid.cm
    if angles is not None:
        cp, cm, G = cp[:, angles], cm[:, angles], G[..., angles]
    ni, m = cp.shape
    table = np.empty((ni, 2 * m + 1))
    np.multiply(G, cp, out=table[:, :m])
    np.multiply(G, cm, out=table[:, m:-1])
    table[:, -1] = -(G * (cp + cm)).sum(axis=1)
    return table.ravel()


def _fill(block: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """A stencil block filled from its table positions in ``data``, sharing its indices.

    A shallow copy of the block takes the new values, so the fill skips the
    format checks of scipy's constructor, which the block passed when it
    was built.
    """
    filled = copy.copy(block)
    filled.data = data[block.data]
    return filled


def _laplacian_coefficients(grid: Grid) -> np.ndarray:
    """Per-angle weights of the second differences that sum to the Laplacian.

    On Cartesian grids the Laplacian is the sum of the second differences
    along the axis angles (0 and pi/2).  On hexagonal grids it uses the
    quadrature identity: the average of the second directional derivatives
    over the half circle equals half the Laplacian, so twice the weighted
    angle sum (trapezoid weights) reproduces it; both forms are exact on
    quadratics.
    """
    if grid.kind == "cartesian":
        lam = np.zeros(len(grid.angles))
        lam[np.argmin(np.abs(grid.angles.angles))] = 1.0
        lam[np.argmin(np.abs(grid.angles.angles - np.pi / 2))] = 1.0
        return lam
    return 2.0 * trapezoid_weights(grid.angles).weights / np.pi


def _laplacian_system(grid: Grid) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """Discrete Laplacian at the interior nodes, split into ``(A, B)``.

    The rows applied to a grid function ``v`` are ``A @ v[:ni] + B @ v[ni:]``.
    Both are blocks of the stencil table of the angles of nonzero weight
    only (two of ``2K`` on Cartesian grids), filled as the Jacobian is, so
    they store no zeros (which slow the factorization many times over) and
    need no Newton pattern.
    ``A`` is CSC, for a direct solve; ``B`` reads the boundary values.
    """
    lam = _laplacian_coefficients(grid)
    angles = lam != 0.0
    data = _stencil_data(grid, lam, angles)
    A = _fill(grid._stencil_block(angles=angles), data).tocsc()
    return A, _fill(grid._stencil_block(boundary=True, angles=angles), data)


def _branches(grid: Grid, u: np.ndarray, params: SchemeParams):
    """``(D, max(D, eps), S, min_j D_j)`` at ``u``, ``S = 1/pi * sum_j w_j / max(D_j, eps)``:
    the branches that the residual and the Jacobian both read.  A rule for
    another angle set is a ValueError.  The minimum is folded over the
    columns, so a zero one may differ in sign from ``D.min(axis=1)``, which
    no output reads: the residual subtracts it from ``-S**-2``, never zero,
    and the Jacobian compares it with ``eps``."""
    angles = params.quadrature.discretization
    if angles is not grid.angles and not np.array_equal(angles.angles, grid.angles.angles):
        raise ValueError("quadrature rule does not match the grid's angle set")
    D = sdd_matrix(grid, u)
    Dmax = np.maximum(D, params.epsilon)
    S = (1.0 / Dmax) @ params.quadrature.weights / np.pi
    return D, Dmax, S, functools.reduce(np.minimum, D.T)


def scheme_apply(grid: Grid, u: np.ndarray, params: SchemeParams, f, g) -> np.ndarray:
    """Residual of the discrete problem at every grid point.

    Interior nodes get the operator value plus ``f``; boundary nodes get
    ``u - g``.  A root of this residual solves the discrete Dirichlet
    problem.  ``f`` and ``g`` are fields on point arrays, or their values
    at the interior and the boundary points, which a solve that calls this
    many times on one grid evaluates once.
    """
    u = np.asarray(u, dtype=float)
    _, _, S, low = _branches(grid, u, params)
    interior_vals = -S ** -2.0 - np.minimum(low, params.epsilon)

    res = np.empty(grid.n_points)
    ni = grid.n_interior
    res[:ni] = interior_vals + _evaluate(f, grid.points[:ni], "f")
    res[ni:] = u[ni:] - _evaluate(g, grid.points[ni:], "g")
    return res


def _jacobian_coefficients(grid: Grid, u: np.ndarray, params: SchemeParams) -> np.ndarray:
    """``dF/dD_j`` at every interior node and angle, on the active branches.

    Angles with ``D_j > eps`` contribute through the quadrature sum, and
    the minimum term contributes ``-1`` through its (first) attaining angle
    when the minimum lies below ``eps``.  At ties (``D_j == eps``) the
    constant branch is chosen, so the result is an element of the
    subdifferential.
    """
    eps = params.epsilon
    w = params.quadrature.weights
    D, Dmax, S, low = _branches(grid, u, params)
    G = np.where(D > eps, -(2.0 * S ** -3.0)[:, None] * (w / np.pi) / Dmax ** 2, 0.0)
    j = D.argmin(axis=1)
    active = np.flatnonzero(low < eps)
    G[active, j[active]] -= 1.0
    return G


def assemble_jacobian(grid: Grid, u: np.ndarray, params: SchemeParams) -> sp.csr_matrix:
    """Generalized Jacobian of :func:`scheme_apply` at ``u`` in the interior unknowns.

    Returns the interior block ``A``, ``ni x ni``: the boundary values are
    the Dirichlet data, so a Newton step leaves them fixed and their
    coupling to the interior rows is not built.  At interior nodes the
    derivative follows the branches active at ``u`` (see
    ``_jacobian_coefficients``).  The index arrays are the grid's
    read-only ``stencil_pattern``: copy the matrix before changing its
    structure in place (``eliminate_zeros``, say).
    """
    return _fill(grid.stencil_pattern, _stencil_data(grid, _jacobian_coefficients(grid, u, params)))
