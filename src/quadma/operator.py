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
the same weighted sum of second differences with fixed weights, assembled
on the same pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import Grid
from .quadrature import QuadratureRule, simpson_weights, trapezoid_weights

__all__ = [
    "SchemeParams",
    "default_epsilon",
    "default_params",
    "sdd_matrix",
    "scheme_apply",
    "assemble_jacobian",
]


@dataclass(frozen=True)
class SchemeParams:
    """Regularization floor and quadrature rule used by the scheme."""

    epsilon: float
    quadrature: QuadratureRule

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")


def default_epsilon(grid: Grid) -> float:
    """Backend defaults: ``r**2`` on Cartesian grids, ``h**2`` on hexagonal."""
    return grid.r ** 2 if grid.kind == "cartesian" else grid.h ** 2


def default_params(grid: Grid, epsilon: float | None = None) -> SchemeParams:
    """Standard scheme parameters for a grid: Simpson weights on the L1
    angle set for Cartesian grids, trapezoid weights on the uniform hex set."""
    if grid.kind == "cartesian":
        rule = simpson_weights(grid.angles)
    else:
        rule = trapezoid_weights(grid.angles)
    return SchemeParams(default_epsilon(grid) if epsilon is None else epsilon, rule)


def _evaluate(func, pts: np.ndarray) -> np.ndarray:
    """Evaluate a (possibly scalar-returning) field on a point array.

    ``func`` may also be the field's values there already, which pass
    through unchanged.
    """
    vals = np.asarray(func(pts) if callable(func) else func, dtype=float)
    return np.broadcast_to(vals, (len(pts),))


def sdd_matrix(grid: Grid, u: np.ndarray) -> np.ndarray:
    """All second directional differences, shape ``(n_interior, n_angles)``."""
    u = np.asarray(u, dtype=float)
    uc = u[: grid.n_interior, None]
    return grid.cp * (u[grid.plus_index] - uc) + grid.cm * (u[grid.minus_index] - uc)


def _stencil_data(grid: Grid, G: np.ndarray) -> np.ndarray:
    """Entries ``concat((G*cp).ravel(), (G*cm).ravel(), diagonal)`` of the
    rows ``sum_j G[:, j] * D_j``, which ``grid.stencil_pattern`` gathers."""
    return np.concatenate([(G * grid.cp).ravel(), (G * grid.cm).ravel(),
                           -(G * (grid.cp + grid.cm)).sum(axis=1)])


def _interior_block(grid: Grid, data: np.ndarray) -> sp.csr_matrix:
    """The interior block of the stencil rows, sharing the grid's pattern."""
    ni = grid.n_interior
    pattern = grid.stencil_pattern
    return sp.csr_matrix((data[pattern.gather], pattern.indices, pattern.indptr), shape=(ni, ni))


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
    ``A``, the interior block, is assembled as the Jacobian is and returned
    as CSC without stored zeros, ready for a direct solve.  ``B`` couples
    the interior rows to the boundary values; only the Poisson start reads
    it, so it is built here from the arms that end at a boundary point.
    """
    ni = grid.n_interior
    lam = _laplacian_coefficients(grid)
    # the unused Cartesian angles leave stored zeros, which slow the
    # factorization down many times over; tocsc also copies the shared pattern
    A = _interior_block(grid, _stencil_data(grid, lam)).tocsc()
    A.eliminate_zeros()
    triplets = []
    for index, c in ((grid.plus_index, grid.cp), (grid.minus_index, grid.cm)):
        r, j = np.nonzero(index >= ni)
        triplets.append((lam[j] * c[r, j], r, index[r, j] - ni))
    data, rows, cols = map(np.concatenate, zip(*triplets))
    return A, sp.csr_matrix((data, (rows, cols)), shape=(ni, grid.n_points - ni))


def _branches(grid: Grid, u: np.ndarray, params: SchemeParams):
    """``(D, max(D, eps), S)`` at ``u``, ``S = 1/pi * sum_j w_j / max(D_j, eps)``:
    the branches that the residual and the Jacobian both read.  A rule for
    another angle set is a ValueError."""
    if len(params.quadrature) != len(grid.angles):
        raise ValueError("quadrature rule does not match the grid's angle set")
    D = sdd_matrix(grid, u)
    Dmax = np.maximum(D, params.epsilon)
    return D, Dmax, (1.0 / Dmax) @ params.quadrature.weights / np.pi


def scheme_apply(grid: Grid, u: np.ndarray, params: SchemeParams, f, g) -> np.ndarray:
    """Residual of the discrete problem at every grid point.

    Interior nodes get the operator value plus ``f``; boundary nodes get
    ``u - g``.  A root of this residual solves the discrete Dirichlet
    problem.  ``f`` and ``g`` are fields on point arrays, or their values
    at the interior and the boundary points, which a solve that calls this
    many times on one grid evaluates once.
    """
    u = np.asarray(u, dtype=float)
    D, _, S = _branches(grid, u, params)
    interior_vals = -S ** -2.0 - np.minimum(D.min(axis=1), params.epsilon)

    res = np.empty(grid.n_points)
    ni = grid.n_interior
    res[:ni] = interior_vals + _evaluate(f, grid.points[:ni])
    res[ni:] = u[ni:] - _evaluate(g, grid.points[ni:])
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
    D, Dmax, S = _branches(grid, u, params)
    G = np.where(D > eps, -(2.0 * S ** -3.0)[:, None] * (w / np.pi) / Dmax ** 2, 0.0)
    j = D.argmin(axis=1)
    active = np.flatnonzero(D[np.arange(len(j)), j] < eps)
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
    return _interior_block(grid, _stencil_data(grid, _jacobian_coefficients(grid, u, params)))
