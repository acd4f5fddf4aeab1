"""Sign structure of the stencil matrices on random grids.

The scheme is monotone, so its Jacobian has nonpositive off-diagonals and
zero row sums at interior nodes (a Z-matrix, an M-matrix once the identity
rows of the boundary points are added).  The Poisson Laplacian has the
mirror-image signs.  Both are built by one stencil core; these properties
pin its structure on squares and discs of random placement and size, and
check that the Krylov solve of the Newton step, which relies on it, meets
its tolerance there.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadma import assemble_jacobian, build_grid, default_params, disc, square
from quadma.solver import _laplacian_system, _solve_linear

coords = st.floats(-1.0, 1.0)
domains = st.one_of(
    st.builds(square, st.tuples(coords, coords), st.floats(0.3, 2.0)),
    st.builds(disc, st.tuples(coords, coords), st.floats(0.3, 1.5)),
)


@st.composite
def grids(draw):
    backend = draw(st.sampled_from(["cartesian", "hex"]))
    n = draw(st.integers(9, 20))
    return build_grid(draw(domains), backend, n)


def _check_rows(grid, A, sign):
    """Interior rows: ``sign * off-diagonal <= 0`` and zero row sums relative
    to the row's largest entry; boundary rows: identity."""
    A = A.tocoo()
    ni = grid.n_interior
    interior = A.row < ni
    offdiag = interior & (A.row != A.col)
    assert np.all(sign * A.data[offdiag] <= 0.0)
    row_sum = np.bincount(A.row[interior], weights=A.data[interior], minlength=ni)
    row_max = np.zeros(ni)
    np.maximum.at(row_max, A.row[interior], np.abs(A.data[interior]))
    assert np.all(np.abs(row_sum) <= 1e-12 * row_max)

    boundary = ~interior & (A.data != 0.0)
    assert np.array_equal(A.row[boundary], A.col[boundary])
    assert np.array_equal(np.sort(A.row[boundary]), np.arange(ni, grid.n_points))
    assert np.all(A.data[boundary] == 1.0)


def _jacobian(grid, seed, scale):
    # a convex quadratic plus noise puts nodes on both branches of the scheme
    rng = np.random.default_rng(seed)
    u = 0.5 * (grid.points ** 2).sum(axis=1) + 10.0 ** scale * rng.standard_normal(grid.n_points)
    return assemble_jacobian(grid, u, default_params(grid)), rng


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=grids(), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-4.0, 1.0))
def test_jacobian_is_z_matrix_with_zero_row_sums(grid, seed, scale):
    J, _ = _jacobian(grid, seed, scale)
    _check_rows(grid, J, sign=1.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=grids(), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-4.0, 1.0))
def test_krylov_step_meets_its_tolerance(grid, seed, scale):
    J, rng = _jacobian(grid, seed, scale)
    rhs = rng.standard_normal(grid.n_points)
    ni = grid.n_interior
    y, path, _ = _solve_linear(J, rhs, ni, 1e-8)
    if path == "bicgstab":
        b = rhs[:ni] - J[:ni, ni:] @ rhs[ni:]
        assert np.linalg.norm((J @ y - rhs)[:ni]) <= 1e-7 * np.linalg.norm(b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=grids())
def test_laplacian_has_mirrored_signs_and_zero_row_sums(grid):
    _check_rows(grid, _laplacian_system(grid), sign=-1.0)
