"""Structure of the stencil matrices on random grids.

The scheme is monotone, so the interior rows of its Jacobian have
nonpositive off-diagonals and zero row sums (the interior block is an
M-matrix).  The Poisson Laplacian has the mirror-image signs.  Both are
blocks of one stencil table, filled from a table of entries in its layout: the
Jacobian on the interior pattern each grid computes once, the Laplacian on
its own blocks, whose interior one leaves out the angles of zero weight.
These properties pin those blocks against a whole-grid COO reference, pin
their sign structure on squares, rectangles and discs of random placement
and size, and check that the Krylov solve of the Newton step, which relies
on it, meets its tolerance there.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stencil_matrix_reference
from quadma import assemble_jacobian, build_grid, default_params, disc, rectangle, square
from quadma.operator import (_fill, _jacobian_coefficients, _laplacian_coefficients,
                             _laplacian_system, _stencil_data)
from quadma.solver import _solve_linear

coords = st.floats(-1.0, 1.0)
domains = st.one_of(
    st.builds(square, st.tuples(coords, coords), st.floats(0.3, 2.0)),
    st.builds(lambda ll, w, a: rectangle(ll, (w, a * w)), st.tuples(coords, coords),
              st.floats(0.3, 2.0), st.floats(0.3, 3.0)),
    st.builds(disc, st.tuples(coords, coords), st.floats(0.3, 1.5)),
)


@st.composite
def grids(draw):
    # Cartesian depths K of 4 to 8 give rows of 8 to 16 angles, where
    # numpy's row sum, which the table's diagonal takes, is pairwise and not
    # left to right; the default depth at these sizes, 2 or 3, gives 4 or 6
    backend = draw(st.sampled_from(["cartesian", "hex"]))
    K = draw(st.one_of(st.none(), st.integers(4, 8))) if backend == "cartesian" else None
    n = draw(st.integers(9 if K is None else 2 * K + 3, 20))
    return build_grid(draw(domains), backend, n, K)


def _check_rows(grid, A, B, sign):
    """Interior rows ``[A B]``: ``sign * off-diagonal <= 0`` and zero row
    sums relative to the row's largest entry."""
    ni = grid.n_interior
    assert A.shape == (ni, ni) and B.shape == (ni, grid.n_points - ni)
    rows = sp.hstack([A, B]).tocoo()
    offdiag = rows.row != rows.col
    assert np.all(sign * rows.data[offdiag] <= 0.0)
    row_sum = np.bincount(rows.row, weights=rows.data, minlength=ni)
    row_max = np.zeros(ni)
    np.maximum.at(row_max, rows.row, np.abs(rows.data))
    assert np.all(np.abs(row_sum) <= 1e-12 * row_max)


def _jacobian(grid, seed, scale):
    # a convex quadratic plus noise puts nodes on both branches of the scheme
    rng = np.random.default_rng(seed)
    u = 0.5 * (grid.points ** 2).sum(axis=1) + 10.0 ** scale * rng.standard_normal(grid.n_points)
    params = default_params(grid)
    ni = grid.n_interior
    B = stencil_matrix_reference(grid, _jacobian_coefficients(grid, u, params)).tocsr()[:ni, ni:]
    return assemble_jacobian(grid, u, params), B, rng


def _same_csr(M, ref):
    """Equal ``indptr``, ``indices`` and ``data``, the data bit for bit (CSR or CSC)."""
    return (np.array_equal(M.indptr, ref.indptr) and np.array_equal(M.indices, ref.indices)
            and M.data.tobytes() == ref.data.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(grid=grids(), seed=st.integers(0, 2 ** 32 - 1), zeros=st.floats(0.0, 1.0),
       laplacian=st.booleans())
def test_stencil_blocks_match_whole_grid_reference(grid, seed, zeros, laplacian):
    rng = np.random.default_rng(seed)
    if laplacian:
        G = _laplacian_coefficients(grid)  # one per angle; zeros on Cartesian grids
    else:
        G = -rng.exponential(size=grid.cp.shape)
        G[rng.random(G.shape) < zeros] = 0.0
    assert "stencil_pattern" not in vars(grid)
    A = _fill(grid.stencil_pattern, _stencil_data(grid, G))
    ni = grid.n_interior
    ref = stencil_matrix_reference(grid, G).tocsr()
    ref.sum_duplicates()
    assert _same_csr(A, ref[:ni, :ni])
    if laplacian:
        lap_A, lap_B = _laplacian_system(grid)
        ref_A, ref_B = ref[:ni, :ni].tocsc(), ref[:ni, ni:]
        for ref_block in (ref_A, ref_B):
            ref_block.eliminate_zeros()
        assert _same_csr(lap_A, ref_A)
        assert _same_csr(lap_B, ref_B)
    # a second assembly refills the data of the same pattern
    A2 = _fill(grid.stencil_pattern, _stencil_data(grid, 2.0 * G))
    for name in ("indptr", "indices"):
        assert np.shares_memory(getattr(A, name), getattr(A2, name))
        assert not getattr(A, name).flags.writeable
    assert np.array_equal(A2.data, 2.0 * A.data)


@pytest.mark.parametrize("backend", ["cartesian", "hex"])
def test_laplacian_is_built_without_the_newton_pattern(backend):
    grid = build_grid(disc((0.1, -0.2), 0.8), backend, 24)
    A, B = _laplacian_system(grid)
    assert "stencil_pattern" not in vars(grid)
    assert A.format == "csc" and B.format == "csr"
    assert np.all(A.data != 0.0) and np.all(B.data != 0.0)
    pattern = grid.stencil_pattern
    for array in (pattern.indptr, pattern.indices):
        assert array.dtype == np.int32
        assert not array.flags.writeable
    assert grid.stencil_pattern is pattern


@pytest.mark.parametrize("backend", ["cartesian", "hex"])
def test_pattern_build_holds_no_table_of_slots(unit_square, backend):
    # an int64 array of the stencil table's shape would lift the peak past
    # twice the pattern's own bytes
    grid = build_grid(unit_square, backend, 64)
    tracemalloc.start()
    try:
        pattern = grid.stencil_pattern
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(a.nbytes for a in (pattern.data, pattern.indices, pattern.indptr))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=grids(), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-4.0, 1.0))
def test_jacobian_is_z_matrix_with_zero_row_sums(grid, seed, scale):
    A, B, _ = _jacobian(grid, seed, scale)
    _check_rows(grid, A, B, sign=1.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=grids(), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-4.0, 1.0))
def test_krylov_step_meets_its_tolerance(grid, seed, scale):
    A, _, rng = _jacobian(grid, seed, scale)
    b = rng.standard_normal(grid.n_interior)
    y, _, failure = _solve_linear(A, b, 1e-8)
    assert failure == ""
    assert np.linalg.norm(A @ y - b) <= 1e-7 * np.linalg.norm(b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=grids())
def test_laplacian_has_mirrored_signs_and_zero_row_sums(grid):
    _check_rows(grid, *_laplacian_system(grid), sign=-1.0)
